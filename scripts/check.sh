#!/usr/bin/env bash
# check.sh — the one-command tier-1 + static-analysis gate.
#
# Configures an ASan+UBSan build, builds everything, gates src/ on the
# S-family source rules against the checked-in baseline (new concurrency/
# hot-path/syscall findings fail; accepted ones live in
# scripts/lint_baseline.txt with a reason), runs the full test suite under
# the sanitizers, smoke-runs every bench binary (so the figure/table
# generators cannot silently rot; calibration_check runs its paper-cell
# gate) and compares the calibration and topology artifacts they
# regenerate, at the default pool size and at --jobs=1, with the
# checked-in ones byte for byte (interval predictions unchanged, and
# independent of the pool size), runs rvhpc-lint in --werror mode
# over the registry, the signature suite, every example .machine file and
# every bench/example C++ source (B001: no predict sweeps bypassing the
# engine, plus the S-family), replays the checked-in serve fixture cold
# and warm through rvhpc-serve (bit-identical outputs, >= 90% warm cache
# hits) plus the rvhpc-serve --gate, serves the same fixture over loopback
# TCP with --shards=2 to two concurrent rvhpc-clients (merged responses
# byte-identical to the stdio replay, graceful SIGTERM drain, one labeled
# metric series per event in its exit dump), serves it
# again over HTTP/1.1 (curl batch POST + rvhpc-client --http, /metrics and
# /healthz probed, graceful drain) and through a live stdio session with
# two workers and checkpoints (sorted responses byte-identical to the
# replay; id-less responses byte-identical unsorted), checks that a stdout
# reader that leaves early ends the stdio session with a drain and a
# checkpoint instead of killing the server, then re-runs the threaded
# tests under TSan to catch data races in the thread pool and the net
# event loop.  Exits non-zero on the first failure.
#
# Usage: scripts/check.sh [build-dir]   (default: build-check)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"$repo_root/build-check"}"

generator=()
if command -v ninja > /dev/null 2>&1; then
  generator=(-G Ninja)
fi

echo "== configure (ASan+UBSan) -> $build_dir"
cmake -B "$build_dir" -S "$repo_root" "${generator[@]}" \
  -DRVHPC_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null

echo "== build"
cmake --build "$build_dir" -j

echo "== rvhpc-lint --sources src --werror (baselined: new findings fail)"
"$build_dir/src/analysis/rvhpc-lint" --werror \
  --sources "$repo_root/src" --baseline "$repo_root/scripts/lint_baseline.txt"

echo "== ctest (sanitized)"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

echo "== bench smoke-runs (every figure/table generator must still run)"
found_bench=0
for exe in "$build_dir"/bench/*; do
  [ -f "$exe" ] && [ -x "$exe" ] || continue
  case "$(basename "$exe")" in
    *.cmake|CMakeFiles) continue ;;
    micro_benchmarks)
      args=(--benchmark_filter=PredictSingleCall --benchmark_min_time=0.01) ;;
    obs_overhead|engine_throughput)
      args=(--gate) ;;
    calibration_check)
      # The paper-cell gate: mean error <= 8.6%, no new cell beyond ±25%.
      # Model arithmetic only, so it must pass here under the sanitizers.
      args=(--gate) ;;
    backend_calibration)
      # The analytic-vs-interval agreement gate: model arithmetic only, no
      # wall-clock assertions, so it must pass on single-CPU runners.  The
      # JSON artifact goes to the build dir — the checked-in
      # BENCH_calibration.json is regenerated deliberately, not on every CI
      # run.
      args=(--gate "--out=$build_dir/BENCH_calibration.smoke.json") ;;
    serve_throughput)
      # Front-end ordering gate (always enforced); the 1.5x speedup bar
      # self-skips on sanitized builds and < 4 hardware threads, like
      # engine_throughput.  The checked-in BENCH_serve.json is regenerated
      # deliberately, not on every CI run.
      args=(--gate "--out=$build_dir/BENCH_serve.smoke.json") ;;
    http_throughput)
      # HTTP framing gate: correctness always, the 1.25x overhead bar
      # self-skips on sanitized builds and single-thread hosts.
      args=(--gate "--out=$build_dir/BENCH_serve.http.smoke.json") ;;
    topo_scaling)
      # Topology gate: backend bottleneck agreement + the two literature
      # scaling shapes.  Pure model arithmetic, single-CPU safe.  The
      # checked-in BENCH_topo.json is regenerated deliberately, not on
      # every CI run.
      args=(--gate "--out=$build_dir/BENCH_topo.smoke.json") ;;
    *)
      args=() ;;
  esac
  found_bench=1
  echo "-- $(basename "$exe")"
  "$exe" "${args[@]}" > /dev/null
done
if [ "$found_bench" -eq 0 ]; then
  echo "error: no bench binaries found under $build_dir/bench/" >&2
  exit 1
fi

echo "== interval predictions unchanged: smoke JSON == checked-in JSON"
# Both artifacts are deterministic (fixed seeds, fixed-precision numbers,
# no timestamps), so a change to the interval backend or to memsim that
# moves any prediction by one printed digit fails here.
cmp "$build_dir/BENCH_calibration.smoke.json" "$repo_root/BENCH_calibration.json"
cmp "$build_dir/BENCH_topo.smoke.json" "$repo_root/BENCH_topo.json"

echo "== paper artifacts do not depend on the pool size: --jobs=1 == checked-in JSON"
# The same two artifacts from one thread: engine::parallel_for's serial
# path over 600 and 125 interval points must reproduce them byte for byte.
"$build_dir/bench/backend_calibration" --jobs=1 \
  "--out=$build_dir/BENCH_calibration.jobs1.json" > /dev/null
"$build_dir/bench/topo_scaling" --jobs=1 \
  "--out=$build_dir/BENCH_topo.jobs1.json" > /dev/null
cmp "$build_dir/BENCH_calibration.jobs1.json" "$repo_root/BENCH_calibration.json"
cmp "$build_dir/BENCH_topo.jobs1.json" "$repo_root/BENCH_topo.json"

echo "== rvhpc-lint --werror: registry + signature suite"
"$build_dir/src/analysis/rvhpc-lint" --werror

echo "== rvhpc-lint --werror: examples/machines/"
found=0
for f in "$repo_root"/examples/machines/*.machine; do
  [ -e "$f" ] || continue
  found=1
  echo "-- $f"
  "$build_dir/src/analysis/rvhpc-lint" --werror "$f"
done
if [ "$found" -eq 0 ]; then
  echo "error: no .machine files found under examples/machines/" >&2
  exit 1
fi

echo "== rvhpc-lint --werror: bench/ and examples/ sources (B001 + S-family)"
"$build_dir/src/analysis/rvhpc-lint" --werror \
  "$repo_root"/bench/*.cpp "$repo_root"/examples/*.cpp

echo "== rvhpc-serve: cold+warm replay (bit-identical, >= 90% warm hits)"
serve="$build_dir/src/serve/rvhpc-serve"
fixture="$repo_root/tests/data/serve_replay20.jsonl"
serve_tmp="$(mktemp -d)"
trap 'rm -rf "$serve_tmp"' EXIT
"$serve" --replay="$fixture" --cache-file="$serve_tmp/replay.cache" \
  --out="$serve_tmp/cold.jsonl" 2> "$serve_tmp/cold.log"
"$serve" --replay="$fixture" --cache-file="$serve_tmp/replay.cache" \
  --out="$serve_tmp/warm.jsonl" 2> "$serve_tmp/warm.log"
cmp "$serve_tmp/cold.jsonl" "$serve_tmp/warm.jsonl"
hit_rate="$(sed -n 's/.*cache-hit-rate: \([0-9.]*\)%.*/\1/p' \
  "$serve_tmp/warm.log")"
if [ -z "$hit_rate" ] ||
   ! awk -v r="$hit_rate" 'BEGIN { exit !(r >= 90.0) }'; then
  echo "error: warm replay cache-hit-rate '${hit_rate:-?}' is below 90%" >&2
  exit 1
fi
echo "-- warm replay bit-identical to cold, cache-hit-rate ${hit_rate}%"

echo "== rvhpc-serve --gate"
(cd "$serve_tmp" && "$serve" --gate)

echo "== rvhpc-serve --listen=tcp: concurrent clients match the stdio replay"
# The transport gate: serve the fixture over loopback TCP — on two event
# loop shards — to two clients running at once, SIGTERM the server, and
# require (a) the merged per-id responses byte-identical to the stdio
# replay output and (b) a graceful drain.  The fixture's requests carry
# ids, so responses may legally complete out of order across the two
# shards — the sort before cmp keeps the comparison order-insensitive,
# and each client exits non-zero unless every id it sent came back.  Two
# clients interleave regardless of core count, so this passes on
# single-CPU runners — no wall-clock assertions.
client="$build_dir/src/net/rvhpc-client"
awk 'NR % 2 == 1' "$fixture" > "$serve_tmp/half_a.jsonl"
awk 'NR % 2 == 0' "$fixture" > "$serve_tmp/half_b.jsonl"
"$serve" --listen=tcp:0 --shards=2 --no-live-fields \
  --cache-file="$serve_tmp/tcp.cache" --metrics="$serve_tmp/tcp.prom" \
  2> "$serve_tmp/net.log" &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$serve_tmp/net.log")"
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "error: rvhpc-serve never reported its TCP port" >&2
  kill "$serve_pid" 2> /dev/null || true
  exit 1
fi
"$client" --connect="127.0.0.1:$port" --in="$serve_tmp/half_a.jsonl" \
  --out="$serve_tmp/out_a.jsonl" 2> /dev/null &
client_a=$!
"$client" --connect="127.0.0.1:$port" --in="$serve_tmp/half_b.jsonl" \
  --out="$serve_tmp/out_b.jsonl" 2> /dev/null &
client_b=$!
wait "$client_a" "$client_b"
kill -TERM "$serve_pid"
wait "$serve_pid"  # the drain must be graceful: exit 0, not a crash
cat "$serve_tmp/out_a.jsonl" "$serve_tmp/out_b.jsonl" | LC_ALL=C sort \
  > "$serve_tmp/tcp_merged.jsonl"
LC_ALL=C sort "$serve_tmp/cold.jsonl" > "$serve_tmp/stdio_sorted.jsonl"
cmp "$serve_tmp/tcp_merged.jsonl" "$serve_tmp/stdio_sorted.jsonl"
grep -q "net: drained" "$serve_tmp/net.log"
echo "-- $(wc -l < "$serve_tmp/tcp_merged.jsonl") responses over TCP," \
  "byte-identical to the stdio replay; drain was graceful"
# One labeled series per event in the exit dump: no legacy per-cause or
# per-shard names, both clients' closes counted as eof and nothing else,
# and the per-shard answers summing to the drain line's count.
prom="$serve_tmp/tcp.prom"
if grep -q -e '^rvhpc_net_disconnects_' -e '^rvhpc_net_shard_' "$prom"; then
  echo "error: legacy rvhpc_net_disconnects_/rvhpc_net_shard_ series" >&2
  exit 1
fi
grep -qx 'rvhpc_net_disconnect_total{reason="eof"} 2' "$prom"
if grep '^rvhpc_net_disconnect_total{' "$prom" \
     | grep -v 'reason="eof"' | awk '$2 != 0' | grep -q .; then
  echo "error: a non-eof disconnect in the TCP gate:" >&2
  grep '^rvhpc_net_disconnect_total{' "$prom" >&2
  exit 1
fi
answered="$(sed -n 's/.*net: drained — [0-9]* connection(s), \([0-9]*\) request(s) answered.*/\1/p' \
  "$serve_tmp/net.log")"
by_shard="$(awk '/^rvhpc_net_requests_total\{shard="/ { n += $2 } END { print n + 0 }' \
  "$prom")"
if [ -z "$answered" ] || [ "$answered" != "$by_shard" ]; then
  echo "error: rvhpc_net_requests_total{shard} sums to $by_shard," \
    "the drain line says ${answered:-?}" >&2
  exit 1
fi
echo "-- metrics: 2 eof disconnects, no other cause, $by_shard answers" \
  "across the shard series"

echo "== rvhpc-serve --http: curl-able predictions match the stdio replay"
# The HTTP front-end gate: serve the same fixture over HTTP/1.1 — a
# curl batch POST streamed back chunked, plus rvhpc-client --http — and
# require the sorted responses byte-identical to the stdio replay, the
# per-route request counter on /metrics, a drain-aware /healthz and a
# graceful SIGTERM drain.  curl is optional (rvhpc-client --http always
# runs); ids make the sort order-insensitive exactly like the TCP gate.
"$serve" --http=tcp:0 --shards=2 --no-live-fields \
  --cache-file="$serve_tmp/http.cache" 2> "$serve_tmp/http.log" &
http_pid=$!
hport=""
for _ in $(seq 1 100); do
  hport="$(sed -n 's/.*http: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$serve_tmp/http.log")"
  [ -n "$hport" ] && break
  sleep 0.1
done
if [ -z "$hport" ]; then
  echo "error: rvhpc-serve never reported its HTTP port" >&2
  kill "$http_pid" 2> /dev/null || true
  exit 1
fi
if command -v curl > /dev/null 2>&1; then
  # --data-binary, not -d: -d strips the newlines that delimit the batch.
  curl -sS --data-binary "@$fixture" "http://127.0.0.1:$hport/v1/predict" \
    | LC_ALL=C sort > "$serve_tmp/http_curl.jsonl"
  cmp "$serve_tmp/http_curl.jsonl" "$serve_tmp/stdio_sorted.jsonl"
  curl -sS "http://127.0.0.1:$hport/healthz" | grep -q '"serving"'
  curl -sS "http://127.0.0.1:$hport/metrics" \
    | grep -q 'rvhpc_http_requests_total{route="/v1/predict",status="200"}'
  echo "-- curl batch POST byte-identical to the stdio replay;" \
    "/metrics and /healthz answer"
else
  echo "-- curl not found; relying on rvhpc-client --http"
fi
"$client" --http --connect="127.0.0.1:$hport" --in="$fixture" \
  --out="$serve_tmp/http_client.jsonl" 2> /dev/null
LC_ALL=C sort "$serve_tmp/http_client.jsonl" \
  > "$serve_tmp/http_client_sorted.jsonl"
cmp "$serve_tmp/http_client_sorted.jsonl" "$serve_tmp/stdio_sorted.jsonl"
kill -TERM "$http_pid"
wait "$http_pid"  # the drain must be graceful: exit 0, not a crash
grep -q "net: drained" "$serve_tmp/http.log"
echo "-- rvhpc-client --http byte-identical to the stdio replay;" \
  "drain was graceful"

echo "== rvhpc-serve --listen=stdio: the live session matches the stdio replay"
# Every stdio comparison above goes through --replay; this one pipes the
# fixture through a live stdio session, one more connection on the shard
# core.  The fixture's requests carry ids, so with two workers an answer
# may overtake an earlier one (hence the sort), and a checkpoint every 5
# evaluations runs on the flusher thread while the shard writes answers.
"$serve" --no-live-fields --jobs=2 --checkpoint-every=5 \
  --cache-file="$serve_tmp/stdio.cache" < "$fixture" \
  > "$serve_tmp/stdio_live.jsonl" 2> "$serve_tmp/stdio_live.log"
LC_ALL=C sort "$serve_tmp/stdio_live.jsonl" \
  > "$serve_tmp/stdio_live_sorted.jsonl"
cmp "$serve_tmp/stdio_live_sorted.jsonl" "$serve_tmp/stdio_sorted.jsonl"
grep -q "serve: checkpointed" "$serve_tmp/stdio_live.log"
grep -q "serve: drained" "$serve_tmp/stdio_live.log"
echo "-- $(wc -l < "$serve_tmp/stdio_live_sorted.jsonl") live stdio" \
  "responses byte-identical to the replay; drain was graceful"

echo "== rvhpc-serve --listen=stdio: id-less answers come back in request order"
# Without ids a client cannot match answers, so the session must answer
# in request order: the same fixture with its ids stripped, through two
# workers, is compared with its replay unsorted.
sed 's/"id": "[^"]*", //' "$fixture" > "$serve_tmp/idless.jsonl"
"$serve" --replay="$serve_tmp/idless.jsonl" \
  --out="$serve_tmp/idless_replay.jsonl" 2> /dev/null
"$serve" --no-live-fields --jobs=2 < "$serve_tmp/idless.jsonl" \
  > "$serve_tmp/idless_live.jsonl" 2> "$serve_tmp/idless_live.log"
cmp "$serve_tmp/idless_live.jsonl" "$serve_tmp/idless_replay.jsonl"
echo "-- $(wc -l < "$serve_tmp/idless_live.jsonl") id-less live stdio" \
  "responses in request order, byte-identical to the replay"

echo "== rvhpc-serve --listen=stdio: a reader that leaves early ends the session"
# `head -1` exits after the first answer, so a later write fails with
# EPIPE: the session must end as an error disconnect and the server drain
# and checkpoint (exit 0, cache file written), not die of SIGPIPE.  The
# answers to 100 copies of the fixture overflow the pipe many times over.
for _ in $(seq 1 100); do cat "$fixture"; done > "$serve_tmp/many.jsonl"
pipe_status=0
"$serve" --no-live-fields --cache-file="$serve_tmp/pipe.cache" \
  < "$serve_tmp/many.jsonl" 2> "$serve_tmp/pipe.log" | head -1 > /dev/null \
  || pipe_status=$?
if [ "$pipe_status" -ne 0 ] || [ ! -s "$serve_tmp/pipe.cache" ]; then
  echo "error: rvhpc-serve | head -1 exited $pipe_status or wrote no cache file" >&2
  exit 1
fi
grep -q "1 error, 0 drained" "$serve_tmp/pipe.log"
echo "-- exit 0, cache file written, the session ended as an error disconnect"

echo "== configure (TSan) -> $build_dir-tsan"
# TSan cannot combine with ASan, so the thread pool's owners get their own
# build; the engine, obs and serve tests run there — they own all the
# threading in the library.
cmake -B "$build_dir-tsan" -S "$repo_root" "${generator[@]}" \
  -DRVHPC_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
# test_analysis rides along: its source-rule fixtures (S002 flag races,
# S003 lock inversions) describe exactly the bugs TSan hunts, and the
# self-scan keeps the baseline honest under a second compiler config.
# test_sim exercises two concurrent memsim consumers (interval backend +
# stall profiler), which only TSan can vouch for.
# test_topo starts no threads of its own; it stays so the topology
# overlay, interval backend included, keeps running under a second
# instrumented build.
cmake --build "$build_dir-tsan" -j \
  --target test_engine test_obs test_serve test_net test_http test_analysis \
  test_sim test_topo
echo "== TSan: test_engine + test_obs + test_serve + test_net + test_http" \
  "+ test_analysis + test_sim + test_topo"
"$build_dir-tsan/tests/test_engine"
"$build_dir-tsan/tests/test_obs"
"$build_dir-tsan/tests/test_serve"
"$build_dir-tsan/tests/test_net"
"$build_dir-tsan/tests/test_http"
"$build_dir-tsan/tests/test_analysis"
"$build_dir-tsan/tests/test_sim"
"$build_dir-tsan/tests/test_topo"

echo "== all gates green"
