// perfbench_trace — the traced run of one workload: the per-layer ledger.
//
//   perfbench_trace --workload W --seed N --seconds S --server PATH --work-dir D
//
// 1. Untraced: the workload's server answers the batch phase of the
//    seeded stream, which gives server CPU per request (every answer is
//    checked, as in the timed run).
// 2. Traced: the first requests of the same stream are replayed here,
//    single-threaded and in-process, through a serve::Service shaped like
//    the server (one pool worker, the same restored cache, metrics on).
//    A span is recorded around every public call of a layer, from the
//    benchmark's own code: the calls the server makes (Service::admit,
//    ::cached, ::complete, the HTTP parser, the pool handoff) and, as
//    their logical children, the layer calls those make inside
//    (obs::json::parse, arch::machine / arch::from_text, the lint,
//    the memo key, the cache probe and put, the backend predict), each
//    run again on the same inputs.  A layer call the workload's path does
//    not make is still timed on the workload's inputs, marked off-path:
//    it is reported, but left out of the self-time sum.
// 3. Derived: each layer's self-time (a span minus its children), the
//    per-layer metrics, the residual of server CPU per request that no
//    public call covers (net: shards, sockets, wire), and the cost of an
//    empty span, which is subtracted so tracing is not counted as layer
//    cost.  The spans are written as Chrome trace_event JSON, which
//    Perfetto loads.
//
// Global operator new is replaced in this binary (alloc_hook.cpp) so every
// span also counts its heap allocations and bytes.

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "alloc_hook.hpp"
#include "analysis/engine.hpp"
#include "arch/serialize.hpp"
#include "arch/validate.hpp"
#include "check.hpp"
#include "engine/cache.hpp"
#include "engine/thread_pool.hpp"
#include "harness.hpp"
#include "host.hpp"
#include "http/parser.hpp"
#include "minijson.hpp"
#include "model/predictor.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/persist.hpp"
#include "serve/service.hpp"
#include "sim/interval.hpp"

using namespace perfbench;
using namespace rvhpc;

namespace {

/// Whole rounds replayed under tracing, so the replay holds the stream's
/// mix of work and the exact counts (allocations, accesses, evictions)
/// repeat run to run for a seed.
std::size_t replay_rounds(Workload w) {
  switch (w) {
    case Workload::HotHttp: return 16;          // 3,984 requests
    case Workload::IntervalMissTcp: return 1;   // 936
    case Workload::InlineStdio: return 158;     // 3,002
  }
  return 0;
}
/// Off-path interval simulations per run (they take milliseconds each).
constexpr std::size_t kSimProbes = 8;
/// Share of --seconds given to the untraced server measurement.
constexpr double kServerShare = 0.5;

struct Span {
  const char* name = "";
  int parent = -1;        ///< logical parent span, -1 for a request root
  std::uint64_t req = 0;  ///< stream position of the request
  int tid = 1;            ///< 1: replay thread, 2: pool worker
  bool on_path = true;    ///< the server's path for this workload calls it
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  double cpu = -1.0;  ///< thread CPU seconds inside, where asked for
};

/// In-memory span store; written out once, at the end.
class Tracer {
 public:
  /// `cpu`: also take the calling thread's CPU time (a system call each
  /// end, kept outside the wall-clock edges).
  int begin(const char* name, int parent, std::uint64_t req, bool on_path, int tid = 1,
            bool cpu = false) {
    const AllocTotals a = alloc_totals();
    spans_.push_back(Span{name, parent, req, tid, on_path, 0.0, 0.0, a.count, a.bytes,
                          cpu ? thread_cpu_s() : -1.0});
    spans_.back().t0 = now_s();
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int span) {
    const double t = now_s();
    const AllocTotals a = alloc_totals();
    Span& s = spans_[static_cast<std::size_t>(span)];
    s.t1 = t;
    s.allocs = a.count - s.allocs;
    s.bytes = a.bytes - s.bytes;
    if (s.cpu >= 0.0) s.cpu = thread_cpu_s() - s.cpu;
  }
  /// A span whose edges were taken elsewhere (the pool handoff).
  int record(const char* name, int parent, std::uint64_t req, bool on_path, double t0,
             double t1) {
    spans_.push_back(Span{name, parent, req, 1, on_path, t0, t1, 0, 0});
    return static_cast<int>(spans_.size() - 1);
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
};

/// Median cost of a span around nothing, in seconds: wall-clock, and CPU
/// for a span that takes CPU time.
struct EmptySpan {
  double wall = 0.0;
  double cpu = 0.0;
};
EmptySpan empty_span_cost() {
  Tracer t;
  constexpr int kN = 20000;
  t.reserve(kN);
  for (int i = 0; i < kN; ++i) t.end(t.begin("empty", -1, 0, false, 1, i % 2 == 1));
  std::vector<double> wall, cpu;
  for (const Span& s : t.spans()) {
    (s.cpu < 0.0 ? wall : cpu).push_back(s.cpu < 0.0 ? s.t1 - s.t0 : s.cpu);
  }
  return {percentile(wall, 0.5), percentile(cpu, 0.5)};
}

/// Layer of a span name: the text before its first '.'.
std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

void write_trace(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<Metric>& metrics, double empty_cost) {
  std::ofstream os(path);
  const double base = spans.empty() ? 0.0 : spans.front().t0;
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"
     << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
        "\"args\": {\"name\": \"replay\"}},\n"
     << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 2, "
        "\"args\": {\"name\": \"pool worker\"}}";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                  "\"parent\": %d, \"req\": %llu, \"on_path\": %s, \"allocs\": %llu, "
                  "\"bytes\": %llu}}",
                  s.name, layer_of(s.name).c_str(), s.tid, (s.t0 - base) * 1e6,
                  (s.t1 - s.t0) * 1e6, i, s.parent, static_cast<unsigned long long>(s.req),
                  s.on_path ? "true" : "false", static_cast<unsigned long long>(s.allocs),
                  static_cast<unsigned long long>(s.bytes));
    os << buf;
  }
  // otherData holds strings only, as the trace format defines it.
  os << "\n], \"otherData\": {\"empty_span_ns\": \"" << empty_cost * 1e9 << "\"";
  for (const Metric& m : metrics) {
    os << ", " << minijson::quote(m.name) << ": "
       << minijson::quote(std::to_string(m.value) + " " + m.unit);
  }
  os << "}}\n";
}

int run(const Args& a) {
  const std::string fingerprint = host_fingerprint();
  const std::string prepared = prepared_cache(a);
  RunDir dir(a);
  obs::set_metrics_enabled(true);  // as rvhpc-serve always runs

  // --- 1. untraced server measurement ------------------------------------
  const CpuJiffies cpu_from = read_cpu_jiffies();
  Stream served(a.workload, a.seed);
  LiveServer server = start_server(a, dir);
  const pid_t pid = server.proc->pid();
  const BatchShape shape = batch_shape(a.workload);
  std::vector<Channel> many = open_channels(a, server, shape.channels);
  std::vector<double> cpu_marks;
  Checker checker(served);
  PhaseResult batch = batch_phase(
      served, many, shape.window, a.seconds * kServerShare,
      [&] { cpu_marks.push_back(process_cpu_s(pid)); },
      checking_sink(checker, a.workload));
  if (a.workload != Workload::InlineStdio) {
    for (Channel& c : many) close_channel(c);
  }
  const ServerReport report = stop_server(server, dir);
  const CpuJiffies cpu_to = read_cpu_jiffies();
  if (!batch.error.empty() || batch.answered == 0 || cpu_marks.size() != 2) {
    std::fprintf(stderr, "perfbench_trace: server run broke off: %s\n", batch.error.c_str());
    return 1;
  }
  const double server_cpu_us =
      (cpu_marks[1] - cpu_marks[0]) * 1e6 / static_cast<double>(batch.answered);
  checker.check_kept(3);

  // --- 2. traced in-process replay of the same stream --------------------
  const EmptySpan empty = empty_span_cost();
  const double empty_cost = empty.wall;
  Stream stream(a.workload, a.seed);
  const std::size_t n = replay_rounds(a.workload) * stream.round_size();
  std::vector<Request> requests;
  for (std::size_t i = 0; i < n; ++i) {
    const std::optional<Request> r = stream.next();
    if (!r) break;
    requests.push_back(*r);
  }

  const std::string svc_cache = dir.path("replay-cache.bin");
  const std::string bench_cache_file = dir.path("bench-cache.bin");
  std::filesystem::copy_file(prepared, svc_cache);
  std::filesystem::copy_file(prepared, bench_cache_file);
  serve::Service::Options opts;
  opts.jobs = 1;
  opts.cache_file = svc_cache;
  serve::Service svc(opts);
  std::ostringstream svc_log;
  const std::size_t restored = svc.start(svc_log);
  // A cold twin answers off-path misses on workloads whose path never
  // misses (hot-http).
  serve::Service cold(serve::Service::Options{});
  engine::ThreadPool pool(1);

  Checker replay_checker(stream);
  Tracer t;
  t.reserve(requests.size() * 20 + 1);
  // The layer's own cache, restored from the same file: the decomposed
  // probe and put run against the same contents the Service holds.
  engine::PredictionCache bench_cache;
  const int restore_span = t.begin("serve.cache_restore", -1, 0, true);
  const serve::LoadResult loaded = serve::load_cache(bench_cache_file, bench_cache);
  t.end(restore_span);

  std::map<arch::MachineId, std::string> registry_text;
  const Workload w = a.workload;
  const bool net_path = w != Workload::InlineStdio;
  http::RequestParser parser;
  std::set<std::uint32_t> cold_seen;
  std::size_t sim_probes = 0;
  std::size_t on_path_done = 0;
  std::size_t on_path_hits = 0;
  std::uint64_t accesses = 0;
  std::size_t sim_calls = 0;
  const std::uint64_t evictions_before = svc.cache().evictions();
  std::vector<double> on_path_cpu_s;  // per request: CPU of its on-path calls
  double get_hit_s = 0.0;         // engine.get time on hits only
  std::size_t get_hits = 0;

  // Pass 1: the calls the server makes, back to back per request as it
  // makes them, so their caches are as warm as the server's.
  struct OnPath {
    serve::Service::Admission adm;
    int root = -1;
    int admit = -1;
    int cached = -1;  ///< net front ends only
    int complete = -1;
    bool hit = false;
  };
  std::vector<OnPath> path(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    OnPath& op = path[i];
    const std::string line = stream.line(r);
    const std::string wire = http_post(line);
    const std::uint64_t req = r.seq;
    op.root = t.begin("request", -1, req, true);
    std::vector<int> top;  // the on-path calls, each timed in CPU too

    if (w == Workload::HotHttp) {
      // http: one keep-alive POST framed from the read buffer, then reset
      // for the next pipelined request.
      const int s = t.begin("http.parse", op.root, req, true, 1, true);
      (void)parser.feed(wire);
      const std::string& body = parser.body();
      const bool framed = parser.complete() && body.size() == line.size() + 1 &&
                          body.compare(0, line.size(), line) == 0;
      parser.reset();
      t.end(s);
      top.push_back(s);
      if (!framed) throw std::runtime_error("HTTP parser did not frame request " + std::to_string(req));
    }

    op.admit = t.begin("serve.admit", op.root, req, true, 1, true);
    op.adm = svc.admit(line);
    t.end(op.admit);
    top.push_back(op.admit);
    if (!op.adm.request) throw std::runtime_error("admission rejected: " + op.adm.response);

    // The shard's warm-path probe (net front ends only; stdio dispatches
    // every line to the pool).
    op.hit = r.expect_hit;
    if (net_path) {
      op.cached = t.begin("serve.cached", op.root, req, true, 1, true);
      op.hit = svc.cached(*op.adm.request);
      t.end(op.cached);
      top.push_back(op.cached);
    }

    const char* complete_name = op.hit ? "serve.complete_hit" : "serve.complete_miss";
    std::string response;
    if (!net_path || !op.hit) {
      // On the pool worker, after a handoff.  The handoff is a wait, not
      // CPU work, so it stays out of the sum compared with server CPU.
      const double submitted = now_s();
      double started = 0.0;
      pool.submit_future([&] {
            started = now_s();
            op.complete = t.begin(complete_name, op.root, req, true, 2, true);
            response = svc.complete(*op.adm.request, op.adm.arrival_us);
            t.end(op.complete);
          })
          .get();
      t.record("engine.pool_handoff", op.root, req, true, submitted, started);
    } else {
      op.complete = t.begin(complete_name, op.root, req, true, 1, true);
      response = svc.complete(*op.adm.request, op.adm.arrival_us);
      t.end(op.complete);
    }
    top.push_back(op.complete);
    t.end(op.root);
    (void)replay_checker.check(r, response);
    ++on_path_done;
    if (response.find("\"cache\": \"hit\"") != std::string::npos) ++on_path_hits;
    double cpu = 0.0;
    for (int k : top) cpu += t.spans()[static_cast<std::size_t>(k)].cpu - empty.cpu;
    on_path_cpu_s.push_back(cpu);
  }
  const std::uint64_t evictions = svc.cache().evictions() - evictions_before;

  // Pass 2: the layer calls inside those, timed one by one on the same
  // inputs and linked to their pass-1 parents, plus the off-path probes.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    const OnPath& op = path[i];
    const Spec& spec = stream.spec(r.spec);
    const std::string line = stream.line(r);
    const std::string text = spec.inline_machine ? machine_text(*spec.inline_machine) : "";
    if (!spec.inline_machine && !registry_text.count(spec.machine)) {
      registry_text[spec.machine] = arch::to_text(arch::machine(spec.machine));
    }
    const std::uint64_t req = r.seq;
    const bool hit = op.hit;
    const int root = t.begin("decompose", -1, req, false);

    int s = -1;
    if (w != Workload::HotHttp) {
      const std::string wire = http_post(line);
      s = t.begin("http.parse", op.root, req, false);
      (void)parser.feed(wire);
      parser.reset();
      t.end(s);
    } else {
      // hot-http never hands off; time the handoff of an empty task.
      const double submitted = now_s();
      double started = 0.0;
      pool.submit_future([&] { started = now_s(); }).get();
      t.record("engine.pool_handoff", op.root, req, false, submitted, started);
    }
    // Off-path completions of the other kind, on the same request.
    if (w == Workload::IntervalMissTcp) {
      s = t.begin("serve.complete_hit", op.root, req, false);
      (void)svc.complete(*op.adm.request, op.adm.arrival_us);  // resident now
      t.end(s);
    } else if (w == Workload::HotHttp && cold_seen.insert(r.spec).second) {
      const serve::Service::Admission cadm = cold.admit(line);
      s = t.begin("serve.complete_miss", op.root, req, false);
      (void)cold.complete(*cadm.request, cadm.arrival_us);
      t.end(s);
    }

    s = t.begin("obs.json_parse", op.admit, req, true);
    { const obs::json::Value doc = obs::json::parse(line); }
    t.end(s);

    arch::MachineModel m;
    s = t.begin("arch.resolve", op.admit, req, !spec.inline_machine);
    {
      arch::MachineModel copy = arch::machine(arch::name_of(spec.machine));
      if (!spec.inline_machine) m = std::move(copy);
    }
    t.end(s);
    s = t.begin("arch.from_text", op.admit, req, spec.inline_machine.has_value());
    {
      arch::MachineModel parsed =
          arch::from_text(spec.inline_machine ? text : registry_text[spec.machine]);
      if (!arch::validate(parsed).empty()) throw std::runtime_error("validate rejected");
      if (spec.inline_machine) m = std::move(parsed);
    }
    t.end(s);
    s = t.begin("analysis.lint", op.admit, req, spec.inline_machine.has_value());
    const bool lint_errors = analysis::lint_machine(m).has_errors();
    t.end(s);
    if (lint_errors) throw std::runtime_error("lint rejected");

    Resolved res;
    res.machine = m;
    res.sig = model::signature(spec.kernel, spec.cls);
    res.cfg = model::paper_run_config(m, spec.kernel, spec.cores);
    if (spec.compiler) res.cfg.compiler.id = *spec.compiler;
    if (spec.vectorise) res.cfg.compiler.vectorise = *spec.vectorise;
    if (spec.placement) res.cfg.placement = *spec.placement;
    res.backend = spec.backend;
    s = t.begin("engine.key", op.admit, req, true);
    const std::uint64_t key =
        engine::PredictionRequest(res.machine, res.sig, res.cfg, "", res.backend).key();
    t.end(s);

    // The bench cache mirrors the Service's: restored from the same file,
    // probed and filled in the same order.
    s = t.begin("engine.contains", net_path ? op.cached : op.complete, req, net_path);
    const bool resident = bench_cache.contains(key);
    t.end(s);
    s = t.begin("engine.get", op.complete, req, true);
    std::optional<model::Prediction> got = bench_cache.get(key);
    t.end(s);
    if (hit) {
      get_hit_s += t.spans()[static_cast<std::size_t>(s)].t1 -
                   t.spans()[static_cast<std::size_t>(s)].t0 - empty_cost;
      ++get_hits;
    }
    if (resident != hit || got.has_value() != hit) {
      throw std::runtime_error("bench cache disagrees with the service on request " +
                               std::to_string(req));
    }

    const bool analytic_miss = !hit && spec.backend == engine::Backend::Analytic;
    s = t.begin("model.predict", op.complete, req, analytic_miss);
    model::Prediction p = model::predict(res.machine, res.sig, res.cfg);
    t.end(s);
    const bool interval_miss = !hit && spec.backend == engine::Backend::Interval;
    if (interval_miss || sim_probes < kSimProbes) {
      if (!interval_miss) ++sim_probes;
      s = t.begin("sim.predict_interval", op.complete, req, interval_miss);
      const sim::IntervalReport rep = sim::simulate(res.machine, res.sig, res.cfg);
      t.end(s);
      accesses += rep.counters.accesses;
      ++sim_calls;
      if (interval_miss) p = rep.prediction;
    }
    s = t.begin("engine.cache_put", op.complete, req, !hit);
    bench_cache.put(key, hit ? *got : p);
    t.end(s);
    t.end(root);
  }

  // --- 3. derived numbers ------------------------------------------------
  const std::vector<Span>& spans = t.spans();
  struct Acc {
    double on_s = 0, off_s = 0;
    std::size_t on_n = 0, off_n = 0;
    double bytes = 0;
    [[nodiscard]] double mean_s() const { return on_n ? on_s / on_n : off_n ? off_s / off_n : 0; }
    [[nodiscard]] std::size_t n() const { return on_n ? on_n : off_n; }
  };
  std::map<std::string, Acc> by_name;
  std::vector<double> self_s(spans.size(), 0.0);
  std::map<std::string, double> ledger;  // layer -> on-path self seconds
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    const double d = sp.t1 - sp.t0 - empty_cost;
    Acc& acc = by_name[sp.name];
    (sp.on_path ? acc.on_s : acc.off_s) += d;
    ++(sp.on_path ? acc.on_n : acc.off_n);
    acc.bytes += static_cast<double>(sp.bytes);
    self_s[i] += d;
    if (sp.parent >= 0 && sp.on_path && std::string(sp.name) != "engine.pool_handoff") {
      self_s[static_cast<std::size_t>(sp.parent)] -= d;
    }
  }
  std::uint64_t serve_allocs = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    const std::string name = sp.name;
    if (!sp.on_path || sp.parent < 0) continue;
    if (name != "engine.pool_handoff") ledger[layer_of(name)] += self_s[i];
    if (name == "serve.admit" || name == "serve.cached" || name.rfind("serve.complete", 0) == 0) {
      serve_allocs += sp.allocs;
    }
  }
  // The residual compares CPU with CPU: server CPU per request against the
  // CPU the replay spent in the same calls (wall-clock spans would count
  // the host's steal as layer cost).
  double on_path_cpu = 0.0;
  for (double v : on_path_cpu_s) on_path_cpu += v;
  on_path_cpu /= static_cast<double>(std::max<std::size_t>(on_path_cpu_s.size(), 1));
  const double nreq = static_cast<double>(std::max<std::size_t>(requests.size(), 1));

  const auto mean = [&](const char* name) { return by_name[name].mean_s(); };
  const double sim_bytes = by_name["sim.predict_interval"].bytes;
  // A hit's probe: contains, then a get that copies the Prediction out.
  const double get_s = get_hits ? get_hit_s / static_cast<double>(get_hits) : mean("engine.get");
  const double probe_s = mean("engine.contains") + get_s;
  const std::vector<Metric> metrics = {
      {"net.residual_us_per_req", server_cpu_us - on_path_cpu * 1e6, "us"},
      {"http.parse_ns", mean("http.parse") * 1e9, "ns"},
      {"obs.json_parse_ns", mean("obs.json_parse") * 1e9, "ns"},
      {"arch.resolve_ns", mean("arch.resolve") * 1e9, "ns"},
      {"arch.from_text_us", mean("arch.from_text") * 1e6, "us"},
      {"analysis.lint_us", mean("analysis.lint") * 1e6, "us"},
      {"engine.key_ns", mean("engine.key") * 1e9, "ns"},
      {"engine.cache_probe_ns", probe_s * 1e9, "ns"},
      {"engine.cache_put_ns", mean("engine.cache_put") * 1e9, "ns"},
      {"engine.evictions", static_cast<double>(evictions), "count"},
      {"engine.hit_ratio",
       on_path_done ? static_cast<double>(on_path_hits) / static_cast<double>(on_path_done) : 0.0,
       "ratio"},
      {"engine.pool_handoff_us", mean("engine.pool_handoff") * 1e6, "us"},
      {"model.predict_us", mean("model.predict") * 1e6, "us"},
      {"sim.predict_interval_us", mean("sim.predict_interval") * 1e6, "us"},
      {"sim.accesses_per_call",
       sim_calls ? static_cast<double>(accesses) / static_cast<double>(sim_calls) : 0.0, "count"},
      {"sim.alloc_mib_per_call",
       sim_calls ? sim_bytes / static_cast<double>(sim_calls) / (1024.0 * 1024.0) : 0.0, "MiB"},
      {"serve.admit_us", mean("serve.admit") * 1e6, "us"},
      {"serve.complete_hit_ns", mean("serve.complete_hit") * 1e9, "ns"},
      {"serve.render_ns", (mean("serve.complete_hit") - get_s) * 1e9, "ns"},
      {"serve.complete_miss_us", mean("serve.complete_miss") * 1e6, "us"},
      {"serve.allocs_per_request", static_cast<double>(serve_allocs) / nreq, "count"},
      {"serve.cache_restore_ms", mean("serve.cache_restore") * 1e3, "ms"},
  };

  const std::filesystem::path traces = std::filesystem::path(a.work_dir) / "traces";
  std::filesystem::create_directories(traces);
  // One file per workload, the latest traced run's: a trace is ~10 MB.
  const std::string trace_path = (traces / (std::string(name_of(w)) + ".json")).string();
  write_trace(trace_path, spans, metrics, empty_cost);

  const bool correct = checker.failures() == 0 && replay_checker.failures() == 0 &&
                       report.clean && loaded.ok() && loaded.restored == kPreparedEntries &&
                       restored == kPreparedEntries && server.restored == kPreparedEntries;
  const std::size_t attempted = batch.answered + on_path_done;

  std::printf("perfbench_trace %s seed=%llu seconds=%g\n", name_of(w),
              static_cast<unsigned long long>(a.seed), a.seconds);
  std::printf("host: %s\n", fingerprint.c_str());
  std::printf("steal: %.2f%% of CPU time during the server run\n",
              100.0 * steal_share(cpu_from, cpu_to));
  std::printf("server run: %zu requests in %.2f s, %.2f us server CPU per request\n",
              batch.answered, batch.seconds, server_cpu_us);
  std::printf("server: %s\n", report.drain_line.c_str());
  std::printf("server faults:");
  for (const auto& [name, v] : report.faults) std::printf(" %s=%g", name.c_str(), v);
  std::printf("\n");
  std::printf("traced replay: %zu requests, empty span %.1f ns wall / %.1f ns CPU "
              "(subtracted), trace %s\n",
              requests.size(), empty.wall * 1e9, empty.cpu * 1e9, trace_path.c_str());
  std::printf("ledger (on-path self-time per request, us wall-clock):\n");
  double layers = 0.0;
  for (const auto& [layer, sec] : ledger) {
    std::printf("  %-10s %10.3f\n", layer.c_str(), sec / nreq * 1e6);
    layers += sec / nreq;
  }
  std::printf("  %-10s %10.3f  total wall-clock\n", "layers", layers * 1e6);
  std::printf("  %-10s %10.3f  server CPU %.3f - the same calls' CPU %.3f\n", "net",
              server_cpu_us - on_path_cpu * 1e6, server_cpu_us, on_path_cpu * 1e6);
  std::printf("spans (mean us, count; off-path where the server's path makes no such call):\n");
  for (const auto& [name, acc] : by_name) {
    std::printf("  %-22s %12.3f %7zu%s\n", name.c_str(), acc.mean_s() * 1e6, acc.n(),
                acc.on_n ? "" : "  off-path");
  }
  std::printf("operations: %zu attempted, 0 failed\n", attempted);
  std::printf("checks: %zu answers checked, %zu wrong\n",
              checker.checked() + replay_checker.checked(),
              checker.failures() + replay_checker.failures());
  for (const Checker* c : {&checker, &replay_checker}) {
    for (const std::string& msg : c->messages()) std::printf("  wrong: %s\n", msg.c_str());
  }
  print_result(correct, attempted, 0, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
}
