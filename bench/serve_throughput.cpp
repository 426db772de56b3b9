// serve_throughput — acceptance gate for the sharded async front end.
//
// Drives a real net::Server on an ephemeral loopback port with raw
// blocking client sockets and checks the two properties ISSUE 8's
// refactor exists to deliver:
//
//   1. ordering gate (always enforced in --gate mode): one connection
//      streams a batch of slow uncached interval-backend requests while a
//      second connection streams cached hits.  Every cached response must
//      arrive before the slow batch's last response — with the old
//      blocking loop the cached peer sat behind the compute, so this
//      assertion is the refactor's observable contract; and
//   2. speedup gate (hosts with >= 4 hardware threads, unsanitized
//      builds only): an uncached 4-connection workload on shards=2 /
//      jobs=4 must beat shards=1 / jobs=1 by >= 1.5x, best of 3
//      alternating runs each, timed after 3 s of untimed sharded runs.
//
// A machine-readable summary (requests/s, p50/p99 end-to-end latency
// from rvhpc_serve_request_latency_seconds) is written as
// BENCH_serve.json.
//
// Flags:
//   --gate       exit non-zero when a gate fails (the ctest entry)
//   --out=FILE   where to write the JSON (default: BENCH_serve.json)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/net.hpp"
#include "obs/metrics.hpp"
#include "report/table.hpp"
#include "serve/service.hpp"

using namespace rvhpc;
using Clock = std::chrono::steady_clock;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Service + Server on an ephemeral loopback port, event loop on a
/// background thread.  Mirrors the tests' LoopbackServer.
struct BenchServer {
  serve::Service service;
  net::Server server;
  std::ostringstream log;
  std::thread loop;

  BenchServer(serve::Service::Options sopts, net::ServerOptions nopts)
      : service(std::move(sopts)), server(service, nopts) {
    server.open(log);
    loop = std::thread([this] { server.run(log); });
  }

  ~BenchServer() {
    server.stop();
    if (loop.joinable()) loop.join();
  }
};

/// Blocking loopback client with a receive timeout so a regression fails
/// instead of hanging the bench.
struct Client {
  int fd = -1;
  std::string buffered;

  explicit Client(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    timeval tv{30, 0};
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }

  ~Client() {
    if (fd >= 0) ::close(fd);
  }

  [[nodiscard]] bool connected() const { return fd >= 0; }

  bool send_all(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// One response line (without '\n'); empty on EOF/timeout.
  std::string recv_line() {
    while (true) {
      const std::size_t nl = buffered.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffered.substr(0, nl);
        buffered.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffered.append(chunk, static_cast<std::size_t>(n));
    }
  }
};

/// A slow request: the interval backend walks the whole simulated
/// timeline, so CG class C costs ~2 ms of compute per call — three
/// orders of magnitude above a cached hit.
std::string slow_request(const std::string& id, const std::string& kernel,
                         int cores) {
  return "{\"id\": \"" + id + "\", \"machine\": \"sg2044\", \"kernel\": \"" +
         kernel + "\", \"class\": \"C\", \"cores\": " + std::to_string(cores) +
         ", \"backend\": \"interval\"}\n";
}

/// A cheap analytic request; cycling a small core grid keeps every send
/// after the warm-up a pure cache hit.
std::string cached_request(const std::string& id, int cores) {
  return "{\"id\": \"" + id +
         "\", \"machine\": \"sg2044\", \"kernel\": \"MG\", \"cores\": " +
         std::to_string(cores) + "}\n";
}

struct OrderingResult {
  bool ok = false;
  std::size_t cached = 0;           ///< cached responses received
  std::size_t slow = 0;             ///< slow responses received
  std::size_t cached_after = 0;     ///< cached arrivals after the last slow one
  double slow_window_ms = 0.0;      ///< first send -> last slow response
  double cached_window_ms = 0.0;    ///< first send -> last cached response
};

/// Conn A streams `kSlow` uncached interval requests; conn B then streams
/// `kCached` pre-warmed hits.  Two reader threads timestamp every
/// response line; the gate is that B's last arrival precedes A's.
OrderingResult run_ordering_phase() {
  constexpr int kSlow = 24;
  constexpr int kCached = 64;
  OrderingResult r;

  serve::Service::Options sopts;
  sopts.jobs = 2;
  net::ServerOptions nopts;
  nopts.shards = 2;
  BenchServer s(sopts, nopts);

  // Warm the cache so every request conn B sends is a hit.
  {
    Client warm(s.server.port());
    if (!warm.connected()) return r;
    for (int i = 0; i < 7; ++i) {
      if (!warm.send_all(cached_request("warm-" + std::to_string(i), 1 << i)))
        return r;
    }
    for (int i = 0; i < 7; ++i) {
      if (warm.recv_line().empty()) return r;
    }
  }

  Client slow_conn(s.server.port());
  Client hit_conn(s.server.port());
  if (!slow_conn.connected() || !hit_conn.connected()) return r;

  std::string slow_batch;
  for (int i = 0; i < kSlow; ++i) {
    // Distinct cores -> distinct memo keys, so every request computes.
    slow_batch += slow_request("slow-" + std::to_string(i), "CG", 33 + i);
  }
  std::string hit_batch;
  for (int i = 0; i < kCached; ++i) {
    hit_batch += cached_request("hit-" + std::to_string(i), 1 << (i % 7));
  }

  const auto t0 = Clock::now();
  if (!slow_conn.send_all(slow_batch) || !hit_conn.send_all(hit_batch))
    return r;

  Clock::time_point last_slow = t0;
  Clock::time_point last_cached = t0;
  std::vector<Clock::time_point> cached_times;
  cached_times.reserve(kCached);
  std::thread slow_reader([&] {
    for (int i = 0; i < kSlow; ++i) {
      if (slow_conn.recv_line().empty()) return;
      last_slow = Clock::now();
      ++r.slow;
    }
  });
  for (int i = 0; i < kCached; ++i) {
    if (hit_conn.recv_line().empty()) break;
    cached_times.push_back(Clock::now());
    ++r.cached;
  }
  if (!cached_times.empty()) last_cached = cached_times.back();
  slow_reader.join();

  for (const auto& t : cached_times) {
    if (t > last_slow) ++r.cached_after;
  }
  r.slow_window_ms = std::chrono::duration<double, std::milli>(last_slow - t0).count();
  r.cached_window_ms =
      std::chrono::duration<double, std::milli>(last_cached - t0).count();
  r.ok = r.slow == kSlow && r.cached == kCached && r.cached_after == 0;
  return r;
}

/// Wall time for `kClients` connections x `kPerClient` distinct uncached
/// interval requests against a fresh server (cold cache every run).
double timed_run_seconds(std::size_t shards, int jobs) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 24;

  serve::Service::Options sopts;
  sopts.jobs = jobs;
  net::ServerOptions nopts;
  nopts.shards = shards;
  BenchServer s(sopts, nopts);

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  const auto t0 = Clock::now();
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client cl(s.server.port());
      if (!cl.connected()) {
        ++failures;
        return;
      }
      std::string batch;
      for (int i = 0; i < kPerClient; ++i) {
        const int g = c * kPerClient + i;
        batch += slow_request("r-" + std::to_string(g), g < 48 ? "CG" : "LU",
                              1 + g % 48);
      }
      if (!cl.send_all(batch)) {
        ++failures;
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        if (cl.recv_line().empty()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  return failures.load() == 0 ? secs : -1.0;
}

/// How long the sharded workload runs, untimed, before the comparison.
/// A virtual machine's host may run the guest's vCPUs one at a time until
/// it has seen sustained multi-threaded load: on a 4-vCPU guest left idle
/// for 12 s, a 4-thread spin loop ran at 1.0x its serial speed for its
/// first 1.0-1.3 s, and a shards=2 / jobs=4 run took 80 ms instead of
/// 17 ms for the first 1.7-1.9 s of back-to-back runs.  A comparison
/// timed in that window measures the host waking up, not the front end.
constexpr double kWarmupSeconds = 3.0;

/// Back-to-back shards=2 / jobs=4 runs until `seconds` have passed;
/// false when a run lost a connection or a response.
bool warm_up(double seconds) {
  const auto until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < until) {
    if (timed_run_seconds(/*shards=*/2, /*jobs=*/4) < 0.0) return false;
  }
  return true;
}

struct Timings {
  double base = -1.0;   ///< best shards=1 / jobs=1 wall time
  double shard = -1.0;  ///< best shards=2 / jobs=4 wall time
};

/// Best of `runs` for each configuration.  The two alternate, so both
/// sample the same host conditions instead of whichever phase ran during
/// a noisy stretch.  Negative times when a run failed.
Timings best_of_pairs(int runs) {
  Timings best;
  for (int i = 0; i < runs; ++i) {
    const double base = timed_run_seconds(/*shards=*/1, /*jobs=*/1);
    const double shard = timed_run_seconds(/*shards=*/2, /*jobs=*/4);
    if (base < 0.0 || shard < 0.0) return {};
    if (best.base < 0.0 || base < best.base) best.base = base;
    if (best.shard < 0.0 || shard < best.shard) best.shard = shard;
  }
  return best;
}

std::string fmt_json(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool gate = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gate") {
      gate = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(std::string("--out=").size());
    } else {
      std::cerr << "serve_throughput: unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  obs::set_metrics_enabled(true);
  const unsigned hw = std::thread::hardware_concurrency();

  // --- ordering: cached hits must overtake slow compute ---------------------
  const OrderingResult ord = run_ordering_phase();
  std::cout << "ordering: " << ord.cached << " cached response(s) in "
            << fmt_json(ord.cached_window_ms, 1) << " ms, " << ord.slow
            << " slow interval response(s) in "
            << fmt_json(ord.slow_window_ms, 1) << " ms, " << ord.cached_after
            << " cached arrival(s) after the last slow one\n";
  if (!ord.ok) {
    std::cerr << "FAIL: cached responses did not all precede the slow "
                 "batch's completion — the front end is blocking I/O on "
                 "compute\n";
    if (gate) return 1;
  }

  // --- throughput: sharded vs single-threaded front end ---------------------
  constexpr int kRuns = 3;
  constexpr std::size_t kRequests = 4 * 24;
  if (!warm_up(kWarmupSeconds)) {
    std::cerr << "FAIL: a warm-up run lost a connection or a response\n";
    return 1;
  }
  const Timings best = best_of_pairs(kRuns);
  const double t_base = best.base;
  const double t_shard = best.shard;
  if (t_base < 0.0 || t_shard < 0.0) {
    std::cerr << "FAIL: a timed run lost a connection or a response\n";
    return 1;
  }
  const double speedup = t_base / t_shard;

  // Dedicated measurement run for the latency summary: reset the
  // end-to-end histogram so the percentiles describe exactly one
  // shards=2 / jobs=4 workload.
  obs::Histogram& lat = obs::Registry::global().histogram(
      "rvhpc_serve_request_latency_seconds");
  lat.reset();
  const double t_meas = timed_run_seconds(/*shards=*/2, /*jobs=*/4);
  if (t_meas < 0.0) {
    std::cerr << "FAIL: the measurement run lost a connection\n";
    return 1;
  }
  const double rps = static_cast<double>(kRequests) / t_meas;
  const double p50_us = lat.percentile(50.0) * 1e6;
  const double p99_us = lat.percentile(99.0) * 1e6;

  report::Table t({"config", "seconds", "requests/s", "speedup"});
  t.add_row({"shards=1 jobs=1", report::fmt(t_base, 3),
             report::fmt(static_cast<double>(kRequests) / t_base, 0), "1.00x"});
  t.add_row({"shards=2 jobs=4", report::fmt(t_shard, 3),
             report::fmt(static_cast<double>(kRequests) / t_shard, 0),
             report::fmt(speedup, 2) + "x"});
  std::cout << "\n"
            << t.render() << "\np50 " << report::fmt(p50_us, 0) << " us, p99 "
            << report::fmt(p99_us, 0) << " us end to end ("
            << static_cast<std::uint64_t>(lat.count())
            << " requests)\nhardware threads: " << hw << "\n";

  // --- BENCH_serve.json -----------------------------------------------------
  {
    std::ofstream out(out_path, std::ios::binary);
    out << "{\n"
        << "  \"bench\": \"serve_throughput\",\n"
        << "  \"shards\": 2,\n"
        << "  \"jobs\": 4,\n"
        << "  \"hardware_threads\": " << hw << ",\n"
        << "  \"sanitized\": " << (kSanitized ? "true" : "false") << ",\n"
        << "  \"ordering\": {\n"
        << "    \"cached_responses\": " << ord.cached << ",\n"
        << "    \"slow_responses\": " << ord.slow << ",\n"
        << "    \"cached_after_last_slow\": " << ord.cached_after << ",\n"
        << "    \"cached_window_ms\": " << fmt_json(ord.cached_window_ms, 3)
        << ",\n"
        << "    \"slow_window_ms\": " << fmt_json(ord.slow_window_ms, 3)
        << ",\n"
        << "    \"passed\": " << (ord.ok ? "true" : "false") << "\n"
        << "  },\n"
        << "  \"throughput\": {\n"
        << "    \"requests\": " << kRequests << ",\n"
        << "    \"baseline_seconds\": " << fmt_json(t_base, 6) << ",\n"
        << "    \"sharded_seconds\": " << fmt_json(t_shard, 6) << ",\n"
        << "    \"speedup\": " << fmt_json(speedup, 3) << ",\n"
        << "    \"requests_per_s\": " << fmt_json(rps, 1) << "\n"
        << "  },\n"
        << "  \"latency\": {\n"
        << "    \"p50_us\": " << fmt_json(p50_us, 1) << ",\n"
        << "    \"p99_us\": " << fmt_json(p99_us, 1) << "\n"
        << "  }\n"
        << "}\n";
    if (!out) {
      std::cerr << "serve_throughput: cannot write " << out_path << "\n";
      return 1;
    }
    std::cout << "wrote " << out_path << "\n";
  }

  if (!gate) return 0;
  if (kSanitized) {
    std::cout << "gate: sanitized build — ordering checked, speedup "
                 "threshold skipped\n";
    return 0;
  }
  if (hw < 4) {
    std::cout << "gate: " << hw << " hardware thread(s) — ordering checked, "
                 "speedup threshold needs >= 4\n";
    return 0;
  }
  if (speedup < 1.5) {
    std::cerr << "FAIL: sharded speedup " << report::fmt(speedup, 2)
              << "x is below the 1.5x acceptance bar\n";
    return 1;
  }
  std::cout << "gate: ordering held and sharded speedup "
            << report::fmt(speedup, 2) << "x >= 1.5x — PASSED\n";
  return 0;
}
