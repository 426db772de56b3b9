// perfbench — the timed run of one workload against a real rvhpc-serve.
//
//   perfbench --workload W --seed N --seconds S --server PATH --work-dir D
//
// Prints the run's report, then as its last line the JSON result with
// every end-to-end metric.  Normally started by perfbench/run.py, which
// builds the program first.

#include <csignal>
#include <cstdio>
#include <exception>
#include <set>

#include "check.hpp"
#include "harness.hpp"
#include "host.hpp"

using namespace perfbench;

namespace {

/// Share of --seconds given to the interactive phase; the batch phase
/// takes the rest.
constexpr double kInteractiveShare = 0.4;

int run(const Args& a) {
  // run.py prepares in a process of its own first, so this one stays
  // small before it spawns the server (see LiveServer::spawner_hwm_kb).
  (void)prepared_cache(a);
  if (a.prepare) return 0;
  const std::string fingerprint = host_fingerprint();
  RunDir dir(a);
  Stream stream(a.workload, a.seed);

  const CpuJiffies cpu_from = read_cpu_jiffies();
  LiveServer server = start_server(a, dir);
  const pid_t pid = server.proc->pid();

  Checker checker(stream);
  const Sink answered = checking_sink(checker, a.workload);
  std::vector<Channel> one = open_channels(a, server, 1);
  PhaseResult inter =
      interactive_phase(stream, one.front(), a.seconds * kInteractiveShare, answered);
  if (a.workload != Workload::InlineStdio) close_channel(one.front());

  const BatchShape shape = batch_shape(a.workload);
  std::vector<Channel> many = open_channels(a, server, shape.channels);
  std::vector<double> cpu_marks;
  PhaseResult batch = batch_phase(stream, many, shape.window, a.seconds * (1 - kInteractiveShare),
                                  [&] { cpu_marks.push_back(process_cpu_s(pid)); }, answered);
  if (a.workload != Workload::InlineStdio) {
    for (Channel& c : many) close_channel(c);
  }
  const CpuJiffies cpu_to = read_cpu_jiffies();
  const ServerReport report = stop_server(server, dir);

  for (const PhaseResult* p : {&inter, &batch}) {
    if (!p->error.empty()) {
      std::fprintf(stderr, "perfbench: run broke off: %s\n", p->error.c_str());
      return 1;
    }
  }
  if (batch.answered == 0 || inter.answered == 0 || cpu_marks.size() != 2) {
    std::fprintf(stderr, "perfbench: a phase answered nothing\n");
    return 1;
  }
  checker.check_kept(3);

  // Medians over chunks of whole rounds (harness.hpp).
  const std::size_t rs = stream.round_size();
  std::vector<double> p50s, p90s, tputs;
  for (const auto& [b, e] : round_chunks(inter.latencies_us.size(), rs)) {
    std::vector<double> part(inter.latencies_us.begin() + static_cast<std::ptrdiff_t>(b),
                             inter.latencies_us.begin() + static_cast<std::ptrdiff_t>(e));
    p50s.push_back(percentile(part, 0.50));
    p90s.push_back(percentile(part, 0.90));
  }
  for (const auto& [b, e] : round_chunks(batch.answered, rs)) {
    const double from = b == 0 ? 0.0 : batch.done_s[b - 1];
    tputs.push_back(static_cast<double>(e - b) / (batch.done_s[e - 1] - from));
  }
  if (p50s.empty() || tputs.empty()) {
    std::fprintf(stderr, "perfbench: a phase finished no whole round\n");
    return 1;
  }
  const double n_batch = static_cast<double>(batch.answered);
  std::vector<double> lat = inter.latencies_us;
  const double p50 = percentile(p50s, 0.5);
  const double p90 = percentile(p90s, 0.5);
  const double p99 = percentile(lat, 0.99);
  const double pmax = lat.back();
  const double tput = percentile(tputs, 0.5);
  // The bounded figures: costs the host's steal barely moves.  Throughput
  // and latency follow the steal (README "Host and reference figures") and
  // are reported above the result line only.
  const std::vector<Metric> metrics = {
      {"server_cpu_us_per_req", (cpu_marks[1] - cpu_marks[0]) * 1e6 / n_batch, "us"},
      {"peak_rss_mib", report.peak_rss_mib, "MiB"},
      {"setup_s", server.setup_s, "s"},
  };

  const bool restored_all = server.restored == kPreparedEntries;
  const bool correct = checker.failures() == 0 && report.clean && restored_all;
  const std::size_t attempted = inter.answered + batch.answered;

  std::printf("perfbench %s seed=%llu seconds=%g\n", name_of(a.workload),
              static_cast<unsigned long long>(a.seed), a.seconds);
  std::printf("host: %s\n", fingerprint.c_str());
  std::printf("steal: %.2f%% of CPU time during the run\n",
              100.0 * steal_share(cpu_from, cpu_to));
  std::printf("setup: %.2f ms, %zu cache entries restored (want %zu)\n", server.setup_s * 1e3,
              server.restored, kPreparedEntries);
  std::printf("interactive: %zu requests (%zu rounds of %zu) in %.2f s; latency p50 %.1f us, "
              "p90 %.1f us (medians over %zu chunks); whole phase p99 %.1f us, max %.1f us "
              "(unbounded)\n",
              inter.answered, inter.answered / rs, rs, inter.seconds, p50, p90,
              p50s.size(), p99, pmax);
  std::printf("batch: %zu requests in %.2f s on %d channel(s) x window %d; %.1f req/s "
              "(median over %zu chunks, which range %.1f..%.1f; whole phase %.1f req/s)\n",
              batch.answered, batch.seconds, shape.channels,
              shape.window, tput, tputs.size(), tputs.front(), tputs.back(),
              n_batch / batch.seconds);
  std::printf("operations: %zu attempted, %zu failed\n", attempted, std::size_t{0});
  std::printf("checks: %zu answers checked, %zu wrong", checker.checked(), checker.failures());
  if (checker.paper_cells() > 0) {
    std::printf("; %zu published cells, worst |error| %.1f%% (tolerance %.0f%%)",
                checker.paper_cells(), 100 * checker.paper_worst(),
                100 * Checker::kPaperTolerance);
  }
  std::printf("\n");
  for (const std::string& m : checker.messages()) std::printf("  wrong: %s\n", m.c_str());
  std::printf("server: %s\n", report.drain_line.c_str());
  std::printf("server faults:");
  for (const auto& [name, v] : report.faults) std::printf(" %s=%g", name.c_str(), v);
  std::printf("%s\n", report.clean ? "" : "  <- must all be zero, with exit status 0");
  print_result(correct, attempted, 0, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
