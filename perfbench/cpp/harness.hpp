#pragma once
// What the timed run and the traced run share: arguments, the prepared
// persistent cache, the server's launch shape per workload, its stop and
// its own counts, and the result line.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check.hpp"
#include "client.hpp"
#include "server.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Args {
  Workload workload = Workload::HotHttp;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string server;    ///< the rvhpc-serve binary under test
  std::string work_dir;  ///< prepared cache, per-run files, traces
  bool prepare = false;  ///< only make the prepared cache file
};

/// Parses `--workload W --seed N --seconds S --server PATH --work-dir D`
/// (also `--trace 0|1`, which run.py uses to pick the binary), or
/// `--prepare --server PATH --work-dir D`; throws std::invalid_argument
/// with a usage message.
[[nodiscard]] Args parse_args(int argc, char** argv);

/// Entries of the prepared cache: the program's default cache capacity,
/// so the restored cache is full and every insert evicts.
constexpr std::size_t kPreparedEntries = 16384;

/// The prepared persistent cache file, made once per build of the server
/// by the program itself (`rvhpc-serve --replay --cache-file`) over the
/// seeded analytic requests of prepared_cache_specs().  Untimed.
[[nodiscard]] std::string prepared_cache(const Args& a);

/// A per-run directory under the work dir, removed by its destructor.
class RunDir {
 public:
  explicit RunDir(const Args& a);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  [[nodiscard]] std::string path(const std::string& file) const { return dir_ + "/" + file; }

 private:
  std::string dir_;
};

/// A server started for one workload, ready for its measured phases.
struct LiveServer {
  std::unique_ptr<ServerProcess> proc;
  double setup_s = 0.0;      ///< spawn until ready (listening / first answer)
  int port = 0;              ///< socket workloads
  std::size_t restored = 0;  ///< entries it restored from the cache file
  std::uint64_t spawner_hwm_kb = 0;  ///< our own peak RSS at the spawn
};

/// Copies the prepared cache to a fresh file of the run (the server
/// rewrites it when it drains) and starts the workload's server shape:
/// one shard, one pool worker, metrics on as rvhpc-serve always runs them.
/// hot-http serves HTTP only, interval-miss-tcp the raw wire, inline-stdio
/// stdio.  Ready means listening, or the first answer on stdio.
[[nodiscard]] LiveServer start_server(const Args& a, const RunDir& dir);

/// The batch phase's shape: connections, and requests outstanding on
/// each.  Deep enough that the server's busy threads never wait on the
/// client (at a window of 40, inline-stdio's throughput swung by a third
/// between runs); interval-miss-tcp's raw-wire window also stays far
/// below the burst that trips the slow-reader fault noted in CHANGES.md.
struct BatchShape {
  int channels = 1;
  int window = 1;
};
[[nodiscard]] BatchShape batch_shape(Workload w);

/// Opens `n` channels to the live server (stdio has exactly one).
[[nodiscard]] std::vector<Channel> open_channels(const Args& a, const LiveServer& s, int n);

/// The server's own account of a run, read after its drain.
struct ServerReport {
  double peak_rss_mib = 0.0;
  std::map<std::string, double> faults;  ///< disconnects, rejections, timeouts
  std::string drain_line;
  bool clean = true;  ///< exit 0, every fault count zero, RSS measurable
};
[[nodiscard]] ServerReport stop_server(LiveServer& s, const RunDir& dir);

/// Where a run's answers go: hot-http's few hundred distinct answers are
/// checked as they arrive (a repeat costs one compare); the others are
/// kept and checked once the server is gone, since their expected answers
/// take real computing (Checker::check_kept).
[[nodiscard]] Sink checking_sink(Checker& checker, Workload w);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the run's last line: the JSON object the benchmark contract
/// reads.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics);

/// Nearest-rank percentile of `v` (sorted in place), 0 < q <= 1.
[[nodiscard]] double percentile(std::vector<double>& v, double q);

/// Splits `samples` answers of whole rounds (`round_size` each) into at
/// most kChunks chunks of whole rounds; returns [begin, end) sample
/// ranges.  A run's figures are medians over its chunks: one burst of
/// host steal moves one chunk, not the figure.
constexpr std::size_t kChunks = 20;
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> round_chunks(
    std::size_t samples, std::size_t round_size);

}  // namespace perfbench
