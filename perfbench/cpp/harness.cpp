#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "host.hpp"
#include "minijson.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

constexpr double kStartTimeoutS = 60.0;
constexpr double kDrainTimeoutS = 60.0;

std::string usage() {
  return "usage: perfbench --workload hot-http|interval-miss-tcp|inline-stdio --seed N "
         "--seconds S --server PATH --work-dir DIR [--trace 0|1]\n"
         "       perfbench --prepare --server PATH --work-dir DIR";
}

/// The number after `prefix` on a log line ("... 127.0.0.1:4711").
long long trailing_number(const std::string& line, const std::string& prefix) {
  const std::size_t at = line.find(prefix);
  if (at == std::string::npos) throw std::runtime_error("no '" + prefix + "' in: " + line);
  return std::stoll(line.substr(at + prefix.size()));
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--prepare") {
      a.prepare = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag + "\n" + usage());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const std::optional<Workload> w = parse_workload(value);
        if (!w) throw std::invalid_argument("unknown workload '" + value + "'");
        a.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
        if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
          throw std::invalid_argument("--seconds must be in (0, 600]");
        }
      } else if (flag == "--server") {
        a.server = value;
      } else if (flag == "--work-dir") {
        a.work_dir = value;
      } else if (flag != "--trace") {
        throw std::invalid_argument("unknown flag " + flag);
      }
    } catch (const std::logic_error& e) {
      throw std::invalid_argument(std::string(e.what()) + "\n" + usage());
    }
  }
  if ((!a.prepare && (!have_workload || !have_seed)) || a.server.empty() || a.work_dir.empty()) {
    throw std::invalid_argument(usage());
  }
  return a;
}

std::string prepared_cache(const Args& a) {
  struct stat st {};
  if (::stat(a.server.c_str(), &st) != 0) {
    throw std::runtime_error("no server binary at " + a.server);
  }
  const fs::path dir = fs::path(a.work_dir) / "prepared";
  fs::create_directories(dir);
  // One file per build of the server: a rebuilt binary gets a fresh one.
  const std::string stamp = std::to_string(st.st_size) + "-" + std::to_string(st.st_mtime);
  const fs::path file = dir / ("cache-" + std::to_string(kPreparedEntries) + "-" + stamp + ".bin");
  if (fs::exists(file)) return file.string();

  const std::string pid = std::to_string(::getpid());
  const fs::path requests = dir / ("requests-" + pid + ".jsonl");
  const fs::path out = dir / ("replay-" + pid + ".out");
  const fs::path tmp = dir / ("cache-" + pid + ".tmp");
  {
    std::ofstream os(requests);
    std::size_t i = 0;
    for (const Spec& s : prepared_cache_specs(kPreparedEntries)) {
      os << request_line(s, std::string(1, 'p').append(std::to_string(i++))) << "\n";
    }
  }
  // One worker: the replay then answers in request order, so the saved
  // LRU order — and the file — is the same on every build.
  ServerProcess replay(a.server,
                       {"--replay=" + requests.string(), "--cache-file=" + tmp.string(),
                        "--out=" + out.string(), "--jobs=1"},
                       /*stdio=*/false);
  const ServerProcess::Exit e = replay.wait(300.0);
  fs::remove(requests);
  fs::remove(out);
  const std::string want = "ok:             " + std::to_string(kPreparedEntries) + " ";
  if (!WIFEXITED(e.status) || WEXITSTATUS(e.status) != 0 ||
      e.log.find(want) == std::string::npos) {
    fs::remove(tmp);
    throw std::runtime_error("preparing the persistent cache failed:\n" + e.log);
  }
  fs::rename(tmp, file);
  return file.string();
}

RunDir::RunDir(const Args& a) {
  dir_ = (fs::path(a.work_dir) / "runs" /
          (std::string(name_of(a.workload)) + "-" + std::to_string(a.seed) + "-" +
           std::to_string(::getpid())))
             .string();
  fs::remove_all(dir_);
  fs::create_directories(dir_);
}

RunDir::~RunDir() {
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

LiveServer start_server(const Args& a, const RunDir& dir) {
  const std::string cache = dir.path("cache.bin");
  fs::copy_file(prepared_cache(a), cache, fs::copy_options::overwrite_existing);
  std::vector<std::string> args = {"--cache-file=" + cache, "--jobs=1",
                                   "--metrics=" + dir.path("metrics.prom")};
  const bool stdio = a.workload == Workload::InlineStdio;
  switch (a.workload) {
    case Workload::HotHttp:
      args.insert(args.end(), {"--http=tcp:0", "--shards=1"});
      break;
    case Workload::IntervalMissTcp:
      args.insert(args.end(), {"--listen=tcp:0", "--shards=1"});
      break;
    case Workload::InlineStdio:
      args.push_back("--listen=stdio");
      break;
  }

  LiveServer s;
  // The child's ru_maxrss starts from this process's peak (exec records
  // the spawning address space's high-water mark), so it is only the
  // server's own while this process stays below it; stop_server checks.
  s.spawner_hwm_kb = status_kb(::getpid(), "VmHWM");
  s.proc = std::make_unique<ServerProcess>(a.server, args, stdio);
  ServerProcess& p = *s.proc;
  if (a.workload == Workload::HotHttp) {
    s.port = static_cast<int>(trailing_number(
        p.wait_for_line("http: listening on ", kStartTimeoutS), "127.0.0.1:"));
    s.setup_s = now_s() - p.spawned_at();
  } else if (a.workload == Workload::IntervalMissTcp) {
    s.port = static_cast<int>(trailing_number(
        p.wait_for_line("net: listening on ", kStartTimeoutS), "127.0.0.1:"));
    s.setup_s = now_s() - p.spawned_at();
  } else {
    // stdio is ready when it answers: one resident request, not measured.
    const std::string line = request_line(hot_set().front(), "warmup") + "\n";
    if (::write(p.in_fd(), line.data(), line.size()) != static_cast<ssize_t>(line.size())) {
      throw std::runtime_error("cannot write to the stdio server");
    }
    std::string response;
    char c = 0;
    while (::read(p.out_fd(), &c, 1) == 1 && c != '\n') response += c;
    s.setup_s = now_s() - p.spawned_at();
    const std::optional<minijson::Value> doc = minijson::parse(response);
    const minijson::Value* st = doc ? doc->get("status") : nullptr;
    if (!st || st->str != "ok") throw std::runtime_error("stdio warm-up failed: " + response);
  }
  s.restored = static_cast<std::size_t>(
      trailing_number(p.wait_for_line("serve: restored ", kStartTimeoutS), "serve: restored "));
  return s;
}

BatchShape batch_shape(Workload w) {
  switch (w) {
    case Workload::HotHttp: return {2, 128};
    case Workload::IntervalMissTcp: return {2, 8};
    case Workload::InlineStdio: return {1, 128};
  }
  return {};
}

std::vector<Channel> open_channels(const Args& a, const LiveServer& s, int n) {
  if (a.workload == Workload::InlineStdio) {
    return {Channel{s.proc->in_fd(), s.proc->out_fd()}};
  }
  std::vector<Channel> out;
  for (int i = 0; i < n; ++i) out.push_back(connect_loopback(s.port));
  return out;
}

ServerReport stop_server(LiveServer& s, const RunDir& dir) {
  const ServerProcess::Exit e = s.proc->stop(kDrainTimeoutS);
  ServerReport r;
  r.peak_rss_mib = e.maxrss_mib;
  std::istringstream log(e.log);
  for (std::string line; std::getline(log, line);) {
    if (line.find("drained") != std::string::npos) r.drain_line = line;
  }
  // The server's own fault counters, from the registry it dumps on exit.
  std::ifstream metrics(dir.path("metrics.prom"));
  for (std::string line; std::getline(metrics, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    const std::string name = line.substr(0, sp);
    const bool fault =
        name == "rvhpc_serve_rejected_total" || name == "rvhpc_serve_timeouts_total" ||
        (name.rfind("rvhpc_net_disconnect_total{", 0) == 0 &&
         name.find("reason=\"eof\"") == std::string::npos);
    if (fault) r.faults[name] = std::stod(line.substr(sp + 1));
  }
  const bool rss_measured = e.maxrss_mib * 1024.0 > static_cast<double>(s.spawner_hwm_kb);
  if (!rss_measured) {
    std::fprintf(stderr, "perfbench: server peak RSS %.1f MiB is not above the client's %.1f MiB\n",
                 e.maxrss_mib, static_cast<double>(s.spawner_hwm_kb) / 1024.0);
  }
  r.clean = WIFEXITED(e.status) && WEXITSTATUS(e.status) == 0 && rss_measured &&
            r.faults.count("rvhpc_serve_rejected_total") == 1;
  for (const auto& [name, v] : r.faults) r.clean = r.clean && v == 0.0;
  return r;
}

Sink checking_sink(Checker& checker, Workload w) {
  return [&checker, w](const Request& r, std::string&& response) {
    if (w == Workload::HotHttp) {
      (void)checker.check(r, response);
    } else {
      checker.keep(r, std::move(response));
    }
  };
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i) out += ", ";
    out += minijson::quote(metrics[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + minijson::quote(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

std::vector<std::pair<std::size_t, std::size_t>> round_chunks(std::size_t samples,
                                                              std::size_t round_size) {
  const std::size_t rounds = round_size ? samples / round_size : 0;
  const std::size_t m = std::min(rounds, kChunks);
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t j = 0; j < m; ++j) {
    out.emplace_back(j * rounds / m * round_size, (j + 1) * rounds / m * round_size);
  }
  return out;
}

}  // namespace perfbench
