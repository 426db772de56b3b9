#include "host.hpp"

#include <chrono>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

CpuJiffies read_cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuJiffies j;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already inside user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

double steal_share(const CpuJiffies& from, const CpuJiffies& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0.0
                    : static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

double process_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  std::getline(in, text);
  // The command name may hold spaces; fields restart after its ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string f;
  std::uint64_t utime = 0;
  std::uint64_t stime = 0;
  // Field 3 (state) is the first after ')'; utime is 14, stime 15.
  for (int i = 3; i <= 15 && (fields >> f); ++i) {
    if (i == 14) utime = std::stoull(f);
    if (i == 15) stime = std::stoull(f);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::uint64_t status_kb(pid_t pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stoull(line.substr(prefix.size()));
    }
  }
  return 0;
}

std::string host_fingerprint() {
  std::string model = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::ostringstream os;
  os << "hw_threads=" << std::thread::hardware_concurrency() << " cpu=\""
     << model << "\" build=" << PERFBENCH_BUILD_TYPE << " sanitizers="
     << (std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") == std::string::npos
             ? "none"
             : PERFBENCH_CXX_FLAGS);
  return os.str();
}

}  // namespace perfbench
