#pragma once
// Host readings: the clock, /proc/stat steal, a process's CPU time and
// resident set, and the fingerprint every run prints beside its figures.

#include <cstdint>
#include <string>
#include <sys/types.h>

namespace perfbench {

/// Monotonic seconds.
[[nodiscard]] double now_s();
/// CPU seconds the calling thread has run.
[[nodiscard]] double thread_cpu_s();

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuJiffies read_cpu_jiffies();
/// Share of CPU time the hypervisor stole between two readings (0..1).
[[nodiscard]] double steal_share(const CpuJiffies& from, const CpuJiffies& to);

/// User plus system CPU seconds of every thread of `pid`, live or ended
/// (/proc/<pid>/stat).  Guest accounting leaves steal out.
[[nodiscard]] double process_cpu_s(pid_t pid);

/// A /proc/<pid>/status field in kB (VmHWM, VmRSS); 0 when absent.
[[nodiscard]] std::uint64_t status_kb(pid_t pid, const char* field);

/// Hardware threads, CPU model, build type and sanitizers of this build.
[[nodiscard]] std::string host_fingerprint();

}  // namespace perfbench
