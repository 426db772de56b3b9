#pragma once
// The program under test as a child process: spawned, watched through its
// stderr log, stopped the way an operator stops it, and reaped with its
// resource usage.

#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  /// Spawns `binary args...`.  With `stdio`, the child's stdin and stdout
  /// are pipes to this process; otherwise both are /dev/null.  Its stderr
  /// is always a pipe, read by wait_for_line() and stop().
  ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                bool stdio);
  /// Kills and reaps a child that stop() did not end.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Reads stderr until a line starting with `prefix`; returns that line.
  /// Throws std::runtime_error on EOF or after `timeout_s`.
  std::string wait_for_line(const std::string& prefix, double timeout_s);

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] int in_fd() const { return in_; }
  [[nodiscard]] int out_fd() const { return out_; }
  /// now_s() just before the spawn.
  [[nodiscard]] double spawned_at() const { return spawned_at_; }

  struct Exit {
    int status = -1;          ///< waitpid status
    double maxrss_mib = 0.0;  ///< peak resident set over the child's life
    std::string log;          ///< everything it wrote to stderr
  };
  /// Stops the child as an operator would — SIGTERM for a socket server,
  /// EOF on stdin for stdio — waits for its drain (SIGKILL after
  /// `timeout_s`) and reaps it.
  Exit stop(double timeout_s);
  /// Waits for the child to exit on its own (SIGKILL after `timeout_s`).
  Exit wait(double timeout_s);

 private:
  void read_log(int timeout_ms);

  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  int err_ = -1;
  bool stdio_ = false;
  bool err_eof_ = false;
  double spawned_at_ = 0.0;
  std::string log_;
};

}  // namespace perfbench
