#include "server.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "host.hpp"

extern char** environ;

namespace perfbench {
namespace {

void make_pipe(int fds[2]) {
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args, bool stdio)
    : stdio_(stdio) {
  int err[2];
  int in[2] = {-1, -1};
  int out[2] = {-1, -1};
  make_pipe(err);
  if (stdio) {
    make_pipe(in);
    make_pipe(out);
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  if (stdio) {
    posix_spawn_file_actions_adddup2(&fa, in[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
  } else {
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  }
  posix_spawn_file_actions_adddup2(&fa, err[1], 2);

  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  spawned_at_ = now_s();
  const int rc = posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(err[1]);
  err_ = err[0];
  if (stdio) {
    ::close(in[0]);
    ::close(out[1]);
    in_ = in[1];
    out_ = out[0];
  }
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary + ": " + std::strerror(rc));
  }
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  for (int fd : {in_, out_, err_}) {
    if (fd >= 0) ::close(fd);
  }
}

void ServerProcess::read_log(int timeout_ms) {
  if (err_eof_) return;
  pollfd p{err_, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) <= 0) return;
  char buf[4096];
  const ssize_t n = ::read(err_, buf, sizeof buf);
  if (n > 0) {
    log_.append(buf, static_cast<std::size_t>(n));
  } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
    err_eof_ = true;
  }
}

std::string ServerProcess::wait_for_line(const std::string& prefix, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  std::size_t scanned = 0;
  for (;;) {
    // Complete lines only: a prefix match on a half-written line would
    // hand back a truncated port.
    for (std::size_t nl; (nl = log_.find('\n', scanned)) != std::string::npos;
         scanned = nl + 1) {
      const std::string line = log_.substr(scanned, nl - scanned);
      if (line.rfind(prefix, 0) == 0) return line;
    }
    if (err_eof_) throw std::runtime_error("server exited before '" + prefix + "':\n" + log_);
    const double left = deadline - now_s();
    if (left <= 0) throw std::runtime_error("timed out waiting for '" + prefix + "':\n" + log_);
    read_log(static_cast<int>(left * 1000) + 1);
  }
}

ServerProcess::Exit ServerProcess::stop(double timeout_s) {
  if (stdio_) {
    ::close(in_);
    in_ = -1;
  } else {
    ::kill(pid_, SIGTERM);
  }
  return wait(timeout_s);
}

ServerProcess::Exit ServerProcess::wait(double timeout_s) {
  Exit e;
  const double deadline = now_s() + timeout_s;
  rusage ru{};
  int status = 0;
  for (;;) {
    const pid_t done = ::wait4(pid_, &status, WNOHANG, &ru);
    if (done == pid_) break;
    if (now_s() > deadline) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &ru);
      log_ += "\nperfbench: server killed after a " + std::to_string(timeout_s) +
              " s drain timeout\n";
      break;
    }
    // Keep its stderr drained so a chatty drain can never block on us.
    if (err_eof_) {
      ::usleep(1000);
    } else {
      read_log(5);
    }
  }
  pid_ = -1;
  while (!err_eof_) read_log(1000);
  e.status = status;
  e.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  e.log = log_;
  return e;
}

}  // namespace perfbench
