#include "client.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <unistd.h>
#include <unordered_map>

#include "host.hpp"

namespace perfbench {
namespace {

/// A request unanswered this long breaks the run off.
constexpr double kStallS = 30.0;

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Splits a byte stream into response payloads: JSON lines on the raw
/// wire and stdio, Content-Length HTTP/1.1 responses on HTTP (status 200
/// required — every request of the benchmark must succeed).
class Deframer {
 public:
  explicit Deframer(bool http) : http_(http) {}

  void append(const char* p, std::size_t n) { buf_.append(p, n); }

  /// 1: `out` holds the next payload; 0: more bytes needed; -1: a
  /// framing error, described in `err`.
  int pop(std::string& out, std::string& err) {
    if (!http_) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl == std::string::npos) return 0;
      out.assign(buf_, pos_, nl - pos_);
      consume(nl + 1);
      return 1;
    }
    const std::size_t head_end = buf_.find("\r\n\r\n", pos_);
    if (head_end == std::string::npos) return 0;
    const std::string_view head(buf_.data() + pos_, head_end - pos_);
    if (head.substr(0, 13) != "HTTP/1.1 200 ") {
      err = "HTTP response is not 200: " + std::string(head.substr(0, head.find('\r')));
      return -1;
    }
    std::size_t length = 0;
    bool have_length = false;
    for (std::size_t at = 0; (at = head.find("\r\n", at)) != std::string_view::npos;) {
      at += 2;
      const std::string_view rest = head.substr(at);
      constexpr std::string_view kName = "content-length:";
      if (rest.size() > kName.size() &&
          ::strncasecmp(rest.data(), kName.data(), kName.size()) == 0) {
        length = std::strtoull(std::string(rest.substr(kName.size(), 24)).c_str(), nullptr, 10);
        have_length = true;
      }
    }
    if (!have_length) {
      err = "HTTP response without Content-Length";
      return -1;
    }
    const std::size_t body = head_end + 4;
    if (buf_.size() - body < length) return 0;
    out.assign(buf_, body, length);
    if (!out.empty() && out.back() == '\n') out.pop_back();
    consume(body + length);
    return 1;
  }

 private:
  void consume(std::size_t to) {
    pos_ = to;
    if (pos_ == buf_.size()) {
      buf_.clear();
      pos_ = 0;
    } else if (pos_ > (1u << 16)) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
  }

  bool http_;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// The stream position carried in a response's "id" ("h42" -> 42), or
/// -1 when the response names no id of this benchmark.
long long response_seq(const std::string& response) {
  std::size_t at = response.find("\"id\"");
  if (at == std::string::npos) return -1;
  at = response.find('"', response.find(':', at + 4));
  if (at == std::string::npos || at + 2 >= response.size()) return -1;
  const std::size_t end = response.find('"', at + 1);
  if (end == std::string::npos) return -1;
  const std::string digits = response.substr(at + 2, end - at - 2);
  if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) {
    return -1;
  }
  return std::stoll(digits);
}

}  // namespace

Channel connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect 127.0.0.1:" + std::to_string(port) + ": " + why);
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Channel{fd, fd};
}

void close_channel(Channel& c) {
  if (c.read_fd >= 0) ::close(c.read_fd);
  if (c.write_fd >= 0 && c.write_fd != c.read_fd) ::close(c.write_fd);
  c = Channel{};
}

PhaseResult interactive_phase(Stream& stream, Channel c, double seconds, const Sink& answered) {
  PhaseResult res;
  Deframer deframer(stream.workload() == Workload::HotHttp);
  std::string payload;
  std::string err;
  char buf[1 << 16];
  const double start = now_s();
  const double deadline = start + seconds;
  bool round_closed = true;
  while (!round_closed || now_s() < deadline) {
    const std::optional<Request> r = stream.next();
    if (!r) break;
    round_closed = r->last_in_round;
    const std::string bytes = stream.wire(*r);  // made before the clock starts
    const double t0 = now_s();
    if (!write_all(c.write_fd, bytes)) {
      res.error = "write failed: " + std::string(std::strerror(errno));
      break;
    }
    int got = 0;
    while ((got = deframer.pop(payload, err)) == 0) {
      const ssize_t n = ::read(c.read_fd, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        res.error = "server closed the connection";
        break;
      }
      deframer.append(buf, static_cast<std::size_t>(n));
    }
    if (!res.error.empty()) break;
    const double t1 = now_s();
    if (got < 0) {
      res.error = err;
      break;
    }
    res.latencies_us.push_back((t1 - t0) * 1e6);
    ++res.answered;
    answered(*r, std::move(payload));
  }
  res.seconds = now_s() - start;
  return res;
}

PhaseResult batch_phase(Stream& stream, const std::vector<Channel>& channels, int window,
                        double seconds, const std::function<void()>& mark,
                        const Sink& answered) {
  struct Conn {
    Channel ch;
    Deframer deframer;
    std::unordered_map<std::uint64_t, Request> outstanding;
    std::string out;
  };
  const bool http = stream.workload() == Workload::HotHttp;
  std::vector<Conn> conns;
  for (const Channel& ch : channels) conns.push_back(Conn{ch, Deframer(http), {}, {}});

  PhaseResult res;
  bool exhausted = false;
  bool round_closed = true;
  double deadline = 0.0;
  std::size_t outstanding = 0;
  const auto refill = [&](Conn& c) {
    if (exhausted || (round_closed && now_s() >= deadline)) return;
    const std::optional<Request> r = stream.next();
    if (!r) {
      exhausted = true;
      return;
    }
    round_closed = r->last_in_round;
    c.out += stream.wire(*r);
    c.outstanding.emplace(r->seq, *r);
    ++outstanding;
  };
  const auto flush = [&](Conn& c) {
    const bool ok = write_all(c.ch.write_fd, c.out);
    c.out.clear();
    if (!ok) res.error = "write failed: " + std::string(std::strerror(errno));
    return ok;
  };

  mark();
  const double start = now_s();
  deadline = start + seconds;
  for (Conn& c : conns) {
    for (int i = 0; i < window; ++i) refill(c);
    if (!flush(c)) return res;
  }
  std::vector<pollfd> fds(conns.size());
  std::string payload;
  std::string err;
  char buf[1 << 16];
  while (outstanding > 0) {
    for (std::size_t i = 0; i < conns.size(); ++i) fds[i] = pollfd{conns[i].ch.read_fd, POLLIN, 0};
    const int ready = ::poll(fds.data(), fds.size(), static_cast<int>(kStallS * 1000));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      res.error = "no response for " + std::to_string(kStallS) + " s with " +
                  std::to_string(outstanding) + " outstanding";
      break;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Conn& c = conns[i];
      const ssize_t n = ::read(c.ch.read_fd, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        res.error = "server closed a connection with " + std::to_string(outstanding) +
                    " request(s) outstanding";
        res.seconds = now_s() - start;
        return res;
      }
      c.deframer.append(buf, static_cast<std::size_t>(n));
      int got = 0;
      while ((got = c.deframer.pop(payload, err)) == 1) {
        const long long seq = response_seq(payload);
        const auto it = seq < 0 ? c.outstanding.end()
                                : c.outstanding.find(static_cast<std::uint64_t>(seq));
        if (it == c.outstanding.end()) {
          res.error = "response matches no outstanding request: " + payload.substr(0, 200);
          return res;
        }
        res.done_s.push_back(now_s() - start);
        ++res.answered;
        answered(it->second, std::move(payload));
        c.outstanding.erase(it);
        --outstanding;
        refill(c);
      }
      if (got < 0) {
        res.error = err;
        return res;
      }
      if (!c.out.empty() && !flush(c)) return res;
    }
  }
  res.seconds = now_s() - start;
  mark();
  return res;
}

}  // namespace perfbench
