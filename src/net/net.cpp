#include "net/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "engine/thread_pool.hpp"
#include "http/message.hpp"
#include "http/parser.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"

namespace rvhpc::net {
namespace {

using Clock = std::chrono::steady_clock;

double now_us() {
  return std::chrono::duration<double, std::micro>(
             Clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// True when a read of `fd` will not block: data, EOF or an error is
/// waiting.  A stdio session's input keeps the flags it was inherited
/// with, so it may be a blocking fd.
bool readable(int fd) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, 0) > 0;
}

/// Copies the first complete line at or after `pos` in `buf` into `line`
/// (without the '\n', trailing '\r' stripped) and moves `pos` past it;
/// false when no newline is buffered yet.
bool take_line(const std::string& buf, std::size_t& pos, std::string& line) {
  const std::size_t nl = buf.find('\n', pos);
  if (nl == std::string::npos) return false;
  line.assign(buf, pos, nl - pos);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  pos = nl + 1;
  return true;
}

bool blank(const std::string& line) {
  return line.find_first_not_of(" \t") == std::string::npos;
}

}  // namespace

const char* to_string(Disconnect cause) {
  switch (cause) {
    case Disconnect::Eof:        return "eof";
    case Disconnect::Idle:       return "idle";
    case Disconnect::Oversize:   return "oversize";
    case Disconnect::SlowReader: return "slow_reader";
    case Disconnect::Refused:    return "refused";
    case Disconnect::Error:      return "error";
    case Disconnect::Drained:    return "drained";
    case Disconnect::HeaderTimeout: return "header_timeout";
  }
  return "unknown";
}

// --- Listener -------------------------------------------------------------

Listener::~Listener() { close(); }

void Listener::open(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket() failed: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string detail = std::strerror(errno);
    close();
    throw std::runtime_error("cannot bind 127.0.0.1:" + std::to_string(port) +
                             ": " + detail);
  }
  if (::listen(fd_, 16) != 0) {
    const std::string detail = std::strerror(errno);
    close();
    throw std::runtime_error("listen() failed: " + detail);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }
  set_nonblocking(fd_);
}

int Listener::accept_client() const {
  if (fd_ < 0) return -1;
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client >= 0) set_nonblocking(client);
  return client;
}

void Listener::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  port_ = 0;
}

namespace detail {

// --- per-connection state (owned exclusively by one shard) ----------------

/// One admitted request awaiting delivery.  `ordered` requests (no "id" on
/// the wire) must be delivered in admission order; unordered ones deliver
/// the moment their result is ready, from any position in the deque.
struct Pending {
  std::uint64_t seq = 0;
  bool ordered = true;
  bool done = false;       ///< `response` is final
  bool delivered = false;  ///< appended to the write buffer (or dropped)
  std::string response;    ///< no trailing newline
};

/// One HTTP request/response pair in flight on a connection.  Exchanges
/// answer strictly in request order (HTTP pipelining), so only the front
/// of Connection::exchanges ever writes to the socket; a batch POST
/// streams each prediction as a chunk the moment it completes (subject
/// to the same ordered/unordered id contract as the raw wire).
struct HttpExchange {
  int status = 200;
  const char* route = "other";  ///< http::route_label, stable storage
  const char* allow = "";       ///< Allow header for 405 responses
  const char* content_type = "application/json";
  bool chunked = false;    ///< batch predict: stream items as chunks
  bool immediate = false;  ///< `body` is final; no items pending
  bool head_sent = false;
  bool head_only = false;  ///< HEAD request: send the head, omit the body
  bool keep_alive = true;
  bool healthz = false;  ///< status/body computed at delivery (drain-aware)
  bool metrics = false;  ///< body rendered at delivery (scrape ordering)
  std::string body;
  // Predict lines awaiting completion.  A vector with a front cursor
  // instead of a deque: the common single-request exchange then costs
  // one allocation, not a deque block map (this path is what the
  // http_throughput gate measures against the raw wire).
  std::vector<Pending> items;
  std::size_t next_item = 0;  ///< first item not yet consumed in order
  double start_us = 0.0;
};

struct Connection {
  int fd = -1;      ///< read side: the socket, or a stdio session's input
  int out_fd = -1;  ///< write side: the socket again, or the session's output
  /// A stdio session (Server::adopt_stdio): its fds keep the flags they
  /// were inherited with, and its writes wait for a stalled reader
  /// instead of dropping it as a slow reader.
  bool stdio = false;
  std::string rbuf;
  /// Bytes at the front of rbuf already taken as requests during the
  /// current Shard::process_lines() pass.  The pass drops them with one
  /// erase at its end: an erase per request would move the rest of the
  /// buffer once per request, quadratic in a pipelined burst.  Zero
  /// outside the pass, so everything else reads rbuf as unread bytes.
  std::size_t rpos = 0;
  std::string wbuf;
  std::deque<Pending> pending;
  std::uint64_t next_seq = 0;
  double last_read_us = 0.0;
  /// When the currently-unfinished request's first byte arrived; 0 when
  /// no request is mid-frame.  Unlike last_read_us this is *not* advanced
  /// by further bytes — a slow loris dripping one header byte per
  /// interval keeps resetting the idle clock but never this one.
  double partial_since_us = 0.0;
  double closing_since_us = 0.0;
  bool draining = false;  ///< EOF seen; answering what is buffered
  bool closing = false;   ///< farewell queued; close once it is flushed
  Disconnect cause = Disconnect::Eof;
  // HTTP front end (connections accepted by the HTTP listener only).
  bool http = false;
  bool sent_continue = false;  ///< 100 Continue emitted for this request
  std::unique_ptr<http::RequestParser> parser;
  std::deque<HttpExchange> exchanges;
};

namespace {

/// True when `c` owes its peer no further answer: no complete request is
/// buffered or awaiting delivery (a trailing partial line is not owed).
bool owes_nothing(const Connection& c) {
  return c.http ? (c.rbuf.empty() && c.exchanges.empty())
                : (c.rbuf.find('\n') == std::string::npos && c.pending.empty());
}

/// True when `c` has ended on its own terms and everything it was owed
/// has been written: its peer sent EOF and was answered, or its farewell
/// has been flushed.  It then closes with its own cause.
bool finished(const Connection& c) {
  return c.wbuf.empty() && (c.closing || (c.draining && owes_nothing(c)));
}

}  // namespace

/// The first request of `c` awaiting delivery for which `pred` holds —
/// on the raw-wire deque or inside any HTTP exchange; null when none.
template <typename Pred>
Pending* find_item(Connection& c, Pred pred) {
  for (Pending& p : c.pending) {
    if (pred(p)) return &p;
  }
  for (HttpExchange& ex : c.exchanges) {
    for (Pending& p : ex.items) {
      if (pred(p)) return &p;
    }
  }
  return nullptr;
}

/// The ordering contract (DESIGN.md §13.2) over one run of requests — a
/// raw-wire connection's pending deque, or a chunked HTTP exchange's items
/// from `front` on: an unordered (id-carrying) item is delivered the
/// moment it is done, from any position; an ordered (id-less) one only
/// from the front, so a slow ordered item holds its successors back.
/// `send` frames one done item into the write buffer, marks it delivered
/// and returns false once the connection is gone, which ends the pass.
/// Returns the new front: every item before it has been delivered.
template <typename Items, typename Send>
std::size_t deliver_ready(Items& items, std::size_t front, Send send) {
  for (std::size_t i = front; i < items.size(); ++i) {
    Pending& p = items[i];
    if (!p.ordered && p.done && !p.delivered && !send(p)) return front;
  }
  for (; front < items.size(); ++front) {
    Pending& p = items[front];
    if (p.delivered) continue;
    if (!p.ordered || !p.done || !send(p)) break;
  }
  return front;
}

// --- CacheFlusher: the background checkpoint thread -----------------------

/// Owns the thread that writes the periodic checkpoints.  Shards and pool
/// workers only ever notify() it — the file write (and its "serve:
/// checkpointed" log line) never runs on an event loop or a compute
/// worker.  Destruction joins the thread and then writes the drain's
/// checkpoint on the destroying thread, the one that called
/// Server::run(): that save's buffers then come from the heap that
/// already holds the restored cache, not from the flusher thread's
/// otherwise idle malloc arena.
class CacheFlusher {
 public:
  CacheFlusher(serve::Service& service, std::ostream& log)
      : service_(service), log_(log), thread_([this] { loop(); }) {}

  ~CacheFlusher() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
    service_.flush(log_);
  }

  CacheFlusher(const CacheFlusher&) = delete;
  CacheFlusher& operator=(const CacheFlusher&) = delete;

  void notify() {
    {
      std::lock_guard lock(mu_);
      due_ = true;
    }
    cv_.notify_one();
  }

 private:
  void loop() {
    std::unique_lock lock(mu_);
    while (true) {
      cv_.wait(lock, [this] { return due_ || stop_; });
      // A checkpoint still due at stop is the drain's, written once by
      // the destructor.
      if (stop_) return;
      due_ = false;
      lock.unlock();
      service_.flush(log_);
      lock.lock();
    }
  }

  serve::Service& service_;
  std::ostream& log_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool due_ = false;
  bool stop_ = false;
  std::thread thread_;
};

// --- ShardBook: one shard's counts ---------------------------------------

constexpr std::size_t kCauses =
    static_cast<std::size_t>(Disconnect::HeaderTimeout) + 1;

/// The counts of one shard's events, kept for Server::stats().  Only the
/// shard's thread writes its book, so a count is a relaxed load and store
/// (tally), not a locked read-modify-write; stats() loads them from any
/// thread.  Cache-line aligned, so two shards never write the same line.
struct alignas(64) ShardBook {
  std::atomic<std::uint64_t> connections{0};  ///< adopted, refused included
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> dispatched{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> http_requests{0};
  std::atomic<std::uint64_t> disconnects[kCauses] = {};  ///< by Disconnect
};

namespace {

/// Counts `n` of one event in the shard's own count, which only the
/// calling shard thread writes, and in its process series, if any.
void tally(std::atomic<std::uint64_t>& own, obs::Counter* series = nullptr,
           std::uint64_t n = 1) {
  own.store(own.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  if (series) series->add(n);
}

}  // namespace

// --- Shard: one event loop ------------------------------------------------

/// One poll() loop on its own thread.  The acceptor deals sockets in via
/// adopt(); the compute pool hands back finished responses via
/// on_complete(); both poke the wakeup pipe so the loop reacts immediately
/// instead of on the next poll timeout.  Every Connection is touched by
/// exactly one shard thread — the pool only ever holds a weak_ptr it never
/// dereferences — so connection state needs no locks.
class Shard {
 public:
  Shard(Server& server, std::size_t index);
  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  void start();
  void request_stop();
  void join();

  /// Hands a connection to this shard and counts it toward the connection
  /// cap (acceptor thread): an accepted socket (`out_fd` < 0), or a stdio
  /// session reading `fd` and answering on `out_fd`.  `refused`
  /// connections get the polite "overloaded" farewell (a structured line
  /// on the raw wire, a 503 + Retry-After over HTTP) and close.  `http`
  /// fixes the connection's protocol for its lifetime.
  void adopt(int fd, int out_fd, bool refused, bool http);

  /// A dispatched compute phase finished (pool thread): queue its
  /// response and wake the loop so it is delivered now.
  void on_complete(std::weak_ptr<Connection> conn, std::uint64_t seq,
                   std::string response);

 private:
  struct Completion {
    std::weak_ptr<Connection> conn;
    std::uint64_t seq = 0;
    std::string response;
  };

  void loop();
  void drain();
  void wake();
  void drain_wakeup();
  void adopt_incoming();
  void read_ready(Connection& c, std::size_t budget);
  bool admit_one(const std::shared_ptr<Connection>& cp);
  bool process_http_one(const std::shared_ptr<Connection>& cp);
  void handle_http_request(const std::shared_ptr<Connection>& cp);
  void fail_http(Connection& c, http::Error err);
  void flush_http(Connection& c);
  bool append_out(Connection& c, std::string_view data);
  void finish_exchange(const HttpExchange& ex);
  void note_http(const char* route, int status);
  void process_lines();
  [[nodiscard]] std::string oversize_error() const;
  Pending evaluate_line(const std::shared_ptr<Connection>& cp,
                        const std::string& line);
  void dispatch(const std::shared_ptr<Connection>& cp, std::uint64_t seq,
                serve::Service::Admission adm);
  void flush_deliverable(Connection& c);
  void drain_completions();
  void flush_conn(Connection& c);
  bool make_room(Connection& c, std::size_t n);
  void flush_writes();
  void reap_and_time_out();
  void begin_close(Connection& c, Disconnect cause,
                   const std::string& farewell);
  void close_now(Connection& c, Disconnect cause);
  void publish_gauges() const;

  Server& server_;
  int wake_fds_[2] = {-1, -1};  ///< [0] read end (polled), [1] write end
  std::thread thread_;
  std::atomic<bool> stop_{false};

  struct Incoming {
    int fd = -1;
    int out_fd = -1;  ///< >= 0 for a stdio session
    bool refused = false;
    bool http = false;
  };

  std::mutex in_mu_;
  std::vector<Incoming> incoming_;
  std::mutex cq_mu_;
  std::vector<Completion> completions_;

  // Loop-thread-only state.
  std::vector<std::shared_ptr<Connection>> conns_;
  std::size_t rr_ = 0;       ///< round-robin fairness cursor
  std::string http_scratch_;  ///< response head/chunk build buffer

  // Each event is counted once in this shard's book and once in its
  // process series (rvhpc_net_*, rvhpc_http_*), which the shard resolves
  // when it is built: every pointer is null while metrics are off.
  ShardBook& book_;
  const bool metrics_;
  obs::Counter* conns_series_ = nullptr;
  obs::Counter* reqs_series_ = nullptr;
  obs::Counter* read_series_ = nullptr;
  obs::Counter* written_series_ = nullptr;
  obs::Counter* disconnect_series_[kCauses] = {};
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Histogram* http_duration_ = nullptr;
  /// rvhpc_http_requests_total{route,status}, each pair looked up on its
  /// first exchange.
  struct HttpSeries {
    const char* route;
    int status;
    obs::Counter* counter;
  };
  std::vector<HttpSeries> http_series_;
};

Shard::Shard(Server& server, std::size_t index)
    : server_(server),
      book_(server.books_[index]),
      metrics_(obs::metrics_enabled()) {
  if (::pipe(wake_fds_) == 0) {
    set_nonblocking(wake_fds_[0]);
    set_nonblocking(wake_fds_[1]);
  } else {
    wake_fds_[0] = wake_fds_[1] = -1;  // degraded: poll-timeout latency only
  }
  if (!metrics_) return;
  auto& reg = obs::Registry::global();
  const std::string shard = "{shard=\"" + std::to_string(index) + "\"}";
  conns_series_ = &reg.counter("rvhpc_net_connections_total" + shard,
                               "connections adopted, by shard");
  reqs_series_ = &reg.counter("rvhpc_net_requests_total" + shard,
                              "response lines delivered, by shard");
  read_series_ = &reg.counter("rvhpc_net_bytes_read_total" + shard,
                              "payload bytes received, by shard");
  written_series_ = &reg.counter("rvhpc_net_bytes_written_total" + shard,
                                 "response bytes written, by shard");
  depth_gauge_ = &reg.gauge("rvhpc_net_queue_depth_bytes" + shard,
                            "request bytes buffered, not yet admitted, by "
                            "shard");
  for (std::size_t i = 0; i < kCauses; ++i) {
    disconnect_series_[i] = &reg.counter(
        std::string("rvhpc_net_disconnect_total{reason=\"") +
            to_string(static_cast<Disconnect>(i)) + "\"}",
        "connections closed, by cause");
  }
  if (server.opts_.http) {
    http_duration_ = &reg.histogram(
        "rvhpc_http_request_duration_seconds",
        "wall time from a parsed HTTP request to its response head");
  }
}

Shard::~Shard() {
  request_stop();
  join();
  for (auto& c : conns_) {
    if (c->fd < 0) continue;
    ::close(c->fd);
    if (c->out_fd != c->fd) ::close(c->out_fd);
  }
  for (const Incoming& in : incoming_) {
    ::close(in.fd);
    if (in.out_fd >= 0) ::close(in.out_fd);
  }
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

void Shard::start() {
  thread_ = std::thread([this] { loop(); });
}

void Shard::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  wake();
}

void Shard::join() {
  if (thread_.joinable()) thread_.join();
}

void Shard::adopt(int fd, int out_fd, bool refused, bool http) {
  server_.open_conns_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(in_mu_);
    incoming_.push_back({fd, out_fd, refused, http});
  }
  wake();
}

void Shard::on_complete(std::weak_ptr<Connection> conn, std::uint64_t seq,
                        std::string response) {
  {
    std::lock_guard lock(cq_mu_);
    completions_.push_back({std::move(conn), seq, std::move(response)});
  }
  wake();
}

void Shard::wake() {
  if (wake_fds_[1] < 0) return;
  // Best-effort and non-blocking: a full pipe already guarantees the loop
  // has wakeups queued, and the poll timeout backstops a lost byte.
  const char byte = 0;
  (void)!::write(wake_fds_[1], &byte, 1);
}

void Shard::drain_wakeup() {
  if (wake_fds_[0] < 0) return;
  char sink[256];
  while (::read(wake_fds_[0], sink, sizeof(sink)) > 0) {
  }
}

void Shard::adopt_incoming() {
  std::vector<Incoming> in;
  {
    std::lock_guard lock(in_mu_);
    in.swap(incoming_);
  }
  for (const Incoming& inc : in) {
    auto c = std::make_shared<Connection>();
    c->fd = inc.fd;
    c->stdio = inc.out_fd >= 0;
    c->out_fd = c->stdio ? inc.out_fd : inc.fd;
    c->http = inc.http;
    c->last_read_us = now_us();
    if (inc.http) {
      http::Limits limits;
      limits.max_body = server_.opts_.max_body_bytes;
      c->parser = std::make_unique<http::RequestParser>(limits);
    }
    tally(book_.connections, conns_series_);
    if (inc.refused) {
      // Polite refusal: a structured answer beats a dangling connect.
      const std::string reason =
          "connection limit (" +
          std::to_string(server_.opts_.max_connections) +
          ") reached; retry later";
      const std::string body = serve::error_json("", "overloaded", reason) + '\n';
      if (inc.http) {
        std::string farewell;
        http::append_head(farewell, 503, /*keep_alive=*/false,
                          "application/json", body.size(),
                          "Retry-After: 1\r\n");
        farewell += body;
        note_http("other", 503);
        begin_close(*c, Disconnect::Refused, farewell);
      } else {
        begin_close(*c, Disconnect::Refused, body);
      }
    }
    conns_.push_back(std::move(c));
  }
}

void Shard::begin_close(Connection& c, Disconnect cause,
                        const std::string& farewell) {
  if (c.closing) return;
  // The farewell rides the normal write path; if even that does not fit
  // the bound the client is hopeless and the buffer stays as-is.
  if (c.wbuf.size() + farewell.size() <= server_.opts_.max_write_buffer) {
    c.wbuf += farewell;
  }
  c.rbuf.clear();
  c.rpos = 0;
  c.closing = true;
  c.cause = cause;
  c.closing_since_us = now_us();
}

void Shard::close_now(Connection& c, Disconnect cause) {
  if (c.fd < 0) return;
  ::close(c.fd);
  if (c.out_fd != c.fd) ::close(c.out_fd);
  c.fd = -1;
  // A stdio session is the server's whole reason to run: its end is the
  // server's drain.
  if (c.stdio) server_.stop();
  server_.open_conns_.fetch_sub(1, std::memory_order_relaxed);
  const auto i = static_cast<std::size_t>(cause);
  tally(book_.disconnects[i], disconnect_series_[i]);
}

/// Bytes the event loop reads from one connection per pass.
constexpr std::size_t kReadBudget = 16 * 1024;

/// Moves what `c`'s input holds into its read buffer: at most `budget`
/// bytes, and no further once the buffer passes the line bound.  The
/// event loop passes kReadBudget, so one pass answers at most 16 KiB of
/// a pipelining client's requests, and the buffers a pass fills (those
/// requests and their answers, about four times as large) stay below
/// malloc's 128 KiB mmap threshold.  Reading to the 64 KiB line bound
/// instead grew them to 128-200 KiB; freeing them at close made malloc
/// trim the shard's heap, and every new pipelining connection faulted
/// those pages back in.  The drain passes no budget: it picks up
/// whatever the kernel already buffered, up to the line bound.
void Shard::read_ready(Connection& c, std::size_t budget) {
  char chunk[kReadBudget];
  while (budget > 0 && !c.draining && !c.closing &&
         c.rbuf.size() <= server_.opts_.max_line_bytes) {
    // A stdio input may be a blocking fd: it is read once per call, and
    // only when the read will not wait.
    if (c.stdio && !readable(c.fd)) return;
    const ssize_t n = ::read(c.fd, chunk, std::min(sizeof(chunk), budget));
    if (n > 0) {
      budget -= static_cast<std::size_t>(n);
      c.rbuf.append(chunk, static_cast<std::size_t>(n));
      c.last_read_us = now_us();
      tally(book_.bytes_in, read_series_, static_cast<std::uint64_t>(n));
    } else if (n == 0) {
      // EOF: the client is done sending.  Its buffered complete lines are
      // still answered.  A trailing partial line is discarded on a socket
      // (a client that died mid-request); a stdio stream's last line
      // needs no newline, so it is answered like the others.
      c.draining = true;
      c.cause = Disconnect::Eof;
      if (c.stdio && !c.rbuf.empty() && c.rbuf.back() != '\n') c.rbuf += '\n';
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    } else if (errno == EINTR) {
      continue;
    } else {
      close_now(c, Disconnect::Error);
      return;
    }
    if (c.stdio) return;
  }
}

/// Admits at most one buffered line of `cp`; true when a line was consumed
/// (the round-robin scheduler uses this to detect an idle pass).
bool Shard::admit_one(const std::shared_ptr<Connection>& cp) {
  Connection& c = *cp;
  if (c.fd < 0 || c.closing) return false;

  std::string line;
  const bool whole = take_line(c.rbuf, c.rpos, line);
  if (whole && blank(line)) return true;  // consumed input, no response owed
  // A line past the bound — or a partial one, which can never complete
  // within it — is rejected now rather than buffered forever.
  if (whole ? line.size() > server_.opts_.max_line_bytes
            : c.rbuf.size() - c.rpos > server_.opts_.max_line_bytes) {
    begin_close(c, Disconnect::Oversize, oversize_error() + '\n');
    return false;
  }
  if (!whole) return false;
  c.pending.push_back(evaluate_line(cp, line));
  flush_deliverable(c);
  return true;
}

/// The answer to a request line longer than max_line_bytes.
std::string Shard::oversize_error() const {
  return serve::error_json("", "overloaded",
                           "request line exceeds " +
                               std::to_string(server_.opts_.max_line_bytes) +
                               " bytes");
}

/// The protocol-independent admission core: turns one request line into a
/// Pending — resolved inline (overloaded rejection, parse/lint error,
/// warm cache hit) or dispatched to the compute pool.  The raw wire
/// pushes the result onto Connection::pending; the HTTP front end onto
/// the owning exchange's items.
Pending Shard::evaluate_line(const std::shared_ptr<Connection>& cp,
                             const std::string& line) {
  Connection& c = *cp;
  Pending p;
  p.seq = c.next_seq++;

  // A single line past the wire bound answers an error instead of ever
  // being parsed (over HTTP the connection survives — the body bound
  // already capped total memory; on the raw wire admit_one closed it).
  if (line.size() > server_.opts_.max_line_bytes) {
    p.ordered = false;
    p.done = true;
    p.response = oversize_error();
    return p;
  }

  // Admission bound, checked before the parse: compute dispatched and not
  // yet completed past the service's queue capacity is answered
  // "overloaded" immediately.
  if (server_.inflight_.load(std::memory_order_relaxed) >=
      server_.service_.options().queue_capacity) {
    p.ordered = false;
    p.done = true;
    p.response = server_.service_.reject_overloaded();
    return p;
  }

  serve::Service::Admission adm = server_.service_.admit(line);
  p.ordered = !adm.had_id;
  if (!adm.request) {
    // Resolved at admission (parse error, lint rejection).
    p.done = true;
    p.response = std::move(adm.response);
    return p;
  }
  if (server_.service_.cached(*adm.request)) {
    // Warm path: a memo probe answers inline on the event loop — cheaper
    // than a pool handoff, and it is what keeps cached hits flowing on
    // every connection while uncached requests compute.
    p.done = true;
    p.response = server_.service_.complete(*adm.request, adm.arrival_us);
    if (server_.service_.note_evaluation() && server_.flusher_) {
      server_.flusher_->notify();
    }
    return p;
  }
  dispatch(cp, p.seq, std::move(adm));
  return p;
}

void Shard::dispatch(const std::shared_ptr<Connection>& cp, std::uint64_t seq,
                     serve::Service::Admission adm) {
  server_.inflight_.fetch_add(1, std::memory_order_relaxed);
  tally(book_.dispatched);
  server_.pool_->submit([this, req = std::move(adm.request),
                         arrival = adm.arrival_us,
                         wk = std::weak_ptr<Connection>(cp), seq]() mutable {
    std::string response;
    try {
      response = server_.service_.complete(*req, arrival);
    } catch (const std::exception& e) {
      // complete() promises not to throw and a pool task must not; this is
      // the belt to that suspender — the client still gets a structured
      // line.
      response = serve::error_json("", "internal", e.what());
    }
    const bool checkpoint_due = server_.service_.note_evaluation();
    server_.inflight_.fetch_sub(1, std::memory_order_relaxed);
    if (checkpoint_due && server_.flusher_) server_.flusher_->notify();
    on_complete(std::move(wk), seq, std::move(response));
  });
}

/// Appends to the write buffer under the slow-reader bound; false (and
/// the connection is gone) when the client is not draining responses.
bool Shard::append_out(Connection& c, std::string_view data) {
  if (!make_room(c, data.size())) return false;
  c.wbuf.append(data);
  return true;
}

/// Feeds buffered bytes to the connection's request parser and turns at
/// most one completed request into an exchange per pass (the same
/// round-robin fairness admit_one gives the raw wire).  True when any
/// input was consumed or a request was handled.
bool Shard::process_http_one(const std::shared_ptr<Connection>& cp) {
  Connection& c = *cp;
  if (c.fd < 0 || c.closing) return false;
  http::RequestParser& parser = *c.parser;

  bool progress = false;
  if (c.rpos < c.rbuf.size()) {
    const std::size_t used =
        parser.feed(std::string_view(c.rbuf).substr(c.rpos));
    if (used > 0) {
      c.rpos += used;
      progress = true;
    }
  }
  if (parser.failed()) {
    fail_http(c, parser.error());
    return true;
  }
  if (!parser.complete()) {
    // curl (and friends) pause before sending a >1 KiB body until the
    // interim "100 Continue" arrives; answer it once per request, as
    // soon as the header block is in.
    if (parser.headers_complete() && parser.expect_continue() &&
        !c.sent_continue) {
      c.sent_continue = true;
      if (!append_out(c, http::kContinue)) return true;
      progress = true;
    }
    return progress;
  }
  handle_http_request(cp);
  c.sent_continue = false;
  parser.reset();
  flush_http(c);
  return true;
}

/// Routes one complete request into an exchange (and, for predict
/// batches, admits every body line through the shared admission core).
void Shard::handle_http_request(const std::shared_ptr<Connection>& cp) {
  Connection& c = *cp;
  const http::RequestParser& parser = *c.parser;
  const http::RouteMatch match =
      http::route_target(parser.method(), parser.target());

  HttpExchange ex;
  ex.keep_alive = parser.keep_alive();
  ex.route = http::route_label(match.route);
  ex.head_only = parser.method() == "HEAD";
  ex.start_us = now_us();
  switch (match.route) {
    case http::Route::Predict: {
      // The body is the raw wire: one JSON request per line.  Each line
      // goes through exactly the admission path TCP lines do; a single
      // line answers a status-mapped fixed-length reply, two or more
      // stream back chunked as their compute completes.
      const std::string_view body = parser.body();
      std::string line;
      std::size_t pos = 0;
      while (pos < body.size()) {
        std::size_t nl = body.find('\n', pos);
        const std::size_t end = (nl == std::string_view::npos) ? body.size()
                                                               : nl;
        std::string_view raw = body.substr(pos, end - pos);
        if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
        pos = end + 1;
        line.assign(raw);
        if (!blank(line)) ex.items.push_back(evaluate_line(cp, line));
      }
      if (ex.items.empty()) {
        ex.immediate = true;
        ex.status = 400;
        ex.body = serve::error_json("", "parse", "empty request body") + '\n';
      } else {
        ex.chunked = ex.items.size() > 1;
      }
      break;
    }
    case http::Route::Metrics:
      // Rendered when the head is written, not here: a scrape pipelined
      // behind a predict must observe that predict's counters.
      ex.immediate = true;
      ex.metrics = true;
      ex.content_type = "text/plain; version=0.0.4";
      break;
    case http::Route::Healthz:
      // Status and body are computed when the head is written, so a
      // pipelined healthz behind a slow batch reports "draining" if the
      // server started draining in between.
      ex.immediate = true;
      ex.healthz = true;
      break;
    case http::Route::NotFound:
      ex.immediate = true;
      ex.status = 404;
      ex.body = serve::error_json("", "parse",
                                  "no such route; POST /v1/predict, "
                                  "GET /metrics, GET /healthz") +
                '\n';
      break;
    case http::Route::MethodNotAllowed:
      ex.immediate = true;
      ex.status = 405;
      ex.allow = match.allow;
      ex.body = serve::error_json("", "parse", "method not allowed") + '\n';
      break;
  }
  c.exchanges.push_back(std::move(ex));
}

/// A request that cannot be parsed gets one full HTTP error response and
/// a close — malformed framing leaves no way to find the next request's
/// boundary, so the connection cannot survive.
void Shard::fail_http(Connection& c, http::Error err) {
  const int status = http::status_for_error(err);
  const std::string body =
      serve::error_json("", "parse", http::to_string(err)) + '\n';
  std::string farewell;
  http::append_head(farewell, status, /*keep_alive=*/false,
                    "application/json", body.size());
  farewell += body;
  note_http("other", status);
  begin_close(c,
              (status == 413 || status == 431) ? Disconnect::Oversize
                                               : Disconnect::Error,
              farewell);
}

void Shard::finish_exchange(const HttpExchange& ex) {
  note_http(ex.route, ex.status);
  if (http_duration_) http_duration_->observe((now_us() - ex.start_us) / 1e6);
}

/// Books one HTTP response: the shard's exchange count and its
/// rvhpc_http_requests_total{route,status} series.
void Shard::note_http(const char* route, int status) {
  tally(book_.http_requests);
  if (!metrics_) return;
  for (const HttpSeries& s : http_series_) {
    if (s.status == status && std::strcmp(s.route, route) == 0) {
      s.counter->add();
      return;
    }
  }
  std::string name = "rvhpc_http_requests_total{route=\"";
  name += route;
  name += "\",status=\"";
  name += std::to_string(status);
  name += "\"}";
  obs::Counter& series = obs::Registry::global().counter(
      name, "HTTP exchanges completed, by route and status");
  http_series_.push_back({route, status, &series});
  series.add();
}

/// Writes whatever the front exchange can deliver.  Exchanges answer in
/// request order (pipelining), so only the front touches the socket:
/// fixed-length replies wait for their single item, chunked batches
/// stream every completed item (unordered from any position, ordered
/// from the front — the raw wire's id contract) and terminate with the
/// last-chunk once all items delivered.
void Shard::flush_http(Connection& c) {
  while (!c.exchanges.empty() && c.fd >= 0 && !c.closing) {
    HttpExchange& ex = c.exchanges.front();

    // A single-item predict reply becomes an immediate body once its
    // compute lands: the status is mapped from the response itself
    // (overloaded → 503, timeout → 504), which needs the whole reply
    // before the head.
    if (!ex.immediate && !ex.chunked) {
      Pending& item = ex.items.front();
      if (!item.done) break;
      ex.status = http::status_for_response(item.response);
      ex.body = std::move(item.response);
      ex.body += '\n';
      ex.items.clear();
      ex.immediate = true;
      tally(book_.answered, reqs_series_);
    }

    if (!ex.head_sent) {
      if (ex.metrics) ex.body = obs::Registry::global().render_text();
      if (ex.healthz) {
        const bool draining = stop_.load(std::memory_order_relaxed) ||
                              server_.stop_.load(std::memory_order_relaxed) ||
                              serve::shutdown_requested();
        ex.status = draining ? 503 : 200;
        ex.body = draining ? "{\"status\": \"draining\"}\n"
                           : "{\"status\": \"serving\"}\n";
      }
      std::string& head = http_scratch_;  // shard-owned, capacity reused
      head.clear();
      std::string extra;
      if (ex.status == 503) extra += "Retry-After: 1\r\n";
      if (ex.allow[0] != '\0') {
        extra += "Allow: ";
        extra += ex.allow;
        extra += "\r\n";
      }
      if (ex.chunked) {
        http::append_chunked_head(head, ex.status, ex.keep_alive,
                                  ex.content_type, extra);
      } else {
        http::append_head(head, ex.status, ex.keep_alive, ex.content_type,
                          ex.body.size(), extra);
        if (!ex.head_only) head += ex.body;
      }
      if (!append_out(c, head)) return;
      ex.head_sent = true;
      if (!ex.chunked) {
        finish_exchange(ex);
        const bool keep = ex.keep_alive;
        c.exchanges.pop_front();
        if (!keep) {
          begin_close(c, Disconnect::Eof, "");
          return;
        }
        continue;
      }
    }

    // Chunked streaming under the raw wire's ordering contract, the front
    // cursor marking the delivered prefix.
    std::string& chunk = http_scratch_;  // head is already flushed out
    ex.next_item = deliver_ready(ex.items, ex.next_item, [&](Pending& p) {
      p.response += '\n';
      chunk.clear();
      http::append_chunk(chunk, p.response);
      if (!append_out(c, chunk)) return false;
      p.delivered = true;
      tally(book_.answered, reqs_series_);
      return true;
    });
    if (c.fd < 0) return;
    if (ex.next_item < ex.items.size()) break;  // still waiting on compute
    if (!append_out(c, http::kLastChunk)) return;
    finish_exchange(ex);
    const bool keep = ex.keep_alive;
    c.exchanges.pop_front();
    if (!keep) {
      begin_close(c, Disconnect::Eof, "");
      return;
    }
  }
}

void Shard::process_lines() {
  // Round-robin fairness: each pass gives every connection at most one
  // admitted line, starting one past last pass's starting point, until a
  // full pass makes no progress.  A client with 50 buffered requests
  // interleaves with everyone else instead of monopolising the loop.
  bool progress = true;
  while (progress) {
    progress = false;
    const std::size_t n = conns_.size();
    if (n == 0) return;
    rr_ = (rr_ + 1) % n;
    for (std::size_t k = 0; k < n; ++k) {
      const std::shared_ptr<Connection>& cp = conns_[(rr_ + k) % n];
      progress |= cp->http ? process_http_one(cp) : admit_one(cp);
    }
  }
  for (const auto& cp : conns_) {
    cp->rbuf.erase(0, cp->rpos);
    cp->rpos = 0;
  }
}

/// Delivers what the raw wire's ordering contract allows, one response
/// line per request, and drops the delivered prefix.
void Shard::flush_deliverable(Connection& c) {
  const std::size_t delivered = deliver_ready(c.pending, 0, [&](Pending& p) {
    if (c.fd < 0 || c.closing || !make_room(c, p.response.size() + 1)) {
      return false;  // response owed to no one now
    }
    c.wbuf += p.response;
    c.wbuf += '\n';
    p.delivered = true;
    tally(book_.answered, reqs_series_);
    return true;
  });
  c.pending.erase(c.pending.begin(),
                  c.pending.begin() + static_cast<std::ptrdiff_t>(delivered));
}

void Shard::drain_completions() {
  std::vector<Completion> ready;
  {
    std::lock_guard lock(cq_mu_);
    ready.swap(completions_);
  }
  for (Completion& done : ready) {
    const std::shared_ptr<Connection> c = done.conn.lock();
    if (!c) continue;
    if (Pending* p = find_item(
            *c, [&](const Pending& q) { return q.seq == done.seq; })) {
      p->response = std::move(done.response);
      p->done = true;
    }
    if (c->http) {
      flush_http(*c);
    } else {
      flush_deliverable(*c);
    }
  }
}

/// Sends as much of `c`'s write buffer as the socket takes without
/// blocking; a send error closes the connection.  A stdio session's
/// output is written out whole instead, waiting for a stalled reader:
/// back-pressure, which stops the shard reading the session's input,
/// rather than a slow-reader disconnect.
void Shard::flush_conn(Connection& c) {
  while (c.fd >= 0 && !c.wbuf.empty()) {
    const ssize_t n =
        c.stdio ? ::write(c.out_fd, c.wbuf.data(), c.wbuf.size())
                : ::send(c.out_fd, c.wbuf.data(), c.wbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.wbuf.erase(0, static_cast<std::size_t>(n));
      tally(book_.bytes_out, written_series_, static_cast<std::uint64_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c.stdio) break;
      pollfd p{c.out_fd, POLLOUT, 0};  // inherited non-blocking: wait here
      (void)::poll(&p, 1, -1);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      close_now(c, c.closing ? c.cause : Disconnect::Error);
      break;
    }
  }
}

/// True when `n` more bytes fit in `c`'s write buffer under the
/// slow-reader bound.  A burst of pipelined requests is answered inline
/// before the loop's flush_writes() runs, so a response that does not
/// fit first flushes the buffer to the socket; only a client whose
/// kernel buffers are full as well is not draining its responses.
/// Holding more for it would be unbounded memory, and it cannot read an
/// apology either, so it is closed (false; false too when the flush
/// itself lost the connection).
bool Shard::make_room(Connection& c, std::size_t n) {
  const std::size_t bound = server_.opts_.max_write_buffer;
  if (c.wbuf.size() + n <= bound) return true;
  flush_conn(c);
  if (c.fd < 0) return false;
  if (c.wbuf.size() + n <= bound) return true;
  close_now(c, Disconnect::SlowReader);
  return false;
}

void Shard::flush_writes() {
  for (auto& cp : conns_) flush_conn(*cp);
}

void Shard::reap_and_time_out() {
  const double now = now_us();
  for (auto& cp : conns_) {
    Connection& c = *cp;
    if (c.fd < 0) continue;
    if (finished(c)) {
      close_now(c, c.cause);
      continue;
    }
    if (c.closing &&
        now - c.closing_since_us > server_.opts_.drain_grace_ms * 1000.0) {
      // Told to go away but not reading the farewell: forced close.
      close_now(c, c.cause);
      continue;
    }
    // Header deadline (slow loris): a request that *started* but whose
    // framing has not completed is timed from its first byte.  The idle
    // check below cannot catch this — every dripped byte advances
    // last_read_us — so the partial clock is stamped once per request
    // and only cleared when the framing completes.
    if (!c.closing && !c.draining && c.pending.empty() &&
        c.exchanges.empty() && server_.opts_.header_timeout_ms > 0.0) {
      const bool partial =
          c.http ? (c.parser && c.parser->started() && !c.parser->complete())
                 : (!c.rbuf.empty() &&
                    c.rbuf.find('\n') == std::string::npos);
      if (!partial) {
        c.partial_since_us = 0.0;
      } else if (c.partial_since_us == 0.0) {
        c.partial_since_us = now;
      } else if (now - c.partial_since_us >
                 server_.opts_.header_timeout_ms * 1000.0) {
        const std::string body =
            serve::error_json(
                "", "timeout",
                "request not completed within " +
                    std::to_string(server_.opts_.header_timeout_ms) +
                    " ms; closing") +
            '\n';
        if (c.http) {
          std::string farewell;
          http::append_head(farewell, 408, /*keep_alive=*/false,
                            "application/json", body.size());
          farewell += body;
          note_http("other", 408);
          begin_close(c, Disconnect::HeaderTimeout, farewell);
        } else {
          begin_close(c, Disconnect::HeaderTimeout, body);
        }
        continue;
      }
    }
    if (!c.closing && !c.draining && c.pending.empty() &&
        c.exchanges.empty() && server_.opts_.idle_timeout_ms > 0.0 &&
        now - c.last_read_us > server_.opts_.idle_timeout_ms * 1000.0) {
      if (c.http) {
        // An idle keep-alive connection owes no response; close quietly
        // like every stock HTTP server does.
        begin_close(c, Disconnect::Idle, "");
      } else {
        begin_close(
            c, Disconnect::Idle,
            serve::error_json("", "timeout",
                              "idle for more than " +
                                  std::to_string(server_.opts_.idle_timeout_ms) +
                                  " ms; closing") +
                '\n');
      }
    }
  }
  std::erase_if(conns_, [](const std::shared_ptr<Connection>& c) {
    return c->fd < 0;
  });
}

void Shard::publish_gauges() const {
  if (!depth_gauge_) return;
  double pending_bytes = 0.0;
  for (const auto& c : conns_) {
    pending_bytes += static_cast<double>(c->rbuf.size());
  }
  depth_gauge_->set(pending_bytes);
}

void Shard::loop() {
  std::vector<pollfd> fds;
  while (!stop_.load(std::memory_order_relaxed)) {
    fds.clear();
    if (wake_fds_[0] >= 0) fds.push_back({wake_fds_[0], POLLIN, 0});
    for (const auto& c : conns_) {
      short events = 0;
      if (!c->draining && !c->closing &&
          c->rbuf.size() <= server_.opts_.max_line_bytes) {
        events |= POLLIN;
      }
      if (!c->wbuf.empty()) events |= POLLOUT;
      fds.push_back({c->fd, events, 0});
    }
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                 server_.opts_.poll_interval_ms);
    drain_wakeup();
    adopt_incoming();
    // Readiness is a hint, not a contract: reads and writes are
    // non-blocking, so sweeping every connection is safe and keeps the
    // loop free of fd-to-connection bookkeeping.
    for (auto& c : conns_) {
      if (c->fd >= 0 && !c->draining && !c->closing) {
        read_ready(*c, kReadBudget);
      }
    }
    process_lines();
    drain_completions();
    flush_writes();
    reap_and_time_out();
    publish_gauges();
  }
  drain();
}

void Shard::drain() {
  adopt_incoming();
  // Pick up whatever the kernel already buffered — a client that
  // pipelined requests just before SIGTERM (say a healthz probe behind a
  // slow batch) still gets every one answered, with healthz now
  // reporting "draining".
  for (auto& c : conns_) {
    if (c->fd >= 0 && !c->draining && !c->closing) {
      read_ready(*c, std::numeric_limits<std::size_t>::max());
    }
  }
  process_lines();
  // Answered, not dropped: every dispatched compute completes and
  // delivers before sockets are torn down.  This wait is not grace-bounded
  // — the pool outlives the shards precisely so it terminates.
  while (true) {
    drain_completions();
    flush_writes();
    const bool undone = std::any_of(
        conns_.begin(), conns_.end(), [](const std::shared_ptr<Connection>& c) {
          return c->fd >= 0 &&
                 find_item(*c, [](const Pending& p) { return !p.done; });
        });
    if (!undone) break;
    if (wake_fds_[0] >= 0) {
      pollfd wp{wake_fds_[0], POLLIN, 0};
      (void)::poll(&wp, 1, server_.opts_.poll_interval_ms);
      drain_wakeup();
    } else {
      pollfd none{-1, 0, 0};
      (void)::poll(&none, 1, server_.opts_.poll_interval_ms);
    }
    for (auto& c : conns_) {
      if (c->fd >= 0 && !c->draining && !c->closing) {
        read_ready(*c, std::numeric_limits<std::size_t>::max());
      }
    }
    process_lines();
  }
  // Everything resolvable is resolved; push any responses still parked
  // on their exchanges/deques into the write buffers.
  for (auto& cp : conns_) {
    if (cp->fd < 0) continue;
    if (cp->http) {
      flush_http(*cp);
    } else {
      flush_deliverable(*cp);
    }
  }
  // Then a bounded grace for the write buffers to reach their clients.
  const double deadline = now_us() + server_.opts_.drain_grace_ms * 1000.0;
  std::vector<pollfd> fds;
  while (now_us() < deadline) {
    fds.clear();
    for (const auto& c : conns_) {
      if (c->fd >= 0 && !c->wbuf.empty()) {
        fds.push_back({c->out_fd, POLLOUT, 0});
      }
    }
    if (fds.empty()) break;
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                 server_.opts_.poll_interval_ms);
    flush_writes();
    std::erase_if(conns_, [](const std::shared_ptr<Connection>& c) {
      return c->fd < 0;
    });
  }
  // A peer that had finished keeps its own cause; the drain cut off the
  // rest: still sending, or not reading what it was owed.
  for (auto& c : conns_) {
    if (c->fd < 0) continue;
    close_now(*c, finished(*c) ? c->cause : Disconnect::Drained);
  }
  conns_.clear();
  if (depth_gauge_) depth_gauge_->set(0.0);
}

}  // namespace detail

// --- Server: the acceptor -------------------------------------------------

Server::Server(serve::Service& service, ServerOptions opts)
    : service_(service), opts_(opts) {
  if (opts_.shards == 0) opts_.shards = 1;
  if (opts_.max_line_bytes == 0) opts_.max_line_bytes = 1;
  if (opts_.max_write_buffer == 0) opts_.max_write_buffer = 1;
  if (opts_.poll_interval_ms <= 0) opts_.poll_interval_ms = 50;
  if (opts_.max_body_bytes == 0) opts_.max_body_bytes = 1;
  if (!opts_.json_listener && !opts_.http) opts_.json_listener = true;
  books_ = std::vector<detail::ShardBook>(opts_.shards);
}

Server::~Server() = default;

void Server::open(std::ostream& log) {
  if (opts_.json_listener) {
    listener_.open(opts_.port);
    log << "net: listening on 127.0.0.1:" << listener_.port() << "\n"
        << std::flush;
  }
  if (opts_.http) {
    http_listener_.open(opts_.http_port);
    log << "http: listening on 127.0.0.1:" << http_listener_.port() << "\n"
        << std::flush;
  }
}

ServerStats Server::stats() const {
  // Where each cause's count goes, indexed by Disconnect.
  static constexpr std::uint64_t ServerStats::*kByCause[detail::kCauses] = {
      &ServerStats::disconnect_eof,
      &ServerStats::disconnect_idle,
      &ServerStats::disconnect_oversize,
      &ServerStats::disconnect_slow_reader,
      &ServerStats::disconnect_refused,
      &ServerStats::disconnect_error,
      &ServerStats::disconnect_drained,
      &ServerStats::disconnect_header_timeout};
  const auto get = [](const std::atomic<std::uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  ServerStats s;
  for (const detail::ShardBook& b : books_) {
    s.shard_connections.push_back(get(b.connections));
    s.shard_answered.push_back(get(b.answered));
    s.accepted += s.shard_connections.back();
    s.answered += s.shard_answered.back();
    s.dispatched += get(b.dispatched);
    s.bytes_in += get(b.bytes_in);
    s.bytes_out += get(b.bytes_out);
    s.http_requests += get(b.http_requests);
    for (std::size_t i = 0; i < detail::kCauses; ++i) {
      s.*kByCause[i] += get(b.disconnects[i]);
    }
  }
  return s;
}

void Server::publish_gauges() const {
  if (!obs::metrics_enabled()) return;
  static obs::Gauge& open_conns = obs::Registry::global().gauge(
      "rvhpc_net_open_connections", "currently connected TCP clients");
  static obs::Gauge& inflight = obs::Registry::global().gauge(
      "rvhpc_net_inflight_requests",
      "compute phases dispatched and not yet completed");
  open_conns.set(
      static_cast<double>(open_conns_.load(std::memory_order_relaxed)));
  inflight.set(static_cast<double>(inflight_.load(std::memory_order_relaxed)));
}

void Server::accept_pending() {
  if (listener_.is_open()) accept_from(listener_, /*http=*/false);
  if (http_listener_.is_open()) accept_from(http_listener_, /*http=*/true);
}

void Server::accept_from(const Listener& listener, bool http) {
  while (true) {
    const int fd = listener.accept_client();
    if (fd < 0) return;
    if (opts_.so_sndbuf > 0) {
      (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.so_sndbuf,
                         sizeof(opts_.so_sndbuf));
    }
    // The cap spans shards, so the check lives here on the acceptor; the
    // owning shard delivers the polite farewell.
    const bool refused =
        open_conns_.load(std::memory_order_relaxed) >= opts_.max_connections;
    shards_[next_shard_]->adopt(fd, -1, refused, http);
    next_shard_ = (next_shard_ + 1) % shards_.size();
  }
}

void Server::adopt_stdio(int in_fd, int out_fd) {
  stdio_in_ = in_fd;
  stdio_out_ = out_fd;
}

void Server::run(std::ostream& log) {
  const auto stop_requested = [this] {
    return stop_.load(std::memory_order_relaxed) ||
           serve::shutdown_requested();
  };

  // One compute pool shared by every shard (sized by the service's jobs
  // setting), one background cache flusher, N event loops.  The pool and
  // the flusher must outlive the shards: shard drain waits on computes the
  // pool is still running, and the flusher owns every cache checkpoint.
  pool_ = std::make_unique<engine::ThreadPool>(service_.jobs());
  flusher_ = std::make_unique<detail::CacheFlusher>(service_, log);
  shards_.clear();
  next_shard_ = 0;
  for (std::size_t i = 0; i < opts_.shards; ++i) {
    shards_.push_back(std::make_unique<detail::Shard>(*this, i));
  }
  for (auto& s : shards_) s->start();
  if (stdio_in_ >= 0) {
    shards_[0]->adopt(std::exchange(stdio_in_, -1),
                      std::exchange(stdio_out_, -1), /*refused=*/false,
                      /*http=*/false);
  }

  while (!stop_requested()) {
    pollfd lps[2];
    nfds_t nfds = 0;
    if (listener_.is_open()) lps[nfds++] = {listener_.fd(), POLLIN, 0};
    if (http_listener_.is_open()) {
      lps[nfds++] = {http_listener_.fd(), POLLIN, 0};
    }
    (void)::poll(lps, nfds, opts_.poll_interval_ms);
    accept_pending();
    publish_gauges();
  }

  // Drain: stop accepting, then let every shard answer what it owes
  // (buffered complete lines and in-flight computes) before the pool and
  // the flusher wind down.  Destroying the pool runs every queued task,
  // each task's wake of its shard included, before the shards go; the
  // flusher's destructor performs the final cache checkpoint, on this
  // thread.
  listener_.close();
  http_listener_.close();
  for (auto& s : shards_) s->request_stop();
  for (auto& s : shards_) s->join();
  pool_.reset();
  flusher_.reset();
  shards_.clear();
  publish_gauges();

  const ServerStats s = stats();
  log << "net: drained — " << s.accepted << " connection(s), " << s.answered
      << " request(s) answered, " << s.http_requests << " http exchange(s), "
      << s.bytes_in << " bytes in, " << s.bytes_out
      << " bytes out, disconnects: " << s.disconnect_eof << " eof, "
      << s.disconnect_idle << " idle, " << s.disconnect_header_timeout
      << " header-timeout, " << s.disconnect_oversize << " oversize, "
      << s.disconnect_slow_reader << " slow-reader, "
      << s.disconnect_refused << " refused, " << s.disconnect_error
      << " error, " << s.disconnect_drained << " drained\n";
  const serve::ServiceStats v = service_.stats();
  log << "serve: drained — " << v.received << " received, " << v.ok << " ok, "
      << v.parse_errors + v.lint_rejected << " rejected, " << v.timeouts
      << " timed out, " << v.overloaded << " overloaded, " << v.cache_hits
      << " cache hits\n";
}

}  // namespace rvhpc::net
