#pragma once
// rvhpc::net — the sharded front end behind every live rvhpc-serve.
//
// This module puts a Service behind loopback TCP sockets so the
// persistent prediction cache becomes a shared resource — many concurrent
// clients, one resident cache, one process paying each predict() once.
// The protocol: line-delimited JSON requests in (including per-request
// "backend" selection — serve/service.hpp is the schema), one JSON
// response line per request out.  rvhpc-serve's stdio front end is one
// more connection on the same shards (Server::adopt_stdio): a pipe pair
// instead of a socket, with no listener at all.
//
// The same shards optionally serve HTTP/1.1 on a second listener
// (ServerOptions::http): POST /v1/predict carries one request line or a
// JSON-lines batch as a Content-Length body and streams the responses
// back (single → a status-mapped fixed-length reply, batch → chunked,
// each response a chunk as its compute completes, matched by id exactly
// like the raw wire), GET /metrics renders the obs registry inline on
// the shard, and GET /healthz answers drain-aware 200/503.  The framing
// layer is src/http — a pure incremental parser driven by the same
// poll() reads; a connection's protocol is fixed by the listener that
// accepted it, and both protocols share the admission path, the compute
// pool, the bounded-memory taxonomy and the drain contract.
//
// Architecture (DESIGN.md §13): I/O and compute never share a thread.
//
//   acceptor ──round-robin──▶ shard 0..N-1 (one poll() loop each)
//                                 │ admit (cheap parse/lint)
//                                 ▼
//                         engine::ThreadPool ──results──▶ completions
//                                 ▲                            │
//                                 └── wakeup pipe re-arms ◀────┘
//
// The acceptor thread (the caller of run()) owns the Listener and deals
// accepted sockets round-robin to N event-loop shards; each shard owns its
// connections exclusively and runs its own poll() loop with a wakeup pipe.
// A shard splits every request line through serve::Service::admit() — the
// cheap parse/admission phase — and dispatches the compute phase as a plain
// task to the server's own engine::ThreadPool (service.jobs() workers, for
// the length of run()); the task hands its response string back to the
// shard and pokes the shard's wakeup pipe so the response is flushed
// immediately instead of on the next poll tick.  Responses complete out of
// order per connection: requests carrying an "id" are answered as soon as
// their compute finishes (the id is echoed so clients can match), requests
// without an "id" keep the in-order contract a client that cannot match
// ids relies on.  Warm requests are completed inline on the shard (a memo
// probe, no pool handoff), so one slow uncached prediction never stalls
// cached hits — on the same connection or any other.  The periodic persistent-cache checkpoint runs
// on a dedicated background flusher thread, never on an event loop; the
// drain's checkpoint runs on the thread that called run().
//
// Bounded-memory contract: a request line longer than max_line_bytes
// answers a structured "overloaded" error and closes; a socket client
// that stops reading until max_write_buffer fills is disconnected (a
// stdio session is back-pressured instead); a connection idle past
// idle_timeout_ms is told "timeout" and closed; compute in flight past
// the service's queue_capacity answers "overloaded" at admission.  Nothing about a misbehaving peer can grow
// server state without bound or wedge a loop.
//
// Shutdown: SIGTERM/SIGINT (serve::install_shutdown_handlers) or stop()
// stops accepting, answers every complete request line already buffered,
// waits for every in-flight compute (answered, not dropped),
// flushes write buffers (bounded grace) and the persistent cache, and
// returns from run().

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace rvhpc::serve {
class Service;
}
namespace rvhpc::engine {
class ThreadPool;
}

namespace rvhpc::net {

/// Why a connection was closed.  Every close is attributed to exactly one
/// cause, counted once in ServerStats and once in the process series
/// rvhpc_net_disconnect_total{reason="<to_string(cause)>"}.
enum class Disconnect {
  Eof,         ///< client closed; its buffered requests were answered first
  Idle,        ///< nothing received for idle_timeout_ms ("timeout" answered)
  Oversize,    ///< request line exceeded max_line_bytes ("overloaded" answered)
  SlowReader,  ///< write buffer bound hit — the client is not reading
  Refused,     ///< accepted past max_connections ("overloaded" answered)
  Error,       ///< socket error (reset, broken pipe)
  Drained,     ///< server shut down while the connection was open
  HeaderTimeout,  ///< a started request's headers dribbled past
                  ///< header_timeout_ms (slow loris; 408 answered on HTTP)
};

/// The cause's `reason` label: eof, idle, oversize, slow_reader, refused,
/// error, drained or header_timeout.
[[nodiscard]] const char* to_string(Disconnect cause);

struct ServerOptions {
  /// Port to bind on 127.0.0.1; 0 picks an ephemeral port (the bound one
  /// is reported by Server::port() and logged by open()).
  std::uint16_t port = 0;
  /// Serve the raw JSON-lines protocol on `port`.  Disabled only when the
  /// process is HTTP-only (rvhpc-serve --http without --listen=tcp); at
  /// least one listener is always forced on.
  bool json_listener = true;
  /// Also serve HTTP/1.1 (POST /v1/predict, GET /metrics, GET /healthz —
  /// DESIGN.md §14) on `http_port`.  Both protocols share the shards, the
  /// service and the compute pool; a connection's protocol is fixed by
  /// the listener that accepted it.
  bool http = false;
  /// Port for the HTTP listener; 0 picks an ephemeral port (reported by
  /// http_port() and logged by open()).
  std::uint16_t http_port = 0;
  /// Largest admissible HTTP request body (Content-Length beyond it is
  /// answered 413 and the connection closed).  Header-block and
  /// request-line bounds are fixed (32 KiB / 8 KiB).
  std::size_t max_body_bytes = 1024 * 1024;
  /// Event-loop shards: accepted connections are dealt round-robin across
  /// this many independent poll() loops, each on its own thread.  Clamped
  /// to >= 1.  rvhpc-serve's --shards=0 resolves to
  /// min(hardware_concurrency, 4) before it gets here.
  std::size_t shards = 1;
  /// Concurrent clients across all shards; one past the cap is answered
  /// "overloaded" and closed instead of left dangling in the accept queue.
  std::size_t max_connections = 64;
  /// Longest admissible request line; beyond it the client gets a
  /// structured "overloaded" error and a disconnect.  Also the read-buffer
  /// bound, so per-connection input state never exceeds it (plus one read
  /// chunk).
  std::size_t max_line_bytes = 64 * 1024;
  /// Write-buffer bound per connection: responses a slow reader has not
  /// drained.  A response that would exceed it first flushes the buffer
  /// to the socket; only if it still does not fit (the kernel's buffers
  /// are full too) is the client disconnected.  A stdio session's flush
  /// waits for its reader, so the bound never drops it.
  std::size_t max_write_buffer = 256 * 1024;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default.  The
  /// slow-reader bound only trips once the kernel's send buffer is full,
  /// so tests (and memory-tight deployments) shrink this to make the
  /// transport's bounded-memory contract bite early.
  int so_sndbuf = 0;
  /// Disconnect a connection that sent nothing for this long; 0 disables.
  double idle_timeout_ms = 0.0;
  /// Deadline for *finishing* a request once its first byte arrives; 0
  /// disables.  Distinct from idle_timeout_ms, which a slow-loris client
  /// defeats by dripping one header byte per interval: each drip resets
  /// the idle clock, but the clock started here runs from the first byte
  /// of the request until its framing completes, no matter how the bytes
  /// arrive.  HTTP connections are answered 408; raw JSON-lines
  /// connections get the structured "timeout" error line.
  double header_timeout_ms = 0.0;
  /// poll() timeout — the latency bound on noticing stop()/SIGTERM.
  /// (Completed computes do not wait for it: they poke the owning shard's
  /// wakeup pipe.)
  int poll_interval_ms = 50;
  /// Grace for flushing write buffers at drain (and for closing
  /// connections that were answered an error but are not reading it).
  /// In-flight compute is *not* grace-bounded at drain: admitted requests
  /// are answered, not dropped.
  double drain_grace_ms = 2000.0;
};

/// Aggregate counters of one Server's lifetime: the sum of the per-shard
/// counts, read without a lock (Server::stats).  The rvhpc_net_* process
/// series count the same events, summed across every Server of the
/// process and labeled by shard or reason.
struct ServerStats {
  std::uint64_t accepted = 0;    ///< sum of shard_connections (incl. refused)
  std::uint64_t answered = 0;    ///< sum of shard_answered
  std::uint64_t dispatched = 0;  ///< compute phases handed to the pool
  std::uint64_t bytes_in = 0;    ///< payload bytes received
  std::uint64_t bytes_out = 0;   ///< response bytes written
  std::uint64_t http_requests = 0;  ///< HTTP exchanges completed (all routes)
  std::uint64_t disconnect_eof = 0;
  std::uint64_t disconnect_idle = 0;
  std::uint64_t disconnect_oversize = 0;
  std::uint64_t disconnect_slow_reader = 0;
  std::uint64_t disconnect_refused = 0;
  std::uint64_t disconnect_error = 0;
  std::uint64_t disconnect_drained = 0;
  std::uint64_t disconnect_header_timeout = 0;
  /// Per-shard fan-out, indexed by shard: connections adopted, response
  /// lines delivered.  Sized ServerOptions::shards.
  std::vector<std::uint64_t> shard_connections;
  std::vector<std::uint64_t> shard_answered;
};

/// The listening socket: binds 127.0.0.1:<port>, hands out accepted fds.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens (non-blocking).  Throws std::runtime_error when the
  /// port cannot be bound.  port 0 binds an ephemeral port; port() reports
  /// the one the kernel chose.
  void open(std::uint16_t port);
  /// One pending client as a non-blocking fd, or -1 when none is waiting.
  [[nodiscard]] int accept_client() const;
  void close();

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

namespace detail {
class Shard;
struct ShardBook;
class CacheFlusher;
}  // namespace detail

class Server {
 public:
  /// The Service outlives the Server; request lines are admitted by
  /// service.admit on a shard thread and completed on the engine pool.
  Server(serve::Service& service, ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener(s) and logs "net: listening on 127.0.0.1:<port>"
  /// (and "http: listening on 127.0.0.1:<port>" when HTTP is enabled) —
  /// the lines scripts/check.sh parses ephemeral ports from.  Throws
  /// std::runtime_error on bind failure.
  void open(std::ostream& log);
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  /// Port of the HTTP listener (0 when ServerOptions::http is off).
  [[nodiscard]] std::uint16_t http_port() const {
    return http_listener_.port();
  }

  /// Serves one request stream read from `in_fd` and answered on
  /// `out_fd` — rvhpc-serve's stdio front end — as a connection on shard
  /// 0.  Call before run(), which then drains and returns when the
  /// session ends: EOF on `in_fd` with every request answered, an
  /// oversized line, or stop()/SIGTERM.  The server owns both fds from
  /// here on and closes them when the session ends, but leaves their
  /// file-status flags as it found them.  Unlike a socket, the session
  /// answers a final line that has no newline, and a reader that stalls
  /// is back-pressured (the shard waits for it and stops reading
  /// `in_fd`) rather than dropped as a slow reader.
  void adopt_stdio(int in_fd, int out_fd);

  /// Accept loop: spawns the shards, the compute pool and the background
  /// cache flusher, then deals accepted sockets round-robin until stop(),
  /// serve::shutdown_requested() or the end of an adopted stdio session.
  /// Drains (buffered requests answered, in-flight computes completed,
  /// write buffers and, on this thread, the persistent cache flushed) and
  /// logs "net: drained" and "serve: drained" summaries before returning.
  void run(std::ostream& log);

  /// Requests the same graceful drain SIGTERM does (thread-safe).
  void stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Sums the shards' books; safe from any thread, during run() and after.
  [[nodiscard]] ServerStats stats() const;

 private:
  friend class detail::Shard;
  friend class detail::CacheFlusher;

  void accept_pending();
  void accept_from(const Listener& listener, bool http);
  void publish_gauges() const;

  serve::Service& service_;
  ServerOptions opts_;
  Listener listener_;       ///< raw JSON-lines protocol
  Listener http_listener_;  ///< HTTP/1.1 front end (when opts_.http)
  std::vector<std::unique_ptr<detail::Shard>> shards_;
  std::unique_ptr<engine::ThreadPool> pool_;
  std::unique_ptr<detail::CacheFlusher> flusher_;
  std::size_t next_shard_ = 0;  ///< round-robin deal cursor
  int stdio_in_ = -1;   ///< adopt_stdio()'s fds, until run() deals them
  int stdio_out_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> open_conns_{0};  ///< across shards (cap check)
  std::atomic<std::size_t> inflight_{0};    ///< dispatched, not completed
  /// One book per shard, sized here and outliving the shards, which run()
  /// destroys: stats() still reads them after the drain.
  std::vector<detail::ShardBook> books_;
};

}  // namespace rvhpc::net
