// rvhpc::net — TCP transport for the prediction service.
//
// The load-bearing guarantees: many concurrent clients each get exactly
// their own responses (attributed by id) over one shared Service; a
// misbehaving peer — oversized line, never-reading client, idle
// connection, mid-request disconnect — costs bounded memory and a
// structured goodbye, never a crash or a wedge; SIGTERM drains: buffered
// requests answered, cache flushed; and a stdio session is one more
// connection on the same shards, with the same admission bound, ordering
// contract and drain.
//
// Every socket test runs a real Server on an ephemeral loopback port with
// the event loop on a background thread, and drives it with blocking
// client sockets (5 s receive timeouts so a regression fails instead of
// hanging).  The stdio tests hand the Server a pipe pair instead.  Each
// disconnect test also runs with metrics on and pins its cause to exactly
// one step of one rvhpc_net_disconnect_total{reason} series.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/net.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/persist.hpp"
#include "serve/service.hpp"

namespace {

using namespace rvhpc;
using namespace std::chrono_literals;

/// RAII temp path: removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

/// A Service + Server on an ephemeral loopback port, loop on a background
/// thread.  Stops and joins on destruction.
struct LoopbackServer {
  serve::Service service;
  net::Server server;
  std::ostringstream log;
  std::thread loop;

  explicit LoopbackServer(net::ServerOptions nopts = {},
                          serve::Service::Options sopts = one_job())
      : service(std::move(sopts)), server(service, nopts) {
    server.open(log);
    loop = std::thread([this] { server.run(log); });
  }

  ~LoopbackServer() {
    server.stop();
    if (loop.joinable()) loop.join();
  }

  static serve::Service::Options one_job() {
    serve::Service::Options o;
    o.jobs = 1;
    return o;
  }

  /// Waits (bounded) for `pred` over the server stats; false on timeout.
  template <typename Pred>
  bool wait_for(Pred pred, std::chrono::milliseconds budget = 5000ms) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred(server.stats())) return true;
      std::this_thread::sleep_for(2ms);
    }
    return pred(server.stats());
  }
};

/// Minimal blocking test client with a receive timeout.
struct Client {
  int fd = -1;
  std::string buffered;

  explicit Client(std::uint16_t port, int rcvbuf = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    timeval tv{5, 0};
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    if (rcvbuf > 0) {
      // Before connect(), so the shrunken window is what gets advertised.
      (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }

  ~Client() {
    if (fd >= 0) ::close(fd);
  }

  [[nodiscard]] bool connected() const { return fd >= 0; }

  /// Sends every byte; false once the server has hung up on us.
  bool send_all(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  void shutdown_write() const { (void)::shutdown(fd, SHUT_WR); }

  /// One response line (without '\n'), or empty on EOF/timeout.
  std::string recv_line() {
    while (true) {
      const std::size_t nl = buffered.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffered.substr(0, nl);
        buffered.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffered.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Reads until the server closes; returns everything (with newlines).
  std::string recv_until_eof() {
    std::string all = std::move(buffered);
    buffered.clear();
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return all;
      all.append(chunk, static_cast<std::size_t>(n));
    }
  }
};

std::string request_line(const std::string& id, const std::string& kernel,
                         int cores) {
  return "{\"id\": \"" + id + "\", \"machine\": \"sg2044\", \"kernel\": \"" +
         kernel + "\", \"cores\": " + std::to_string(cores) + "}\n";
}

/// Turns metrics on for one test (before its server builds its shards,
/// which resolve their series then) and restores the setting after.
struct MetricsOn {
  const bool was = obs::metrics_enabled();
  MetricsOn() { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(was); }
};

/// One rvhpc_net_disconnect_total{reason="..."} series, measured from the
/// moment the watch is made: the registry is process-wide.
struct DisconnectWatch {
  const obs::Counter& series;
  const std::uint64_t before;

  explicit DisconnectWatch(const std::string& reason)
      : series(obs::Registry::global().counter(
            "rvhpc_net_disconnect_total{reason=\"" + reason + "\"}")),
        before(series.value()) {}

  [[nodiscard]] std::uint64_t delta() const { return series.value() - before; }

  /// delta() once the series has moved, waiting up to 5 s for a shard
  /// thread's count.
  [[nodiscard]] std::uint64_t moved() const {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (delta() == 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(2ms);
    }
    return delta();
  }
};

// --- listener -------------------------------------------------------------

TEST(NetListener, EphemeralPortIsReported) {
  net::Listener listener;
  listener.open(0);
  EXPECT_TRUE(listener.is_open());
  EXPECT_NE(listener.port(), 0) << "port 0 must resolve to the bound port";
  listener.close();
  EXPECT_FALSE(listener.is_open());
}

TEST(NetListener, PortCollisionThrowsInsteadOfServingBlind) {
  net::Listener first;
  first.open(0);
  net::Listener second;
  EXPECT_THROW(second.open(first.port()), std::runtime_error);
}

// --- concurrent clients ---------------------------------------------------

TEST(NetServer, FourConcurrentClientsGetTheirOwnResponses) {
  LoopbackServer s;
  constexpr int kClients = 4;
  constexpr int kRequests = 6;
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client cl(s.server.port());
      if (!cl.connected()) {
        ++failures;
        return;
      }
      for (int r = 0; r < kRequests; ++r) {
        // Distinct (id, cores) per request: the response must echo OUR id
        // and OUR cores even while three other clients interleave.
        const std::string id =
            "c" + std::to_string(c) + "-r" + std::to_string(r);
        const int cores = 1 + c * kRequests + r;
        if (!cl.send_all(request_line(id, "CG", cores))) {
          ++failures;
          return;
        }
        const std::string line = cl.recv_line();
        try {
          const obs::json::Value v = obs::json::parse(line);
          if (v.find("id")->str != id ||
              v.find("status")->str != "ok" ||
              static_cast<int>(v.find("cores")->num) != cores) {
            ++failures;
          }
        } catch (const std::exception&) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  const net::ServerStats stats = s.server.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.answered, static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(s.service.stats().received,
            static_cast<std::uint64_t>(kClients * kRequests));
}

TEST(NetServer, IntervalBackendOverTcpIsDistinctAndSeparatelyCached) {
  // The ISSUE 7 acceptance path: a client sending backend=interval over
  // TCP must get the interval mechanism's answer, keyed separately from
  // the analytic twin it just warmed the shared cache with.
  LoopbackServer s;
  Client cl(s.server.port());
  ASSERT_TRUE(cl.connected());

  const std::string point =
      R"("machine": "sg2044", "kernel": "CG", "class": "C", "cores": 64)";
  ASSERT_TRUE(cl.send_all("{\"id\": \"a\", " + point + "}\n"));
  const obs::json::Value analytic = obs::json::parse(cl.recv_line());
  ASSERT_TRUE(cl.send_all("{\"id\": \"i\", " + point +
                          ", \"backend\": \"interval\"}\n"));
  const obs::json::Value interval = obs::json::parse(cl.recv_line());
  ASSERT_TRUE(cl.send_all("{\"id\": \"w\", " + point +
                          ", \"backend\": \"interval\"}\n"));
  const obs::json::Value warm = obs::json::parse(cl.recv_line());

  EXPECT_EQ(analytic.find("status")->str, "ok");
  EXPECT_EQ(analytic.find("backend")->str, "analytic");
  EXPECT_EQ(interval.find("backend")->str, "interval");
  // Same point, different mechanism, different prediction — and the warm
  // analytic cache entry must NOT have answered the interval request.
  EXPECT_EQ(interval.find("cache")->str, "miss");
  EXPECT_NE(analytic.find("seconds")->num, interval.find("seconds")->num);
  // The repeat hits the interval entry, bit-identically.
  EXPECT_EQ(warm.find("cache")->str, "hit");
  EXPECT_EQ(warm.find("backend")->str, "interval");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.find("seconds")->num),
            std::bit_cast<std::uint64_t>(interval.find("seconds")->num));
}

TEST(NetServer, PipelinedClientDrainsOnHalfClose) {
  // The rvhpc-client protocol: send everything, shutdown the write side,
  // read until EOF.  Every non-blank line must be answered.
  const MetricsOn metrics;
  const DisconnectWatch eof("eof");
  LoopbackServer s;
  Client cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  std::string batch;
  for (int r = 0; r < 5; ++r) {
    batch += request_line("p" + std::to_string(r), "MG", 8 + r);
  }
  batch += "\n";  // blank line: consumed, never answered
  ASSERT_TRUE(cl.send_all(batch));
  cl.shutdown_write();

  const std::string all = cl.recv_until_eof();
  std::istringstream lines(all);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    const obs::json::Value v = obs::json::parse(line);
    EXPECT_EQ(v.find("id")->str, "p" + std::to_string(count));
    ++count;
  }
  EXPECT_EQ(count, 5);
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_eof == 1;
  }));
  EXPECT_EQ(eof.moved(), 1u);
}

// --- bounded buffers ------------------------------------------------------

TEST(NetServer, OversizedLineAnswersOverloadedAndDisconnects) {
  net::ServerOptions nopts;
  nopts.max_line_bytes = 256;
  nopts.poll_interval_ms = 10;
  const MetricsOn metrics;
  const DisconnectWatch oversize("oversize");
  LoopbackServer s(nopts);
  Client cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(std::string(600, 'x')));  // no newline, ever

  const std::string line = cl.recv_line();
  const obs::json::Value v = obs::json::parse(line);
  EXPECT_EQ(v.find("status")->str, "error");
  EXPECT_EQ(v.find("error")->str, "overloaded");
  EXPECT_NE(v.find("message")->str.find("256"), std::string::npos);
  EXPECT_TRUE(cl.recv_line().empty()) << "server must close after the error";
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_oversize == 1;
  }));
  EXPECT_EQ(oversize.moved(), 1u);
  EXPECT_EQ(s.service.stats().received, 0u)
      << "an oversized line is rejected by the transport, not the service";
}

TEST(NetServer, SlowReaderIsDisconnectedWithBoundedMemory) {
  net::ServerOptions nopts;
  nopts.max_write_buffer = 1024;  // ~3 responses
  nopts.so_sndbuf = 4096;  // keep the kernel from absorbing the pile-up
  nopts.poll_interval_ms = 10;
  const MetricsOn metrics;
  const DisconnectWatch slow_reader("slow_reader");
  LoopbackServer s(nopts);
  Client cl(s.server.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(cl.connected());

  // 300 requests (one predict, the rest cache hits), never reading a
  // byte: responses overflow the shrunken kernel buffers, pile up in the
  // server's write buffer until the bound trips, and the connection is
  // dropped.
  std::string batch;
  for (int r = 0; r < 300; ++r) {
    std::string id = "s";  // (two-step concat dodges GCC bug 105651)
    id += std::to_string(r);
    batch.append(request_line(id, "EP", 8));
  }
  (void)cl.send_all(batch);  // the server may hang up mid-send
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_slow_reader == 1;
  }));
  EXPECT_EQ(slow_reader.moved(), 1u);
  const net::ServerStats stats = s.server.stats();
  EXPECT_LT(stats.answered, 300u) << "the bound must trip before all 300";

  // The server is still healthy for a well-behaved client.
  Client good(s.server.port());
  ASSERT_TRUE(good.connected());
  ASSERT_TRUE(good.send_all(request_line("ok", "CG", 64)));
  const obs::json::Value v = obs::json::parse(good.recv_line());
  EXPECT_EQ(v.find("id")->str, "ok");
  EXPECT_EQ(v.find("status")->str, "ok");
}

/// The index r of an "ok" answer to the request with id "b<r>" (r below
/// `burst`), setting `hit` from its cache field; -1 for any other line.
int burst_answer(const std::string& line, int burst, bool& hit) {
  const obs::json::Value v = obs::json::parse(line);
  const obs::json::Value* status = v.find("status");
  const obs::json::Value* id = v.find("id");
  if (status == nullptr || status->str != "ok" || id == nullptr ||
      id->str.size() < 2 || id->str[0] != 'b') {
    return -1;
  }
  int r = -1;
  std::from_chars(id->str.data() + 1, id->str.data() + id->str.size(), r);
  const obs::json::Value* cache = v.find("cache");
  hit = cache != nullptr && cache->str == "hit";
  return r < burst ? r : -1;
}

TEST(NetServer, PipelinedWarmBurstIsAnsweredNotDroppedAsSlowReader) {
  // A client that pipelines cache hits while reading its answers is not a
  // slow reader.  One loop pass admits up to 16 KiB of lines, each
  // answered inline, and their responses (several times the size of the
  // requests) outgrow this write bound before the loop's flush pass runs,
  // while the kernel's send buffer has room for them — so the bound may
  // only be judged once the buffer has been flushed.
  net::ServerOptions nopts;
  nopts.max_write_buffer = 16 * 1024;
  nopts.so_sndbuf = 1 << 20;
  LoopbackServer s(nopts);
  Client cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(request_line("warm", "EP", 8)));
  ASSERT_EQ(obs::json::parse(cl.recv_line()).find("status")->str, "ok");

  constexpr int kBurst = 2000;
  std::string batch;
  for (int r = 0; r < kBurst; ++r) {
    std::string id = "b";  // (two-step concat dodges GCC bug 105651)
    id += std::to_string(r);
    batch.append(request_line(id, "EP", 8));
  }
  std::atomic<bool> sent{false};
  std::thread sender([&] {
    sent = cl.send_all(batch);
    cl.shutdown_write();
  });
  std::vector<int> seen(kBurst, 0);
  int answered = 0;
  int hits = 0;
  // The sender thread must be joined before the test returns, so a bad
  // answer is recorded and ends the loop instead of returning early; the
  // shutdown then fails the sender's pending send.
  for (std::string line = cl.recv_line(); !line.empty();
       line = cl.recv_line()) {
    bool hit = false;
    const int r = burst_answer(line, kBurst, hit);
    if (r < 0) {
      ADD_FAILURE() << "unexpected answer: " << line;
      ::shutdown(cl.fd, SHUT_RDWR);
      break;
    }
    ++seen[static_cast<std::size_t>(r)];
    ++answered;
    if (hit) ++hits;
  }
  sender.join();
  EXPECT_TRUE(sent.load());
  EXPECT_EQ(answered, kBurst);
  EXPECT_EQ(hits, kBurst);
  for (int r = 0; r < kBurst; ++r) {
    EXPECT_EQ(seen[static_cast<std::size_t>(r)], 1) << "id b" << r;
  }
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_eof == 1;
  }));
  EXPECT_EQ(s.server.stats().disconnect_slow_reader, 0u);
}

// --- timeouts -------------------------------------------------------------

TEST(NetServer, IdleConnectionIsToldTimeoutAndClosed) {
  net::ServerOptions nopts;
  nopts.idle_timeout_ms = 50;
  nopts.poll_interval_ms = 10;
  const MetricsOn metrics;
  const DisconnectWatch idle("idle");
  LoopbackServer s(nopts);
  Client cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  // Send nothing: the farewell and EOF arrive on their own.
  const std::string line = cl.recv_line();
  const obs::json::Value v = obs::json::parse(line);
  EXPECT_EQ(v.find("status")->str, "error");
  EXPECT_EQ(v.find("error")->str, "timeout");
  EXPECT_TRUE(cl.recv_line().empty());
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_idle == 1;
  }));
  EXPECT_EQ(idle.moved(), 1u);
}

TEST(NetServer, SlowLorisPartialLineHitsHeaderDeadlineNotIdle) {
  net::ServerOptions nopts;
  nopts.idle_timeout_ms = 2000;  // generous: every drip resets it
  nopts.header_timeout_ms = 60;  // the deadline actually under test
  nopts.poll_interval_ms = 5;
  const MetricsOn metrics;
  const DisconnectWatch header_timeout("header_timeout");
  const DisconnectWatch idle("idle");
  LoopbackServer s(nopts);
  Client cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  // Drip a request one byte at a time, never sending the newline: the
  // idle clock restarts on every byte, but the partial-request clock
  // started with the first byte and runs out mid-drip.
  const std::string partial = R"({"id": "loris", "machine": "sg2)";
  for (char c : partial) {
    if (!cl.send_all(std::string(1, c))) break;  // server hung up
    std::this_thread::sleep_for(5ms);
  }
  const obs::json::Value v = obs::json::parse(cl.recv_line());
  EXPECT_EQ(v.find("status")->str, "error");
  EXPECT_EQ(v.find("error")->str, "timeout");
  EXPECT_TRUE(cl.recv_line().empty());
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_header_timeout == 1;
  }));
  EXPECT_EQ(header_timeout.moved(), 1u);
  EXPECT_EQ(s.server.stats().disconnect_idle, 0u)
      << "the header deadline, not the idle timeout, must attribute this";
  EXPECT_EQ(idle.delta(), 0u);
}

// --- misbehaving peers ----------------------------------------------------

TEST(NetServer, MidRequestDisconnectDiscardsThePartialLine) {
  LoopbackServer s;
  {
    Client cl(s.server.port());
    ASSERT_TRUE(cl.connected());
    ASSERT_TRUE(cl.send_all(R"({"id": "half", "machine": "sg20)"));
  }  // gone mid-request, no newline
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_eof == 1;
  }));
  EXPECT_EQ(s.service.stats().received, 0u)
      << "a partial line must be discarded, not parsed";

  Client next(s.server.port());
  ASSERT_TRUE(next.connected());
  ASSERT_TRUE(next.send_all(request_line("whole", "CG", 32)));
  EXPECT_EQ(obs::json::parse(next.recv_line()).find("id")->str, "whole");
}

TEST(NetServer, ConnectionsPastTheCapAreRefusedPolitely) {
  net::ServerOptions nopts;
  nopts.max_connections = 1;
  nopts.poll_interval_ms = 10;
  const MetricsOn metrics;
  const DisconnectWatch refused("refused");
  LoopbackServer s(nopts);
  Client first(s.server.port());
  ASSERT_TRUE(first.connected());
  // A full round-trip guarantees the server registered `first` before the
  // second connect arrives.
  ASSERT_TRUE(first.send_all(request_line("one", "CG", 16)));
  ASSERT_FALSE(first.recv_line().empty());

  Client second(s.server.port());
  ASSERT_TRUE(second.connected()) << "the kernel accepts; the server refuses";
  const obs::json::Value v = obs::json::parse(second.recv_line());
  EXPECT_EQ(v.find("error")->str, "overloaded");
  EXPECT_TRUE(second.recv_line().empty());
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_refused == 1;
  }));
  EXPECT_EQ(refused.moved(), 1u);
}

// --- shutdown -------------------------------------------------------------

TEST(NetServer, SigtermDrainsAndFlushesThePersistentCache) {
  TempFile cache("test_net_sigterm_cache.tmp.bin");
  serve::install_shutdown_handlers();
  serve::reset_shutdown();

  serve::Service::Options sopts = LoopbackServer::one_job();
  sopts.cache_file = cache.path;
  {
    LoopbackServer s({}, sopts);
    Client cl(s.server.port());
    ASSERT_TRUE(cl.connected());
    for (int r = 0; r < 3; ++r) {
      ASSERT_TRUE(cl.send_all(request_line("d" + std::to_string(r), "CG",
                                           8 << r)));
      ASSERT_FALSE(cl.recv_line().empty());
    }

    std::raise(SIGTERM);  // the handler sets the serve-wide drain flag
    s.loop.join();        // run() must return on its own
    EXPECT_TRUE(cl.recv_line().empty()) << "drain closes the connection";
    EXPECT_NE(s.log.str().find("net: drained"), std::string::npos);
    EXPECT_NE(s.log.str().find("checkpointed"), std::string::npos);

    // The flush happened during drain, before the Service died.
    engine::PredictionCache loaded(16);
    const serve::LoadResult r = serve::load_cache(cache.path, loaded);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.restored, 3u);
  }
  serve::reset_shutdown();
}

TEST(NetServer, StopAnswersBufferedRequestsBeforeClosing) {
  net::ServerOptions nopts;
  nopts.poll_interval_ms = 10;
  const MetricsOn metrics;
  const DisconnectWatch drained("drained");
  LoopbackServer s(nopts);
  Client cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  std::string batch;
  for (int r = 0; r < 4; ++r) {
    batch += request_line("b" + std::to_string(r), "MG", 4 + r);
  }
  ASSERT_TRUE(cl.send_all(batch));
  // Wait until the requests are inside the server, then pull the plug.
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.answered >= 4;
  }));
  s.server.stop();
  s.loop.join();

  const std::string all = cl.recv_until_eof();
  int count = 0;
  std::istringstream lines(all);
  std::string line;
  while (std::getline(lines, line)) ++count;
  EXPECT_EQ(count, 4) << "every admitted request is answered at drain";
  // The client never half-closed: the drain cut it off.
  EXPECT_EQ(s.server.stats().disconnect_drained, 1u);
  EXPECT_EQ(drained.delta(), 1u);
}

// --- out-of-order completion (ISSUE 8) ------------------------------------

/// An uncached interval-backend request: the backend walks the whole
/// simulated timeline (~ms of compute), so it is the "slow" request the
/// async front end must not let block anyone else.
std::string slow_line(const std::string& id, int cores) {
  std::string line = "{";
  if (!id.empty()) line += "\"id\": \"" + id + "\", ";
  line += "\"machine\": \"sg2044\", \"kernel\": \"CG\", \"class\": \"C\", "
          "\"cores\": " + std::to_string(cores) +
          ", \"backend\": \"interval\"}\n";
  return line;
}

TEST(NetServer, SlowUncachedRequestDoesNotStallCachedPeer) {
  serve::Service::Options sopts;
  sopts.jobs = 2;
  net::ServerOptions nopts;
  nopts.shards = 2;
  LoopbackServer s(nopts, sopts);

  Client warm(s.server.port());
  ASSERT_TRUE(warm.connected());
  ASSERT_TRUE(warm.send_all(request_line("w", "MG", 8)));
  ASSERT_FALSE(warm.recv_line().empty());

  Client slow(s.server.port());
  Client hits(s.server.port());
  ASSERT_TRUE(slow.connected());
  ASSERT_TRUE(hits.connected());

  // 16 distinct uncached interval requests (~2 ms compute each) on one
  // connection; 16 cache hits on the other.  The hits are served inline
  // on their shard while the computes run on the pool, so every hit must
  // land before the slow batch's final response.
  constexpr int kEach = 16;
  std::string slow_batch;
  for (int i = 0; i < kEach; ++i) {
    slow_batch += slow_line("s" + std::to_string(i), 40 + i);
  }
  std::string hit_batch;
  for (int i = 0; i < kEach; ++i) {
    hit_batch += request_line("h" + std::to_string(i), "MG", 8);
  }
  ASSERT_TRUE(slow.send_all(slow_batch));
  ASSERT_TRUE(hits.send_all(hit_batch));

  const auto t0 = std::chrono::steady_clock::now();
  auto last_slow = t0;
  int slow_got = 0;
  std::thread slow_reader([&] {
    for (int i = 0; i < kEach; ++i) {
      if (slow.recv_line().empty()) return;
      last_slow = std::chrono::steady_clock::now();
      ++slow_got;
    }
  });
  auto last_hit = t0;
  int hits_got = 0;
  for (int i = 0; i < kEach; ++i) {
    const std::string line = hits.recv_line();
    if (line.empty()) break;
    EXPECT_EQ(obs::json::parse(line).find("cache")->str, "hit");
    last_hit = std::chrono::steady_clock::now();
    ++hits_got;
  }
  slow_reader.join();

  EXPECT_EQ(slow_got, kEach);
  EXPECT_EQ(hits_got, kEach);
  EXPECT_LT(last_hit, last_slow)
      << "cached responses queued behind another connection's compute";
}

TEST(NetServer, OutOfOrderIdsWithinOneConnection) {
  // One pool thread, one shard: while the pool is busy with the slow
  // request, the shard keeps admitting and answering the cached lines
  // behind it — id-carrying responses may overtake.
  LoopbackServer s;
  Client cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  for (int i = 0; i < 4; ++i) {  // warm the hit keys
    ASSERT_TRUE(cl.send_all(request_line("w" + std::to_string(i), "MG", 1 << i)));
    ASSERT_FALSE(cl.recv_line().empty());
  }

  std::string batch = slow_line("slow", 64);
  for (int i = 0; i < 4; ++i) {
    batch += request_line("h" + std::to_string(i), "MG", 1 << i);
  }
  ASSERT_TRUE(cl.send_all(batch));

  std::vector<std::string> order;
  for (int i = 0; i < 5; ++i) {
    const std::string line = cl.recv_line();
    ASSERT_FALSE(line.empty());
    order.push_back(obs::json::parse(line).find("id")->str);
  }
  // The cached hits come back first, in admission order; the slow
  // response arrives last even though it was sent first.
  const std::vector<std::string> want{"h0", "h1", "h2", "h3", "slow"};
  EXPECT_EQ(order, want);
}

TEST(NetServer, IdLessResponsesStayInRequestOrder) {
  // Without an id the client has no way to match responses, so the
  // in-order contract holds even when a later request finishes first.
  serve::Service::Options sopts;
  sopts.jobs = 2;
  LoopbackServer s({}, sopts);
  Client cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(request_line("w", "MG", 8)));
  ASSERT_FALSE(cl.recv_line().empty());

  std::string batch = slow_line(/*id=*/"", 64);
  for (int i = 0; i < 3; ++i) {
    batch += request_line("", "MG", 8);  // cached: completes instantly
  }
  ASSERT_TRUE(cl.send_all(batch));

  std::vector<std::string> backends;
  for (int i = 0; i < 4; ++i) {
    const std::string line = cl.recv_line();
    ASSERT_FALSE(line.empty());
    backends.push_back(obs::json::parse(line).find("backend")->str);
  }
  const std::vector<std::string> want{"interval", "analytic", "analytic",
                                      "analytic"};
  EXPECT_EQ(backends, want)
      << "id-less responses must be delivered in request order";
}

TEST(NetServer, SigtermDrainAnswersInFlightComputes) {
  serve::install_shutdown_handlers();
  serve::reset_shutdown();
  {
    serve::Service::Options sopts;
    sopts.jobs = 2;
    LoopbackServer s({}, sopts);
    Client cl(s.server.port());
    ASSERT_TRUE(cl.connected());
    std::string batch;
    for (int i = 0; i < 4; ++i) {
      batch += slow_line("f" + std::to_string(i), 32 + i);
    }
    ASSERT_TRUE(cl.send_all(batch));
    // Pull the plug once all four computes are dispatched to the pool —
    // most of them are still in flight when the drain starts.
    ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
      return st.dispatched >= 4;
    }));
    std::raise(SIGTERM);
    s.loop.join();

    const std::string all = cl.recv_until_eof();
    std::vector<bool> seen(4, false);
    std::istringstream lines(all);
    std::string line;
    while (std::getline(lines, line)) {
      const std::string id = obs::json::parse(line).find("id")->str;
      ASSERT_EQ(id.size(), 2u);
      seen[static_cast<std::size_t>(id[1] - '0')] = true;
    }
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(seen[static_cast<std::size_t>(i)])
          << "drain dropped in-flight request f" << i;
    }
  }
  serve::reset_shutdown();
}

TEST(NetServer, StopMidComputeKeepsAHalfClosedClientsEof) {
  // A client that sent everything and half-closed has ended on its own
  // terms.  A stop while its computes run still answers all of them, and
  // the close is that client's EOF, not a drain cut-off.
  const MetricsOn metrics;
  const DisconnectWatch eof("eof");
  const DisconnectWatch drained("drained");
  net::ServerOptions nopts;
  nopts.poll_interval_ms = 5;  // the stop lands within 5 ms, mid-compute
  LoopbackServer s(nopts);     // one pool worker: the computes queue up
  Client cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  constexpr int kSlow = 21;
  std::string batch;
  for (int i = 0; i < kSlow; ++i) {
    batch += slow_line("e" + std::to_string(i), 40 + i);
  }
  ASSERT_TRUE(cl.send_all(batch));
  cl.shutdown_write();
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.dispatched >= kSlow;
  }));
  s.server.stop();
  s.loop.join();

  std::istringstream lines(cl.recv_until_eof());
  int answered = 0;
  for (std::string line; std::getline(lines, line); ++answered) {
    EXPECT_EQ(obs::json::parse(line).find("status")->str, "ok") << line;
  }
  EXPECT_EQ(answered, kSlow);
  const net::ServerStats stats = s.server.stats();
  EXPECT_EQ(stats.disconnect_eof, 1u);
  EXPECT_EQ(stats.disconnect_drained, 0u);
  EXPECT_EQ(eof.delta(), 1u);
  EXPECT_EQ(drained.delta(), 0u);
}

// --- shards ---------------------------------------------------------------

TEST(NetServer, ShardFairnessAcrossTwoShards) {
  net::ServerOptions nopts;
  nopts.shards = 2;
  const MetricsOn metrics;
  LoopbackServer s(nopts);

  // Four connections held open together: round-robin dealing must give
  // each shard exactly two, and both shards must answer requests.
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(std::make_unique<Client>(s.server.port()));
    ASSERT_TRUE(clients.back()->connected());
    const std::string id = "c" + std::to_string(c);
    ASSERT_TRUE(clients.back()->send_all(request_line(id, "CG", 8 + c)));
    const obs::json::Value v = obs::json::parse(clients.back()->recv_line());
    EXPECT_EQ(v.find("id")->str, id);
  }

  const net::ServerStats stats = s.server.stats();
  ASSERT_EQ(stats.shard_connections.size(), 2u);
  ASSERT_EQ(stats.shard_answered.size(), 2u);
  EXPECT_EQ(stats.shard_connections[0], 2u);
  EXPECT_EQ(stats.shard_connections[1], 2u);
  EXPECT_GT(stats.shard_answered[0], 0u);
  EXPECT_GT(stats.shard_answered[1], 0u);
  EXPECT_EQ(stats.shard_answered[0] + stats.shard_answered[1], 4u);
  EXPECT_EQ(stats.accepted,
            stats.shard_connections[0] + stats.shard_connections[1]);
  EXPECT_EQ(stats.answered, stats.shard_answered[0] + stats.shard_answered[1]);

  // One labeled series per event: by shard, and by reason for closes.
  const std::string text = obs::Registry::global().render_text();
  EXPECT_NE(text.find("rvhpc_net_requests_total{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rvhpc_net_disconnect_total{reason=\"drained\"}"),
            std::string::npos);
  EXPECT_EQ(text.find("rvhpc_net_disconnects_"), std::string::npos);
  EXPECT_EQ(text.find("rvhpc_net_shard_"), std::string::npos);
}

// --- stdio: one more connection on the shard core -----------------------

/// A Service + Server serving one stdio session over two pipes, the loop on
/// a background thread, as rvhpc-serve --listen=stdio does with fds 0 and 1:
/// the test writes requests into `to_server` and reads answers from
/// `from_server`.  The server owns the other two ends and closes them when
/// the session ends; run() then returns on its own.
struct StdioSession {
  serve::Service service;
  net::Server server;
  std::ostringstream log;  ///< read only once run() has returned
  int to_server = -1;
  int from_server = -1;
  int server_in = -1;  ///< the server's ends, open while the session runs
  int server_out = -1;
  std::atomic<bool> ended{false};
  std::string buffered;
  std::thread loop;

  explicit StdioSession(
      net::ServerOptions nopts = {},
      serve::Service::Options sopts = LoopbackServer::one_job())
      : service(std::move(sopts)), server(service, nopts) {
    // A write into a pipe the server has closed must fail with EPIPE, not
    // kill the test binary.
    std::signal(SIGPIPE, SIG_IGN);
    int in[2] = {-1, -1};
    int out[2] = {-1, -1};
    if (::pipe(in) != 0 || ::pipe(out) != 0) return;
    server_in = in[0];
    to_server = in[1];
    from_server = out[0];
    server_out = out[1];
    // The test's own end: send() waits at most 5 s for room, so a server
    // that stops reading fails the test instead of hanging it.
    (void)::fcntl(to_server, F_SETFL, O_NONBLOCK);
    server.adopt_stdio(server_in, server_out);
    loop = std::thread([this] {
      server.run(log);
      ended = true;
    });
  }

  ~StdioSession() {
    // Closing the output first fails a write the server may be waiting
    // in, so a test that stopped reading cannot hang the join.
    close_input();
    if (from_server >= 0) ::close(from_server);
    server.stop();
    if (loop.joinable()) loop.join();
  }

  /// Writes every byte; false once the server has closed its input or
  /// left no room for 5 s.
  bool send(const std::string& bytes) const {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::write(to_server, bytes.data() + off, bytes.size() - off);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      pollfd p{to_server, POLLOUT, 0};
      if (n < 0 && errno == EAGAIN && ::poll(&p, 1, 5000) > 0) continue;
      return false;
    }
    return true;
  }

  void close_input() {
    if (to_server >= 0) ::close(to_server);
    to_server = -1;
  }

  /// One answer line (without '\n'); empty at EOF or after 5 s of silence.
  std::string read_line() {
    while (true) {
      const std::size_t nl = buffered.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffered.substr(0, nl);
        buffered.erase(0, nl + 1);
        return line;
      }
      pollfd p{from_server, POLLIN, 0};
      if (::poll(&p, 1, 5000) <= 0) return "";
      char chunk[4096];
      const ssize_t n = ::read(from_server, chunk, sizeof(chunk));
      if (n <= 0) return "";
      buffered.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Every answer line until the server closes its output.
  std::string read_all() {
    std::string all;
    for (std::string line = read_line(); !line.empty(); line = read_line()) {
      all += line + '\n';
    }
    return all;
  }

  /// Waits (bounded) for run() to return by itself; joins it if so.
  bool wait_ended() {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (!ended && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(2ms);
    }
    if (!ended) return false;
    loop.join();
    return true;
  }
};

// The two Service tests below pin the service contract a stdio client
// sees — a full admission bound answers "overloaded"; every non-blank line
// is answered before the drain — through its session on the shard core.

TEST(Service, FullBacklogAnswersOverloaded) {
  serve::Service::Options sopts = LoopbackServer::one_job();
  sopts.queue_capacity = 0;  // reject everything: deterministic drill
  StdioSession s({}, sopts);
  ASSERT_TRUE(s.send(
      R"({"id": "o", "machine": "sg2044", "kernel": "CG", "cores": 4})"
      "\n"));
  s.close_input();
  const obs::json::Value v = obs::json::parse(s.read_all());
  EXPECT_EQ(v.find("status")->str, "error");
  EXPECT_EQ(v.find("error")->str, "overloaded");
  ASSERT_TRUE(s.wait_ended());
  EXPECT_EQ(s.service.stats().overloaded, 1u);
}

TEST(Service, RunAnswersEveryLineAndDrains) {
  serve::Service::Options sopts = LoopbackServer::one_job();
  sopts.jobs = 2;
  StdioSession s({}, sopts);
  ASSERT_TRUE(s.send(
      R"({"id": "1", "machine": "sg2044", "kernel": "CG", "cores": 64})"
      "\n"
      "\n"  // blank lines are skipped, not answered
      "garbage\n"
      R"({"id": "3", "machine": "sg2042", "kernel": "EP", "cores": 16})"
      "\n"));
  s.close_input();

  std::istringstream lines(s.read_all());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_NO_THROW((void)obs::json::parse(line)) << line;
  }
  EXPECT_EQ(count, 3u) << "every non-blank request line gets one response";
  ASSERT_TRUE(s.wait_ended());
  EXPECT_EQ(s.service.stats().received, 3u);
  EXPECT_EQ(s.service.stats().ok, 2u);
  EXPECT_EQ(s.service.stats().parse_errors, 1u);
  EXPECT_NE(s.log.str().find("drained"), std::string::npos);
}

TEST(NetStdio, IdLessLinesAreAnsweredInRequestOrder) {
  // The pool computes the slow interval request while the cached hits
  // behind it complete inline; without ids they still come back in the
  // order they were sent.
  serve::Service::Options sopts;
  sopts.jobs = 2;
  StdioSession s({}, sopts);
  ASSERT_TRUE(s.send(request_line("", "MG", 8)));  // warm the hit key
  ASSERT_FALSE(s.read_line().empty());

  std::string batch = slow_line(/*id=*/"", 64);
  for (int i = 0; i < 3; ++i) batch += request_line("", "MG", 8);
  ASSERT_TRUE(s.send(batch));
  std::vector<std::string> backends;
  for (int i = 0; i < 4; ++i) {
    const std::string line = s.read_line();
    ASSERT_FALSE(line.empty());
    backends.push_back(obs::json::parse(line).find("backend")->str);
  }
  const std::vector<std::string> want{"interval", "analytic", "analytic",
                                      "analytic"};
  EXPECT_EQ(backends, want)
      << "id-less answers must come back in request order";
}

TEST(NetStdio, FinalLineWithoutNewlineIsAnsweredAtEof) {
  // A socket peer that stops mid-line died mid-request; a stdio stream
  // that ends without a newline has simply sent its last line.
  StdioSession s;
  std::string last = request_line("last", "CG", 32);
  last.pop_back();
  ASSERT_TRUE(s.send(request_line("first", "CG", 16) + last));
  s.close_input();

  std::istringstream lines(s.read_all());
  std::vector<std::string> ids;
  for (std::string line; std::getline(lines, line);) {
    ids.push_back(obs::json::parse(line).find("id")->str);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"first", "last"}));
  ASSERT_TRUE(s.wait_ended()) << "run() returns when the session ends";
  EXPECT_EQ(s.server.stats().disconnect_eof, 1u);
}

TEST(NetStdio, OversizedLineAnswersOverloadedAndEndsTheSession) {
  net::ServerOptions nopts;
  nopts.max_line_bytes = 256;
  StdioSession s(nopts);
  // A megabyte without a newline: the server stops reading near the
  // bound, answers, and ends the session, so the rest of the write fails
  // against the closed pipe.
  std::thread writer([&s] { (void)s.send(std::string(1 << 20, 'x')); });
  const std::string line = s.read_line();
  writer.join();
  const obs::json::Value v = obs::json::parse(line);
  EXPECT_EQ(v.find("status")->str, "error");
  EXPECT_EQ(v.find("error")->str, "overloaded");
  EXPECT_NE(v.find("message")->str.find("256"), std::string::npos);
  EXPECT_TRUE(s.read_line().empty()) << "the session ends after the error";
  ASSERT_TRUE(s.wait_ended()) << "run() returns when the session ends";

  const net::ServerStats stats = s.server.stats();
  EXPECT_EQ(stats.disconnect_oversize, 1u);
  EXPECT_LE(stats.bytes_in, 256u + 16u * 1024u)
      << "the read buffer stays within the line bound plus one read";
  EXPECT_EQ(s.service.stats().received, 0u);
}

TEST(NetStdio, StalledReaderIsBackPressuredNotDropped) {
  net::ServerOptions nopts;
  nopts.max_write_buffer = 4096;  // about a dozen answers
  StdioSession s(nopts);
  const int in_flags = ::fcntl(s.server_in, F_GETFL);
  const int out_flags = ::fcntl(s.server_out, F_GETFL);
  ASSERT_TRUE(s.send(request_line("warm", "EP", 8)));
  ASSERT_FALSE(s.read_line().empty());

  // 2,000 cache hits, whose answers overflow the write bound and the pipe
  // many times over, sent while nobody reads: the server waits for its
  // reader and stops reading, so the writer waits too.
  constexpr int kBurst = 2000;
  std::string batch;
  for (int r = 0; r < kBurst; ++r) {
    std::string id = "b";  // (two-step concat dodges GCC bug 105651)
    id += std::to_string(r);
    batch.append(request_line(id, "EP", 8));
  }
  std::atomic<bool> sent{false};
  std::thread writer([&] {
    sent = s.send(batch);
    s.close_input();
  });
  std::this_thread::sleep_for(300ms);
  // Mid-session: the server has not touched the flags of its fds.
  EXPECT_EQ(::fcntl(s.server_in, F_GETFL), in_flags);
  EXPECT_EQ(::fcntl(s.server_out, F_GETFL), out_flags);

  std::vector<int> seen(kBurst, 0);
  int answered = 0;
  for (std::string line = s.read_line(); !line.empty();
       line = s.read_line()) {
    bool hit = false;
    const int r = burst_answer(line, kBurst, hit);
    if (r < 0) {
      ADD_FAILURE() << "unexpected answer: " << line;
      continue;
    }
    ++seen[static_cast<std::size_t>(r)];
    ++answered;
  }
  writer.join();
  EXPECT_TRUE(sent.load());
  EXPECT_EQ(answered, kBurst);
  for (int r = 0; r < kBurst; ++r) {
    EXPECT_EQ(seen[static_cast<std::size_t>(r)], 1) << "id b" << r;
  }
  ASSERT_TRUE(s.wait_ended());
  EXPECT_EQ(s.service.stats().overloaded, 0u);
  EXPECT_EQ(s.server.stats().disconnect_slow_reader, 0u);
  EXPECT_EQ(s.server.stats().disconnect_eof, 1u);
}

TEST(NetStdio, ClosedStdoutEndsTheSessionAsAnError) {
  // The answers' reader has gone (`rvhpc-serve | head -1`) while stdin is
  // still open: the next write fails with EPIPE, which ends the session
  // and drains the server instead of killing it.
  const MetricsOn metrics;
  const DisconnectWatch error("error");
  StdioSession s;
  ::close(s.from_server);
  s.from_server = -1;
  ASSERT_TRUE(s.send(request_line("gone", "CG", 16)));
  ASSERT_TRUE(s.wait_ended()) << "run() returns when the session ends";
  const net::ServerStats stats = s.server.stats();
  EXPECT_EQ(stats.disconnect_error, 1u);
  EXPECT_EQ(stats.disconnect_eof, 0u);
  EXPECT_EQ(error.delta(), 1u);
  EXPECT_NE(s.log.str().find("serve: drained"), std::string::npos);
}

TEST(NetStdio, SigtermDrainCheckpointsOnceAndLogsTheDrain) {
  TempFile cache("test_net_stdio_sigterm_cache.tmp.bin");
  serve::install_shutdown_handlers();
  serve::reset_shutdown();
  serve::Service::Options sopts = LoopbackServer::one_job();
  sopts.cache_file = cache.path;
  {
    StdioSession s({}, sopts);
    ASSERT_TRUE(s.send(request_line("d", "CG", 8)));
    ASSERT_FALSE(s.read_line().empty());
    std::raise(SIGTERM);  // stdin still open: the drain ends the session
    ASSERT_TRUE(s.wait_ended());
    EXPECT_TRUE(s.read_line().empty()) << "the drain closes the output";

    const std::string log = s.log.str();
    const std::string saved = "serve: checkpointed 1 cache entry";
    const std::size_t first = log.find(saved);
    EXPECT_NE(first, std::string::npos) << log;
    EXPECT_EQ(log.find(saved, first + 1), std::string::npos)
        << "one save per drain:\n" << log;
    EXPECT_NE(log.find("serve: drained"), std::string::npos);
    // Destroying the Service must not write the file the drain wrote.
    std::remove(cache.path.c_str());
  }
  EXPECT_NE(::access(cache.path.c_str(), F_OK), 0);
  serve::reset_shutdown();
}

}  // namespace
