// rvhpc::http — HTTP/1.1 framing and the HTTP front end on net::Server.
//
// Two layers under test.  The parsers (src/http/parser.cpp) are pure
// incremental state machines, so the unit tests feed them whole, split
// and byte-at-a-time inputs and expect identical outcomes.  The
// integration tests run a real Server with the HTTP listener enabled on
// an ephemeral loopback port and drive it with blocking sockets: framing
// edge cases (headers split across reads, pipelined keep-alive), the
// bounded-memory taxonomy (oversized body → 413 + close, malformed
// request line → 400 + close, connection limit → 503 + Retry-After) and
// the drain contract (SIGTERM mid-chunked-response answers every item).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "net/net.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"

namespace {

using namespace rvhpc;
using namespace std::chrono_literals;

// --- request parser -------------------------------------------------------

constexpr const char* kPostReq =
    "POST /v1/predict HTTP/1.1\r\n"
    "Host: 127.0.0.1\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: 14\r\n"
    "\r\n"
    "{\"cores\": 16}\n";

TEST(HttpRequestParser, WholeRequestInOneFeed) {
  http::RequestParser p;
  const std::string req = kPostReq;
  EXPECT_EQ(p.feed(req), req.size());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.method(), "POST");
  EXPECT_EQ(p.target(), "/v1/predict");
  EXPECT_EQ(p.version_minor(), 1);
  EXPECT_EQ(p.body(), "{\"cores\": 16}\n");
  EXPECT_TRUE(p.keep_alive());
  ASSERT_NE(p.header("content-type"), nullptr);
  EXPECT_EQ(*p.header("content-type"), "application/json");
}

TEST(HttpRequestParser, HeadersSplitAcrossEveryPossibleRead) {
  // Byte-at-a-time is the adversarial superset of "header split across
  // reads": every boundary — mid-request-line, mid-header-name,
  // between CR and LF, mid-body — is exercised.
  const std::string req = kPostReq;
  http::RequestParser p;
  for (char c : req) {
    ASSERT_FALSE(p.failed());
    EXPECT_EQ(p.feed(std::string_view(&c, 1)), 1u);
  }
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.body(), "{\"cores\": 16}\n");
  EXPECT_EQ(p.headers().size(), 3u);
}

TEST(HttpRequestParser, PipelinedRequestsStopAtMessageBoundary) {
  const std::string two = std::string(kPostReq) + kPostReq;
  http::RequestParser p;
  const std::size_t used = p.feed(two);
  EXPECT_EQ(used, std::strlen(kPostReq))
      << "feed must not consume the next pipelined request";
  ASSERT_TRUE(p.complete());
  p.reset();
  EXPECT_EQ(p.feed(std::string_view(two).substr(used)), std::strlen(kPostReq));
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.body(), "{\"cores\": 16}\n");
}

TEST(HttpRequestParser, HeaderStorageIsExactAfterReset) {
  // reset() keeps header strings as reusable storage; a second request
  // with fewer headers must not leak the first request's extras.
  http::RequestParser p;
  const std::string big =
      "GET /metrics HTTP/1.1\r\nHost: a\r\nAccept: b\r\nUser-Agent: c\r\n\r\n";
  ASSERT_EQ(p.feed(big), big.size());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.headers().size(), 3u);
  p.reset();
  const std::string small = "GET /healthz HTTP/1.1\r\nHost: z\r\n\r\n";
  ASSERT_EQ(p.feed(small), small.size());
  ASSERT_TRUE(p.complete());
  ASSERT_EQ(p.headers().size(), 1u);
  EXPECT_EQ(p.headers()[0].name, "host");
  EXPECT_EQ(p.headers()[0].value, "z");
  EXPECT_EQ(p.header("accept"), nullptr);
}

TEST(HttpRequestParser, MalformedRequestLineFails) {
  for (const char* bad : {"GARBAGE\r\n", "GET /x\r\n", "GET  /x HTTP/1.1\r\n",
                          "GET /x HTTP/2.0\r\n", "GET /x HTTQ/9\r\n"}) {
    http::RequestParser p;
    p.feed(bad);
    p.feed("\r\n");
    EXPECT_TRUE(p.failed()) << "accepted: " << bad;
    EXPECT_EQ(http::status_for_error(p.error()), 400) << bad;
  }
}

TEST(HttpRequestParser, BodyBeyondLimitIsTypedOversize) {
  http::Limits limits;
  limits.max_body = 64;
  http::RequestParser p(limits);
  p.feed("POST /v1/predict HTTP/1.1\r\nContent-Length: 65\r\n\r\n");
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error(), http::Error::BodyTooLarge);
  EXPECT_EQ(http::status_for_error(p.error()), 413);
}

TEST(HttpRequestParser, TransferEncodingIsRejected) {
  http::RequestParser p;
  p.feed("POST /v1/predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error(), http::Error::UnsupportedBody);
}

TEST(HttpRequestParser, KeepAliveDefaultsPerVersion) {
  http::RequestParser p;
  p.feed("GET / HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(p.complete());
  EXPECT_TRUE(p.keep_alive());
  p.reset();
  p.feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(p.complete());
  EXPECT_FALSE(p.keep_alive());
  p.reset();
  p.feed("GET / HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(p.complete());
  EXPECT_FALSE(p.keep_alive());
  p.reset();
  p.feed("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  ASSERT_TRUE(p.complete());
  EXPECT_TRUE(p.keep_alive());
}

TEST(HttpRequestParser, ExpectContinueIsSurfacedAtHeaderEnd) {
  http::RequestParser p;
  p.feed("POST /v1/predict HTTP/1.1\r\nContent-Length: 4\r\n"
         "Expect: 100-continue\r\n\r\n");
  EXPECT_FALSE(p.complete());
  ASSERT_TRUE(p.headers_complete());
  EXPECT_TRUE(p.expect_continue());
  p.feed("abcd");
  EXPECT_TRUE(p.complete());
}

// --- response parser ------------------------------------------------------

TEST(HttpResponseParser, ChunkedBodySplitAtEveryByte) {
  const std::string resp =
      "HTTP/1.1 200 OK\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "6\r\nhello\n\r\n"
      "7\r\nworld!\n\r\n"
      "0\r\n\r\n";
  http::ResponseParser p;
  for (char c : resp) {
    ASSERT_FALSE(p.failed());
    EXPECT_EQ(p.feed(std::string_view(&c, 1)), 1u);
  }
  ASSERT_TRUE(p.complete());
  EXPECT_TRUE(p.chunked());
  EXPECT_EQ(p.status(), 200);
  EXPECT_EQ(p.body(), "hello\nworld!\n");
}

TEST(HttpResponseParser, PipelinedResponsesStopAtBoundary) {
  const std::string one =
      "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc";
  const std::string two = one + "HTTP/1.1 404 Not Found\r\n"
                                "Content-Length: 0\r\n\r\n";
  http::ResponseParser p;
  const std::size_t used = p.feed(two);
  EXPECT_EQ(used, one.size());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.status(), 200);
  EXPECT_EQ(p.body(), "abc");
  p.reset();
  p.feed(std::string_view(two).substr(used));
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.status(), 404);
  EXPECT_TRUE(p.body().empty());
}

TEST(HttpResponseParser, InterimContinueIsSkipped) {
  http::ResponseParser p;
  p.feed("HTTP/1.1 100 Continue\r\n\r\n"
         "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.status(), 200);
  EXPECT_EQ(p.body(), "ok");
}

TEST(HttpResponseParser, EofBodyCompletesOnFinishEof) {
  http::ResponseParser p;
  p.feed("HTTP/1.0 200 OK\r\n\r\npartial");
  EXPECT_FALSE(p.complete());
  p.finish_eof();
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.body(), "partial");
}

// --- server integration ---------------------------------------------------

/// A Service + Server with the HTTP listener enabled, loop on a
/// background thread.  Mirrors test_net's LoopbackServer.
struct HttpServer {
  serve::Service service;
  net::Server server;
  std::ostringstream log;
  std::thread loop;

  explicit HttpServer(net::ServerOptions nopts = with_http(),
                      serve::Service::Options sopts = one_job())
      : service(std::move(sopts)), server(service, nopts) {
    server.open(log);
    loop = std::thread([this] { server.run(log); });
  }

  ~HttpServer() {
    server.stop();
    if (loop.joinable()) loop.join();
  }

  static net::ServerOptions with_http() {
    net::ServerOptions o;
    o.http = true;
    return o;
  }

  static serve::Service::Options one_job() {
    serve::Service::Options o;
    o.jobs = 1;
    return o;
  }

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

  explicit Client(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    timeval tv{5, 0};
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
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

  /// Feeds the socket into `rp` until one response completes (or the
  /// peer hangs up, which completes EOF-framed bodies).  Leftover bytes
  /// stay in `buffered` for the next pipelined response.
  bool recv_response(http::ResponseParser& rp) {
    while (!rp.complete() && !rp.failed()) {
      if (!buffered.empty()) {
        const std::size_t used = rp.feed(buffered);
        buffered.erase(0, used);
        if (used > 0) continue;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        rp.finish_eof();
        break;
      }
      buffered.append(chunk, static_cast<std::size_t>(n));
    }
    return rp.complete();
  }

  /// True when the server closed the connection (EOF within the receive
  /// timeout, no further bytes).
  bool at_eof() {
    char chunk[256];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    return n == 0;
  }
};

std::string predict_line(const std::string& id, int cores) {
  return "{\"id\": \"" + id + "\", \"machine\": \"sg2044\", \"kernel\": "
         "\"MG\", \"cores\": " + std::to_string(cores) + "}\n";
}

std::string slow_line(const std::string& id, int cores) {
  return "{\"id\": \"" + id + "\", \"machine\": \"sg2044\", \"kernel\": "
         "\"CG\", \"class\": \"C\", \"cores\": " + std::to_string(cores) +
         ", \"backend\": \"interval\"}\n";
}

std::string http_post(const std::string& body) {
  return "POST /v1/predict HTTP/1.1\r\nHost: t\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST(HttpServer_, SinglePredictAnswersFixedLength) {
  HttpServer s;
  Client cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(http_post(predict_line("one", 16))));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  EXPECT_FALSE(rp.chunked());
  ASSERT_NE(rp.header("content-length"), nullptr);
  const auto parsed = obs::json::parse(rp.body());
  EXPECT_EQ(parsed.find("id")->str, "one");
}

TEST(HttpServer_, RequestSplitAcrossManySocketWrites) {
  HttpServer s;
  Client cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  const std::string req = http_post(predict_line("split", 8));
  // Dribble the request a few bytes per send with pauses, so the server
  // sees the head and body across many poll() wakeups.
  for (std::size_t off = 0; off < req.size(); off += 7) {
    ASSERT_TRUE(cl.send_all(req.substr(off, 7)));
    std::this_thread::sleep_for(1ms);
  }
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  EXPECT_EQ(obs::json::parse(rp.body()).find("id")->str, "split");
}

TEST(HttpServer_, PipelinedKeepAliveAnswersInOrder) {
  HttpServer s;
  Client cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  std::string burst;
  constexpr int kN = 5;
  for (int i = 0; i < kN; ++i) {
    burst += http_post(predict_line("p" + std::to_string(i), 1 << i));
  }
  ASSERT_TRUE(cl.send_all(burst));
  for (int i = 0; i < kN; ++i) {
    http::ResponseParser rp;
    ASSERT_TRUE(cl.recv_response(rp)) << "response " << i;
    EXPECT_EQ(rp.status(), 200);
    EXPECT_EQ(obs::json::parse(rp.body()).find("id")->str,
              "p" + std::to_string(i))
        << "pipelined responses must arrive in request order";
  }
}

TEST(HttpServer_, BatchBodyStreamsBackChunked) {
  HttpServer s;
  Client cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  std::string body;
  for (int i = 0; i < 3; ++i) {
    body += predict_line("b" + std::to_string(i), 4 << i);
  }
  ASSERT_TRUE(cl.send_all(http_post(body)));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  EXPECT_TRUE(rp.chunked()) << "a multi-line batch must stream chunked";
  std::istringstream lines(rp.body());
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(obs::json::parse(line).find("id")->str,
              "b" + std::to_string(n));
    ++n;
  }
  EXPECT_EQ(n, 3);
}

TEST(HttpServer_, MalformedRequestLineGets400AndClose) {
  HttpServer s;
  Client cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all("NOT A REQUEST LINE AT ALL\r\n\r\n"));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 400);
  const auto parsed = obs::json::parse(rp.body());
  EXPECT_EQ(parsed.find("status")->str, "error");
  EXPECT_TRUE(cl.at_eof()) << "a framing error must close the connection";
}

TEST(HttpServer_, OversizedBodyGets413AndClose) {
  net::ServerOptions nopts = HttpServer::with_http();
  nopts.max_body_bytes = 128;
  HttpServer s(nopts);
  Client cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(http_post(std::string(512, 'x'))));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 413);
  EXPECT_TRUE(cl.at_eof()) << "an oversized body must close the connection";
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_oversize == 1;
  }));
}

TEST(HttpServer_, ConnectionLimitGets503WithRetryAfter) {
  net::ServerOptions nopts = HttpServer::with_http();
  nopts.max_connections = 1;
  HttpServer s(nopts);
  Client held(s.server.http_port());
  ASSERT_TRUE(held.connected());
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.accepted == 1;
  }));
  Client refused(s.server.http_port());
  ASSERT_TRUE(refused.connected());
  http::ResponseParser rp;
  ASSERT_TRUE(refused.recv_response(rp));
  EXPECT_EQ(rp.status(), 503);
  ASSERT_NE(rp.header("retry-after"), nullptr);
  EXPECT_EQ(*rp.header("retry-after"), "1");
  EXPECT_EQ(obs::json::parse(rp.body()).find("error")->str, "overloaded");
}

TEST(HttpServer_, MetricsRouteRendersLabelledCounters) {
  obs::set_metrics_enabled(true);
  HttpServer s;
  Client cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  std::string burst = http_post(predict_line("m", 2));
  burst += "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_TRUE(cl.send_all(burst));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  rp.reset();
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  ASSERT_NE(rp.header("content-type"), nullptr);
  EXPECT_NE(rp.header("content-type")->find("text/plain"), std::string::npos);
  EXPECT_NE(rp.body().find("rvhpc_http_requests_total{route=\"/v1/predict\","
                           "status=\"200\"}"),
            std::string::npos)
      << "/metrics must expose the per-route, per-status request counter";
}

TEST(HttpServer_, HealthzAndRouting) {
  HttpServer s;
  Client cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  std::string burst =
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /no/such/route HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /v1/predict HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_TRUE(cl.send_all(burst));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  EXPECT_EQ(obs::json::parse(rp.body()).find("status")->str, "serving");
  rp.reset();
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 404);
  rp.reset();
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 405);
  ASSERT_NE(rp.header("allow"), nullptr);
  EXPECT_EQ(*rp.header("allow"), "POST");
}

TEST(HttpServer_, SigtermDrainFinishesChunkedResponseMidFlight) {
  serve::install_shutdown_handlers();
  serve::reset_shutdown();
  {
    serve::Service::Options sopts;
    sopts.jobs = 2;
    HttpServer s(HttpServer::with_http(), sopts);
    Client cl(s.server.http_port());
    ASSERT_TRUE(cl.connected());
    constexpr int kN = 4;
    std::string body;
    for (int i = 0; i < kN; ++i) {
      body += slow_line("d" + std::to_string(i), 32 + i);
    }
    ASSERT_TRUE(cl.send_all(http_post(body)));
    // Pull the plug once every item is on the compute pool — the chunked
    // response is mid-flight when the drain starts.
    ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
      return st.dispatched >= kN;
    }));
    std::raise(SIGTERM);
    s.loop.join();  // run() must return on its own

    http::ResponseParser rp;
    ASSERT_TRUE(cl.recv_response(rp))
        << "drain must complete the in-flight chunked response";
    EXPECT_EQ(rp.status(), 200);
    EXPECT_TRUE(rp.chunked());
    std::vector<bool> seen(kN, false);
    std::istringstream lines(rp.body());
    std::string line;
    while (std::getline(lines, line)) {
      const std::string id = obs::json::parse(line).find("id")->str;
      ASSERT_EQ(id.size(), 2u);
      seen[static_cast<std::size_t>(id[1] - '0')] = true;
    }
    for (int i = 0; i < kN; ++i) {
      EXPECT_TRUE(seen[static_cast<std::size_t>(i)])
          << "drain dropped in-flight item d" << i;
    }
    EXPECT_NE(s.log.str().find("http exchange(s)"), std::string::npos);
  }
  serve::reset_shutdown();
}

TEST(HttpServer_, BothListenersShareOneServiceAndCache) {
  HttpServer s;
  // Warm through the raw wire, hit through HTTP: one shared cache.
  Client raw(s.server.port());
  ASSERT_TRUE(raw.connected());
  ASSERT_TRUE(raw.send_all(predict_line("warm", 32)));
  http::ResponseParser unused;  // raw wire: read the line directly
  std::string line;
  {
    char chunk[4096];
    while (line.find('\n') == std::string::npos) {
      const ssize_t n = ::recv(raw.fd, chunk, sizeof(chunk), 0);
      ASSERT_GT(n, 0);
      line.append(chunk, static_cast<std::size_t>(n));
    }
  }
  const auto before = s.server.stats().dispatched;

  Client cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(http_post(predict_line("hit", 32))));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  EXPECT_EQ(s.server.stats().dispatched, before)
      << "an HTTP request warmed by the raw wire must be a cache hit";
}

// --- HEAD requests --------------------------------------------------------

/// Receives until `cl.buffered` holds one full response head, returns it
/// (through the blank line) and leaves everything after it buffered.
/// HEAD responses carry a Content-Length but no body, so ResponseParser
/// would wait forever — raw bytes are the only honest way to read them.
std::string recv_head(Client& cl) {
  std::size_t end;
  while ((end = cl.buffered.find("\r\n\r\n")) == std::string::npos) {
    char chunk[4096];
    const ssize_t n = ::recv(cl.fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return {};
    cl.buffered.append(chunk, static_cast<std::size_t>(n));
  }
  std::string head = cl.buffered.substr(0, end + 4);
  cl.buffered.erase(0, end + 4);
  return head;
}

TEST(HttpServer_, HeadHealthzMatchesGetHeadByteForByte) {
  HttpServer s;
  Client cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(
      "HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
  // If the HEAD response smuggled any body bytes, they would land at the
  // start of the second head and break both assertions below.
  const std::string head_head = recv_head(cl);
  const std::string get_head = recv_head(cl);
  ASSERT_FALSE(head_head.empty());
  EXPECT_NE(head_head.find("HTTP/1.1 200"), std::string::npos) << head_head;
  EXPECT_NE(head_head.find("Content-Length: "), std::string::npos);
  EXPECT_EQ(head_head, get_head)
      << "HEAD must answer exactly the GET headers";
  // The advertised length matches the GET body that follows.
  const std::size_t cl_pos = get_head.find("Content-Length: ") + 16;
  const std::size_t want = std::stoul(get_head.substr(cl_pos));
  ASSERT_GT(want, 0u);
  while (cl.buffered.size() < want) {
    char chunk[4096];
    const ssize_t n = ::recv(cl.fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0);
    cl.buffered.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(cl.buffered.size(), want);
  EXPECT_EQ(obs::json::parse(cl.buffered).find("status")->str, "serving");
}

TEST(HttpServer_, HeadMetricsAnswersHeadersOnly) {
  obs::set_metrics_enabled(true);
  HttpServer s;
  Client cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(
      "HEAD /metrics HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string head = recv_head(cl);
  ASSERT_FALSE(head.empty());
  EXPECT_NE(head.find("HTTP/1.1 200"), std::string::npos) << head;
  EXPECT_NE(head.find("text/plain"), std::string::npos) << head;
  EXPECT_NE(head.find("Content-Length: "), std::string::npos) << head;
  // The healthz response must follow immediately: no metrics body bytes.
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  EXPECT_EQ(obs::json::parse(rp.body()).find("status")->str, "serving");
}

// --- header-read timeout (slow loris) -------------------------------------

TEST(HttpServer_, SlowLorisHeadersAnswered408AndCounted) {
  obs::set_metrics_enabled(true);
  const obs::Counter& header_timeouts = obs::Registry::global().counter(
      "rvhpc_net_disconnect_total{reason=\"header_timeout\"}");
  const std::uint64_t before = header_timeouts.value();
  net::ServerOptions nopts = HttpServer::with_http();
  nopts.header_timeout_ms = 60;
  nopts.poll_interval_ms = 5;
  HttpServer s(nopts);

  // A well-behaved keep-alive client: its requests complete, so however
  // long it idles between them the header deadline must never bite.
  Client good(s.server.http_port());
  ASSERT_TRUE(good.connected());
  ASSERT_TRUE(good.send_all("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
  http::ResponseParser ok;
  ASSERT_TRUE(good.recv_response(ok));
  EXPECT_EQ(ok.status(), 200);

  // The loris drips its header bytes forever without the closing blank
  // line; every drip would reset an idle timeout, but not this one.
  Client loris(s.server.http_port());
  ASSERT_TRUE(loris.connected());
  const std::string req = "GET /healthz HTTP/1.1\r\nHost: dribble\r\n";
  for (char c : req) {
    if (!loris.send_all(std::string(1, c))) break;  // server hung up
    std::this_thread::sleep_for(5ms);
  }
  http::ResponseParser rp;
  ASSERT_TRUE(loris.recv_response(rp));
  EXPECT_EQ(rp.status(), 408);
  EXPECT_TRUE(loris.at_eof());
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_header_timeout == 1;
  }));

  // The patient complete-request client survived the purge...
  ASSERT_TRUE(good.send_all("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
  http::ResponseParser again;
  ASSERT_TRUE(good.recv_response(again));
  EXPECT_EQ(again.status(), 200);

  // ...and the scrape exposes the exact labeled counter.
  Client m(s.server.http_port());
  ASSERT_TRUE(m.connected());
  ASSERT_TRUE(m.send_all("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"));
  http::ResponseParser metrics;
  ASSERT_TRUE(m.recv_response(metrics));
  const std::string series =
      "rvhpc_net_disconnect_total{reason=\"header_timeout\"} " +
      std::to_string(before + 1) + "\n";
  EXPECT_NE(metrics.body().find(series), std::string::npos)
      << "the disconnect must surface once, as " << series;
  EXPECT_EQ(header_timeouts.value(), before + 1);
}

}  // namespace
