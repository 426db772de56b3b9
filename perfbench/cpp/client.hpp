#pragma once
// The load generator: one thread, closed loops only.
//
//   interactive phase  one request outstanding on one connection; each
//                      request is timed from its send to the last byte of
//                      its response (the latency metrics)
//   batch phase        a fixed pipelining window on each of at most two
//                      connections; a response frees its slot for the
//                      next request (throughput and server CPU)
//
// An open loop is deliberately absent: under host steal an open-loop
// generator runs late by milliseconds and its percentiles wander.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// One request/response channel: a TCP socket (one fd both ways) or the
/// stdio pipe pair of a child process.
struct Channel {
  int write_fd = -1;
  int read_fd = -1;
};

/// Connects to 127.0.0.1:`port` with TCP_NODELAY; throws on failure.
[[nodiscard]] Channel connect_loopback(int port);
void close_channel(Channel& c);

/// Receives every answer: the request and its response payload (the JSON
/// line, without its newline or HTTP framing).
using Sink = std::function<void(const Request&, std::string&&)>;

/// A phase runs whole rounds of its stream: it starts no round once its
/// time is up, and ends when the round in progress is answered.
struct PhaseResult {
  std::size_t answered = 0;
  std::vector<double> latencies_us;  ///< interactive phase, per answer
  std::vector<double> done_s;        ///< batch phase: time of each answer
                                     ///< from the phase start
  double seconds = 0.0;              ///< first send to last response
  std::string error;                 ///< non-empty: the phase broke off
};

/// Runs the interactive phase for `seconds` on `c`.  The client blocks in
/// read() like an ordinary caller.
[[nodiscard]] PhaseResult interactive_phase(Stream& stream, Channel c, double seconds,
                                            const Sink& answered);

/// Runs the batch phase for `seconds` on `channels` with `window`
/// requests outstanding on each.  `mark` is called just before the first
/// send and just after the last response, so the caller can read the
/// server's CPU time at the phase's edges.
[[nodiscard]] PhaseResult batch_phase(Stream& stream, const std::vector<Channel>& channels,
                                      int window, double seconds,
                                      const std::function<void()>& mark, const Sink& answered);

}  // namespace perfbench
