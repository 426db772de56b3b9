#pragma once
// Checks every answer of a run against the benchmark's own in-process
// evaluation and against properties the method must have:
//   completeness   one response per request, its id, status "ok"
//   transparency   the deterministic fields equal
//                  engine::backend_for(...).predict of the request,
//                  resolved apart from the serving path (workloads.hpp)
//   work identity  mops x seconds == the signature's total_mop
//   cache shape    "cache" is "hit" exactly where the workload implies it
//   paper          hot-http's published cells agree with the paper within
//                  the reproduction error EXPERIMENTS.md documents

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

class Checker {
 public:
  explicit Checker(const Stream& stream) : stream_(stream) {}

  /// Keeps a response to check after the run, when its expected answer
  /// is too dear to evaluate while the server is measured.
  void keep(const Request& r, std::string&& response);
  /// Checks every kept response, evaluating their expected answers on
  /// `threads` threads first (interval predictions take milliseconds).
  void check_kept(int threads);

  /// Checks one response to `r`; false (and a recorded message) when it
  /// is wrong.  A response equal, but for its id and latency, to one this
  /// checker already passed for the same request is passed without a
  /// second parse (hot-http answers the same few hundred cells).
  bool check(const Request& r, std::string_view response);

  [[nodiscard]] std::size_t checked() const { return checked_; }
  [[nodiscard]] std::size_t failures() const { return failures_; }
  [[nodiscard]] const std::vector<std::string>& messages() const { return messages_; }

  /// Largest |served - paper| / paper over the published cells answered.
  [[nodiscard]] double paper_worst() const { return paper_worst_; }
  [[nodiscard]] std::size_t paper_cells() const { return paper_cells_; }

  /// The documented worst cell of the reproduction: EXPERIMENTS.md's
  /// outlier table tops out at -30.7% (T8 CG GCC15+vec).
  static constexpr double kPaperTolerance = 0.31;

 private:
  struct Expected {
    bool ran = true;
    std::string dnr_reason;
    double seconds = 0.0;
    double mops = 0.0;
    double bw_gbs = 0.0;
    std::string bottleneck;
    bool vectorised = false;
    std::string machine;
    double total_mop = 0.0;
  };
  static Expected evaluate(const Spec& s);
  const Expected& expected(std::uint32_t spec);
  bool fail(const std::string& message);
  bool check_fully(const Request& r, std::string_view response);
  void prefetch(const std::vector<std::uint32_t>& specs, int threads);

  const Stream& stream_;
  std::unordered_map<std::uint32_t, Expected> memo_;
  /// Passed responses per spec with id and latency values blanked.
  std::unordered_map<std::uint32_t, std::string> passed_;
  std::vector<std::pair<Request, std::string>> kept_;
  std::size_t checked_ = 0;
  std::size_t failures_ = 0;
  std::vector<std::string> messages_;
  double paper_worst_ = 0.0;
  std::size_t paper_cells_ = 0;
};

}  // namespace perfbench
