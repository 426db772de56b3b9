#pragma once
// The benchmark's workloads: seeded request streams and the in-process
// resolution of a request into what the program should evaluate.
//
// Everything a run sends is made here from the run's seed; the program
// under test only ever sees the generated bytes.

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "arch/machine.hpp"
#include "arch/registry.hpp"
#include "engine/request.hpp"
#include "model/compiler.hpp"
#include "model/predictor.hpp"
#include "model/scaling.hpp"
#include "model/workload.hpp"

namespace perfbench {

enum class Workload { HotHttp, IntervalMissTcp, InlineStdio };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* name_of(Workload w);

/// A seeded perturbation of a registry machine, sent as `machine_text`.
/// The perturbed fields are rounded to at most six significant digits so
/// the `.machine` text (printed at the stream default precision) reads
/// back to exactly the model that was linted.
struct InlineMachine {
  rvhpc::arch::MachineId base = rvhpc::arch::MachineId::Sg2044;
  std::uint32_t serial = 0;  ///< unique within a run; part of the name
  double clock_ghz = 0.0;
  double channel_bw_gbs = 0.0;
  double idle_latency_ns = 0.0;
};

[[nodiscard]] rvhpc::arch::MachineModel perturbed_model(const InlineMachine& im);
[[nodiscard]] std::string machine_text(const InlineMachine& im);

/// What one request asks for — everything but its id.
struct Spec {
  rvhpc::arch::MachineId machine = rvhpc::arch::MachineId::Sg2044;
  std::optional<InlineMachine> inline_machine;  ///< set: sent as text
  rvhpc::model::Kernel kernel = rvhpc::model::Kernel::EP;
  rvhpc::model::ProblemClass cls = rvhpc::model::ProblemClass::C;
  int cores = 1;
  std::optional<rvhpc::model::CompilerId> compiler;
  std::optional<bool> vectorise;
  std::optional<rvhpc::model::ThreadPlacement> placement;
  rvhpc::engine::Backend backend = rvhpc::engine::Backend::Analytic;
  double paper_mops = 0.0;  ///< > 0: the paper publishes this cell
  std::string paper_cell;   ///< e.g. "T4 CG sg2044 64c"
};

/// A request as the program should evaluate it, resolved in-process
/// apart from the serving path: the registry machine (or arch::from_text
/// of the inline text), model::signature, and the paper run config with
/// the request's overrides.
struct Resolved {
  rvhpc::arch::MachineModel machine;
  rvhpc::model::WorkloadSignature sig;
  rvhpc::model::RunConfig cfg;
  rvhpc::engine::Backend backend = rvhpc::engine::Backend::Analytic;
};

[[nodiscard]] Resolved resolve(const Spec& s);
/// The memo key the program derives for this request.
[[nodiscard]] std::uint64_t key_of(const Resolved& r);

/// The JSON request line for `s` (no newline).
[[nodiscard]] std::string request_line(const Spec& s, std::string_view id);
/// `line` framed as one HTTP/1.1 keep-alive POST /v1/predict.
[[nodiscard]] std::string http_post(std::string_view line);

/// Every Mop/s cell the paper publishes (Tables 2, 3, 4, 7, 8) plus the
/// power-of-two scaling points behind Figures 2-6; all analytic.
[[nodiscard]] std::vector<Spec> hot_set();

/// The requests whose answers fill the prepared persistent cache: the hot
/// set plus seeded analytic filler, `entries` distinct memo keys in all.
[[nodiscard]] std::vector<Spec> prepared_cache_specs(std::size_t entries);

/// One request of a stream.
struct Request {
  std::uint32_t spec = 0;      ///< index into Stream::spec()
  std::uint64_t seq = 0;       ///< position in the stream; makes the id
  std::uint32_t round = 0;     ///< the round it belongs to
  bool last_in_round = false;  ///< a phase may end after this request
  bool expect_hit = false;     ///< the program must answer from its cache
};

/// A workload's seeded request stream, made of rounds.  Every round of a
/// workload holds the same mix of work in a seeded order, and phases end
/// only at round boundaries, so the mix a run measures does not depend on
/// the seed or on where the clock ran out.
///  - hot-http: a round is a permutation of hot_set(); every request is
///    resident in the restored cache, so every answer is a hit.
///  - interval-miss-tcp: a round is a permutation of the grid registry and
///    topology machine x NPB kernel x class A/B/C x cores (one, the middle
///    and the largest power of two the machine has).  Each round carries
///    its own placement / vectorise / compiler override, so no memo key
///    repeats within a run.
///  - inline-stdio: a round is one seeded lint-clean perturbation of each
///    registry and topology machine, sent as machine_text, then
///    kRepeatsPerRound repeats of recent requests, which must hit.
class Stream {
 public:
  Stream(Workload w, std::uint64_t seed);

  /// The next request; nullopt once an interval run has used every key.
  [[nodiscard]] std::optional<Request> next();
  /// Requests per round.
  [[nodiscard]] std::size_t round_size() const { return round_size_; }

  [[nodiscard]] const Spec& spec(std::uint32_t i) const { return specs_[i]; }
  [[nodiscard]] std::size_t spec_count() const { return specs_.size(); }
  [[nodiscard]] Workload workload() const { return workload_; }
  [[nodiscard]] std::string id(const Request& r) const;
  [[nodiscard]] std::string line(const Request& r) const;
  /// The bytes the request occupies on its wire.
  [[nodiscard]] std::string wire(const Request& r) const;

  /// inline-stdio lines per round that repeat a recent request (the
  /// round's other lines are one new machine per base machine).
  static constexpr std::size_t kRepeatsPerRound = 5;

 private:
  void add_round();
  std::uint32_t add_inline_machine(rvhpc::arch::MachineId base);

  Workload workload_;
  std::mt19937_64 rng_;
  std::vector<Spec> specs_;
  std::uint64_t seq_ = 0;
  std::size_t round_size_ = 0;
  std::uint32_t rounds_ = 0;
  /// The current round: spec indices and whether each must hit.
  std::vector<std::pair<std::uint32_t, bool>> round_;
  std::size_t cursor_ = 0;
  std::size_t hot_count_ = 0;         ///< hot-http: specs_ is the hot set
  std::vector<Spec> grid_;            ///< interval-miss-tcp
  std::vector<std::uint32_t> fresh_;  ///< inline-stdio: new machines sent
};

}  // namespace perfbench
