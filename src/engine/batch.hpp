#pragma once
// rvhpc::engine — BatchEvaluator: parallel, memoised, deterministic.
//
// evaluate() runs a RequestSet through engine::parallel_for and returns
// results in request order regardless of completion order — each index
// writes only its own pre-allocated slot, so the output of a 1-thread and
// an 8-thread run is identical byte for byte (predict() is pure; verified
// by test_engine).
//
// A process-wide default evaluator (default_evaluator()) carries the shared
// memo cache; bench binaries and model::sweep route through it so a run
// that evaluates the same point twice — suite_summary's geomean columns,
// times_faster's baselines, sensitivity's centre points — computes it once.
//
// Caching and tracing interact: a cache hit skips predict() and therefore
// the PredictionRecord it would add to an active TraceSession.  Attribution
// must stay complete, so the evaluator bypasses the cache entirely (no
// reads, no writes) while obs::session() is non-null.

#include <cstddef>
#include <vector>

#include "engine/cache.hpp"
#include "engine/request.hpp"

namespace rvhpc::engine {

class BatchEvaluator {
 public:
  struct Options {
    /// Threads per batch; <= 0 means the process setting, default_jobs()
    /// (--jobs, RVHPC_JOBS or hardware_concurrency), read when evaluate()
    /// runs.
    int jobs = 0;
    /// Memo cache entries; 0 disables memoisation.
    std::size_t cache_capacity = PredictionCache::kDefaultCapacity;
  };

  BatchEvaluator();  // Options{} defaults
  explicit BatchEvaluator(Options opts);

  /// Evaluates every request; result[i] corresponds to set.requests()[i].
  [[nodiscard]] std::vector<PredictionResult> evaluate(const RequestSet& set);

  /// Single-point convenience sharing the same memo cache.
  [[nodiscard]] model::Prediction evaluate_one(
      const arch::MachineModel& m, const model::WorkloadSignature& sig,
      const model::RunConfig& cfg, Backend backend = Backend::Analytic);

  /// Threads evaluate() asks parallel_for for.
  [[nodiscard]] int jobs() const;
  [[nodiscard]] PredictionCache& cache() { return cache_; }

 private:
  int jobs_;
  PredictionCache cache_;
};

/// The process-wide evaluator every migrated bench/example and the
/// model::sweep helpers share.  It follows the process setting
/// (set_default_jobs(), the --jobs=N flag) and keeps its memo cache for
/// the life of the process.
[[nodiscard]] BatchEvaluator& default_evaluator();

}  // namespace rvhpc::engine
