#pragma once
// rvhpc::engine — BatchEvaluator: parallel, memoised, deterministic.
//
// evaluate() fans a RequestSet across a ThreadPool and returns results in
// request order regardless of completion order — each task writes only its
// own pre-allocated slot, so the output of a 1-thread and an 8-thread run
// is identical byte for byte (predict() is pure; verified by test_engine).
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
    /// Worker threads; <= 0 means default_jobs() (RVHPC_JOBS env or
    /// hardware_concurrency).
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

  [[nodiscard]] int jobs() const { return jobs_; }
  [[nodiscard]] PredictionCache& cache() { return cache_; }

 private:
  int jobs_;
  PredictionCache cache_;
};

/// The process-wide evaluator every migrated bench/example and the
/// model::sweep helpers share.  Constructed on first use with
/// set_default_jobs()'s value if one was set, else default_jobs().
[[nodiscard]] BatchEvaluator& default_evaluator();

/// Overrides the default evaluator's pool size (the --jobs=N flag).  Takes
/// effect immediately: the evaluator is rebuilt if already constructed.
void set_default_jobs(int jobs);

}  // namespace rvhpc::engine
