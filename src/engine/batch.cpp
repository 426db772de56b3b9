#include "engine/batch.hpp"

#include "engine/backend.hpp"
#include "engine/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rvhpc::engine {
namespace {

void count_batch(std::size_t requests) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& batches = obs::Registry::global().counter(
      "rvhpc_engine_batches_total", "BatchEvaluator::evaluate calls");
  static obs::Counter& reqs = obs::Registry::global().counter(
      "rvhpc_engine_requests_total", "requests evaluated through the engine");
  batches.add();
  reqs.add(requests);
}

}  // namespace

BatchEvaluator::BatchEvaluator() : BatchEvaluator(Options{}) {}

BatchEvaluator::BatchEvaluator(Options opts)
    : jobs_(opts.jobs), cache_(opts.cache_capacity) {}

int BatchEvaluator::jobs() const { return jobs_ > 0 ? jobs_ : default_jobs(); }

std::vector<PredictionResult> BatchEvaluator::evaluate(const RequestSet& set) {
  obs::ScopedSpan span("engine", "evaluate");
  count_batch(set.size());

  const std::vector<PredictionRequest>& requests = set.requests();
  std::vector<PredictionResult> results(requests.size());

  // A cache hit would swallow the PredictionRecord predict() emits, so
  // attribution runs pay full price for complete traces.
  const bool use_cache = obs::session() == nullptr;
  const int jobs = this->jobs();

  parallel_for(requests.size(), jobs, [&](std::size_t i) {
    const PredictionRequest& req = requests[i];
    PredictionResult& out = results[i];
    out.index = i;
    out.tag = req.tag();
    if (use_cache) {
      if (std::optional<model::Prediction> hit = cache_.get(req.key())) {
        out.prediction = *std::move(hit);
        out.from_cache = true;
        return;
      }
    }
    out.prediction = backend_for(req.backend())
                         .predict(req.machine(), req.signature(), req.config());
    if (use_cache) cache_.put(req.key(), out.prediction);
  });

  if (span.active()) {
    span.arg("requests", std::to_string(requests.size()));
    span.arg("jobs", std::to_string(jobs));
  }
  return results;
}

model::Prediction BatchEvaluator::evaluate_one(
    const arch::MachineModel& m, const model::WorkloadSignature& sig,
    const model::RunConfig& cfg, Backend backend) {
  const PredictionBackend& impl = backend_for(backend);
  if (obs::session() != nullptr) return impl.predict(m, sig, cfg);
  const PredictionRequest req(m, sig, cfg, "", backend);
  if (std::optional<model::Prediction> hit = cache_.get(req.key()))
    return *std::move(hit);
  model::Prediction p = impl.predict(m, sig, cfg);
  cache_.put(req.key(), p);
  return p;
}

BatchEvaluator& default_evaluator() {
  static auto* evaluator = new BatchEvaluator();  // never freed, like Registry
  return *evaluator;
}

}  // namespace rvhpc::engine
