// rvhpc::engine — batch evaluator, memo cache, thread pool, value types.
//
// The load-bearing guarantee is determinism: a RequestSet evaluated with 1,
// 2 or 8 workers must produce bit-identical predictions in request order.
// Everything else (memoisation, counters, the --jobs flag) layers on top.

#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "arch/registry.hpp"
#include "arch/serialize.hpp"
#include "engine/batch.hpp"
#include "engine/cache.hpp"
#include "engine/request.hpp"
#include "engine/thread_pool.hpp"
#include "model/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace rvhpc;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bit-exact equality over every Prediction field.
void expect_identical(const model::Prediction& a, const model::Prediction& b) {
  EXPECT_EQ(a.ran, b.ran);
  EXPECT_EQ(a.dnr_reason, b.dnr_reason);
  EXPECT_EQ(bits(a.seconds), bits(b.seconds));
  EXPECT_EQ(bits(a.mops), bits(b.mops));
  EXPECT_EQ(bits(a.achieved_bw_gbs), bits(b.achieved_bw_gbs));
  EXPECT_EQ(a.vector.vectorised, b.vector.vectorised);
  EXPECT_EQ(bits(a.vector.unit_stride_speedup), bits(b.vector.unit_stride_speedup));
  EXPECT_EQ(bits(a.vector.gather_speedup), bits(b.vector.gather_speedup));
  EXPECT_EQ(bits(a.vector.blended_speedup), bits(b.vector.blended_speedup));
  EXPECT_EQ(bits(a.breakdown.compute_s), bits(b.breakdown.compute_s));
  EXPECT_EQ(bits(a.breakdown.stream_s), bits(b.breakdown.stream_s));
  EXPECT_EQ(bits(a.breakdown.latency_s), bits(b.breakdown.latency_s));
  EXPECT_EQ(bits(a.breakdown.sync_s), bits(b.breakdown.sync_s));
  EXPECT_EQ(bits(a.breakdown.imbalance), bits(b.breakdown.imbalance));
  EXPECT_EQ(a.breakdown.dominant, b.breakdown.dominant);
}

/// A medium-sized mixed sweep: every HPC machine's MG and CG scaling
/// curves plus a few single points — enough requests to keep several
/// workers busy and to contain duplicates for the cache tests.
engine::RequestSet mixed_set() {
  engine::RequestSet set;
  for (arch::MachineId id : arch::hpc_machines()) {
    const arch::MachineModel& m = arch::machine(id);
    for (model::Kernel k : {model::Kernel::MG, model::Kernel::CG}) {
      set.add_scaling(m, k, model::ProblemClass::C,
                      model::paper_run_config(m, k, 1),
                      std::string(arch::name_of(id)));
    }
  }
  set.add_paper_setup(arch::MachineId::Sg2044, model::Kernel::FT,
                      model::ProblemClass::C, 64, "ft64");
  return set;
}

engine::BatchEvaluator make(int jobs, std::size_t cache_capacity) {
  engine::BatchEvaluator::Options opts;
  opts.jobs = jobs;
  opts.cache_capacity = cache_capacity;
  return engine::BatchEvaluator(opts);
}

TEST(MachineFingerprint, DistinctAcrossRegistryAndUnderPerturbation) {
  std::vector<std::uint64_t> seen;
  for (arch::MachineId id : arch::all_machines()) {
    seen.push_back(engine::machine_fingerprint(arch::machine(id)));
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    for (std::size_t j = i + 1; j < seen.size(); ++j) {
      EXPECT_NE(seen[i], seen[j]) << "machines " << i << " and " << j;
    }
  }
  // A 5% knob tweak — what the sensitivity sweep does — must re-key.
  arch::MachineModel m = arch::machine(arch::MachineId::Sg2044);
  const std::uint64_t base = engine::machine_fingerprint(m);
  m.memory.channel_bw_gbs *= 1.05;
  EXPECT_NE(engine::machine_fingerprint(m), base);
}

TEST(PredictionRequest, KeyCoversCoresAndCompiler) {
  const arch::MachineModel& m = arch::machine(arch::MachineId::Sg2044);
  const auto sig = model::signature(model::Kernel::MG, model::ProblemClass::C);
  model::RunConfig cfg = model::paper_run_config(m, model::Kernel::MG, 8);
  const engine::PredictionRequest a(m, sig, cfg);
  const engine::PredictionRequest same(m, sig, cfg);
  EXPECT_EQ(a.key(), same.key());

  model::RunConfig more_cores = cfg;
  more_cores.cores = 16;
  EXPECT_NE(engine::PredictionRequest(m, sig, more_cores).key(), a.key());

  model::RunConfig scalar = cfg;
  scalar.compiler.vectorise = !scalar.compiler.vectorise;
  EXPECT_NE(engine::PredictionRequest(m, sig, scalar).key(), a.key());

  // Every remaining RunConfig field feeds the key too (request.cpp's
  // static_asserts pin the field counts; this pins the semantics).
  model::RunConfig other_compiler = cfg;
  other_compiler.compiler.id = cfg.compiler.id == model::CompilerId::Gcc15_2
                                   ? model::CompilerId::Gcc12_3_1
                                   : model::CompilerId::Gcc15_2;
  EXPECT_NE(engine::PredictionRequest(m, sig, other_compiler).key(), a.key());

  model::RunConfig placed = cfg;
  placed.placement = model::ThreadPlacement::Spread;
  EXPECT_NE(engine::PredictionRequest(m, sig, placed).key(), a.key());

  // The backend is part of the key: an analytic result may never answer
  // an interval request from the cache.
  const engine::PredictionRequest interval(m, sig, cfg, "",
                                           engine::Backend::Interval);
  EXPECT_NE(interval.key(), a.key());
  EXPECT_EQ(interval.key(),
            engine::PredictionRequest(m, sig, cfg, "other-tag",
                                      engine::Backend::Interval)
                .key());  // the tag is a display label, not an input
}

// Persisted cache files (rvhpc-serve --cache-file, suite_summary) are
// keyed by these values: a change to the hash, its field order or the
// parsing that feeds it would silently orphan every saved entry.  The
// literals were recorded from the implementation that wrote the files.
TEST(PredictionRequest, KeyValuesArePinned) {
  const auto key_of = [](const arch::MachineModel& m, model::Kernel k,
                         model::ProblemClass cls, int cores,
                         engine::Backend backend) {
    const model::WorkloadSignature sig = model::signature(k, cls);
    const model::RunConfig cfg = model::paper_run_config(m, k, cores);
    const std::uint64_t key =
        engine::PredictionRequest(m, sig, cfg, "", backend).key();
    // rvhpc-serve keys admitted requests with the free function.
    EXPECT_EQ(engine::request_key(m, sig, cfg, backend), key);
    return key;
  };
  const arch::MachineModel& sg2044 = arch::machine(arch::MachineId::Sg2044);
  EXPECT_EQ(key_of(sg2044, model::Kernel::CG, model::ProblemClass::C, 64,
                   engine::Backend::Analytic),
            0x23eae8228ec40723ull);
  const arch::MachineModel& epyc = arch::machine(arch::MachineId::Epyc7742);
  EXPECT_EQ(key_of(epyc, model::Kernel::MG, model::ProblemClass::B, 32,
                   engine::Backend::Interval),
            0x7fba7d3ce0dedad3ull);
  const arch::MachineModel& dual = arch::machine(arch::MachineId::Sg2044Dual);
  EXPECT_EQ(key_of(dual, model::Kernel::FT, model::ProblemClass::C, dual.cores,
                   engine::Backend::Analytic),
            0x788e9fecff2cb1f6ull);
  // An inline description, parsed the way rvhpc-serve parses
  // "machine_text" (examples/machines/sg2046-hypothetical.machine).
  const arch::MachineModel inline_machine = arch::from_text(R"(
name = sg2046-hypothetical
part = Hypothetical Sophon SG2046
isa = RV64GCV
cores = 64
cluster_size = 4
core.clock_ghz = 3.0
core.out_of_order = true
core.decode_width = 4
core.issue_width = 8
core.fp_units = 2
core.load_store_units = 2
core.pipeline_stages = 12
core.sustained_scalar_opc = 1.4
core.miss_level_parallelism = 8
core.complex_loop_efficiency = 0.8
core.vector.isa = RVV v1.0
core.vector.width_bits = 256
core.vector.pipes = 2
core.vector.gather_efficiency = 0.5
cache = L1D 65536 8 64 1 4
cache = L2 2097152 16 64 4 14
cache = L3 134217728 16 64 64 40
memory.controllers = 32
memory.channels = 32
memory.ddr_kind = DDR5-6400
memory.channel_bw_gbs = 12.8
memory.stream_efficiency = 0.44
memory.per_core_bw_gbs = 7.2
memory.idle_latency_ns = 100
memory.controller_queue_depth = 32
memory.read_bw_bonus = 1.0
memory.numa_regions = 1
memory.dram_gib = 256
)");
  EXPECT_EQ(key_of(inline_machine, model::Kernel::LU, model::ProblemClass::A,
                   16, engine::Backend::Analytic),
            0xe9c16b3857387d51ull);
}

TEST(RequestSet, ScalingHelperTagsAndOrder) {
  const arch::MachineModel& m = arch::machine(arch::MachineId::Sg2044);
  engine::RequestSet set;
  set.add_scaling(m, model::Kernel::MG, model::ProblemClass::C,
                  model::paper_run_config(m, model::Kernel::MG, 1), "sg2044");
  const auto grid = model::power_of_two_cores(m.cores);
  ASSERT_EQ(set.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(set.requests()[i].config().cores, grid[i]);
    EXPECT_EQ(set.requests()[i].tag(),
              "sg2044@" + std::to_string(grid[i]));
  }
}

TEST(BatchEvaluator, DeterministicAcrossPoolSizes) {
  const engine::RequestSet set = mixed_set();
  auto serial = make(1, 0);
  const auto base = serial.evaluate(set);
  ASSERT_EQ(base.size(), set.size());
  for (int jobs : {2, 8}) {
    auto pooled = make(jobs, 0);
    const auto out = pooled.evaluate(set);
    ASSERT_EQ(out.size(), base.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].index, i);
      EXPECT_EQ(out[i].tag, base[i].tag);
      expect_identical(out[i].prediction, base[i].prediction);
    }
  }
}

TEST(BatchEvaluator, SecondPassServedFromCache) {
  const engine::RequestSet set = mixed_set();
  auto ev = make(2, engine::PredictionCache::kDefaultCapacity);
  const auto first = ev.evaluate(set);
  EXPECT_EQ(ev.cache().hits(), 0u);
  EXPECT_EQ(ev.cache().misses(), set.size());
  const auto second = ev.evaluate(set);
  EXPECT_EQ(ev.cache().hits(), set.size());
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_TRUE(second[i].from_cache) << "request " << i;
    expect_identical(second[i].prediction, first[i].prediction);
  }
}

TEST(BatchEvaluator, CacheCountersPublishedThroughObsMetrics) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  auto& hits =
      obs::Registry::global().counter("rvhpc_engine_cache_hits_total");
  auto& misses =
      obs::Registry::global().counter("rvhpc_engine_cache_misses_total");
  const auto h0 = hits.value();
  const auto m0 = misses.value();

  const engine::RequestSet set = mixed_set();
  auto ev = make(1, engine::PredictionCache::kDefaultCapacity);
  (void)ev.evaluate(set);
  (void)ev.evaluate(set);
  obs::set_metrics_enabled(false);

  EXPECT_EQ(misses.value() - m0, set.size());
  EXPECT_EQ(hits.value() - h0, set.size());
}

TEST(BatchEvaluator, BackendRequestCountersPublishedThroughObsMetrics) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  auto& analytic = obs::Registry::global().counter(
      "rvhpc_engine_backend_requests_total{backend=\"analytic\"}");
  auto& interval = obs::Registry::global().counter(
      "rvhpc_engine_backend_requests_total{backend=\"interval\"}");
  const auto a0 = analytic.value();
  const auto i0 = interval.value();

  const arch::MachineModel& m = arch::machine(arch::MachineId::Sg2044);
  const auto sig = model::signature(model::Kernel::MG, model::ProblemClass::C);
  const auto cfg = model::paper_run_config(m, model::Kernel::MG, 8);
  auto ev = make(1, 0);  // cache off: every call reaches the backend
  (void)ev.evaluate_one(m, sig, cfg);
  (void)ev.evaluate_one(m, sig, cfg, engine::Backend::Interval);
  (void)ev.evaluate_one(m, sig, cfg, engine::Backend::Interval);
  obs::set_metrics_enabled(false);

  EXPECT_EQ(analytic.value() - a0, 1u);
  EXPECT_EQ(interval.value() - i0, 2u);
}

TEST(BatchEvaluator, ActiveTraceSessionBypassesCache) {
  // A cache hit would skip predict() and its PredictionRecord, so batches
  // evaluated under a live session must never touch the cache.
  const engine::RequestSet set = mixed_set();
  auto ev = make(2, engine::PredictionCache::kDefaultCapacity);
  obs::SessionScope scope;
  (void)ev.evaluate(set);
  const auto second = ev.evaluate(set);
  EXPECT_EQ(ev.cache().hits(), 0u);
  EXPECT_EQ(ev.cache().misses(), 0u);
  for (const auto& r : second) EXPECT_FALSE(r.from_cache);
  EXPECT_GE(scope.session().event_count(), 2 * set.size());
}

TEST(PredictionCache, LruEvictionOrder) {
  engine::PredictionCache cache(2);
  model::Prediction p;
  p.mops = 1.0;
  cache.put(1, p);
  cache.put(2, p);
  ASSERT_TRUE(cache.get(1).has_value());  // 1 becomes most-recent
  cache.put(3, p);                        // evicts 2, the LRU entry
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PredictionCache, ZeroCapacityDisables) {
  engine::PredictionCache cache(0);
  model::Prediction p;
  cache.put(7, p);
  EXPECT_FALSE(cache.get(7).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(PredictionCache, EntriesSnapshotsMruFirst) {
  engine::PredictionCache cache(8);
  model::Prediction p;
  p.seconds = 1.0;
  cache.put(1, p);
  p.seconds = 2.0;
  cache.put(2, p);
  p.seconds = 3.0;
  cache.put(3, p);
  (void)cache.get(1);  // touch 1 -> order is now 1, 3, 2 (MRU first)

  const std::vector<engine::CacheEntry> snap = cache.entries();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].key, 1u);
  EXPECT_EQ(snap[1].key, 3u);
  EXPECT_EQ(snap[2].key, 2u);
  EXPECT_EQ(bits(snap[0].prediction.seconds), bits(1.0));
  EXPECT_EQ(bits(snap[2].prediction.seconds), bits(2.0));
}

TEST(PredictionCache, EntriesReplayedInReverseReproducesRecency) {
  engine::PredictionCache cache(4);
  model::Prediction p;
  for (std::uint64_t k = 1; k <= 4; ++k) cache.put(k, p);
  (void)cache.get(2);  // order: 2, 4, 3, 1

  // Replay LRU-first (reversed snapshot) into a fresh cache — the
  // persistence layer's load path — and the recency order must survive:
  // the same eviction happens in both caches on overflow.
  engine::PredictionCache replayed(4);
  const std::vector<engine::CacheEntry> snap = cache.entries();
  for (auto it = snap.rbegin(); it != snap.rend(); ++it) {
    replayed.put(it->key, it->prediction);
  }
  replayed.put(99, p);  // evicts the LRU entry: key 1
  EXPECT_FALSE(replayed.get(1).has_value());
  EXPECT_TRUE(replayed.get(2).has_value());
  EXPECT_TRUE(replayed.get(3).has_value());
  EXPECT_TRUE(replayed.get(4).has_value());
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (std::size_t n : {0u, 1u, 2u, 1000u}) {
    for (int jobs : {1, 2, 8}) {
      std::vector<std::atomic<int>> runs(n);
      engine::parallel_for(n, jobs, [&](std::size_t i) { ++runs[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "n=" << n << " jobs=" << jobs;
      }
    }
  }
}

TEST(ParallelFor, OneJobRunsOnTheCallerInIndexOrder) {
  std::vector<std::size_t> order;
  std::vector<std::thread::id> threads;
  engine::parallel_for(100, 1, [&](std::size_t i) {
    order.push_back(i);
    threads.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(threads[i], std::this_thread::get_id());
  }
}

TEST(ParallelFor, RethrowsTheFirstExceptionAndThePoolRunsTheNextBatch) {
  const auto fail_at_7 = [](std::size_t i) {
    if (i == 7) throw std::runtime_error("task failed");
  };
  EXPECT_THROW(engine::parallel_for(64, 4, fail_at_7), std::runtime_error);
  std::atomic<int> done{0};
  engine::parallel_for(64, 4, [&](std::size_t) { ++done; });
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, DestructorRunsEverySubmittedTask) {
  std::atomic<int> done{0};
  {
    engine::ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) pool.submit([&] { ++done; });
  }
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, SubmitFutureDeliversValueAndOwnsItsException) {
  engine::ThreadPool pool(2);
  std::future<int> ok = pool.submit_future([] { return 41 + 1; });
  EXPECT_EQ(ok.get(), 42);

  // The future owns the task's exception, so the task never throws into
  // the pool's worker.
  std::future<int> bad =
      pool.submit_future([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(DefaultEvaluator, SetDefaultJobsKeepsTheEvaluatorAndItsCache) {
  engine::BatchEvaluator& before = engine::default_evaluator();
  engine::RequestSet set;
  set.add_paper_setup(arch::MachineId::Sg2044, model::Kernel::IS,
                      model::ProblemClass::B, 16, "is16");
  (void)before.evaluate(set);

  engine::set_default_jobs(before.jobs() + 1);
  EXPECT_EQ(&engine::default_evaluator(), &before);
  EXPECT_EQ(engine::default_evaluator().jobs(), engine::default_jobs());
  EXPECT_TRUE(engine::default_evaluator().evaluate(set).at(0).from_cache);
  engine::set_default_jobs(0);
}

TEST(DefaultEvaluator, EvaluateOneMatchesDirectPredict) {
  const arch::MachineModel& m = arch::machine(arch::MachineId::Sg2042);
  const auto sig = model::signature(model::Kernel::CG, model::ProblemClass::C);
  const model::RunConfig cfg = model::paper_run_config(m, model::Kernel::CG, 64);
  expect_identical(engine::default_evaluator().evaluate_one(m, sig, cfg),
                   model::predict(m, sig, cfg));
}

}  // namespace
