#pragma once
// rvhpc::engine — a deliberately simple fixed-size thread pool, and
// parallel_for, the one way the engine runs a batch in parallel.
//
// predict() calls are uniform (~µs each) and batches are large, so a
// single mutex-protected queue is plenty: work-stealing would buy nothing
// and cost determinism-of-reasoning.  Tasks are plain std::function<void()>
// and must not throw: parallel_for's helpers and the net front end's
// compute tasks catch their own exceptions.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rvhpc::engine {

/// The process's worker count: the value set_default_jobs() recorded,
/// else the RVHPC_JOBS environment variable if set to a positive integer,
/// else std::thread::hardware_concurrency(), else 1.
[[nodiscard]] int default_jobs();

/// Records the process's worker count (the --jobs=N flag); <= 0 clears it.
void set_default_jobs(int jobs);

/// Runs fn(i) once for every i in [0, n) on the calling thread plus at
/// most `jobs - 1` workers of the process pool, which the first batch that
/// wants a helper builds with default_jobs() - 1 workers, never resized.
/// Every thread claims contiguous chunks, about four per thread, from one
/// atomic cursor; `jobs <= 1` runs every index on the caller, in order.
/// Waits only for this batch, then rethrows the first exception fn threw.
void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& fn);

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);
  /// Runs every task already submitted, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Queues `task` for a worker.  The task must not throw.
  void submit(std::function<void()> task);

  /// Submits a task whose result (or exception) is delivered through the
  /// returned future; the future owns the task's exception, so this task
  /// never throws into the pool.
  template <typename F>
  auto submit_future(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // shared_ptr because std::function requires copyable callables and
    // std::packaged_task is move-only.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    submit([task] { (*task)(); });
    return result;
  }

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< signalled when a task is queued
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace rvhpc::engine
