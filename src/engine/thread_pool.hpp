#pragma once
// rvhpc::engine — a deliberately simple fixed-size thread pool.
//
// predict() calls are uniform (~µs each) and batches are large, so a
// single mutex-protected queue is plenty: work-stealing would buy nothing
// and cost determinism-of-reasoning.  Tasks are plain std::function<void()>;
// exceptions thrown by a task are caught, stored, and rethrown from wait()
// on the submitting thread so batch callers see ordinary C++ error flow.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rvhpc::engine {

/// Number of workers to use when the caller does not say: the
/// RVHPC_JOBS environment variable if set to a positive integer, else
/// std::thread::hardware_concurrency(), else 1.
[[nodiscard]] int default_jobs();

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).  `threads == 1` still
  /// spawns one worker so the execution path is identical at every size.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);

  /// Submits a task whose result (or exception) is delivered through the
  /// returned future instead of wait() — the dispatch path the async
  /// serving front end completes requests on.  Unlike submit(), an
  /// exception thrown by the task is owned by the future (rethrown from
  /// get()), never by wait(): a caller holding the future is the one
  /// waiting for this task, so wait()'s batch error channel stays
  /// reserved for fire-and-forget work.
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

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any task raised (if one did).
  void wait();

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< signalled when a task is queued
  std::condition_variable idle_cv_;   ///< signalled when in-flight hits zero
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;         ///< queued + currently executing
  std::exception_ptr first_error_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace rvhpc::engine
