#include "engine/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <latch>
#include <utility>

namespace rvhpc::engine {
namespace {

std::atomic<int> g_recorded_jobs{0};  // set_default_jobs(); 0 = not set

/// The pool parallel_for's helpers come from: default_jobs() - 1 workers,
/// the caller being the last thread.  Never freed, like obs::Registry, so
/// a helper that outlives its batch never races the pool's destruction.
ThreadPool& process_pool() {
  static ThreadPool* pool = new ThreadPool(default_jobs() - 1);
  return *pool;
}

/// One parallel_for call's shared state.  It lives on the heap because a
/// helper may start after its batch has returned: that helper claims no
/// chunk, so it never calls `fn`, which lives on the caller's stack.
struct Batch {
  Batch(const std::function<void(std::size_t)>& f, std::size_t size,
        std::size_t chunk_size)
      : fn(&f), n(size), chunk(chunk_size), chunks((n + chunk - 1) / chunk),
        done(static_cast<std::ptrdiff_t>(chunks)) {}

  /// Claims and runs chunks until none is left.
  void work() {
    std::size_t c;
    while ((c = next.fetch_add(1, std::memory_order_relaxed)) < chunks) {
      try {
        const std::size_t end = std::min(n, (c + 1) * chunk);
        for (std::size_t i = c * chunk; i < end; ++i) (*fn)(i);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
      }
      done.count_down();
    }
  }

  const std::function<void(std::size_t)>* fn;
  const std::size_t n, chunk, chunks;
  std::atomic<std::size_t> next{0};  ///< next chunk to claim
  std::atomic<bool> failed{false};
  std::exception_ptr error;  ///< the first exception, set by its thrower
  std::latch done;           ///< one count per chunk
};

}  // namespace

int default_jobs() {
  if (const int recorded = g_recorded_jobs.load(std::memory_order_relaxed);
      recorded > 0) {
    return recorded;
  }
  if (const char* env = std::getenv("RVHPC_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v <= 4096)
      return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void set_default_jobs(int jobs) {
  g_recorded_jobs.store(std::max(jobs, 0), std::memory_order_relaxed);
}

void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  ThreadPool* pool = jobs > 1 && n > 1 ? &process_pool() : nullptr;
  const std::size_t threads =
      pool ? static_cast<std::size_t>(std::min(jobs, pool->size() + 1)) : 1;
  const std::size_t want = threads * 4;
  auto batch = std::make_shared<Batch>(fn, n, (n + want - 1) / want);
  for (std::size_t h = 1; h < std::min(threads, batch->chunks); ++h) {
    pool->submit([batch] { batch->work(); });
  }
  batch->work();
  batch->done.wait();
  if (batch->error) std::rethrow_exception(batch->error);
}

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(threads, 1);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace rvhpc::engine
