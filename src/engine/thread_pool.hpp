/// \file
/// Fixed-size worker pool for the campaign engine.
///
/// Design constraints, in order of importance:
///   1. *Determinism*: callers collect results by submission index, never by
///      completion order, so a run with N workers is byte-identical to a run
///      with 1 worker (given per-job seeding, see engine/campaign.hpp).
///   2. *Nested fan-out without deadlock*: a task running on a worker may
///      itself submit subtasks and wait for them (the per-set fan-out inside
///      one pWCET analysis rides the same pool as the campaign jobs). Waiting
///      threads therefore *help*: they drain queued tasks instead of
///      blocking, so the pool can never starve itself.
///   3. *Exception propagation*: a throwing task surfaces at the waiter's
///      `get()`, not in a worker thread; `map_indexed` drains all siblings
///      before rethrowing so no task outlives its captured state.
#pragma once

#include <chrono>
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

namespace pwcet {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means one per hardware thread.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  /// Worker count a ThreadPool(threads) would spawn — exposed so callers
  /// that can answer without a pool (the runner's cached campaign path)
  /// still report the same threads_used a computing run would.
  static std::size_t resolve_thread_count(std::size_t threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a callable; the returned future yields its result (or
  /// rethrows its exception).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>&>> {
    using R = std::invoke_result_t<std::decay_t<F>&>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    ready_.notify_one();
    return future;
  }

  /// Runs one queued task on the calling thread; false if the queue was
  /// empty. This is the helping primitive that makes nested waits safe.
  bool run_one();

  /// Evaluates fn(0), ..., fn(count - 1) on the pool and returns the
  /// results *in index order* regardless of completion order. The calling
  /// thread helps execute queued tasks while waiting. If any invocation
  /// throws, the first exception (by index) is rethrown after every
  /// sibling has finished.
  template <typename F>
  auto map_indexed(std::size_t count, F&& fn)
      -> std::vector<std::invoke_result_t<std::decay_t<F>&, std::size_t>> {
    using R = std::invoke_result_t<std::decay_t<F>&, std::size_t>;
    static_assert(!std::is_void_v<R>,
                  "map_indexed requires a value-returning callable");
    std::vector<std::future<R>> futures;
    futures.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      futures.push_back(submit([&fn, i] { return fn(i); }));

    std::vector<R> results;
    results.reserve(count);
    std::exception_ptr first_error;
    for (auto& future : futures) {
      help_until_ready(future);
      try {
        results.push_back(future.get());
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

  /// Helps until `future` is ready (used by callers that submit manually).
  /// With an empty queue the waiter sleeps until some task completes (or a
  /// short timeout as a safety net) rather than busy-polling, so idle
  /// waiters do not steal cycles from the workers still computing.
  template <typename R>
  void help_until_ready(std::future<R>& future) {
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!run_one()) wait_for_work_or_completion();
    }
  }

 private:
  void worker_loop();
  void wait_for_work_or_completion();

  std::mutex mutex_;
  std::condition_variable ready_;
  std::condition_variable done_;  ///< signalled after each executed task
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

/// ThreadPool::map_indexed on `pool`, or, when `pool` is null, the same
/// map run serially on the calling thread in index order. Either way the
/// results come back in index order, so callers that fan out optionally
/// need no second loop.
template <typename F>
auto map_indexed(ThreadPool* pool, std::size_t count, F&& fn)
    -> std::vector<std::invoke_result_t<std::decay_t<F>&, std::size_t>> {
  if (pool != nullptr) return pool->map_indexed(count, std::forward<F>(fn));
  std::vector<std::invoke_result_t<std::decay_t<F>&, std::size_t>> results;
  results.reserve(count);
  for (std::size_t i = 0; i < count; ++i) results.push_back(fn(i));
  return results;
}

}  // namespace pwcet
