// Fixed-size worker pool used as the execution backend of the Map-Reduce
// engine (src/mr) and of parallel graph algorithms.
//
// Tasks are type-erased std::function<void()> closures pushed to a single
// mutex-protected queue; for the coarse-grained tasks csb schedules
// (partition-sized units of work) queue contention is negligible. post() is
// the only way in: the fork-join in util/parallel.hpp (parallel_tasks,
// parallel_for_fixed_chunks) waits for its tasks and delivers their errors.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace csb {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1). The pool never resizes.
  explicit ThreadPool(std::size_t threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Fire-and-forget enqueue: no packaged_task, no future, no shared state.
  /// The callable must not let exceptions escape (an escaping exception
  /// would std::terminate the worker); the fork-join in util/parallel.hpp
  /// catches into its own slot and waits for every task.
  void post(std::function<void()> fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide pool sized to the hardware concurrency; lazily constructed.
/// Prefer passing an explicit pool; this exists for convenience call sites
/// (tests, examples) that do not care about placement.
ThreadPool& global_pool();

}  // namespace csb
