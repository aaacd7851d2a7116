#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace csb {

ThreadPool::ThreadPool(std::size_t threads) {
  threads = std::max<std::size_t>(1, threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CSB_CHECK_MSG(!stopping_, "post() on a stopped ThreadPool");
    queue_.push(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace csb
