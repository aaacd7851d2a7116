#include "util/parallel.hpp"

#include <algorithm>
#include <exception>
#include <latch>
#include <mutex>

namespace csb {

std::vector<ChunkRange> make_fixed_chunks(std::size_t begin, std::size_t end,
                                          std::size_t chunk_size) {
  std::vector<ChunkRange> chunks;
  if (begin >= end) return chunks;
  chunk_size = std::max<std::size_t>(1, chunk_size);
  std::size_t at = begin;
  std::size_t index = 0;
  while (at < end) {
    const std::size_t stop = std::min(end, at + chunk_size);
    chunks.push_back({at, stop, index++});
    at = stop;
  }
  return chunks;
}

namespace {

/// What the posted closures of one fork_join call share; it lives in the
/// caller's frame, which outlasts every task.
struct Join {
  Join(const std::function<void(std::size_t)>& task, std::size_t count)
      : task(task), done(static_cast<std::ptrdiff_t>(count)),
        error_index(count) {}

  const std::function<void(std::size_t)>& task;
  std::latch done;
  std::mutex error_mutex;
  std::size_t error_index;  ///< lowest failing task index so far
  std::exception_ptr error;
};

/// The fork-join: task(i) for every i in [0, count). Each posted closure
/// carries only a pointer to the Join and its index, so it fits
/// std::function's inline buffer — no future, promise or heap block per
/// task. The caller waits for ALL tasks before rethrowing: unwinding at the
/// first failure would free caller state that running tasks still use.
void fork_join(ThreadPool* pool, std::size_t count,
               const std::function<void(std::size_t)>& task) {
  if (pool == nullptr || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  Join join(task, count);
  for (std::size_t i = 0; i < count; ++i) {
    pool->post([state = &join, i] {
      try {
        state->task(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(state->error_mutex);
        if (i < state->error_index) {
          state->error_index = i;
          state->error = std::current_exception();
        }
      }
      state->done.count_down();
    });
  }
  join.done.wait();
  if (join.error) std::rethrow_exception(join.error);
}

}  // namespace

void parallel_for_fixed_chunks(
    ThreadPool* pool, std::size_t begin, std::size_t end,
    std::size_t chunk_size, const std::function<void(const ChunkRange&)>& body) {
  const auto chunks = make_fixed_chunks(begin, end, chunk_size);
  fork_join(pool, chunks.size(),
            [&chunks, &body](std::size_t i) { body(chunks[i]); });
}

void parallel_tasks(ThreadPool* pool,
                    const std::vector<std::function<void()>>& tasks) {
  fork_join(pool, tasks.size(), [&tasks](std::size_t i) { tasks[i](); });
}

}  // namespace csb
