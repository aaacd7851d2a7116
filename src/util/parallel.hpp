// Data-parallel helpers layered on ThreadPool.
//
// Every pooled loop in the tree runs through one fork-join: each task goes to
// the pool with ThreadPool::post, the caller waits on a single latch, and
// only after EVERY task has finished is the exception of the lowest failing
// task index rethrown. A null pool (or a single task) runs the tasks inline,
// in index order. Chunk boundaries come from the data size alone, never from
// the pool size, so per-chunk RNG streams and chunk-order reductions give the
// same bytes at any pool size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/thread_pool.hpp"

namespace csb {

struct ChunkRange {
  std::size_t begin;
  std::size_t end;
  std::size_t chunk_index;
};

/// Thread-count-independent decomposition: every chunk spans exactly
/// `chunk_size` indices (the last may be short). Use where per-chunk
/// partial results are reduced in chunk-index order, so the combined
/// result is bit-identical no matter how many workers ran the chunks
/// (KronFit's refresh/gradient passes rely on this).
std::vector<ChunkRange> make_fixed_chunks(std::size_t begin, std::size_t end,
                                          std::size_t chunk_size);

/// Runs body(chunk) for every chunk of make_fixed_chunks(begin, end,
/// chunk_size) through the fork-join; blocks until every chunk finished. A
/// null `pool` executes the chunks inline, in chunk-index order, over
/// identical boundaries — the serial and parallel paths are the same
/// decomposition.
void parallel_for_fixed_chunks(
    ThreadPool* pool, std::size_t begin, std::size_t end,
    std::size_t chunk_size, const std::function<void(const ChunkRange&)>& body);

/// Runs a fixed set of independent tasks through the fork-join; blocks until
/// ALL of them finish, then rethrows the exception of the lowest failing
/// task index (not the first to fail in time), so error reporting is
/// deterministic at any pool size. A null `pool` executes them inline in
/// task-index order.
void parallel_tasks(ThreadPool* pool,
                    const std::vector<std::function<void()>>& tasks);

}  // namespace csb
