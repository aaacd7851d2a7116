// Parallel PageRank over the CSR in-adjacency (pull style).
//
// PageRank distributions are half of the paper's veracity metric (§V-A,
// Fig. 7). The pull formulation writes each vertex's new score exactly once
// per iteration, so the per-vertex loop parallelizes without atomics.
//
// pagerank_csr keeps its arithmetic apart from its scheduling. The
// arithmetic is fixed: each vertex's in-sum is a left fold from 0.0 over
// its in-neighbors in CSR order; the dangling and delta sums run per fixed
// 4096-vertex chunk in vertex order, and the chunk partials are merged in
// chunk-index order. Scores, `iterations` and `final_delta` are therefore
// bit-identical at any pool size. The scheduling is free: each iteration is
// one fused pass over the chunks (score, delta, dangling mass and the next
// iteration's contributions together), and heavy chunks are pre-gathered.
// A chunk is heavy when its in-edge count exceeds max(2^16, 8 x the mean
// per chunk). Preferential attachment puts nearly every in-edge on its
// earliest vertices, so one chunk can hold the whole gather. Before the
// fused pass, the vertices of the heavy chunks are folded in parallel over
// ranges of about 2^16 in-edges (a vertex is never split), and the fused
// pass reads those sums. The plan depends only on `in_offsets`, never on
// the pool size.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/property_graph.hpp"
#include "util/thread_pool.hpp"

namespace csb {

struct PageRankOptions {
  double damping = 0.85;
  std::uint32_t max_iterations = 30;
  /// Stop once the L1 change between iterations drops below this value.
  double tolerance = 1e-9;
};

struct PageRankResult {
  std::vector<double> scores;  ///< per-vertex, sums to 1
  std::uint32_t iterations = 0;
  double final_delta = 0.0;  ///< L1 change of the last iteration
};

/// Computes PageRank; dangling-vertex mass is redistributed uniformly so the
/// scores always sum to 1.
PageRankResult pagerank(const PropertyGraph& graph, ThreadPool& pool,
                        const PageRankOptions& options = {});

/// The same computation over raw CSR spans: `in_offsets` (size |V|+1) and
/// `in_neighbors` (size |E|, each vertex's incoming-edge sources) plus
/// per-vertex `out_degrees`. pagerank() above is a thin wrapper; the
/// shard-store veracity path feeds an mmap'd on-disk index through this
/// overload, so in-RAM and streamed scores share one implementation.
PageRankResult pagerank_csr(std::span<const std::uint64_t> in_offsets,
                            std::span<const VertexId> in_neighbors,
                            std::span<const std::uint64_t> out_degrees,
                            ThreadPool& pool,
                            const PageRankOptions& options = {});

/// Edge-weighted PageRank: a vertex splits its rank across out-edges
/// proportionally to `edge_weights` (one nonnegative weight per edge,
/// aligned with the graph's edge order) instead of uniformly. For NetFlow
/// graphs, weighting by transferred bytes ranks hosts by traffic influence
/// rather than flow count — the IDS-relevant centrality. Zero-total-weight
/// vertices are treated as dangling.
PageRankResult pagerank_weighted(const PropertyGraph& graph, ThreadPool& pool,
                                 std::span<const double> edge_weights,
                                 const PageRankOptions& options = {});

/// Convenience: pagerank_weighted with weight = out_bytes + in_bytes + 1
/// per flow (the +1 keeps zero-byte probe flows from vanishing).
PageRankResult pagerank_by_traffic(const PropertyGraph& graph,
                                   ThreadPool& pool,
                                   const PageRankOptions& options = {});

}  // namespace csb
