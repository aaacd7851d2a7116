#include "graph/pagerank.hpp"

#include <algorithm>
#include <cmath>

#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "util/memory.hpp"
#include "util/parallel.hpp"

namespace csb {

namespace {

double sum_in_chunk_order(const std::vector<double>& partials) {
  double total = 0.0;
  for (const double partial : partials) total += partial;
  return total;
}

/// Chunk-order partial-sum reduction: each fixed chunk writes its partial
/// into its own slot and the slots are summed in chunk order, so the result
/// is bit-identical at any pool size. An atomic<double> fetch_add here
/// would commit the partials in scheduling order, and float addition does
/// not commute in rounding — PageRank scores (and the veracity scores
/// built on them) would drift with thread count.
template <typename Body>
double reduce_fixed_chunks(ThreadPool& pool, std::size_t n, std::size_t grain,
                           const Body& body) {
  const auto chunks = make_fixed_chunks(0, n, grain);
  std::vector<double> partials(chunks.size(), 0.0);
  parallel_for_fixed_chunks(&pool, 0, n, grain,
                            [&](const ChunkRange& c) {
                              partials[c.chunk_index] = body(c);
                            });
  return sum_in_chunk_order(partials);
}

/// The fixed reduction chunk, in vertices.
constexpr std::size_t kGrain = 4096;
/// About one pool task's worth of in-edges: the size of a pre-gather
/// range, and the floor of the heavy rule.
constexpr std::uint64_t kTaskEdges = std::uint64_t{1} << 16;
/// A chunk is heavy when its in-edge count exceeds kTaskEdges and this
/// many times the mean count per chunk.
constexpr double kHeavyFactor = 8.0;
constexpr std::size_t kLightChunk = static_cast<std::size_t>(-1);

/// A per-vertex array that is written in full before it is read: it skips
/// the serial zero fill, and its pages are first touched by the pool.
using ScratchColumn = std::vector<double, DefaultInitAllocator<double>>;

/// Vertices [begin, end) of one heavy chunk, gathered by one task into
/// hub_sums[hub_offset, hub_offset + end - begin).
struct HubRange {
  std::size_t begin;
  std::size_t end;
  std::size_t hub_offset;
};

/// Which chunks pagerank_csr pre-gathers, and over which ranges. It is
/// derived from `in_offsets` alone, and it only decides which task folds
/// which vertex: every fold and every chunk partial stays the same.
struct HubPlan {
  /// Per fixed chunk: kLightChunk, or the offset of its first vertex in
  /// the pre-gathered sums.
  std::vector<std::size_t> hub_base;
  std::size_t hub_vertices = 0;
  std::vector<HubRange> ranges;
};

/// Finds the heavy chunks and cuts them into ranges. Preferential
/// attachment piles nearly every in-edge onto its earliest vertices, so
/// one chunk can hold the whole gather; pre-gathering it over many ranges
/// keeps one thread from running it alone.
HubPlan plan_hub_chunks(std::span<const std::uint64_t> in_offsets) {
  const std::size_t n = in_offsets.size() - 1;
  const std::size_t chunks = (n + kGrain - 1) / kGrain;
  const double mean = static_cast<double>(in_offsets[n] - in_offsets[0]) /
                      static_cast<double>(chunks);
  HubPlan plan;
  plan.hub_base.assign(chunks, kLightChunk);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * kGrain;
    const std::size_t end = std::min(n, begin + kGrain);
    const std::uint64_t edges = in_offsets[end] - in_offsets[begin];
    if (edges <= kTaskEdges ||
        static_cast<double>(edges) <= kHeavyFactor * mean) {
      continue;
    }
    plan.hub_base[c] = plan.hub_vertices;
    std::size_t first = begin;
    for (std::size_t v = begin; v < end; ++v) {
      if (v + 1 == end || in_offsets[v + 1] - in_offsets[first] >= kTaskEdges) {
        plan.ranges.push_back(
            {first, v + 1, plan.hub_vertices + (first - begin)});
        first = v + 1;
      }
    }
    plan.hub_vertices += end - begin;
  }
  return plan;
}

}  // namespace

PageRankResult pagerank(const PropertyGraph& graph, ThreadPool& pool,
                        const PageRankOptions& options) {
  const CsrView in_csr(graph, CsrDirection::kIn);
  const auto out_deg = out_degrees(graph);
  return pagerank_csr(in_csr.offsets(), in_csr.all_neighbors(), out_deg, pool,
                      options);
}

PageRankResult pagerank_csr(std::span<const std::uint64_t> in_offsets,
                            std::span<const VertexId> in_neighbors,
                            std::span<const std::uint64_t> out_deg,
                            ThreadPool& pool, const PageRankOptions& options) {
  const std::uint64_t n = out_deg.size();
  CSB_CHECK_MSG(in_offsets.size() == n + 1 || (n == 0 && in_offsets.empty()),
                "in_offsets must have |V|+1 entries");
  PageRankResult result;
  if (n == 0) return result;

  const double inv_n = 1.0 / static_cast<double>(n);
  const double damping = options.damping;
  const HubPlan plan = plan_hub_chunks(in_offsets);
  // The three |V| arrays: the scores, updated in place, and this and the
  // next iteration's contribution[v] = rank[v] / out_degree[v], so the
  // gather is a pure read of `contribution` while the fused pass writes
  // `next_contribution`.
  std::vector<double> rank(n, inv_n);
  ScratchColumn contribution(n);
  ScratchColumn next_contribution(n);
  std::vector<double> hub_sums(plan.hub_vertices);
  const std::size_t chunks = plan.hub_base.size();
  std::vector<double> delta_partials(chunks);
  std::vector<double> dangling_partials(chunks);

  // Stores v's contribution for the next gather and returns the mass it
  // donates to everyone (non-zero only for a dangling vertex).
  const auto contribute = [&](std::size_t v, double score,
                              ScratchColumn& out) {
    if (out_deg[v] == 0) {
      out[v] = 0.0;
      return score;
    }
    out[v] = score / static_cast<double>(out_deg[v]);
    return 0.0;
  };
  // A vertex's in-sum: a left fold from 0.0 in CSR order, wherever it runs.
  const auto in_sum = [&](std::size_t v) {
    double sum = 0.0;
    for (std::uint64_t i = in_offsets[v]; i < in_offsets[v + 1]; ++i) {
      sum += contribution[in_neighbors[i]];
    }
    return sum;
  };

  parallel_for_fixed_chunks(&pool, 0, n, kGrain, [&](const ChunkRange& c) {
    double local_dangling = 0.0;
    for (std::size_t v = c.begin; v < c.end; ++v) {
      local_dangling += contribute(v, inv_n, contribution);
    }
    dangling_partials[c.chunk_index] = local_dangling;
  });

  for (std::uint32_t iter = 0; iter < options.max_iterations; ++iter) {
    // Dangling vertices donate their mass to everyone.
    const double dangling = sum_in_chunk_order(dangling_partials);
    const double base = (1.0 - damping) * inv_n + damping * dangling * inv_n;

    // Heavy chunks first: their vertices are folded over the pool, one
    // range per task, and the fused pass below reads the sums.
    parallel_for_fixed_chunks(
        &pool, 0, plan.ranges.size(), 1, [&](const ChunkRange& c) {
          for (std::size_t r = c.begin; r < c.end; ++r) {
            const HubRange& range = plan.ranges[r];
            for (std::size_t v = range.begin; v < range.end; ++v) {
              hub_sums[range.hub_offset + (v - range.begin)] = in_sum(v);
            }
          }
        });

    parallel_for_fixed_chunks(&pool, 0, n, kGrain, [&](const ChunkRange& c) {
      const std::size_t hub = plan.hub_base[c.chunk_index];
      double local_delta = 0.0;
      double local_dangling = 0.0;
      for (std::size_t v = c.begin; v < c.end; ++v) {
        const double sum =
            hub == kLightChunk ? in_sum(v) : hub_sums[hub + (v - c.begin)];
        const double updated = base + damping * sum;
        local_delta += std::abs(updated - rank[v]);
        rank[v] = updated;
        local_dangling += contribute(v, updated, next_contribution);
      }
      delta_partials[c.chunk_index] = local_delta;
      dangling_partials[c.chunk_index] = local_dangling;
    });

    contribution.swap(next_contribution);
    result.iterations = iter + 1;
    result.final_delta = sum_in_chunk_order(delta_partials);
    if (result.final_delta < options.tolerance) break;
  }

  result.scores = std::move(rank);
  return result;
}

PageRankResult pagerank_weighted(const PropertyGraph& graph, ThreadPool& pool,
                                 std::span<const double> edge_weights,
                                 const PageRankOptions& options) {
  const std::uint64_t n = graph.num_vertices();
  const std::uint64_t m = graph.num_edges();
  CSB_CHECK_MSG(edge_weights.size() == m,
                "need one weight per edge, aligned with edge order");
  PageRankResult result;
  if (n == 0) return result;

  // Weighted in-adjacency in CSR form: for each vertex, the (source,
  // weight-share) pairs of its incoming edges, where weight-share is the
  // edge weight normalized by the source's total outgoing weight.
  std::vector<std::uint64_t> offsets(n + 1, 0);
  const auto src = graph.sources();
  const auto dst = graph.destinations();
  std::vector<double> out_weight(n, 0.0);
  for (std::size_t e = 0; e < m; ++e) {
    CSB_CHECK_MSG(edge_weights[e] >= 0.0, "edge weights must be nonnegative");
    ++offsets[dst[e] + 1];
    out_weight[src[e]] += edge_weights[e];
  }
  for (std::uint64_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<VertexId> in_src(m);
  std::vector<double> in_share(m);
  {
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t e = 0; e < m; ++e) {
      const std::uint64_t at = cursor[dst[e]]++;
      in_src[at] = src[e];
      in_share[at] =
          out_weight[src[e]] > 0.0 ? edge_weights[e] / out_weight[src[e]] : 0.0;
    }
  }

  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> rank(n, inv_n);
  std::vector<double> next(n, 0.0);

  for (std::uint32_t iter = 0; iter < options.max_iterations; ++iter) {
    const double dangling =
        reduce_fixed_chunks(pool, n, kGrain, [&](const ChunkRange& c) {
          double local = 0.0;
          for (std::size_t v = c.begin; v < c.end; ++v) {
            if (out_weight[v] == 0.0) local += rank[v];
          }
          return local;
        });
    const double base = (1.0 - options.damping) * inv_n +
                        options.damping * dangling * inv_n;

    const double delta =
        reduce_fixed_chunks(pool, n, kGrain, [&](const ChunkRange& c) {
          double local_delta = 0.0;
          for (std::size_t v = c.begin; v < c.end; ++v) {
            double sum = 0.0;
            for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
              sum += rank[in_src[i]] * in_share[i];
            }
            const double updated = base + options.damping * sum;
            local_delta += std::abs(updated - rank[v]);
            next[v] = updated;
          }
          return local_delta;
        });

    rank.swap(next);
    result.iterations = iter + 1;
    result.final_delta = delta;
    if (result.final_delta < options.tolerance) break;
  }
  result.scores = std::move(rank);
  return result;
}

PageRankResult pagerank_by_traffic(const PropertyGraph& graph,
                                   ThreadPool& pool,
                                   const PageRankOptions& options) {
  CSB_CHECK_MSG(graph.has_properties(),
                "pagerank_by_traffic requires NetFlow properties");
  const auto out_bytes = graph.out_bytes();
  const auto in_bytes = graph.in_bytes();
  std::vector<double> weights(graph.num_edges());
  for (std::size_t e = 0; e < weights.size(); ++e) {
    weights[e] = static_cast<double>(out_bytes[e] + in_bytes[e]) + 1.0;
  }
  return pagerank_weighted(graph, pool, weights, options);
}

}  // namespace csb
