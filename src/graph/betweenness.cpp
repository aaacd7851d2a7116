#include "graph/betweenness.hpp"

#include <algorithm>
#include <queue>

#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "util/parallel.hpp"

namespace csb {

namespace {

/// One Brandes pass: accumulates the source's dependency contributions
/// into `delta_out`. Scratch buffers are caller-provided so a worker can
/// reuse them across sources.
struct BrandesScratch {
  std::vector<std::uint64_t> sigma;  ///< shortest-path counts
  std::vector<std::int64_t> dist;
  std::vector<double> delta;
  std::vector<VertexId> order;  ///< vertices in non-decreasing distance

  explicit BrandesScratch(std::size_t n)
      : sigma(n), dist(n), delta(n) {
    order.reserve(n);
  }
};

void brandes_from_source(const CsrView& out_csr, VertexId source,
                         BrandesScratch& scratch,
                         std::vector<double>& accumulate) {
  const std::uint64_t n = out_csr.num_vertices();
  std::fill(scratch.sigma.begin(), scratch.sigma.end(), 0);
  std::fill(scratch.dist.begin(), scratch.dist.end(), -1);
  std::fill(scratch.delta.begin(), scratch.delta.end(), 0.0);
  scratch.order.clear();

  scratch.sigma[source] = 1;
  scratch.dist[source] = 0;
  std::queue<VertexId> frontier;
  frontier.push(source);
  while (!frontier.empty()) {
    const VertexId v = frontier.front();
    frontier.pop();
    scratch.order.push_back(v);
    for (const VertexId w : out_csr.neighbors(v)) {
      if (scratch.dist[w] < 0) {
        scratch.dist[w] = scratch.dist[v] + 1;
        frontier.push(w);
      }
      if (scratch.dist[w] == scratch.dist[v] + 1) {
        scratch.sigma[w] += scratch.sigma[v];
      }
    }
  }

  // Dependency accumulation in reverse BFS order.
  for (auto it = scratch.order.rbegin(); it != scratch.order.rend(); ++it) {
    const VertexId w = *it;
    for (const VertexId v : out_csr.neighbors(w)) {
      if (scratch.dist[v] == scratch.dist[w] + 1 && scratch.sigma[v] > 0) {
        scratch.delta[w] += static_cast<double>(scratch.sigma[w]) /
                            static_cast<double>(scratch.sigma[v]) *
                            (1.0 + scratch.delta[v]);
      }
    }
    if (w != source) accumulate[w] += scratch.delta[w];
  }
  (void)n;
}

}  // namespace

std::vector<double> betweenness_centrality(const PropertyGraph& graph,
                                           ThreadPool& pool,
                                           const BetweennessOptions& options) {
  const std::uint64_t n = graph.num_vertices();
  std::vector<double> centrality(n, 0.0);
  if (n == 0 || graph.num_edges() == 0) return centrality;

  // Parallel edges would double-count sigma; work on the simple structure.
  const PropertyGraph simple = simplify(graph);
  const CsrView out_csr(simple, CsrDirection::kOut);

  std::vector<VertexId> sources;
  double scale = 1.0;
  if (options.sample_sources == 0 || options.sample_sources >= n) {
    sources.resize(n);
    for (VertexId v = 0; v < n; ++v) sources[v] = v;
  } else {
    Rng rng(options.seed);
    sources.reserve(options.sample_sources);
    for (std::uint64_t i = 0; i < options.sample_sources; ++i) {
      sources.push_back(rng.uniform(n));
    }
    scale = static_cast<double>(n) /
            static_cast<double>(options.sample_sources);
  }

  // The chunk count is fixed, not sized from the pool: each chunk
  // accumulates into its own partial vector and the partials are summed in
  // chunk-index order, so the scores are bit-identical at any pool size.
  constexpr std::size_t kSourceChunks = 16;
  const std::size_t chunk_size =
      (sources.size() + kSourceChunks - 1) / kSourceChunks;
  std::vector<std::vector<double>> partials(
      (sources.size() + chunk_size - 1) / chunk_size);
  parallel_for_fixed_chunks(
      &pool, 0, sources.size(), chunk_size, [&](const ChunkRange& chunk) {
        BrandesScratch scratch(n);
        std::vector<double>& local = partials[chunk.chunk_index];
        local.assign(n, 0.0);
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          brandes_from_source(out_csr, sources[i], scratch, local);
        }
      });
  for (const auto& local : partials) {
    for (std::uint64_t v = 0; v < n; ++v) centrality[v] += local[v];
  }

  if (scale != 1.0) {
    for (double& c : centrality) c *= scale;
  }
  return centrality;
}

}  // namespace csb
