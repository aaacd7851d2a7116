#include "graph/algorithms.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "util/flat_set.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"

namespace csb {

std::vector<std::uint64_t> out_degrees(const PropertyGraph& graph) {
  std::vector<std::uint64_t> degrees(graph.num_vertices(), 0);
  for (const VertexId v : graph.sources()) ++degrees[v];
  return degrees;
}

std::vector<std::uint64_t> in_degrees(const PropertyGraph& graph) {
  std::vector<std::uint64_t> degrees(graph.num_vertices(), 0);
  for (const VertexId v : graph.destinations()) ++degrees[v];
  return degrees;
}

std::vector<std::uint64_t> total_degrees(const PropertyGraph& graph) {
  std::vector<std::uint64_t> degrees(graph.num_vertices(), 0);
  for (const VertexId v : graph.sources()) ++degrees[v];
  for (const VertexId v : graph.destinations()) ++degrees[v];
  return degrees;
}

namespace {

/// Union-find with path halving and union by id (smallest id wins, which
/// makes the final labels deterministic).
class DisjointSets {
 public:
  explicit DisjointSets(std::uint64_t n) : parent_(n) {
    for (std::uint64_t i = 0; i < n; ++i) parent_[i] = i;
  }

  VertexId find(VertexId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(VertexId a, VertexId b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a < b) {
      parent_[b] = a;
    } else {
      parent_[a] = b;
    }
  }

 private:
  std::vector<VertexId> parent_;
};

}  // namespace

std::vector<VertexId> weakly_connected_components(const PropertyGraph& graph) {
  DisjointSets sets(graph.num_vertices());
  const auto src = graph.sources();
  const auto dst = graph.destinations();
  for (std::size_t e = 0; e < src.size(); ++e) sets.unite(src[e], dst[e]);
  std::vector<VertexId> labels(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) labels[v] = sets.find(v);
  return labels;
}

std::uint64_t count_components(const PropertyGraph& graph) {
  const auto labels = weakly_connected_components(graph);
  std::uint64_t count = 0;
  for (VertexId v = 0; v < labels.size(); ++v) {
    if (labels[v] == v) ++count;
  }
  return count;
}

PropertyGraph simplify(const PropertyGraph& graph) {
  PropertyGraph out(graph.num_vertices());
  out.reserve_edges(graph.num_edges());
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(graph.num_edges() * 2);
  const auto src = graph.sources();
  const auto dst = graph.destinations();
  for (std::size_t e = 0; e < src.size(); ++e) {
    // Vertex ids are < |V|, so the packed key is collision-free whenever
    // |V| < 2^32; fall back to the mixed hash otherwise (collisions there
    // would only drop a duplicate check, never corrupt the graph, but we
    // keep exactness by packing whenever we can).
    const std::uint64_t key =
        graph.num_vertices() < (1ULL << 32)
            ? (src[e] << 32 | dst[e])
            : hash_pair(src[e], dst[e]);
    if (seen.insert(key).second) out.add_edge(src[e], dst[e]);
  }
  return out;
}

SimplifyPlan::SimplifyPlan(const PropertyGraph& graph, std::size_t shards,
                           std::size_t chunks)
    : graph_(&graph),
      shards_(std::max<std::size_t>(1, shards)),
      packed_keys_(graph.num_vertices() < (1ULL << 32)) {
  const std::size_t m = graph.num_edges();
  chunk_count_ = std::min(std::max<std::size_t>(1, chunks), std::max<std::size_t>(1, m));
  if (m == 0) chunk_count_ = 0;
  shards_ = std::min(shards_, std::max<std::size_t>(1, m));
  keys_.resize(m);
  histogram_.assign(chunk_count_ * shards_, 0);
  keep_.assign(m, 0);
  chunk_kept_.assign(chunk_count_ + 1, 0);
}

std::pair<std::size_t, std::size_t> SimplifyPlan::chunk_bounds(
    std::size_t chunk) const noexcept {
  // Boundaries depend only on (|E|, chunk count), never on thread count.
  const std::size_t m = graph_->num_edges();
  return {chunk * m / chunk_count_, (chunk + 1) * m / chunk_count_};
}

void SimplifyPlan::count_chunk(std::size_t chunk) {
  const auto [begin, end] = chunk_bounds(chunk);
  const auto src = graph_->sources();
  const auto dst = graph_->destinations();
  std::uint64_t* hist = histogram_.data() + chunk * shards_;
  for (std::size_t e = begin; e < end; ++e) {
    // Same identity as the serial pass: exact packed key below 2^32
    // vertices, mixed hash above (see simplify()).
    const std::uint64_t key =
        packed_keys_ ? (src[e] << 32 | dst[e]) : hash_pair(src[e], dst[e]);
    keys_[e] = key;
    ++hist[mix64(key) % shards_];
  }
}

void SimplifyPlan::plan_scatter() {
  // Shard-major prefix sums: shard s occupies one contiguous slice, and
  // within it chunk rows appear in ascending chunk (hence edge) order.
  shard_begin_.assign(shards_ + 1, 0);
  for (std::size_t c = 0; c < chunk_count_; ++c) {
    for (std::size_t s = 0; s < shards_; ++s) {
      shard_begin_[s + 1] += histogram_[c * shards_ + s];
    }
  }
  for (std::size_t s = 0; s < shards_; ++s) {
    shard_begin_[s + 1] += shard_begin_[s];
  }
  scatter_at_.assign(chunk_count_ * shards_, 0);
  std::vector<std::uint64_t> cursor(shard_begin_.begin(),
                                    shard_begin_.end() - 1);
  for (std::size_t c = 0; c < chunk_count_; ++c) {
    for (std::size_t s = 0; s < shards_; ++s) {
      scatter_at_[c * shards_ + s] = cursor[s];
      cursor[s] += histogram_[c * shards_ + s];
    }
  }
  slot_key_.resize(graph_->num_edges());
  slot_idx_.resize(graph_->num_edges());
}

void SimplifyPlan::scatter_chunk(std::size_t chunk) {
  const auto [begin, end] = chunk_bounds(chunk);
  std::uint64_t* at = scatter_at_.data() + chunk * shards_;
  for (std::size_t e = begin; e < end; ++e) {
    const std::uint64_t pos = at[mix64(keys_[e]) % shards_]++;
    slot_key_[pos] = keys_[e];
    slot_idx_[pos] = e;
  }
}

void SimplifyPlan::dedup_shard(std::size_t shard) {
  const std::uint64_t begin = shard_begin_[shard];
  const std::uint64_t end = shard_begin_[shard + 1];
  FlatSet64 seen(end - begin);
  // Slice entries are in ascending edge order, so insert order reproduces
  // the serial first-occurrence-wins rule; shards write disjoint keep_
  // slots (one byte per edge — no word-level races).
  for (std::uint64_t i = begin; i < end; ++i) {
    if (seen.insert(slot_key_[i])) keep_[slot_idx_[i]] = 1;
  }
}

void SimplifyPlan::tally_chunk(std::size_t chunk) {
  const auto [begin, end] = chunk_bounds(chunk);
  std::uint64_t kept = 0;
  for (std::size_t e = begin; e < end; ++e) kept += keep_[e];
  chunk_kept_[chunk + 1] = kept;
}

void SimplifyPlan::plan_compact() {
  for (std::size_t c = 0; c < chunk_count_; ++c) {
    chunk_kept_[c + 1] += chunk_kept_[c];
  }
  const std::uint64_t survivors = chunk_kept_[chunk_count_];
  out_src_.resize(survivors);
  out_dst_.resize(survivors);
}

void SimplifyPlan::compact_chunk(std::size_t chunk) {
  const auto [begin, end] = chunk_bounds(chunk);
  const auto src = graph_->sources();
  const auto dst = graph_->destinations();
  std::uint64_t at = chunk_kept_[chunk];
  for (std::size_t e = begin; e < end; ++e) {
    if (!keep_[e]) continue;
    out_src_[at] = src[e];
    out_dst_[at] = dst[e];
    ++at;
  }
}

PropertyGraph SimplifyPlan::finish() {
  // Endpoints were valid in the input graph, so the O(|E|) re-validation
  // of from_columns is redundant.
  return PropertyGraph::from_columns_unchecked(
      graph_->num_vertices(), std::move(out_src_), std::move(out_dst_));
}

PropertyGraph simplify_parallel(const PropertyGraph& graph, ThreadPool& pool) {
  const std::size_t workers = std::max<std::size_t>(1, pool.size());
  SimplifyPlan plan(graph, workers, workers * 4);
  // Each phase writes disjoint per-chunk or per-shard state, so the output
  // does not depend on how the phase's indices are spread over the pool.
  const auto run = [&pool](std::size_t n, auto&& phase) {
    parallel_for_fixed_chunks(&pool, 0, n, 1, [&phase](const ChunkRange& c) {
      phase(c.begin);
    });
  };
  run(plan.num_chunks(), [&plan](std::size_t c) { plan.count_chunk(c); });
  plan.plan_scatter();
  run(plan.num_chunks(), [&plan](std::size_t c) { plan.scatter_chunk(c); });
  run(plan.num_shards(), [&plan](std::size_t s) { plan.dedup_shard(s); });
  run(plan.num_chunks(), [&plan](std::size_t c) { plan.tally_chunk(c); });
  plan.plan_compact();
  run(plan.num_chunks(), [&plan](std::size_t c) { plan.compact_chunk(c); });
  return plan.finish();
}

namespace {

/// Sorted undirected adjacency (unique neighbors, self-loops removed).
std::vector<std::vector<VertexId>> undirected_adjacency(
    const PropertyGraph& simple) {
  std::vector<std::vector<VertexId>> adj(simple.num_vertices());
  const auto src = simple.sources();
  const auto dst = simple.destinations();
  for (std::size_t e = 0; e < src.size(); ++e) {
    if (src[e] == dst[e]) continue;
    adj[src[e]].push_back(dst[e]);
    adj[dst[e]].push_back(src[e]);
  }
  for (auto& neighbors : adj) {
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  }
  return adj;
}

}  // namespace

std::uint64_t triangle_count(const PropertyGraph& graph) {
  const PropertyGraph simple = simplify(graph);
  const auto adj = undirected_adjacency(simple);
  std::uint64_t triangles = 0;
  // Each triangle {a < b < c} is counted once at its smallest vertex by
  // intersecting forward neighbor lists.
  for (VertexId a = 0; a < adj.size(); ++a) {
    const auto& na = adj[a];
    for (const VertexId b : na) {
      if (b <= a) continue;
      const auto& nb = adj[b];
      auto ia = std::upper_bound(na.begin(), na.end(), b);
      auto ib = std::upper_bound(nb.begin(), nb.end(), b);
      while (ia != na.end() && ib != nb.end()) {
        if (*ia < *ib) {
          ++ia;
        } else if (*ib < *ia) {
          ++ib;
        } else {
          ++triangles;
          ++ia;
          ++ib;
        }
      }
    }
  }
  return triangles;
}

double global_clustering_coefficient(const PropertyGraph& graph) {
  const PropertyGraph simple = simplify(graph);
  const auto adj = undirected_adjacency(simple);
  std::uint64_t wedges = 0;
  for (const auto& neighbors : adj) {
    const std::uint64_t d = neighbors.size();
    wedges += d * (d - 1) / 2;
  }
  if (wedges == 0) return 0.0;
  return 3.0 * static_cast<double>(triangle_count(graph)) /
         static_cast<double>(wedges);
}

std::vector<VertexId> strongly_connected_components(
    const PropertyGraph& graph) {
  const std::uint64_t n = graph.num_vertices();
  const CsrView out_csr(graph, CsrDirection::kOut);

  // Iterative Tarjan: an explicit stack holds (vertex, next-neighbor
  // cursor) so million-vertex graphs cannot blow the call stack.
  constexpr std::uint64_t kUnvisited = ~0ULL;
  std::vector<std::uint64_t> index(n, kUnvisited);
  std::vector<std::uint64_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<VertexId> scc_stack;
  std::vector<VertexId> labels(n, 0);
  std::uint64_t next_index = 0;

  struct Frame {
    VertexId v;
    std::size_t cursor;
  };
  std::vector<Frame> call_stack;

  for (VertexId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call_stack.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack[root] = true;

    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const auto neighbors = out_csr.neighbors(frame.v);
      if (frame.cursor < neighbors.size()) {
        const VertexId w = neighbors[frame.cursor++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[frame.v] = std::min(lowlink[frame.v], index[w]);
        }
        continue;
      }
      // All neighbors explored: maybe pop a component, then return.
      const VertexId v = frame.v;
      call_stack.pop_back();
      if (!call_stack.empty()) {
        lowlink[call_stack.back().v] =
            std::min(lowlink[call_stack.back().v], lowlink[v]);
      }
      if (lowlink[v] == index[v]) {
        // v is the root of a component; collect members, label with the
        // smallest vertex id for determinism.
        std::vector<VertexId> members;
        for (;;) {
          const VertexId w = scc_stack.back();
          scc_stack.pop_back();
          on_stack[w] = false;
          members.push_back(w);
          if (w == v) break;
        }
        const VertexId label =
            *std::min_element(members.begin(), members.end());
        for (const VertexId w : members) labels[w] = label;
      }
    }
  }
  return labels;
}

std::uint64_t count_strong_components(const PropertyGraph& graph) {
  const auto labels = strongly_connected_components(graph);
  std::uint64_t count = 0;
  for (VertexId v = 0; v < labels.size(); ++v) {
    if (labels[v] == v) ++count;
  }
  return count;
}

std::vector<std::uint32_t> core_numbers(const PropertyGraph& graph) {
  const PropertyGraph simple = simplify(graph);
  const auto adj = undirected_adjacency(simple);
  const std::uint64_t n = graph.num_vertices();
  std::vector<std::uint32_t> degree(n);
  std::uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(adj[v].size());
    max_degree = std::max(max_degree, degree[v]);
  }

  // Batagelj-Zaversnik: bucket sort by degree, peel in ascending order.
  std::vector<std::uint64_t> bin(max_degree + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++bin[degree[v] + 1];
  for (std::size_t d = 1; d < bin.size(); ++d) bin[d] += bin[d - 1];
  std::vector<VertexId> order(n);
  std::vector<std::uint64_t> position(n);
  {
    std::vector<std::uint64_t> cursor(bin.begin(), bin.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      position[v] = cursor[degree[v]]++;
      order[position[v]] = v;
    }
  }

  std::vector<std::uint32_t> core(degree);
  for (std::uint64_t i = 0; i < n; ++i) {
    const VertexId v = order[i];
    for (const VertexId u : adj[v]) {
      if (core[u] <= core[v]) continue;
      // Move u one bucket down: swap it with the first vertex of its
      // current bucket, then decrement.
      const std::uint64_t pos_u = position[u];
      const std::uint64_t bucket_start = bin[core[u]];
      const VertexId first = order[bucket_start];
      if (u != first) {
        std::swap(order[pos_u], order[bucket_start]);
        position[u] = bucket_start;
        position[first] = pos_u;
      }
      ++bin[core[u]];
      --core[u];
    }
  }
  return core;
}

double degree_assortativity(const PropertyGraph& graph) {
  const std::uint64_t m = graph.num_edges();
  if (m < 2) return 0.0;
  const auto out_deg = out_degrees(graph);
  const auto in_deg = in_degrees(graph);
  const auto src = graph.sources();
  const auto dst = graph.destinations();
  // Pearson correlation of (out-degree of source, in-degree of target)
  // over edges.
  double sum_x = 0, sum_y = 0, sum_xx = 0, sum_yy = 0, sum_xy = 0;
  for (std::size_t e = 0; e < m; ++e) {
    const double x = static_cast<double>(out_deg[src[e]]);
    const double y = static_cast<double>(in_deg[dst[e]]);
    sum_x += x;
    sum_y += y;
    sum_xx += x * x;
    sum_yy += y * y;
    sum_xy += x * y;
  }
  const double dm = static_cast<double>(m);
  const double cov = sum_xy / dm - (sum_x / dm) * (sum_y / dm);
  const double var_x = sum_xx / dm - (sum_x / dm) * (sum_x / dm);
  const double var_y = sum_yy / dm - (sum_y / dm) * (sum_y / dm);
  if (var_x <= 0.0 || var_y <= 0.0) return 0.0;
  return cov / std::sqrt(var_x * var_y);
}

}  // namespace csb
