#include "gen/sink_stages.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "gen/properties.hpp"
#include "obs/metrics.hpp"
#include "util/random.hpp"

namespace csb {

namespace {

/// Edges per emit task — matches replay_graph_into's chunking so sink
/// backends see the same write granularity.
constexpr std::size_t kEmitChunk = 64 * 1024;

}  // namespace

void emit_edge_chunk(GraphStore& store, std::uint64_t first,
                     std::span<const Edge> edges) {
  std::vector<VertexId> src(edges.size());
  std::vector<VertexId> dst(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    src[i] = edges[i].src;
    dst[i] = edges[i].dst;
  }
  store.put_edges(first, src, dst);
}

std::uint64_t re_multiply_copies(const SeedProfile& profile,
                                 std::uint64_t dup_seed, const Edge& e) {
  Rng rng(dup_seed ^ edge_key(e));
  const auto copies =
      static_cast<std::uint64_t>(profile.out_degree().sample(rng));
  return std::max<std::uint64_t>(1, copies);
}

void run_property_stage(GraphStore& store, const SeedProfile& profile,
                        ClusterSim& cluster, std::uint64_t prop_seed,
                        std::uint64_t total_edges) {
  if (total_edges == 0) return;
  const std::size_t partitions =
      std::max<std::size_t>(1, cluster.config().total_cores() * 2);
  const auto chunks =
      make_fixed_chunks(0, static_cast<std::size_t>(total_edges),
                        property_chunk_size(total_edges, partitions));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(chunks.size());
  for (const ChunkRange& chunk : chunks) {
    tasks.push_back([&store, &profile, prop_seed, chunk] {
      PropertyColumns rows;
      sample_property_chunk(profile, prop_seed, chunk, rows);
      store.put_properties(chunk.begin, rows.view(0, rows.size()));
    });
  }
  static Counter& sampled =
      MetricsRegistry::instance().counter("gen.properties_sampled");
  sampled.add(total_edges);
  cluster.run_stage("store:props", std::move(tasks));
}

void emit_dataset_into(const Dataset<Edge>& edges, GraphStore& store,
                       ClusterSim& cluster) {
  // Prefix offsets over the partition sizes pin every edge's slot before
  // any task runs; each partition then streams out in fixed chunks.
  std::vector<std::uint64_t> offsets(edges.num_partitions() + 1, 0);
  for (std::size_t p = 0; p < edges.num_partitions(); ++p) {
    offsets[p + 1] = offsets[p] + edges.partition(p).size();
  }
  std::vector<std::function<void()>> tasks;
  for (std::size_t p = 0; p < edges.num_partitions(); ++p) {
    const std::vector<Edge>& part = edges.partition(p);
    const auto chunks = make_fixed_chunks(0, part.size(), kEmitChunk);
    for (const ChunkRange& chunk : chunks) {
      tasks.push_back([&store, &part, base = offsets[p], chunk] {
        emit_edge_chunk(
            store, base + chunk.begin,
            std::span<const Edge>(part).subspan(chunk.begin,
                                                chunk.end - chunk.begin));
      });
    }
  }
  cluster.run_stage("store:emit", std::move(tasks));
}

void emit_columns_into(std::span<const VertexId> src,
                       std::span<const VertexId> dst, GraphStore& store,
                       ClusterSim& cluster) {
  std::vector<std::function<void()>> tasks;
  for (const ChunkRange& chunk : make_fixed_chunks(0, src.size(), kEmitChunk)) {
    tasks.push_back([&store, src, dst, chunk] {
      const std::size_t count = chunk.end - chunk.begin;
      store.put_edges(chunk.begin, src.subspan(chunk.begin, count),
                      dst.subspan(chunk.begin, count));
    });
  }
  cluster.run_stage("store:emit", std::move(tasks));
}

}  // namespace csb
