#include "gen/sink_stages.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "gen/properties.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace csb {

namespace {

/// Edges per emit task — matches replay_graph_into's chunking so sink
/// backends see the same write granularity.
constexpr std::size_t kEmitChunk = 64 * 1024;

/// Re-multiply copy count of one placed edge (Fig. 3 lines 8-12).
std::uint64_t re_multiply_copies(const SeedProfile& profile,
                                 std::uint64_t dup_seed, const Edge& e) {
  Rng rng(dup_seed ^ edge_key(e));
  const auto copies =
      static_cast<std::uint64_t>(profile.out_degree().sample(rng));
  return std::max<std::uint64_t>(1, copies);
}

}  // namespace

std::size_t partitions_or_default(const ClusterSim& cluster,
                                  std::size_t requested) {
  return requested != 0
             ? requested
             : std::max<std::size_t>(1, 2 * cluster.config().total_cores());
}

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

StoreHeader emit_re_multiplied(GraphStore& store, ClusterSim& cluster,
                               const SeedProfile& profile,
                               std::uint64_t dup_seed, StoreHeader header,
                               std::size_t blocks,
                               const EdgeBlockReplay& replay) {
  std::vector<std::uint64_t> offsets(blocks + 1, 0);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    tasks.push_back([&replay, &profile, &offsets, dup_seed, b] {
      std::uint64_t count = 0;
      replay(b, [&](std::span<const Edge> edges) {
        for (const Edge& e : edges) {
          count += re_multiply_copies(profile, dup_seed, e);
        }
      });
      offsets[b + 1] = count;
    });
  }
  cluster.run_stage("store:count", std::move(tasks));

  cluster.run_serial("store:begin", [&] {
    for (std::size_t b = 0; b < blocks; ++b) offsets[b + 1] += offsets[b];
    header.edges = offsets.back();
    store.begin(header);
  });

  tasks.clear();
  tasks.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    tasks.push_back([&replay, &profile, &offsets, &store, dup_seed, b] {
      std::uint64_t at = offsets[b];
      std::vector<std::uint64_t> copies;
      std::vector<VertexId> src;
      std::vector<VertexId> dst;
      replay(b, [&](std::span<const Edge> edges) {
        copies.resize(edges.size());
        std::size_t total = 0;
        for (std::size_t i = 0; i < edges.size(); ++i) {
          copies[i] = re_multiply_copies(profile, dup_seed, edges[i]);
          total += copies[i];
        }
        src.resize(total);
        dst.resize(total);
        std::size_t w = 0;
        for (std::size_t i = 0; i < edges.size(); ++i) {
          for (std::uint64_t c = 0; c < copies[i]; ++c, ++w) {
            src[w] = edges[i].src;
            dst[w] = edges[i].dst;
          }
        }
        store.put_edges(at, src, dst);
        at += total;
      });
      CSB_CHECK_MSG(at == offsets[b + 1],
                    "edge block " << b << " replayed differently");
    });
  }
  cluster.run_stage("store:emit", std::move(tasks));
  return header;
}

StoreHeader emit_re_multiplied(GraphStore& store, ClusterSim& cluster,
                               const SeedProfile& profile,
                               std::uint64_t dup_seed, StoreHeader header,
                               const ExternalDistinct& distinct) {
  return emit_re_multiplied(
      store, cluster, profile, dup_seed, header, distinct.scan_segments(),
      [&distinct](std::size_t segment,
                  const std::function<void(std::span<const Edge>)>& emit) {
        std::vector<Edge> edges;
        distinct.scan_segment(segment,
                              [&](std::span<const std::uint64_t> keys) {
                                edges.resize(keys.size());
                                for (std::size_t i = 0; i < keys.size(); ++i) {
                                  edges[i] = Edge{keys[i] >> 32,
                                                  keys[i] & 0xffffffffULL};
                                }
                                emit(edges);
                              });
      });
}

std::uint64_t seal_distinct(ClusterSim& cluster, ExternalDistinct& distinct) {
  static Counter& runs_spilled =
      MetricsRegistry::instance().counter("store.distinct_spilled_runs");
  std::uint64_t unique = 0;
  cluster.run_serial("store:distinct:seal", [&] {
    unique = distinct.seal();
    runs_spilled.add(distinct.spilled_runs());
  });
  return unique;
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
  const PropertySampler sampler(profile);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(chunks.size());
  for (const ChunkRange& chunk : chunks) {
    tasks.push_back([&store, &sampler, prop_seed, chunk] {
      PropertyColumns rows;
      sampler.sample_chunk(prop_seed, chunk, rows);
      store.put_properties(chunk.begin, rows.view(0, rows.size()));
    });
  }
  static Counter& sampled =
      MetricsRegistry::instance().counter("gen.properties_sampled");
  sampled.add(total_edges);
  cluster.run_stage("store:props", std::move(tasks));
}

StoreGenResult finish_generation(GraphStore& store, ClusterSim& cluster,
                                 const SeedProfile& profile,
                                 const StoreHeader& header,
                                 std::uint64_t prop_seed,
                                 std::uint64_t iterations) {
  TraceRecorder* const trace = cluster.trace();
  StoreGenResult result;
  result.structure_seconds = cluster.metrics().simulated_seconds;
  if (header.with_properties) {
    PhaseScope phase(trace, "properties");
    run_property_stage(store, profile, cluster, prop_seed, header.edges);
    result.property_seconds =
        cluster.metrics().simulated_seconds - result.structure_seconds;
  }
  {
    PhaseScope phase(trace, "store");
    cluster.run_serial("store:finalize", [&] { store.finish(); });
  }
  result.metrics = cluster.metrics();
  result.vertices = header.vertices;
  result.edges = header.edges;
  result.iterations = iterations;
  return result;
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
