#include "gen/pgpba.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "gen/sink_stages.hpp"
#include "mr/dataset.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace csb {

namespace {

/// Output of the growth loop (Fig. 2 lines 1-13): the grown edge
/// partitions plus the dimensions the store emission needs.
struct PgpbaGrowth {
  Dataset<Edge> edges;
  std::uint64_t num_vertices = 0;
  std::uint64_t edge_count = 0;
  std::uint64_t iterations = 0;
};

/// The PGPBA growth loop, booked under the "grow" phase. The output edge
/// order is the concatenation of the final partitions.
PgpbaGrowth pgpba_grow(const PropertyGraph& seed_graph,
                       const SeedProfile& profile, ClusterSim& cluster,
                       const PgpbaOptions& options) {
  CSB_CHECK_MSG(seed_graph.num_edges() > 0, "PGPBA needs a non-empty seed");
  CSB_CHECK_MSG(options.desired_edges > 0, "desired_edges must be positive");
  CSB_CHECK_MSG(options.fraction > 0.0, "fraction must be positive");

  const std::size_t partitions =
      partitions_or_default(cluster, options.partitions);

  // Seed edge list -> initial dataset.
  std::vector<Edge> seed_edges;
  seed_edges.reserve(seed_graph.num_edges());
  {
    const auto src = seed_graph.sources();
    const auto dst = seed_graph.destinations();
    for (std::size_t e = 0; e < src.size(); ++e) {
      seed_edges.push_back(Edge{src[e], dst[e]});
    }
  }
  // Start with partitions sized to the seed (>= ~4k edges per task) and let
  // the growth loop expand toward the configured count — 720 tasks over a
  // 20k-edge seed would be pure scheduling overhead.
  const std::size_t initial_partitions = std::clamp<std::size_t>(
      seed_edges.size() / 4096, 1, partitions);
  Dataset<Edge> edges = Dataset<Edge>::from_vector(
      cluster, std::move(seed_edges), initial_partitions);

  std::uint64_t num_vertices = seed_graph.num_vertices();
  std::uint64_t edge_count = edges.count();
  std::uint64_t iterations = 0;

  TraceRecorder* const trace = cluster.trace();
  // RAII span: the growth loop's CSB_CHECK below throws on degenerate
  // inputs, and the "grow" span must close on that path too.
  const PhaseScope grow_scope(trace, "grow");
  while (edge_count < options.desired_edges) {
    const std::uint64_t iteration = iterations++;

    // Stage 1 of the preferential attachment: uniform edge-list sampling
    // (Fig. 2 line 3). A vertex's appearance count equals its degree.
    Dataset<Edge> sampled =
        edges.sample(options.fraction, options.seed ^ (iteration * 0x9e37));

    // Allocate contiguous vertex-id blocks per partition (driver-side
    // bookkeeping, Fig. 2 lines 4-5).
    std::vector<std::uint64_t> block_base(sampled.num_partitions());
    cluster.run_serial("allocate-vertices", [&] {
      std::uint64_t at = num_vertices;
      for (std::size_t p = 0; p < sampled.num_partitions(); ++p) {
        block_base[p] = at;
        at += sampled.partition(p).size();
      }
      num_vertices = at;
    });

    // Stage 2: attach each new vertex (Fig. 2 lines 6-13). Spark-parity
    // emits exactly one edge per sampled edge; degree mode emits the mean
    // total fan per vertex in expectation — reserve accordingly so the
    // growth loop's biggest buffers are sized in one allocation.
    const double mean_fan =
        options.mode == PgpbaAttachMode::kSparkParity
            ? 1.0
            : std::max(1.0, profile.out_degree().mean() +
                                profile.in_degree().mean());
    std::vector<std::vector<Edge>> fresh(sampled.num_partitions());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(sampled.num_partitions());
    for (std::size_t p = 0; p < sampled.num_partitions(); ++p) {
      tasks.push_back([&, p] {
        Rng rng = Rng(options.seed ^ (0xa77ac4 + iteration)).fork(p);
        const auto& part = sampled.partition(p);
        auto& out = fresh[p];
        out.reserve(static_cast<std::size_t>(
            std::ceil(static_cast<double>(part.size()) * mean_fan)));
        for (std::size_t i = 0; i < part.size(); ++i) {
          const VertexId v = block_base[p] + i;
          if (options.mode == PgpbaAttachMode::kSparkParity) {
            // GraphX-parity attachment: the new vertex replaces the sampled
            // edge's source, the destination is preserved.
            out.push_back(Edge{v, part[i].dst});
          } else {
            // Fig. 2 lines 7-11: random endpoint, degree-sampled fan.
            const VertexId dest =
                rng.bernoulli(0.5) ? part[i].src : part[i].dst;
            const auto fan_out =
                static_cast<std::uint64_t>(profile.out_degree().sample(rng));
            const auto fan_in =
                static_cast<std::uint64_t>(profile.in_degree().sample(rng));
            for (std::uint64_t k = 0; k < fan_out; ++k) {
              out.push_back(Edge{v, dest});
            }
            for (std::uint64_t k = 0; k < fan_in; ++k) {
              out.push_back(Edge{dest, v});
            }
          }
        }
      });
    }
    cluster.run_stage("attach", std::move(tasks));

    Dataset<Edge> fresh_ds(cluster, std::move(fresh));
    // Union then re-coalesce so task granularity tracks the configured
    // partition count instead of doubling every iteration.
    edges = Dataset<Edge>::concat_move(std::move(edges), std::move(fresh_ds))
                .coalesced(partitions);
    const std::uint64_t new_count = edges.count();
    CSB_CHECK_MSG(new_count > edge_count,
                  "PGPBA made no progress (degenerate degree distributions?)");
    edge_count = new_count;
  }
  return PgpbaGrowth{std::move(edges), num_vertices, edge_count, iterations};
}

}  // namespace

GenResult pgpba_generate(const PropertyGraph& seed_graph,
                         const SeedProfile& profile, ClusterSim& cluster,
                         const PgpbaOptions& options) {
  return generate_in_memory([&](GraphStore& store) {
    return pgpba_generate_into(seed_graph, profile, cluster, options, store);
  });
}

StoreGenResult pgpba_generate_into(const PropertyGraph& seed_graph,
                                   const SeedProfile& profile,
                                   ClusterSim& cluster,
                                   const PgpbaOptions& options,
                                   GraphStore& store) {
  cluster.reset_metrics();
  const PgpbaGrowth growth =
      pgpba_grow(seed_graph, profile, cluster, options);
  const StoreHeader header{.vertices = growth.num_vertices,
                           .edges = growth.edge_count,
                           .with_properties = options.with_properties,
                           .seed = options.seed};

  // Stream the grown partitions at their concatenation offsets instead of
  // assembling a second full-graph copy.
  {
    PhaseScope phase(cluster.trace(), "store");
    cluster.run_serial("store:begin", [&] { store.begin(header); });
    emit_dataset_into(growth.edges, store, cluster);
  }
  return finish_generation(store, cluster, profile, header,
                           options.seed ^ 0xfacadeULL, growth.iterations);
}

}  // namespace csb
