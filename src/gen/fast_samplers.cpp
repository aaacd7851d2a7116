#include "gen/fast_samplers.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "gen/sink_stages.hpp"
#include "store/external_sort.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace csb {

namespace {

/// Domain separator so ball-drop chunk streams never collide with the
/// re-multiply / property streams derived from the same user seed.
constexpr std::uint64_t kBallDropSalt = 0xba11'd409'5a17'0001ULL;
/// Separator for the per-level noisy-SKG perturbations.
constexpr std::uint64_t kNoiseSalt = 0x5e5a'd812'0000'00ffULL;
/// Separator for the skip-ahead per-edge draws.
constexpr std::uint64_t kSkipAheadSalt = 0x5c1b'a4ea'd000'0001ULL;

}  // namespace

std::size_t fast_sampler_chunk_size(std::uint64_t edges,
                                    std::size_t partitions) {
  const std::uint64_t target =
      partitions > 0 ? (edges + 2 * partitions - 1) / (2 * partitions)
                     : edges;
  const std::uint64_t clamped =
      std::clamp<std::uint64_t>(target, 1024, 65536);
  return static_cast<std::size_t>((clamped + 63) & ~std::uint64_t{63});
}

// ------------------------------------------------------------ pgsk-fast

ChungLuLevels chung_lu_levels(const Initiator& initiator, std::uint32_t k,
                              double noise, std::uint64_t seed) {
  CSB_CHECK_MSG(noise >= 0.0 && noise < 0.5,
                "noisy-SKG amplitude must lie in [0, 0.5)");
  ChungLuLevels levels;
  levels.src_threshold.reserve(k);
  levels.dst_threshold.reserve(k);
  const double a = initiator.theta[0][0];
  const double b = initiator.theta[0][1];
  const double c = initiator.theta[1][0];
  const double d = initiator.theta[1][1];
  for (std::uint32_t l = 0; l < k; ++l) {
    double al = a;
    double bl = b;
    double cl = c;
    double dl = d;
    if (noise > 0.0) {
      // Sum-preserving per-level perturbation: the diagonal gives up
      // 2 mu (a+d)/(a+d) = 2 mu of mass, the off-diagonal gains it.
      Rng rng = counter_rng(seed ^ kNoiseSalt, l);
      const double mu = noise * (2.0 * rng.uniform_double() - 1.0);
      const double diag = a + d;
      al = a - 2.0 * mu * a / diag;
      dl = d - 2.0 * mu * d / diag;
      bl = b + mu;
      cl = c + mu;
      const double floor = 1e-9;
      al = std::max(al, floor);
      bl = std::max(bl, floor);
      cl = std::max(cl, floor);
      dl = std::max(dl, floor);
    }
    const double sum = al + bl + cl + dl;
    // Row share = P(src bit = 1); column share = P(dst bit = 1).
    levels.src_threshold.push_back(bernoulli_threshold((cl + dl) / sum));
    levels.dst_threshold.push_back(bernoulli_threshold((bl + dl) / sum));
  }
  return levels;
}

void ball_drop_chunk(const ChungLuLevels& levels, std::uint64_t seed,
                     const ChunkRange& chunk, Edge* out) {
  const std::size_t k = levels.src_threshold.size();
  Rng rng = counter_rng(seed ^ kBallDropSalt, chunk.chunk_index);
  VertexId u[64];
  VertexId v[64];
  for (std::size_t block = chunk.begin; block < chunk.end; block += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, chunk.end - block);
    std::fill(std::begin(u), std::end(u), 0);
    std::fill(std::begin(v), std::end(v), 0);
    for (std::size_t l = 0; l < k; ++l) {
      // One bernoulli_lanes call decides this level's bit for 64 edges at
      // once; the draw count never depends on `lanes`, so short tail
      // blocks consume the same stream as full ones.
      const std::uint64_t src_bits =
          bernoulli_lanes(rng, levels.src_threshold[l]);
      const std::uint64_t dst_bits =
          bernoulli_lanes(rng, levels.dst_threshold[l]);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        u[lane] = (u[lane] << 1) | ((src_bits >> lane) & 1);
        v[lane] = (v[lane] << 1) | ((dst_bits >> lane) & 1);
      }
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      out[block - chunk.begin + lane] = Edge{u[lane], v[lane]};
    }
  }
}

std::vector<Edge> chung_lu_ball_drop(const ChungLuLevels& levels,
                                     std::uint64_t edges, std::uint64_t seed,
                                     std::size_t chunk_size,
                                     ThreadPool* pool) {
  CSB_CHECK_MSG(chunk_size % 64 == 0,
                "ball-drop chunk size must be a multiple of 64");
  std::vector<Edge> out(edges);
  Edge* const data = out.data();
  parallel_for_fixed_chunks(
      pool, 0, static_cast<std::size_t>(edges), chunk_size,
      [&levels, seed, data](const ChunkRange& chunk) {
        ball_drop_chunk(levels, seed, chunk, data + chunk.begin);
      });
  return out;
}

StoreGenResult pgsk_fast_generate_into(const PropertyGraph& seed_graph,
                                       const SeedProfile& profile,
                                       ClusterSim& cluster,
                                       const PgskFastOptions& options,
                                       GraphStore& store) {
  CSB_CHECK_MSG(seed_graph.num_edges() > 0, "PGSK needs a non-empty seed");
  CSB_CHECK_MSG(options.desired_edges > 0, "desired_edges must be positive");
  cluster.reset_metrics();

  const std::size_t parts = partitions_or_default(cluster, options.partitions);
  const PropertyGraph simple = pgsk_collapse(seed_graph, cluster, parts);
  const PgskInitiatorPlan fitted = pgsk_fit_and_plan(
      simple, profile, cluster, options.fit,
      PgskSizing{.desired_edges = options.desired_edges,
                 .force_k = options.force_k,
                 .rescale_to_target = options.rescale_to_target});

  const std::uint64_t place =
      std::max<std::uint64_t>(1, fitted.plan.kron_edges);
  const std::uint64_t dup_seed = options.seed ^ 0xd0b1e5ULL;

  ChungLuLevels levels;
  cluster.run_serial("ball-drop:plan", [&] {
    levels = chung_lu_levels(fitted.initiator, fitted.plan.k, options.noise,
                             options.seed);
  });
  const auto chunks = make_fixed_chunks(0, static_cast<std::size_t>(place),
                                        fast_sampler_chunk_size(place, parts));
  // A ball-drop chunk regenerates from its counter stream on every replay,
  // so no placement is ever resident twice.
  const auto drop = [&levels, &chunks, seed = options.seed](
                        std::size_t c,
                        const std::function<void(std::span<const Edge>)>&
                            emit) {
    std::vector<Edge> buf(chunks[c].end - chunks[c].begin);
    ball_drop_chunk(levels, seed, chunks[c], buf.data());
    emit(buf);
  };

  StoreHeader header{.vertices = 1ULL << fitted.plan.k,
                     .with_properties = options.with_properties,
                     .seed = options.seed};
  {
    PhaseScope phase(cluster.trace(), "store");
    if (!options.dedup) {
      header = emit_re_multiplied(store, cluster, profile, dup_seed, header,
                                  chunks.size(), drop);
    } else {
      // Opt-in distinct: ball-drop placements deduped through the
      // external-sort distinct exact PGSK's descent uses, then
      // re-multiplied in its ascending sorted-unique key order.
      CSB_CHECK_MSG(fitted.plan.k <= 32,
                    "dedup packs endpoints into 64-bit keys (k <= 32)");
      ExternalDistinct distinct(ExternalDistinctOptions{
          .spill_directory = options.spill_directory,
          .memory_budget_bytes = options.dedup_budget_bytes,
          .pool = &cluster.pool()});
      std::vector<std::function<void()>> tasks;
      tasks.reserve(chunks.size());
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        tasks.push_back([&drop, &distinct, c] {
          drop(c, [&distinct](std::span<const Edge> edges) {
            std::vector<std::uint64_t> keys(edges.size());
            for (std::size_t i = 0; i < edges.size(); ++i) {
              keys[i] = edge_key(edges[i]);
            }
            distinct.add(keys);
          });
        });
      }
      cluster.run_stage("store:distinct", std::move(tasks));
      (void)seal_distinct(cluster, distinct);
      header = emit_re_multiplied(store, cluster, profile, dup_seed, header,
                                  distinct);
    }
  }
  return finish_generation(store, cluster, profile, header,
                           options.seed ^ 0xbeefULL, fitted.plan.k);
}

GenResult pgsk_fast_generate(const PropertyGraph& seed_graph,
                             const SeedProfile& profile, ClusterSim& cluster,
                             const PgskFastOptions& options) {
  return generate_in_memory([&](GraphStore& store) {
    return pgsk_fast_generate_into(seed_graph, profile, cluster, options,
                                   store);
  });
}

// ----------------------------------------------------------- pgpba-fast

VertexId skip_ahead_destination(const SkipAheadLayout& layout,
                                std::uint64_t seed, std::uint64_t index) {
  // Inherit the destination of a uniformly drawn earlier edge — the exact
  // PGPBA attachment kernel (destination chosen proportional to in-degree).
  // A generated edge's destination is replayed from its own counter stream;
  // the chain index strictly decreases, so it reaches a seed edge after
  // expected O(log(index / seed_edges)) hops.
  std::uint64_t j = counter_rng(seed ^ kSkipAheadSalt, index).uniform(index);
  while (j >= layout.seed_edges) {
    j = counter_rng(seed ^ kSkipAheadSalt, j).uniform(j);
  }
  return layout.seed_destinations[j];
}

void skip_ahead_chunk(const SkipAheadLayout& layout, std::uint64_t seed,
                      const ChunkRange& chunk, Edge* out) {
  for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
    const VertexId src =
        layout.first_new_vertex +
        (i - layout.seed_edges) / layout.edges_per_vertex;
    out[i - chunk.begin] = Edge{src, skip_ahead_destination(layout, seed, i)};
  }
}

std::vector<Edge> skip_ahead_attach(const SkipAheadLayout& layout,
                                    std::uint64_t total_edges,
                                    std::uint64_t seed,
                                    std::size_t chunk_size, ThreadPool* pool) {
  CSB_CHECK_MSG(total_edges >= layout.seed_edges,
                "total_edges must include the seed edges");
  std::vector<Edge> out(total_edges - layout.seed_edges);
  Edge* const data = out.data();
  const auto base = static_cast<std::size_t>(layout.seed_edges);
  parallel_for_fixed_chunks(
      pool, base, static_cast<std::size_t>(total_edges), chunk_size,
      [&layout, seed, data, base](const ChunkRange& chunk) {
        skip_ahead_chunk(layout, seed, chunk, data + (chunk.begin - base));
      });
  return out;
}

StoreGenResult pgpba_fast_generate_into(const PropertyGraph& seed_graph,
                                        const SeedProfile& profile,
                                        ClusterSim& cluster,
                                        const PgpbaFastOptions& options,
                                        GraphStore& store) {
  CSB_CHECK_MSG(seed_graph.num_edges() > 0, "PGPBA needs a non-empty seed");
  CSB_CHECK_MSG(options.desired_edges > 0, "desired_edges must be positive");
  CSB_CHECK_MSG(options.edges_per_vertex >= 1,
                "edges_per_vertex must be at least 1");
  cluster.reset_metrics();

  const std::size_t parts = partitions_or_default(cluster, options.partitions);

  const std::uint64_t seed_edge_count = seed_graph.num_edges();
  const std::uint64_t total =
      std::max(options.desired_edges, seed_edge_count);
  const std::uint64_t grown = total - seed_edge_count;
  const std::uint64_t m = options.edges_per_vertex;
  const StoreHeader header{
      .vertices = seed_graph.num_vertices() + (grown + m - 1) / m,
      .edges = total,
      .with_properties = options.with_properties,
      .seed = options.seed};

  {
    PhaseScope phase(cluster.trace(), "store");
    cluster.run_serial("store:begin", [&] { store.begin(header); });

    // Seed edges copy straight from the seed columns; grown edges resolve
    // via skip-ahead chains — both land at their global offsets: seed
    // edges first, then generated edges in index order.
    const auto src = seed_graph.sources();
    const auto dst = seed_graph.destinations();
    SkipAheadLayout layout;
    layout.seed_destinations = dst;
    layout.seed_edges = seed_edge_count;
    layout.first_new_vertex = seed_graph.num_vertices();
    layout.edges_per_vertex = options.edges_per_vertex;

    const auto seed_chunks = make_fixed_chunks(
        0, static_cast<std::size_t>(seed_edge_count),
        fast_sampler_chunk_size(seed_edge_count, parts));
    const auto grow_chunks = make_fixed_chunks(
        static_cast<std::size_t>(seed_edge_count),
        static_cast<std::size_t>(total), fast_sampler_chunk_size(grown, parts));
    std::vector<std::function<void()>> tasks;
    tasks.reserve(seed_chunks.size() + grow_chunks.size());
    for (const ChunkRange& chunk : seed_chunks) {
      tasks.push_back([&store, src, dst, chunk] {
        store.put_edges(chunk.begin,
                        src.subspan(chunk.begin, chunk.end - chunk.begin),
                        dst.subspan(chunk.begin, chunk.end - chunk.begin));
      });
    }
    for (const ChunkRange& chunk : grow_chunks) {
      tasks.push_back([&layout, &store, seed = options.seed, chunk] {
        std::vector<Edge> buf(chunk.end - chunk.begin);
        skip_ahead_chunk(layout, seed, chunk, buf.data());
        emit_edge_chunk(store, chunk.begin, buf);
      });
    }
    cluster.run_stage("store:emit", std::move(tasks));
  }
  return finish_generation(store, cluster, profile, header,
                           options.seed ^ 0xfacadeULL, 1);
}

GenResult pgpba_fast_generate(const PropertyGraph& seed_graph,
                              const SeedProfile& profile, ClusterSim& cluster,
                              const PgpbaFastOptions& options) {
  return generate_in_memory([&](GraphStore& store) {
    return pgpba_fast_generate_into(seed_graph, profile, cluster, options,
                                    store);
  });
}

}  // namespace csb
