#include "gen/pgsk.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "gen/fast_samplers.hpp"
#include "gen/sink_stages.hpp"
#include "graph/algorithms.hpp"
#include "mr/dataset.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/external_sort.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace csb {

PgskPlan plan_pgsk(double initiator_sum, double mean_out_degree,
                   std::uint64_t desired_edges) {
  CSB_CHECK_MSG(initiator_sum > 1.0,
                "initiator sum must exceed 1 for a growing Kronecker power");
  CSB_CHECK_MSG(desired_edges > 0, "desired_edges must be positive");
  const double duplication = std::max(1.0, mean_out_degree);
  const double kron_target =
      std::max(1.0, static_cast<double>(desired_edges) / duplication);
  PgskPlan plan;
  plan.k = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(
             std::ceil(std::log(kron_target) / std::log(initiator_sum))));
  plan.kron_edges = static_cast<std::uint64_t>(std::llround(
      std::pow(initiator_sum, static_cast<double>(plan.k))));
  return plan;
}

PropertyGraph pgsk_collapse(const PropertyGraph& seed_graph,
                            ClusterSim& cluster, std::size_t partitions) {
  // Lines 1-5: multiset -> set collapse. Formerly one driver-serial O(|E|)
  // hash pass; now the counted-shuffle SimplifyPlan phases run as stages
  // (output identical to serial simplify()), leaving only the O(chunks x
  // shards) planning steps on the driver.
  PropertyGraph simple;
  PhaseScope phase(cluster.trace(), "collapse");
  SimplifyPlan plan(seed_graph, partitions, partitions);
  const auto stage = [&cluster](const char* name, std::size_t count,
                                const std::function<void(std::size_t)>& body) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      tasks.push_back([&body, i] { body(i); });
    }
    cluster.run_stage(name, std::move(tasks));
  };
  stage("collapse:count", plan.num_chunks(),
        [&plan](std::size_t c) { plan.count_chunk(c); });
  cluster.run_serial("collapse:plan", [&] { plan.plan_scatter(); });
  stage("collapse:scatter", plan.num_chunks(),
        [&plan](std::size_t c) { plan.scatter_chunk(c); });
  stage("collapse:dedup", plan.num_shards(),
        [&plan](std::size_t s) { plan.dedup_shard(s); });
  stage("collapse:tally", plan.num_chunks(),
        [&plan](std::size_t c) { plan.tally_chunk(c); });
  cluster.run_serial("collapse:plan", [&] { plan.plan_compact(); });
  stage("collapse:compact", plan.num_chunks(),
        [&plan](std::size_t c) { plan.compact_chunk(c); });
  cluster.run_serial("collapse:plan", [&] { simple = plan.finish(); });
  return simple;
}

PgskInitiatorPlan pgsk_fit_and_plan(const PropertyGraph& simple,
                                    const SeedProfile& profile,
                                    ClusterSim& cluster,
                                    const KronFitOptions& fit,
                                    const PgskSizing& sizing) {
  // Line 6: KronFit. The cluster attachment runs the O(|E|) refresh/
  // gradient/recount passes and the sharded burn-in as stages; only the
  // cached Metropolis chain and theta updates remain driver-serial
  // ("kronfit:driver" segments).
  KronFitResult fitted;
  {
    PhaseScope phase(cluster.trace(), "kronfit");
    KronFitOptions fit_options = fit;
    fit_options.cluster = &cluster;
    fitted = kronfit(simple, fit_options);
  }

  // Sizing: order k so that (expected Kronecker edges) x (mean out-degree
  // duplication) reaches the desired size.
  const double mean_dup = std::max(1.0, profile.out_degree().mean());
  PgskInitiatorPlan result;
  result.initiator = fitted.initiator;
  if (sizing.force_k != 0) {
    result.plan.k = sizing.force_k;
    result.plan.kron_edges = static_cast<std::uint64_t>(
        std::llround(fitted.initiator.expected_edges(result.plan.k)));
  } else {
    result.plan =
        plan_pgsk(fitted.initiator.sum(), mean_dup, sizing.desired_edges);
  }

  if (sizing.rescale_to_target) {
    // Scale entries so (sum theta)^k == kron_target while preserving the
    // fitted ratios; keeps entries below 1.
    const double kron_target = std::max(
        1.0, static_cast<double>(sizing.desired_edges) / mean_dup);
    const double wanted_sum =
        std::pow(kron_target, 1.0 / static_cast<double>(result.plan.k));
    const double scale = wanted_sum / result.initiator.sum();
    double max_entry = 0.0;
    for (auto& row : result.initiator.theta) {
      for (double& t : row) {
        t *= scale;
        max_entry = std::max(max_entry, t);
      }
    }
    if (max_entry > 0.98) {
      // Saturated entries cannot exceed 1; cap and accept the size error.
      for (auto& row : result.initiator.theta) {
        for (double& t : row) t = std::min(t, 0.98);
      }
    }
    result.plan.kron_edges = static_cast<std::uint64_t>(
        std::llround(result.initiator.expected_edges(result.plan.k)));
  }
  return result;
}

namespace {

/// Domain separator for the exact recursive-descent placement streams (so
/// they never collide with the re-multiply / property streams of the same
/// user seed), and the per-round separator of the adaptive retries.
constexpr std::uint64_t kDescentSalt = 0xde5c'e9d0'0000'0001ULL;
constexpr std::uint64_t kRoundSalt = 0x51ed2701ULL;
/// Oversample factor and retry cap of the adaptive distinct rounds — the
/// same policy stochastic_kronecker_edges uses.
constexpr double kOversample = 1.1;
constexpr std::uint32_t kMaxRounds = 64;

/// Cumulative joint cell probabilities of one descent level.
struct DescentCells {
  double p00 = 0.0;
  double p01 = 0.0;
  double p10 = 0.0;
};

DescentCells descent_cells(const Initiator& initiator) {
  const double sum = initiator.sum();
  return DescentCells{.p00 = initiator.theta[0][0] / sum,
                      .p01 = initiator.theta[0][1] / sum,
                      .p10 = initiator.theta[1][0] / sum};
}

/// Fills keys[0 .. chunk size) with packed (src << 32 | dst) recursive-
/// descent placements for the global placement indices in `chunk`, drawn
/// from counter_rng(stream_seed, chunk.chunk_index) — the result depends on
/// the chunk geometry, never on which worker ran it. Requires k <= 32.
void descend_chunk(const DescentCells& cells, std::uint32_t k,
                   std::uint64_t stream_seed, const ChunkRange& chunk,
                   std::uint64_t* keys) {
  Rng rng = counter_rng(stream_seed, chunk.chunk_index);
  for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
    VertexId u = 0;
    VertexId v = 0;
    for (std::uint32_t level = 0; level < k; ++level) {
      const double x = rng.uniform_double();
      std::uint64_t bi;
      std::uint64_t bj;
      if (x < cells.p00) {
        bi = 0; bj = 0;
      } else if (x < cells.p00 + cells.p01) {
        bi = 0; bj = 1;
      } else if (x < cells.p00 + cells.p01 + cells.p10) {
        bi = 1; bj = 0;
      } else {
        bi = 1; bj = 1;
      }
      u = (u << 1) | bi;
      v = (v << 1) | bj;
    }
    keys[i - chunk.begin] = (u << 32) | (v & 0xffffffffULL);
  }
}

}  // namespace

StoreGenResult pgsk_generate_into(const PropertyGraph& seed_graph,
                                  const SeedProfile& profile,
                                  ClusterSim& cluster,
                                  const PgskOptions& options,
                                  GraphStore& store) {
  CSB_CHECK_MSG(seed_graph.num_edges() > 0, "PGSK needs a non-empty seed");
  CSB_CHECK_MSG(options.desired_edges > 0, "desired_edges must be positive");
  cluster.reset_metrics();

  StoreGenResult result;
  TraceRecorder* const trace = cluster.trace();
  const std::size_t parts = options.partitions != 0
                                ? options.partitions
                                : 2 * cluster.config().total_cores();

  const PropertyGraph simple = pgsk_collapse(seed_graph, cluster, parts);
  const PgskInitiatorPlan fitted = pgsk_fit_and_plan(
      simple, profile, cluster, options.fit,
      PgskSizing{.desired_edges = options.desired_edges,
                 .force_k = options.force_k,
                 .rescale_to_target = options.rescale_to_target});

  // Line 7: recursive-descent expansion with distinct() — streamed. Each
  // round's placements regenerate from per-chunk counter streams, dedup
  // through the budgeted external-sort distinct, and the ascending sorted-
  // unique key order is the canonical edge order (pgsk_generate wraps this
  // function over a MemoryStore, so there is no second ordering to drift
  // from).
  CSB_CHECK_MSG(fitted.plan.k <= 32,
                "streamed exact PGSK packs endpoints into 64-bit keys "
                "(k <= 32)");
  const std::uint64_t target =
      std::max<std::uint64_t>(1, fitted.plan.kron_edges);
  if (fitted.plan.k < 31) {
    CSB_CHECK_MSG(target <= (1ULL << (2 * fitted.plan.k)),
                  "edges_to_place exceeds the 4^k distinct-edge capacity");
  }
  const std::uint64_t n = 1ULL << fitted.plan.k;
  const std::uint64_t dup_seed = options.seed ^ 0xd0b1e5ULL;
  const DescentCells cells = descent_cells(fitted.initiator);
  result.iterations = fitted.plan.k;

  static Counter& rounds_run =
      MetricsRegistry::instance().counter("kron.rounds");
  static Counter& runs_spilled =
      MetricsRegistry::instance().counter("store.distinct_spilled_runs");

  std::uint64_t total_edges = 0;
  {
    PhaseScope phase(trace, "store");

    // Adaptive rounds: place ceil(missing * oversample) descents per round
    // until the distinct set reaches the target. A retry rebuilds the
    // distinct and re-streams every round's placements — regeneration from
    // counter streams is cheap, and at 1.1x oversampling retries are rare.
    // Round sizes derive only from sealed unique counts (pure functions of
    // the key multiset), so the geometry is pool- and shard-invariant.
    std::optional<ExternalDistinct> distinct;
    std::vector<std::uint64_t> round_places;
    std::uint64_t unique = 0;
    for (std::uint32_t round = 0;; ++round) {
      if (round >= kMaxRounds) {
        throw CsbError(
            "stochastic Kronecker did not reach the target edge count; the "
            "initiator is too concentrated for the requested size");
      }
      rounds_run.increment();
      const std::uint64_t missing = target - unique;
      round_places.push_back(static_cast<std::uint64_t>(
          std::ceil(static_cast<double>(missing) * kOversample)));
      distinct.emplace(ExternalDistinctOptions{
          .spill_directory = options.spill_directory,
          .memory_budget_bytes = options.dedup_budget_bytes,
          .pool = &cluster.pool()});
      std::vector<std::function<void()>> tasks;
      for (std::size_t r = 0; r < round_places.size(); ++r) {
        const std::uint64_t stream_seed =
            options.seed ^ kDescentSalt ^ (r * kRoundSalt);
        const auto chunks = make_fixed_chunks(
            0, static_cast<std::size_t>(round_places[r]),
            fast_sampler_chunk_size(round_places[r], parts));
        for (const ChunkRange& chunk : chunks) {
          tasks.push_back([&cells, &distinct, &fitted, stream_seed, chunk] {
            std::vector<std::uint64_t> keys(chunk.end - chunk.begin);
            descend_chunk(cells, fitted.plan.k, stream_seed, chunk,
                          keys.data());
            distinct->add(keys);
          });
        }
      }
      cluster.run_stage("store:distinct", std::move(tasks));
      cluster.run_serial("store:distinct:seal", [&] {
        unique = distinct->seal();
        runs_spilled.add(distinct->spilled_runs());
      });
      if (unique >= target) break;
    }

    // Count→prefix→emit over the sealed key stream, one task per scan
    // segment. Segment boundaries may vary with spill and pool counts, but
    // every write is offset-addressed into the same ascending stream, so
    // the stored bytes are invariant.
    const std::size_t segments = distinct->scan_segments();
    std::vector<std::uint64_t> seg_offsets(segments + 1, 0);
    {
      std::vector<std::function<void()>> tasks;
      tasks.reserve(segments);
      for (std::size_t s = 0; s < segments; ++s) {
        tasks.push_back([&distinct, &profile, &seg_offsets, dup_seed, s] {
          std::uint64_t count = 0;
          distinct->scan_segment(
              s, [&](std::span<const std::uint64_t> keys) {
                for (const std::uint64_t key : keys) {
                  count += re_multiply_copies(
                      profile, dup_seed,
                      Edge{key >> 32, key & 0xffffffffULL});
                }
              });
          seg_offsets[s + 1] = count;
        });
      }
      cluster.run_stage("store:count", std::move(tasks));
    }
    cluster.run_serial("store:begin", [&] {
      for (std::size_t s = 0; s < segments; ++s) {
        seg_offsets[s + 1] += seg_offsets[s];
      }
      total_edges = seg_offsets.back();
      store.begin(StoreHeader{.vertices = n,
                              .edges = total_edges,
                              .with_properties = options.with_properties,
                              .seed = options.seed});
    });
    {
      std::vector<std::function<void()>> tasks;
      tasks.reserve(segments);
      for (std::size_t s = 0; s < segments; ++s) {
        tasks.push_back(
            [&distinct, &profile, &store, &seg_offsets, dup_seed, s] {
              std::uint64_t at = seg_offsets[s];
              std::vector<Edge> expanded;
              distinct->scan_segment(
                  s, [&](std::span<const std::uint64_t> keys) {
                    expanded.clear();
                    for (const std::uint64_t key : keys) {
                      const Edge e{key >> 32, key & 0xffffffffULL};
                      const std::uint64_t copies =
                          re_multiply_copies(profile, dup_seed, e);
                      for (std::uint64_t c = 0; c < copies; ++c) {
                        expanded.push_back(e);
                      }
                    }
                    emit_edge_chunk(store, at, expanded);
                    at += expanded.size();
                  });
            });
      }
      cluster.run_stage("store:emit", std::move(tasks));
    }
  }
  result.structure_seconds = cluster.metrics().simulated_seconds;

  // Lines 13-18: property sampling, chunked on the shared counter geometry.
  if (options.with_properties) {
    const double before = cluster.metrics().simulated_seconds;
    PhaseScope phase(trace, "properties");
    run_property_stage(store, profile, cluster, options.seed ^ 0xbeefULL,
                       total_edges);
    result.property_seconds = cluster.metrics().simulated_seconds - before;
  }
  {
    PhaseScope phase(trace, "store");
    cluster.run_serial("store:finalize", [&] { store.finish(); });
  }
  result.metrics = cluster.metrics();
  result.vertices = n;
  result.edges = total_edges;
  return result;
}

GenResult pgsk_generate(const PropertyGraph& seed_graph,
                        const SeedProfile& profile, ClusterSim& cluster,
                        const PgskOptions& options) {
  return generate_in_memory([&](GraphStore& store) {
    return pgsk_generate_into(seed_graph, profile, cluster, options, store);
  });
}

}  // namespace csb
