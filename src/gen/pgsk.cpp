#include "gen/pgsk.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "gen/kronecker.hpp"
#include "gen/sink_stages.hpp"
#include "graph/algorithms.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

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

StoreGenResult pgsk_generate_into(const PropertyGraph& seed_graph,
                                  const SeedProfile& profile,
                                  ClusterSim& cluster,
                                  const PgskOptions& options,
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

  // Line 7: recursive-descent placement, then de-duplication — streamed
  // through the budgeted external-sort distinct. Its ascending sorted-
  // unique key order is the canonical edge order (pgsk_generate wraps this
  // function over a MemoryStore, so there is no second ordering to drift
  // from). Lines 8-12 then re-multiply the sealed stream, one block per
  // scan segment.
  StoreHeader header{.vertices = 1ULL << fitted.plan.k,
                     .with_properties = options.with_properties,
                     .seed = options.seed};
  {
    PhaseScope phase(cluster.trace(), "store");
    const std::unique_ptr<ExternalDistinct> distinct =
        stochastic_kronecker_distinct(
            cluster, fitted.initiator, fitted.plan.k,
            std::max<std::uint64_t>(1, fitted.plan.kron_edges), options.seed,
            parts,
            ExternalDistinctOptions{
                .spill_directory = options.spill_directory,
                .memory_budget_bytes = options.dedup_budget_bytes,
                .pool = &cluster.pool()});
    header = emit_re_multiplied(store, cluster, profile,
                                options.seed ^ 0xd0b1e5ULL, header, *distinct);
  }
  // Lines 13-18: property sampling, chunked on the shared counter geometry.
  return finish_generation(store, cluster, profile, header,
                           options.seed ^ 0xbeefULL, fitted.plan.k);
}

GenResult pgsk_generate(const PropertyGraph& seed_graph,
                        const SeedProfile& profile, ClusterSim& cluster,
                        const PgskOptions& options) {
  return generate_in_memory([&](GraphStore& store) {
    return pgsk_generate_into(seed_graph, profile, cluster, options, store);
  });
}

}  // namespace csb
