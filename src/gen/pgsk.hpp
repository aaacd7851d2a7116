// PGSK — Property-Graph Stochastic Kronecker (paper §III-B, Fig. 3).
//
// Pipeline:
//   1. collapse the seed property-multigraph to a simple graph (lines 1-5);
//   2. fit the 2x2 initiator with KronFit (line 6);
//   3. expand by parallel recursive-descent Kronecker placement, then
//      de-duplication (line 7, gen/kronecker.hpp) — the order k is the
//      smallest one whose expected output reaches the desired size;
//   4. re-multiply every distinct edge by a draw from the seed's out-degree
//      distribution, restoring the multigraph character (lines 8-12);
//   5. sample NetFlow properties for every edge (lines 13-18).
//
// Because a fitted 2x2 initiator can be expanded to any order, PGSK can
// produce graphs *smaller* than the seed (the paper starts its veracity
// sweep at 100 edges) — unlike PGPBA, which only grows.
#pragma once

#include "gen/generator.hpp"
#include "gen/kronfit.hpp"
#include "seed/seed.hpp"

namespace csb {

struct PgskOptions {
  std::uint64_t desired_edges = 0;
  /// 0 = auto from desired_edges; otherwise forces the Kronecker order.
  std::uint32_t force_k = 0;
  /// 0 = auto (2x the virtual cores).
  std::size_t partitions = 0;
  std::uint64_t seed = 1;
  bool with_properties = true;
  KronFitOptions fit{};
  /// Rescale the fitted initiator so its expected edge count at the chosen
  /// order matches the target exactly (keeps entry ratios). On by default;
  /// benches switch it off to study the raw fit.
  bool rescale_to_target = true;
  /// In-RAM budget of the expand phase's distinct set before sorted runs
  /// spill to disk.
  std::uint64_t dedup_budget_bytes = 256ULL << 20;
  /// Directory for spilled distinct runs; required once the budget
  /// overflows.
  std::string spill_directory;
};

/// Exact PGSK streamed into `store` with bounded resident memory: the
/// descent places through ExternalDistinct under options.dedup_budget_bytes,
/// then the sorted-unique key stream goes through the shared re-multiplied
/// emission (emit_re_multiplied, gen/sink_stages.hpp), one block per scan
/// segment, and the shared properties/finalize tail. Peak RSS is
/// O(V + dedup budget) instead of O(E); the stored bytes are invariant to
/// pool size, shard count, and spill count.
StoreGenResult pgsk_generate_into(const PropertyGraph& seed_graph,
                                  const SeedProfile& profile,
                                  ClusterSim& cluster,
                                  const PgskOptions& options,
                                  GraphStore& store);

/// pgsk_generate_into captured by a MemoryStore.
GenResult pgsk_generate(const PropertyGraph& seed_graph,
                        const SeedProfile& profile, ClusterSim& cluster,
                        const PgskOptions& options);

/// Step 3-4 sizing rule exposed for tests: the order k and pre-duplication
/// edge target chosen for a desired size, given the duplication factor
/// (mean of the seed out-degree distribution, clamped >= 1).
struct PgskPlan {
  std::uint32_t k = 1;
  std::uint64_t kron_edges = 0;  ///< edges to place before duplication
};
PgskPlan plan_pgsk(double initiator_sum, double mean_out_degree,
                   std::uint64_t desired_edges);

// The collapse / fit / size prefix of the PGSK pipeline, exposed so the
// fast Chung-Lu sampler (gen/fast_samplers.hpp) shares it verbatim with the
// exact generator — both must fit the same initiator from the same collapsed
// graph for the exact-vs-fast veracity race to be apples-to-apples.

/// Fig. 3 lines 1-5: multiset -> simple-graph collapse via the
/// counted-shuffle SimplifyPlan stages under the "collapse" phase; output
/// byte-identical to serial simplify() at any worker count.
PropertyGraph pgsk_collapse(const PropertyGraph& seed_graph,
                            ClusterSim& cluster, std::size_t partitions);

/// Sizing inputs shared by the exact and the fast PGSK pipelines.
struct PgskSizing {
  std::uint64_t desired_edges = 0;
  std::uint32_t force_k = 0;       ///< 0 = auto from desired_edges
  bool rescale_to_target = true;
};

/// Line 6 + sizing: KronFit the collapsed graph on the cluster (books the
/// "kronfit" phase), pick the order k, and optionally rescale the fitted
/// initiator so its expected edge count at that order hits the
/// pre-duplication target (entry ratios preserved, entries capped at 0.98).
struct PgskInitiatorPlan {
  Initiator initiator;
  PgskPlan plan;
};
PgskInitiatorPlan pgsk_fit_and_plan(const PropertyGraph& simple,
                                    const SeedProfile& profile,
                                    ClusterSim& cluster,
                                    const KronFitOptions& fit,
                                    const PgskSizing& sizing);

}  // namespace csb
