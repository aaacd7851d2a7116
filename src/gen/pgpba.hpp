// PGPBA — Property-Graph Parallel Barabási-Albert (paper §III-A, Fig. 2).
//
// Grows the seed edge multiset until it reaches the desired size. Each
// iteration samples `fraction * |E|` edges from the current edge list
// (first stage of the two-stage preferential attachment: a vertex appears
// in the edge list once per incident edge, so endpoint selection is
// degree-proportional), creates one new vertex per sampled edge, and
// attaches it to one endpoint of the sampled edge. Finally every edge gets
// NetFlow properties sampled from the seed profile.
//
// Two attachment modes are provided:
//   * kSparkParity (default) — one new edge per sampled edge, destination
//     preserved, exactly as the paper describes its GraphX implementation
//     ("for every edge, a new vertex is created and attached as its
//     source"). This reproduces the measured growth rate (fraction = 2
//     doubles the graph per iteration, matching Kronecker).
//   * kDegreeSampling — the full Fig. 2 pseudocode: a random endpoint is
//     chosen, and the new vertex's in/out edge counts are drawn from the
//     seed's degree distributions (lines 7-11). Grows much faster per
//     iteration; kept for fidelity and ablation benches.
#pragma once

#include "gen/generator.hpp"
#include "seed/seed.hpp"

namespace csb {

enum class PgpbaAttachMode {
  kSparkParity,
  kDegreeSampling,
};

struct PgpbaOptions {
  std::uint64_t desired_edges = 0;
  /// Ratio of new vertices per iteration to current edge count; may exceed
  /// 1 (sampling with replacement), the paper uses up to 2.
  double fraction = 0.1;
  PgpbaAttachMode mode = PgpbaAttachMode::kSparkParity;
  /// 0 = auto (2x the virtual cores, the paper's best setting, §V-B).
  std::size_t partitions = 0;
  std::uint64_t seed = 1;
  bool with_properties = true;
};

/// PGPBA streamed into `store`: the growth loop, then the grown partitions
/// emitted at their concatenation offsets (store:emit) and properties
/// sampled per fixed chunk (store:props). The growth state (edge
/// partitions) is the only O(|E|) resident structure.
StoreGenResult pgpba_generate_into(const PropertyGraph& seed_graph,
                                   const SeedProfile& profile,
                                   ClusterSim& cluster,
                                   const PgpbaOptions& options,
                                   GraphStore& store);

/// pgpba_generate_into captured by a MemoryStore.
GenResult pgpba_generate(const PropertyGraph& seed_graph,
                         const SeedProfile& profile, ClusterSim& cluster,
                         const PgpbaOptions& options);

}  // namespace csb
