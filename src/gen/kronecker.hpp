// Stochastic (and deterministic) Kronecker graph generation.
//
// The stochastic generator is the Map-Reduce recursive descent of paper
// Fig. 3 line 7: every placement independently walks k levels of the 2x2
// initiator, choosing cell (i,j) with probability theta_ij / sum(theta) and
// appending the bits to the (row, column) labels. Placements collide, so
// they stream into a budgeted ExternalDistinct, and generation loops in
// rounds until the distinct count reaches the target — the paper's
// "recursive-descent edge placement, then de-duplication".
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "gen/kronfit.hpp"
#include "graph/property_graph.hpp"
#include "mr/cluster.hpp"
#include "store/external_sort.hpp"
#include "util/parallel.hpp"

namespace csb {

/// Cumulative joint cell probabilities of one descent level.
struct DescentCells {
  double p00 = 0.0;
  double p01 = 0.0;
  double p10 = 0.0;
};

DescentCells descent_cells(const Initiator& initiator);

/// Fills keys[0 .. chunk size) with packed (src << 32 | dst) recursive-
/// descent placements for the global placement indices in `chunk`, drawn
/// from counter_rng(stream_seed, chunk.chunk_index) — the result depends on
/// the chunk geometry, never on which worker ran it. Requires k <= 32.
void descend_chunk(const DescentCells& cells, std::uint32_t k,
                   std::uint64_t stream_seed, const ChunkRange& chunk,
                   std::uint64_t* keys);

/// Places >= `target` distinct packed (src << 32 | dst) edges of the
/// order-k Kronecker power of `initiator` and returns the sealed set, whose
/// scan is the ascending key stream. Each round places ceil(missing x 1.1)
/// descents in `store:distinct` stage tasks of fast_sampler_chunk_size(
/// round, parts) placements, then seals in `store:distinct:seal`; a retry
/// rebuilds the set from every round's counter streams. Round sizes derive
/// only from sealed unique counts, so the key stream depends on `seed`,
/// `parts` and the inputs alone — not on the pool, the cluster shape or the
/// spill budget. Throws CsbError when k is outside [1, 32], when the target
/// is zero or exceeds the 4^k cells, or when 64 rounds do not reach it.
std::unique_ptr<ExternalDistinct> stochastic_kronecker_distinct(
    ClusterSim& cluster, const Initiator& initiator, std::uint32_t k,
    std::uint64_t target, std::uint64_t seed, std::size_t parts,
    const ExternalDistinctOptions& distinct_options);

/// Deterministic Kronecker baseline: the k-fold Kronecker power of a 0/1
/// initiator, materialized by testing all |V|^2 pairs (the O(|V|^2)
/// algorithm the paper contrasts against). Only sensible for small k.
PropertyGraph deterministic_kronecker(
    const std::array<std::array<bool, 2>, 2>& initiator, std::uint32_t k);

}  // namespace csb
