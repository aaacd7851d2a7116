// Shared building blocks of the GraphStore generation pipelines.
//
// Every generator streams into a GraphStore, and they need the same moves:
// split an AoS edge chunk into endpoint columns at a global offset, replay
// the exact re-multiply draw for one edge, and sample property chunks on
// one fixed counter-mode geometry. Keeping them here means the generators
// cannot drift apart byte-wise.
#pragma once

#include <cstdint>
#include <span>

#include "graph/edge.hpp"
#include "graph/property_graph.hpp"
#include "mr/cluster.hpp"
#include "mr/dataset.hpp"
#include "seed/seed.hpp"
#include "store/graph_store.hpp"

namespace csb {

/// Splits an AoS edge chunk into endpoint columns and writes it at its
/// global offset.
void emit_edge_chunk(GraphStore& store, std::uint64_t first,
                     std::span<const Edge> edges);

/// Re-multiply copy count of one placed edge (Fig. 3 lines 8-12): a draw
/// from the seed out-degree distribution, clamped to >= 1, on an Rng
/// derived from the edge identity — so the count never depends on which
/// chunk or worker placed the edge.
std::uint64_t re_multiply_copies(const SeedProfile& profile,
                                 std::uint64_t dup_seed, const Edge& e);

/// The store:props stage every generator shares: fixed global property
/// chunks (geometry from 2x the virtual cores), sampled with per-chunk
/// counter streams and written at their global offsets.
void run_property_stage(GraphStore& store, const SeedProfile& profile,
                        ClusterSim& cluster, std::uint64_t prop_seed,
                        std::uint64_t total_edges);

/// Emits an edge Dataset into the store at its concatenation offsets as a
/// store:emit stage. The write offsets are prefix sums over the partition
/// sizes, so the stored stream is the partition-concatenation order at any
/// worker count.
void emit_dataset_into(const Dataset<Edge>& edges, GraphStore& store,
                       ClusterSim& cluster);

/// Emits built endpoint columns into the store as a store:emit stage of
/// fixed chunks, each written at its own offset.
void emit_columns_into(std::span<const VertexId> src,
                       std::span<const VertexId> dst, GraphStore& store,
                       ClusterSim& cluster);

}  // namespace csb
