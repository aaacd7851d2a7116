// Shared building blocks of the GraphStore generation pipelines.
//
// Every generator streams into a GraphStore, and they need the same moves:
// pick the default partition count, split an AoS edge chunk into endpoint
// columns at a global offset, re-multiply placed edges (paper Fig. 3 lines
// 8-12) through one count -> begin -> emit sequence, and end with the same
// property stage and seal. Keeping them here means the generators cannot
// drift apart byte-wise.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "gen/generator.hpp"
#include "graph/edge.hpp"
#include "graph/property_graph.hpp"
#include "mr/cluster.hpp"
#include "mr/dataset.hpp"
#include "seed/seed.hpp"
#include "store/external_sort.hpp"
#include "store/graph_store.hpp"

namespace csb {

/// Partition count of a generator run: `requested` when non-zero,
/// otherwise 2x the virtual cores.
[[nodiscard]] std::size_t partitions_or_default(const ClusterSim& cluster,
                                                std::size_t requested);

/// Splits an AoS edge chunk into endpoint columns and writes it at its
/// global offset.
void emit_edge_chunk(GraphStore& store, std::uint64_t first,
                     std::span<const Edge> edges);

/// Replays block `block` of the placed edges, in order, as one or more
/// spans. Every call must yield the same edges: the emission replays each
/// block twice (count, then emit) instead of keeping it resident.
using EdgeBlockReplay = std::function<void(
    std::size_t block, const std::function<void(std::span<const Edge>)>&)>;

/// The one re-multiplied emission (Fig. 3 lines 8-12): every placed edge
/// is written in a run of copies, blocks in index order. The copy count is
/// a draw from the seed out-degree distribution, clamped to >= 1, on an Rng
/// seeded by `dup_seed` and the edge identity, so it never depends on
/// which block or worker placed the edge.
/// `store:count` sizes each block's expansion (one task per block),
/// `store:begin` takes the prefix sum and begins the store with `header`
/// (its edge count set to the total), and `store:emit` writes each block's
/// expansion at its offset (one task per block, one put_edges per replayed
/// span). Offsets derive from the edge stream alone, so the stored bytes
/// never depend on the block boundaries or the pool. Returns the header
/// the store was begun with.
StoreHeader emit_re_multiplied(GraphStore& store, ClusterSim& cluster,
                               const SeedProfile& profile,
                               std::uint64_t dup_seed, StoreHeader header,
                               std::size_t blocks,
                               const EdgeBlockReplay& replay);

/// emit_re_multiplied over a sealed distinct set of packed edge keys
/// (edge_key): one block per scan segment, so the edges go out in
/// ascending key order.
StoreHeader emit_re_multiplied(GraphStore& store, ClusterSim& cluster,
                               const SeedProfile& profile,
                               std::uint64_t dup_seed, StoreHeader header,
                               const ExternalDistinct& distinct);

/// Seals a distinct set of placed edges as the `store:distinct:seal` serial
/// segment and adds its spilled runs to `store.distinct_spilled_runs`.
/// Returns the distinct count.
std::uint64_t seal_distinct(ClusterSim& cluster, ExternalDistinct& distinct);

/// The store:props stage every generator shares: compiles `profile` into a
/// PropertySampler (gen/properties.hpp), then samples fixed global property
/// chunks (geometry from 2x the virtual cores) with per-chunk counter
/// streams, one task per chunk, each written at its global offset.
void run_property_stage(GraphStore& store, const SeedProfile& profile,
                        ClusterSim& cluster, std::uint64_t prop_seed,
                        std::uint64_t total_edges);

/// The tail every generator shares once its edges are written (Fig. 3
/// lines 13-18): the `properties` phase (run_property_stage with
/// `prop_seed`) when `header.with_properties`, then `store:finalize`.
/// Books the simulated time so far as the structure time and the property
/// stage as the property time, and returns the run's result with the
/// header's dimensions.
StoreGenResult finish_generation(GraphStore& store, ClusterSim& cluster,
                                 const SeedProfile& profile,
                                 const StoreHeader& header,
                                 std::uint64_t prop_seed,
                                 std::uint64_t iterations);

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
