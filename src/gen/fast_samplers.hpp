// O(1)-per-edge fast samplers racing the exact PGSK / PGPBA generators.
//
// pgsk-fast — Chung-Lu ball-dropping approximation of the stochastic
// Kronecker expansion (Pinar/Seshadhri/Kolda, "The Similarity between
// Stochastic Kronecker and Chung-Lu Graph Models"). Under SKG the expected
// out-weight of vertex u factorizes over its bit label:
//
//   w_out(u) = prod_l R[bit_l(u)]   with R[0] = a+b, R[1] = c+d
//
// (row sums of the fitted initiator; in-weights use the column sums). The
// normalized weight vector is therefore a product distribution: each of the
// k label bits is an independent Bernoulli with P(bit = 1) = R[1] / sum.
// Ball-dropping one edge = drawing the source's k bits from the row-sum
// share and the destination's from the column-sum share — no O(k) descent,
// no dedup rounds. The expected-degree vectors never materialize; their
// product form is sampled directly, 64 edges at a time, via
// bernoulli_lanes. The optional *noisy SKG* variant perturbs the initiator
// per level (sum-preserving), which smooths the oscillating degree
// distribution of the pure model; it only changes the per-level Bernoulli
// probabilities.
//
// pgpba-fast — skip-ahead preferential attachment (Yoo/Henderson, "Parallel
// Generation of Massive Scale-Free Graphs", adapted to the exact PGPBA
// attachment kernel). Exact PGPBA attaches each new vertex to the
// *destination of a uniformly sampled edge* — destination choice is
// proportional to current in-degree, and by induction every destination is
// a seed-graph destination. pgpba-fast reproduces that kernel without the
// shared edge list: edge i draws a uniform earlier edge j < i from
// counter_rng(seed, i) and inherits its destination. If j is itself a
// generated edge, its own draw is re-derived from counter_rng(seed, j) and
// the chain recurses — indices strictly decrease, so after an expected
// O(log(total / seed_edges)) hops the chain lands on a seed edge whose
// destination is read from the seed table. No shared degree array, no
// growth rounds: every edge is resolved independently, so generation is
// embarrassingly parallel and byte-identical at any worker count.
//
// Both generators share the exact pipeline's envelope: pgsk-fast reuses
// collapse + KronFit + sizing from gen/pgsk.hpp and exact PGSK's
// re-multiplied emission, and both stream into a GraphStore through the
// shared properties/finalize tail (gen/sink_stages.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gen/generator.hpp"
#include "gen/kronfit.hpp"
#include "gen/pgsk.hpp"
#include "seed/seed.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace csb {

// ------------------------------------------------------------ pgsk-fast

/// Per-level fixed-point Bernoulli thresholds of the Chung-Lu
/// factorization: P(src bit_l = 1) and P(dst bit_l = 1). Without noise all
/// levels are equal (row / column share of the initiator sum); the noisy-SKG
/// variant perturbs each level separately.
struct ChungLuLevels {
  std::vector<std::uint64_t> src_threshold;  ///< one entry per level
  std::vector<std::uint64_t> dst_threshold;
};

/// Builds the per-level thresholds for order k. `noise` in [0, 0.5) is the
/// noisy-SKG amplitude: level l uses the initiator with
///   a -= 2 mu_l a / (a+d),  d -= 2 mu_l d / (a+d),  b += mu_l,  c += mu_l
/// where mu_l ~ U[-noise, noise] drawn from counter_rng(seed, l) — the
/// sum-preserving perturbation of Seshadhri/Pinar/Kolda that breaks up the
/// degree-distribution oscillation. noise = 0 reproduces the clean model.
ChungLuLevels chung_lu_levels(const Initiator& initiator, std::uint32_t k,
                              double noise, std::uint64_t seed);

/// Fills out[0 .. chunk.end - chunk.begin) with ball-dropped edges for the
/// global edge indices in `chunk`. Draws come from
/// counter_rng(seed, chunk.chunk_index) only, so the result depends on the
/// chunk geometry, never on which worker ran it.
void ball_drop_chunk(const ChungLuLevels& levels, std::uint64_t seed,
                     const ChunkRange& chunk, Edge* out);

/// Ball-drops `edges` edges over the pool via parallel_for_fixed_chunks;
/// a null pool runs the identical decomposition inline. Exposed for the
/// determinism tests and the micro benches; pgsk_fast_generate_into runs
/// the same chunks as cluster stages for makespan booking.
std::vector<Edge> chung_lu_ball_drop(const ChungLuLevels& levels,
                                     std::uint64_t edges, std::uint64_t seed,
                                     std::size_t chunk_size, ThreadPool* pool);

struct PgskFastOptions {
  std::uint64_t desired_edges = 0;
  /// 0 = auto from desired_edges; otherwise forces the Kronecker order.
  std::uint32_t force_k = 0;
  /// 0 = auto (2x the virtual cores).
  std::size_t partitions = 0;
  std::uint64_t seed = 1;
  bool with_properties = true;
  KronFitOptions fit{};
  bool rescale_to_target = true;
  /// Noisy-SKG per-level amplitude in [0, 0.5); 0 = clean Chung-Lu mixture.
  double noise = 0.0;
  /// Drop duplicate ball-drop placements through an external-sort distinct
  /// before re-multiply — the same ExternalDistinct exact PGSK's descent
  /// dedups through. Changes the edge stream (sorted unique placements), so
  /// it is opt-in.
  bool dedup = false;
  /// In-RAM budget of the dedup distinct before sorted runs spill to disk.
  std::uint64_t dedup_budget_bytes = 256ULL << 20;
  /// Spill directory for dedup runs (required once the budget overflows).
  std::string spill_directory;
};

/// The pgsk pipeline with the recursive-descent expansion replaced by the
/// Chung-Lu ball-dropping sampler, streamed into `store` chunk by chunk:
/// collapse -> KronFit -> the shared re-multiplied emission
/// (emit_re_multiplied, gen/sink_stages.hpp: store:count, store:begin,
/// store:emit) with one block per ball-drop chunk, regenerated from its
/// counter stream on each pass -> store:props -> store:finalize. With
/// dedup, the chunks first go through store:distinct and
/// store:distinct:seal, and the emission runs one block per scan segment
/// of the sealed set, as in exact PGSK. Resident memory is O(chunk)
/// without dedup, O(dedup budget) with it, never O(|E|).
StoreGenResult pgsk_fast_generate_into(const PropertyGraph& seed_graph,
                                       const SeedProfile& profile,
                                       ClusterSim& cluster,
                                       const PgskFastOptions& options,
                                       GraphStore& store);

/// pgsk_fast_generate_into captured by a MemoryStore.
GenResult pgsk_fast_generate(const PropertyGraph& seed_graph,
                             const SeedProfile& profile, ClusterSim& cluster,
                             const PgskFastOptions& options);

// ----------------------------------------------------------- pgpba-fast

/// The implicit destination multiset of a skip-ahead run: slot t < seed_edges
/// is seed edge t's destination (read from the table); slot t >= seed_edges
/// is generated edge t's destination, resolved by replaying its draw.
struct SkipAheadLayout {
  std::span<const VertexId> seed_destinations;  ///< size seed_edges
  std::uint64_t seed_edges = 0;
  VertexId first_new_vertex = 0;  ///< seed graph's vertex count
  std::uint32_t edges_per_vertex = 1;  ///< m: new vertex every m edges
};

/// Resolves the destination of generated edge `index` (a global edge index
/// >= layout.seed_edges) by following the skip-ahead chain down to a seed
/// destination. Pure function of (layout, seed, index): expected
/// O(log(index / seed_edges)) chain length, no shared state.
VertexId skip_ahead_destination(const SkipAheadLayout& layout,
                                std::uint64_t seed, std::uint64_t index);

/// Fills out[0 .. chunk.end - chunk.begin) with the generated edges for the
/// global edge indices in `chunk` (all >= layout.seed_edges).
void skip_ahead_chunk(const SkipAheadLayout& layout, std::uint64_t seed,
                      const ChunkRange& chunk, Edge* out);

/// Generates edges [layout.seed_edges, total_edges) over the pool via
/// parallel_for_fixed_chunks; a null pool runs the identical decomposition
/// inline. Exposed for the determinism tests and the micro benches.
std::vector<Edge> skip_ahead_attach(const SkipAheadLayout& layout,
                                    std::uint64_t total_edges,
                                    std::uint64_t seed,
                                    std::size_t chunk_size, ThreadPool* pool);

struct PgpbaFastOptions {
  std::uint64_t desired_edges = 0;
  /// Edges attached per new vertex (Barabasi-Albert m).
  std::uint32_t edges_per_vertex = 1;
  /// 0 = auto (2x the virtual cores).
  std::size_t partitions = 0;
  std::uint64_t seed = 1;
  bool with_properties = true;
};

/// Skip-ahead preferential attachment streamed into `store`: seed edges
/// re-emitted and skip-ahead edges resolved directly at their global
/// offsets in one parallel store:emit pass, properties sampled per chunk
/// (store:props), store:finalize seals. The output has exactly
/// desired_edges edges.
StoreGenResult pgpba_fast_generate_into(const PropertyGraph& seed_graph,
                                        const SeedProfile& profile,
                                        ClusterSim& cluster,
                                        const PgpbaFastOptions& options,
                                        GraphStore& store);

/// pgpba_fast_generate_into captured by a MemoryStore.
GenResult pgpba_fast_generate(const PropertyGraph& seed_graph,
                              const SeedProfile& profile, ClusterSim& cluster,
                              const PgpbaFastOptions& options);

/// The chunk size both fast samplers use for a given edge count and
/// partition count: a multiple of 64 (bernoulli_lanes block) in
/// [1024, 65536], targeting ~2 chunks per partition. Depends only on the
/// arguments — never on the worker count — so chunk geometry, and with it
/// the output bytes, is fixed per configuration.
std::size_t fast_sampler_chunk_size(std::uint64_t edges,
                                    std::size_t partitions);

}  // namespace csb
