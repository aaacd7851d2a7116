// The shared property-assignment stage (paper Fig. 2 lines 15-20 and Fig. 3
// lines 13-18): every synthetic edge receives a NetFlow attribute tuple
// sampled from the seed profile's distributions, in O(|E| x |properties|).
//
// The paper measures this stage's overhead at ~50% of PGPBA's generation
// time and ~30% of PGSK's (Fig. 10); the benches therefore time it
// separately via the "properties" phase.
#pragma once

#include <cstdint>

#include "seed/seed.hpp"
#include "store/graph_store.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace csb {

/// Chunk geometry of the property stage for a given edge count and
/// partition count — same contract as fast_sampler_chunk_size: depends
/// only on the arguments, never on worker or shard counts, so the sampled
/// bytes are fixed per configuration.
std::size_t property_chunk_size(std::uint64_t edges, std::size_t partitions);

/// Counter-mode RNG of property chunk `chunk_index`: every chunk owns an
/// independent stream, so chunks can be sampled in any order on any worker
/// (or replayed shard-by-shard out of core) with identical results.
Rng property_chunk_rng(std::uint64_t seed, std::uint64_t chunk_index);

/// Samples property rows for the edges in `chunk` into `rows` (cleared
/// first). Pure function of (profile, seed, chunk) — the sampler behind the
/// store:props stage (run_property_stage, gen/sink_stages.hpp).
void sample_property_chunk(const SeedProfile& profile, std::uint64_t seed,
                           const ChunkRange& chunk, PropertyColumns& rows);

}  // namespace csb
