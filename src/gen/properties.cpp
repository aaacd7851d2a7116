#include "gen/properties.hpp"

#include "gen/fast_samplers.hpp"

namespace csb {

namespace {

/// Domain separator so property streams never collide with the structural
/// chunk streams derived from the same user seed.
constexpr std::uint64_t kPropertyChunkSalt = 0x9e0b'5a17'0000'0003ULL;

}  // namespace

std::size_t property_chunk_size(std::uint64_t edges, std::size_t partitions) {
  return fast_sampler_chunk_size(edges, partitions);
}

Rng property_chunk_rng(std::uint64_t seed, std::uint64_t chunk_index) {
  return counter_rng(seed ^ kPropertyChunkSalt, chunk_index);
}

void sample_property_chunk(const SeedProfile& profile, std::uint64_t seed,
                           const ChunkRange& chunk, PropertyColumns& rows) {
  rows = PropertyColumns{};
  rows.reserve(chunk.end - chunk.begin);
  Rng rng = property_chunk_rng(seed, chunk.chunk_index);
  for (std::size_t e = chunk.begin; e < chunk.end; ++e) {
    rows.push_back(profile.sample_properties(rng));
  }
}

}  // namespace csb
