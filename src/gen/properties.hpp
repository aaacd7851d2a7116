// The shared property-assignment stage (paper Fig. 2 lines 15-20 and Fig. 3
// lines 13-18): every synthetic edge receives a NetFlow attribute tuple
// sampled from the seed profile's distributions, in O(|E| x |properties|).
//
// The paper measures this stage's overhead at ~50% of PGPBA's generation
// time and ~30% of PGSK's (Fig. 10); the benches therefore time it
// separately via the "properties" phase.
//
// The profile is compiled once per stage into a PropertySampler: every
// alias table of the profile laid out in one flat array, so one draw reads
// one entry, and the conditional tables indexed by IN_BYTES bucket through
// fixed slots instead of a map lookup per attribute.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "seed/seed.hpp"
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

/// A SeedProfile's attribute distributions compiled for sampling: the only
/// way a property row is drawn, behind the store:props stage
/// (run_property_stage, gen/sink_stages.hpp).
///
/// Layout. Each alias table of the profile (p(IN_BYTES), and for each of
/// the eight other attributes its marginal and its observed buckets) is a
/// run of {threshold, value, alias_value} entries in one contiguous array,
/// values already cast to their column's type. For every IN_BYTES bucket
/// slot (ConditionalDistribution::kBucketSlots) there is one table per
/// conditional attribute; a bucket the seed never observed for that
/// attribute points at the attribute's marginal.
///
/// Draw order, fixed because the output bytes depend on it. A chunk draws
/// on property_chunk_rng(seed, chunk_index), row by row. Each row draws
/// IN_BYTES (uniform(n), then uniform_double() < threshold), takes its
/// bucket once, then draws the eight conditionals in
/// SeedProfile::for_each_conditional order: protocol, src_port, dst_port,
/// duration_ms, out_bytes, out_pkts, in_pkts, state. Any other order or
/// stream split changes every sampled row.
class PropertySampler {
 public:
  explicit PropertySampler(const SeedProfile& profile);

  // The tables point into entries_, so a copy would point into the
  // original's storage.
  PropertySampler(const PropertySampler&) = delete;
  PropertySampler& operator=(const PropertySampler&) = delete;

  /// Sizes `rows` to the chunk and overwrites every row with the chunk's
  /// samples. Pure function of (profile, seed, chunk).
  void sample_chunk(std::uint64_t seed, const ChunkRange& chunk,
                    PropertyColumns& rows) const;

 private:
  struct Entry {
    double threshold;
    std::uint64_t value;
    std::uint64_t alias_value;
  };
  using Table = std::span<const Entry>;
  static constexpr std::size_t kConditionals = 8;

  std::vector<Entry> entries_;
  Table in_bytes_;
  std::array<std::array<Table, kConditionals>,
             ConditionalDistribution::kBucketSlots>
      by_bucket_;
};

}  // namespace csb
