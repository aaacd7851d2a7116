#include "gen/properties.hpp"

#include <type_traits>
#include <utility>

#include "gen/fast_samplers.hpp"

namespace csb {

namespace {

/// Domain separator so property streams never collide with the structural
/// chunk streams derived from the same user seed.
constexpr std::uint64_t kPropertyChunkSalt = 0x9e0b'5a17'0000'0003ULL;

/// A sampled double as column type T stores it (enums through their
/// underlying byte), widened to 64 bits; narrowing it back to T is exact.
template <typename T>
std::uint64_t column_value(double value) {
  if constexpr (std::is_enum_v<T>) {
    return static_cast<std::underlying_type_t<T>>(value);
  } else {
    return static_cast<T>(value);
  }
}

/// One alias draw: slot uniform(n), then keep it or take its alias. Forced
/// inline so the Rng state stays in registers across a row's nine draws;
/// the keep-or-alias choice is a mask, not a branch, because it is a coin
/// flip no branch predictor can learn.
template <typename Entry>
[[gnu::always_inline]] inline std::uint64_t draw(std::span<const Entry> table,
                                                 Rng& rng) {
  const Entry& entry = table[rng.uniform(table.size())];
  const std::uint64_t keep = rng.uniform_double() < entry.threshold;
  return entry.alias_value ^ ((entry.value ^ entry.alias_value) & (0 - keep));
}

}  // namespace

std::size_t property_chunk_size(std::uint64_t edges, std::size_t partitions) {
  return fast_sampler_chunk_size(edges, partitions);
}

Rng property_chunk_rng(std::uint64_t seed, std::uint64_t chunk_index) {
  return counter_rng(seed ^ kPropertyChunkSalt, chunk_index);
}

PropertySampler::PropertySampler(const SeedProfile& profile) {
  // Tables are appended as (first, size) runs and resolved to spans once
  // entries_ stops growing.
  using Run = std::pair<std::size_t, std::size_t>;
  const auto append = [this]<typename T>(const EmpiricalDistribution& dist,
                                         T /*column type tag*/) {
    const AliasTable& alias = dist.alias_table();
    const auto& values = dist.values();
    const Run run{entries_.size(), alias.size()};
    for (std::size_t i = 0; i < alias.size(); ++i) {
      entries_.push_back({alias.threshold(i), column_value<T>(values[i]),
                          column_value<T>(values[alias.alias(i)])});
    }
    return run;
  };

  const Run in_bytes = append(profile.in_bytes(), std::uint64_t{});
  std::array<std::array<Run, kConditionals>,
             ConditionalDistribution::kBucketSlots>
      runs;
  std::size_t k = 0;
  profile.for_each_conditional(
      [&](auto field, const ConditionalDistribution& dist) {
        using T = std::remove_cvref_t<
            decltype(std::declval<EdgeProperties&>().*field)>;
        const Run marginal = append(dist.marginal(), T{});
        for (std::uint32_t b = 0; b < ConditionalDistribution::kBucketSlots;
             ++b) {
          runs[b][k] = dist.has_bucket(b) ? append(dist.bucket(b), T{})
                                          : marginal;
        }
        ++k;
      });

  const Table all(entries_);
  const auto resolve = [&all](const Run& run) {
    return all.subspan(run.first, run.second);
  };
  in_bytes_ = resolve(in_bytes);
  for (std::size_t b = 0; b < ConditionalDistribution::kBucketSlots; ++b) {
    for (std::size_t c = 0; c < kConditionals; ++c) {
      by_bucket_[b][c] = resolve(runs[b][c]);
    }
  }
}

void PropertySampler::sample_chunk(std::uint64_t seed,
                                   const ChunkRange& chunk,
                                   PropertyColumns& rows) const {
  const std::size_t n = chunk.end - chunk.begin;
  rows.resize_for_overwrite(n);
  Rng rng = property_chunk_rng(seed, chunk.chunk_index);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t in_bytes = draw(in_bytes_, rng);
    const auto& tables =
        by_bucket_[ConditionalDistribution::bucket_of(in_bytes)];
    // The same order SeedProfile::for_each_conditional compiled them in.
    rows.in_bytes[i] = in_bytes;
    rows.protocol[i] = static_cast<Protocol>(draw(tables[0], rng));
    rows.src_port[i] = static_cast<std::uint16_t>(draw(tables[1], rng));
    rows.dst_port[i] = static_cast<std::uint16_t>(draw(tables[2], rng));
    rows.duration_ms[i] = static_cast<std::uint32_t>(draw(tables[3], rng));
    rows.out_bytes[i] = draw(tables[4], rng);
    rows.out_pkts[i] = static_cast<std::uint32_t>(draw(tables[5], rng));
    rows.in_pkts[i] = static_cast<std::uint32_t>(draw(tables[6], rng));
    rows.state[i] = static_cast<ConnState>(draw(tables[7], rng));
  }
}

}  // namespace csb
