// Conditional empirical distributions p(attribute | IN_BYTES bucket).
//
// Paper §III: the seed analysis first computes the unconditional
// distribution of IN_BYTES, then for every other NetFlow attribute `a`
// computes p(a | IN_BYTES). Conditioning on the raw byte count would give
// one distribution per distinct value, so we bucket the conditioning
// variable logarithmically (base 2), which is also how flow sizes naturally
// cluster (mice vs elephants).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "stats/empirical.hpp"

namespace csb {

class ThreadPool;

class ConditionalDistribution {
 public:
  /// Log2 bucket of the conditioning value; 0 maps to bucket 0, and values
  /// >= 1 map to 1 + floor(log2(v)) — at most kBucketSlots - 1.
  static constexpr std::uint32_t bucket_of(std::uint64_t condition) noexcept {
    return static_cast<std::uint32_t>(std::bit_width(condition));
  }

  /// bucket_of is std::bit_width, so its range is [0, 64]: a fixed array
  /// of 65 slots holds every bucket, and no map is needed.
  static constexpr std::size_t kBucketSlots = 65;

  /// Fits from (condition, value) observations. Also fits the marginal
  /// p(value), used as a fallback for unseen condition buckets. Grouping
  /// runs a pre-count pass into the fixed bucket slots, then scatters in
  /// input order; with a pool the passes are chunked and the per-bucket
  /// fits run as tasks — the result is bit-identical at any pool size.
  static ConditionalDistribution fit(
      std::span<const std::pair<std::uint64_t, double>> observations,
      ThreadPool* pool = nullptr);

  /// Same fit over column storage: condition i pairs with value_of(i).
  /// Avoids materializing an observation array per attribute (the seed
  /// profile fits eight conditionals against one condition column).
  static ConditionalDistribution fit(
      std::span<const std::uint64_t> conditions,
      const std::function<double(std::size_t)>& value_of,
      ThreadPool* pool = nullptr);

  /// Reassembles from previously fitted parts (deserialization path).
  /// Every key must be below kBucketSlots and appear once.
  static ConditionalDistribution from_parts(
      std::vector<std::pair<std::uint32_t, EmpiricalDistribution>> buckets,
      EmpiricalDistribution marginal);

  [[nodiscard]] std::size_t bucket_count() const noexcept;
  /// Whether p(value | bucket) was observed. Sampling an unobserved bucket
  /// draws from the marginal instead (PropertySampler, gen/properties.hpp).
  [[nodiscard]] bool has_bucket(std::uint32_t bucket) const noexcept {
    return bucket < kBucketSlots && by_bucket_[bucket].has_value();
  }
  [[nodiscard]] const EmpiricalDistribution& marginal() const {
    return *marginal_;
  }
  [[nodiscard]] const EmpiricalDistribution& bucket(std::uint32_t b) const;

  /// Observed bucket keys, ascending (for serialization and inspection).
  [[nodiscard]] std::vector<std::uint32_t> bucket_keys() const;

 private:
  std::array<std::optional<EmpiricalDistribution>, kBucketSlots> by_bucket_;
  std::shared_ptr<EmpiricalDistribution> marginal_;
};

}  // namespace csb
