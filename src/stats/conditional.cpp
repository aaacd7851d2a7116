#include "stats/conditional.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace csb {

namespace {

/// Observations per fixed chunk in the count and scatter passes.
constexpr std::size_t kFitChunk = 1 << 14;

}  // namespace

namespace {

/// Shared fit core over (cond_of(i), value_of(i)) columns. Two passes:
/// per-chunk bucket counts give exact reservations and per-chunk write
/// offsets (accumulated in chunk order), then the scatter pass fills each
/// bucket in input order — the grouping the old std::map-of-vectors built,
/// without its rehashing or vector growth. Per-bucket fits and the
/// marginal run as parallel_tasks with a null inner pool; only this driver
/// waits, so tasks never wait on the pool they run on.
template <typename CondFn, typename ValueFn>
ConditionalDistribution fit_impl(std::size_t n, const CondFn& cond_of,
                                 const ValueFn& value_of, ThreadPool* pool) {
  CSB_CHECK_MSG(n > 0, "ConditionalDistribution requires observations");
  constexpr std::size_t kSlots = ConditionalDistribution::kBucketSlots;
  const auto chunks = make_fixed_chunks(0, n, kFitChunk);
  std::vector<std::array<std::uint64_t, kSlots>> counts(chunks.size());
  parallel_for_fixed_chunks(
      pool, 0, n, kFitChunk, [&](const ChunkRange& chunk) {
        auto& local = counts[chunk.chunk_index];
        local.fill(0);
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          ++local[ConditionalDistribution::bucket_of(cond_of(i))];
        }
      });

  std::array<std::uint64_t, kSlots> running{};
  std::vector<std::array<std::uint64_t, kSlots>> offsets(chunks.size());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    offsets[c] = running;
    for (std::size_t b = 0; b < kSlots; ++b) running[b] += counts[c][b];
  }

  std::array<std::vector<std::pair<double, double>>, kSlots> grouped;
  for (std::size_t b = 0; b < kSlots; ++b) grouped[b].resize(running[b]);
  std::vector<std::pair<double, double>> all(n);
  parallel_for_fixed_chunks(
      pool, 0, n, kFitChunk, [&](const ChunkRange& chunk) {
        auto at = offsets[chunk.chunk_index];
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          const double value = value_of(i);
          const std::uint32_t b =
              ConditionalDistribution::bucket_of(cond_of(i));
          grouped[b][at[b]++] = {value, 1.0};
          all[i] = {value, 1.0};
        }
      });

  std::vector<std::uint32_t> keys;
  for (std::size_t b = 0; b < kSlots; ++b) {
    if (!grouped[b].empty()) keys.push_back(static_cast<std::uint32_t>(b));
  }
  std::vector<std::optional<EmpiricalDistribution>> fitted(keys.size());
  std::optional<EmpiricalDistribution> marginal;
  std::vector<std::function<void()>> fits;
  fits.reserve(keys.size() + 1);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    fits.emplace_back([&grouped, &fitted, &keys, k] {
      fitted[k] = EmpiricalDistribution::from_weighted(
          std::move(grouped[keys[k]]), nullptr);
    });
  }
  fits.emplace_back([&all, &marginal] {
    marginal = EmpiricalDistribution::from_weighted(std::move(all), nullptr);
  });
  parallel_tasks(pool, fits);

  // Buckets ascend, matching the old std::map iteration order.
  std::vector<std::pair<std::uint32_t, EmpiricalDistribution>> buckets;
  buckets.reserve(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    buckets.emplace_back(keys[k], std::move(*fitted[k]));
  }
  return ConditionalDistribution::from_parts(std::move(buckets),
                                             std::move(*marginal));
}

}  // namespace

ConditionalDistribution ConditionalDistribution::fit(
    std::span<const std::pair<std::uint64_t, double>> observations,
    ThreadPool* pool) {
  return fit_impl(
      observations.size(),
      [observations](std::size_t i) { return observations[i].first; },
      [observations](std::size_t i) { return observations[i].second; },
      pool);
}

ConditionalDistribution ConditionalDistribution::fit(
    std::span<const std::uint64_t> conditions,
    const std::function<double(std::size_t)>& value_of, ThreadPool* pool) {
  return fit_impl(
      conditions.size(),
      [conditions](std::size_t i) { return conditions[i]; },
      [&value_of](std::size_t i) { return value_of(i); }, pool);
}

std::size_t ConditionalDistribution::bucket_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(by_bucket_.begin(), by_bucket_.end(),
                    [](const auto& slot) { return slot.has_value(); }));
}

const EmpiricalDistribution& ConditionalDistribution::bucket(
    std::uint32_t b) const {
  CSB_CHECK_MSG(has_bucket(b), "unknown condition bucket " << b);
  return *by_bucket_[b];
}

std::vector<std::uint32_t> ConditionalDistribution::bucket_keys() const {
  std::vector<std::uint32_t> keys;
  for (std::uint32_t b = 0; b < kBucketSlots; ++b) {
    if (has_bucket(b)) keys.push_back(b);
  }
  return keys;
}

ConditionalDistribution ConditionalDistribution::from_parts(
    std::vector<std::pair<std::uint32_t, EmpiricalDistribution>> buckets,
    EmpiricalDistribution marginal) {
  ConditionalDistribution dist;
  for (auto& [key, empirical] : buckets) {
    CSB_CHECK_MSG(key < kBucketSlots && !dist.by_bucket_[key].has_value(),
                  "condition bucket " << key << " out of range or repeated");
    dist.by_bucket_[key] = std::move(empirical);
  }
  dist.marginal_ =
      std::make_shared<EmpiricalDistribution>(std::move(marginal));
  return dist;
}

}  // namespace csb
