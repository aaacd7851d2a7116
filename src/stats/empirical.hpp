// Empirical (data-driven) probability distributions.
//
// The seed-analysis stage (paper Fig. 1) reduces every structural and
// NetFlow attribute of the seed graph to an EmpiricalDistribution; the
// generators then reproduce those attributes by O(1) alias sampling. The
// distribution stores its support as sorted unique values with probability
// masses, so it doubles as the exact PMF for veracity comparisons.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "stats/alias_table.hpp"
#include "util/random.hpp"

namespace csb {

class ThreadPool;

class EmpiricalDistribution {
 public:
  /// Builds from raw samples (duplicates accumulate mass). With a pool the
  /// grouping sort runs over fixed chunks merged in chunk order, so the
  /// fitted distribution is bit-identical for any pool size (null included).
  static EmpiricalDistribution from_samples(std::span<const double> samples,
                                            ThreadPool* pool = nullptr);

  /// Builds from explicit (value, weight) pairs; weights need not be
  /// normalized, values need not be sorted or unique. Equal values
  /// accumulate in input order, so results are bit-identical to the
  /// historical std::map-based accumulation at any pool size.
  static EmpiricalDistribution from_weighted(
      std::vector<std::pair<double, double>> weighted,
      ThreadPool* pool = nullptr);

  /// Draws a value from the empirical PMF. O(1).
  double sample(Rng& rng) const { return values_[alias_->sample(rng)]; }

  /// The alias table sample() draws through; its slot i stands for
  /// values()[i].
  [[nodiscard]] const AliasTable& alias_table() const noexcept {
    return *alias_;
  }

  /// Sorted unique support values.
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }
  /// Probability masses aligned with values(); sums to 1.
  [[nodiscard]] const std::vector<double>& probabilities() const noexcept {
    return probs_;
  }

  [[nodiscard]] std::size_t support_size() const noexcept {
    return values_.size();
  }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept { return variance_; }
  [[nodiscard]] double min() const noexcept { return values_.front(); }
  [[nodiscard]] double max() const noexcept { return values_.back(); }

  /// Smallest support value v with CDF(v) >= q, for q in [0, 1].
  [[nodiscard]] double quantile(double q) const;

  /// Exact PMF lookup; 0 for values outside the support.
  [[nodiscard]] double pmf(double value) const;

 private:
  EmpiricalDistribution() = default;
  void finalize();

  std::vector<double> values_;
  std::vector<double> probs_;
  std::vector<double> cdf_;
  double mean_ = 0.0;
  double variance_ = 0.0;
  // shared_ptr keeps the distribution cheaply copyable; the table is
  // immutable after construction so sharing is safe across threads.
  std::shared_ptr<const AliasTable> alias_;
};

}  // namespace csb
