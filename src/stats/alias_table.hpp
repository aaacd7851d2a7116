// Walker/Vose alias method: O(n) construction, O(1) weighted sampling.
//
// This is the sampling backbone of the property generators — every NetFlow
// attribute of every synthetic edge is drawn through one of these tables, so
// sample() must be constant-time and allocation-free.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/random.hpp"

namespace csb {

class AliasTable {
 public:
  /// Builds the table from nonnegative weights (not necessarily normalized).
  explicit AliasTable(std::span<const double> weights);

  /// Draws an index with probability proportional to its weight. O(1).
  std::size_t sample(Rng& rng) const noexcept {
    const std::size_t bucket = rng.uniform(prob_.size());
    return rng.uniform_double() < prob_[bucket] ? bucket : alias_[bucket];
  }

  [[nodiscard]] std::size_t size() const noexcept { return prob_.size(); }

  /// Slot i keeps its own index when the uniform draw is below
  /// threshold(i), and takes alias(i) otherwise (the two halves of sample).
  [[nodiscard]] double threshold(std::size_t i) const { return prob_[i]; }
  [[nodiscard]] std::uint32_t alias(std::size_t i) const { return alias_[i]; }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

}  // namespace csb
