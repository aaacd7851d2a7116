// Unit and property tests for src/stats: alias sampling, histograms,
// empirical/conditional distributions, power-law fitting, distances.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "stats/alias_table.hpp"
#include "stats/conditional.hpp"
#include "stats/descriptive.hpp"
#include "stats/distance.hpp"
#include "stats/empirical.hpp"
#include "stats/histogram.hpp"
#include "stats/power_law.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace csb {
namespace {

// ------------------------------------------------------------ alias table

class AliasWeightsTest
    : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(AliasWeightsTest, EmpiricalFrequenciesMatchWeights) {
  const auto weights = GetParam();
  const AliasTable table(weights);
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  Rng rng(11);
  std::vector<int> counts(weights.size(), 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[table.sample(rng)];
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = weights[i] / total;
    const double observed = static_cast<double>(counts[i]) / kDraws;
    EXPECT_NEAR(observed, expected, 0.01) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Weights, AliasWeightsTest,
    ::testing::Values(std::vector<double>{1.0},
                      std::vector<double>{1.0, 1.0},
                      std::vector<double>{0.1, 0.9},
                      std::vector<double>{5.0, 1.0, 1.0, 1.0},
                      std::vector<double>{0.0, 1.0, 0.0, 3.0},
                      std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));

TEST(AliasTableTest, RejectsEmptyAndNegativeAndZeroTotal) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), CsbError);
  EXPECT_THROW(AliasTable(std::vector<double>{1.0, -0.5}), CsbError);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}), CsbError);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  const AliasTable table(std::vector<double>{0.0, 1.0});
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(table.sample(rng), 1u);
}

// -------------------------------------------------------------- histogram

TEST(HistogramTest, BinsAndFractions) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);
  h.add(3.0);
  h.add(3.5);
  h.add(9.9);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 2.0);
  EXPECT_DOUBLE_EQ(h.count(4), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(HistogramTest, OutOfRangeClampsToEdgeBins) {
  Histogram h(0.0, 10.0, 2);
  h.add(-5.0);
  h.add(50.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
}

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), CsbError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), CsbError);
}

struct Log2Case {
  std::uint64_t value;
  std::size_t bin;
};

class Log2HistogramTest : public ::testing::TestWithParam<Log2Case> {};

TEST_P(Log2HistogramTest, MapsValueToBin) {
  Log2Histogram h;
  h.add(GetParam().value);
  EXPECT_DOUBLE_EQ(h.count(GetParam().bin), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Cases, Log2HistogramTest,
                         ::testing::Values(Log2Case{1, 0}, Log2Case{2, 1},
                                           Log2Case{3, 1}, Log2Case{4, 2},
                                           Log2Case{7, 2}, Log2Case{8, 3},
                                           Log2Case{1023, 9},
                                           Log2Case{1024, 10}));

TEST(Log2HistogramTest, ZeroGoesToUnderflow) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  EXPECT_DOUBLE_EQ(h.zero_count(), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 2.0);
}

TEST(Log2HistogramTest, BinCenterIsGeometric) {
  EXPECT_NEAR(Log2Histogram::bin_center(0), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(Log2Histogram::bin_center(3), std::sqrt(8.0 * 16.0), 1e-9);
}

// -------------------------------------------------------------- empirical

TEST(EmpiricalTest, PmfAndMomentsFromSamples) {
  const std::vector<double> samples = {1, 1, 2, 4};
  const auto dist = EmpiricalDistribution::from_samples(samples);
  EXPECT_EQ(dist.support_size(), 3u);
  EXPECT_DOUBLE_EQ(dist.pmf(1), 0.5);
  EXPECT_DOUBLE_EQ(dist.pmf(2), 0.25);
  EXPECT_DOUBLE_EQ(dist.pmf(4), 0.25);
  EXPECT_DOUBLE_EQ(dist.pmf(3), 0.0);
  EXPECT_DOUBLE_EQ(dist.mean(), 2.0);
  EXPECT_DOUBLE_EQ(dist.min(), 1.0);
  EXPECT_DOUBLE_EQ(dist.max(), 4.0);
}

TEST(EmpiricalTest, QuantileSteps) {
  const auto dist =
      EmpiricalDistribution::from_samples(std::vector<double>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(dist.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dist.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(dist.quantile(0.26), 2.0);
  EXPECT_DOUBLE_EQ(dist.quantile(1.0), 4.0);
}

TEST(EmpiricalTest, SamplingMatchesPmf) {
  const auto dist = EmpiricalDistribution::from_weighted(
      {{10.0, 0.7}, {20.0, 0.2}, {30.0, 0.1}});
  Rng rng(9);
  int count10 = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (dist.sample(rng) == 10.0) ++count10;
  }
  EXPECT_NEAR(static_cast<double>(count10) / kDraws, 0.7, 0.01);
}

TEST(EmpiricalTest, WeightedMergesDuplicates) {
  const auto dist = EmpiricalDistribution::from_weighted(
      {{5.0, 1.0}, {5.0, 3.0}, {6.0, 4.0}});
  EXPECT_EQ(dist.support_size(), 2u);
  EXPECT_DOUBLE_EQ(dist.pmf(5.0), 0.5);
}

TEST(EmpiricalTest, DropsZeroWeightValues) {
  const auto dist =
      EmpiricalDistribution::from_weighted({{1.0, 0.0}, {2.0, 1.0}});
  EXPECT_EQ(dist.support_size(), 1u);
}

TEST(EmpiricalTest, RejectsInvalidInput) {
  EXPECT_THROW(EmpiricalDistribution::from_samples(std::vector<double>{}),
               CsbError);
  EXPECT_THROW(EmpiricalDistribution::from_weighted({{1.0, -1.0}}), CsbError);
  EXPECT_THROW(EmpiricalDistribution::from_weighted({{1.0, 0.0}}), CsbError);
}

TEST(EmpiricalTest, VarianceMatchesDefinition) {
  const auto dist =
      EmpiricalDistribution::from_samples(std::vector<double>{2, 4});
  EXPECT_DOUBLE_EQ(dist.variance(), 1.0);  // E[(x-3)^2] with mass 1/2 each
}

// ------------------------------------------------------------ conditional

struct BucketCase {
  std::uint64_t condition;
  std::uint32_t bucket;
};

// Names a case `<condition>_to_<bucket>`. Without a printer gtest dumps the
// struct's bytes, its uninitialized tail padding included, and ctest takes
// the test name from that dump.
void PrintTo(const BucketCase& c, std::ostream* os) {
  *os << c.condition << "_to_" << c.bucket;
}

class BucketOfTest : public ::testing::TestWithParam<BucketCase> {};

TEST_P(BucketOfTest, Maps) {
  EXPECT_EQ(ConditionalDistribution::bucket_of(GetParam().condition),
            GetParam().bucket);
}

INSTANTIATE_TEST_SUITE_P(Cases, BucketOfTest,
                         ::testing::Values(BucketCase{0, 0}, BucketCase{1, 1},
                                           BucketCase{2, 2}, BucketCase{3, 2},
                                           BucketCase{4, 3},
                                           BucketCase{1024, 11},
                                           BucketCase{1ULL << 40, 41}));

TEST(ConditionalTest, SamplesFromMatchingBucketOnly) {
  // Condition < 2 -> value 100; condition >= 1024 -> value 900.
  std::vector<std::pair<std::uint64_t, double>> obs;
  for (int i = 0; i < 50; ++i) obs.emplace_back(1, 100.0);
  for (int i = 0; i < 50; ++i) obs.emplace_back(2048, 900.0);
  const auto dist = ConditionalDistribution::fit(obs);
  const auto low = ConditionalDistribution::bucket_of(1);
  const auto high = ConditionalDistribution::bucket_of(2048);
  // 3000 lands in the same log2 bucket as 2048.
  EXPECT_EQ(ConditionalDistribution::bucket_of(3000), high);
  EXPECT_EQ(dist.bucket_keys(), (std::vector<std::uint32_t>{low, high}));
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    EXPECT_DOUBLE_EQ(dist.bucket(low).sample(rng), 100.0);
    EXPECT_DOUBLE_EQ(dist.bucket(high).sample(rng), 900.0);
  }
}

TEST(ConditionalTest, FallsBackToMarginalForUnseenBucket) {
  std::vector<std::pair<std::uint64_t, double>> obs = {{1, 5.0}, {1, 5.0}};
  const auto dist = ConditionalDistribution::fit(obs);
  // Bucket of 1e6 was never observed, so a draw there takes the marginal
  // (PropertySamplerTest.UnseenBucketDrawsFromMarginal samples it), which
  // only contains 5.0.
  EXPECT_FALSE(dist.has_bucket(ConditionalDistribution::bucket_of(1'000'000)));
  EXPECT_EQ(dist.marginal().values(), std::vector<double>{5.0});
}

TEST(ConditionalTest, TracksBucketCount) {
  std::vector<std::pair<std::uint64_t, double>> obs = {
      {0, 1.0}, {1, 2.0}, {9, 3.0}, {9, 4.0}};
  const auto dist = ConditionalDistribution::fit(obs);
  EXPECT_EQ(dist.bucket_count(), 3u);  // buckets 0, 1, 4
  EXPECT_TRUE(dist.has_bucket(0));
  EXPECT_TRUE(dist.has_bucket(4));
  EXPECT_FALSE(dist.has_bucket(7));
}

TEST(ConditionalTest, RejectsEmpty) {
  EXPECT_THROW(
      ConditionalDistribution::fit(
          std::vector<std::pair<std::uint64_t, double>>{}),
      CsbError);
}

// ----------------------------------------- deterministic parallel fitting

TEST(EmpiricalTest, ParallelFromSamplesMatchesSerial) {
  // Enough samples to span several sort chunks, with heavy duplication so
  // chunk-boundary run accumulation is exercised. Exact (bitwise) equality
  // is the contract, not approximate.
  Rng rng(17);
  std::vector<double> samples(100'000);
  for (auto& s : samples) s = std::floor(rng.uniform_double() * 500.0);
  const auto serial = EmpiricalDistribution::from_samples(samples);
  ThreadPool pool(4);
  const auto parallel = EmpiricalDistribution::from_samples(samples, &pool);
  EXPECT_EQ(serial.values(), parallel.values());
  EXPECT_EQ(serial.probabilities(), parallel.probabilities());
  EXPECT_EQ(serial.mean(), parallel.mean());
  EXPECT_EQ(serial.variance(), parallel.variance());
}

TEST(ConditionalTest, ParallelFitMatchesSerial) {
  // Spans several fit chunks and many log2 buckets; serial and pooled fits
  // must agree exactly on every bucket and the marginal.
  Rng rng(23);
  std::vector<std::pair<std::uint64_t, double>> obs(120'000);
  for (auto& [c, v] : obs) {
    c = static_cast<std::uint64_t>(rng.uniform_double() * (1 << 20));
    v = std::floor(rng.uniform_double() * 300.0);
  }
  const auto serial = ConditionalDistribution::fit(obs);
  ThreadPool pool(4);
  const auto parallel = ConditionalDistribution::fit(obs, &pool);
  ASSERT_EQ(serial.bucket_keys(), parallel.bucket_keys());
  for (const auto b : serial.bucket_keys()) {
    EXPECT_EQ(serial.bucket(b).values(), parallel.bucket(b).values());
    EXPECT_EQ(serial.bucket(b).probabilities(),
              parallel.bucket(b).probabilities());
  }
  EXPECT_EQ(serial.marginal().values(), parallel.marginal().values());
  EXPECT_EQ(serial.marginal().probabilities(),
            parallel.marginal().probabilities());
}

TEST(ConditionalTest, ColumnFitMatchesPairFit) {
  Rng rng(29);
  std::vector<std::uint64_t> conditions(5'000);
  std::vector<double> values(conditions.size());
  std::vector<std::pair<std::uint64_t, double>> obs(conditions.size());
  for (std::size_t i = 0; i < conditions.size(); ++i) {
    conditions[i] = static_cast<std::uint64_t>(rng.uniform_double() * 4096.0);
    values[i] = std::floor(rng.uniform_double() * 64.0);
    obs[i] = {conditions[i], values[i]};
  }
  const auto from_pairs = ConditionalDistribution::fit(obs);
  const auto from_columns = ConditionalDistribution::fit(
      conditions, [&](std::size_t i) { return values[i]; });
  ASSERT_EQ(from_pairs.bucket_keys(), from_columns.bucket_keys());
  for (const auto b : from_pairs.bucket_keys()) {
    EXPECT_EQ(from_pairs.bucket(b).values(), from_columns.bucket(b).values());
    EXPECT_EQ(from_pairs.bucket(b).probabilities(),
              from_columns.bucket(b).probabilities());
  }
  EXPECT_EQ(from_pairs.marginal().values(), from_columns.marginal().values());
}

// -------------------------------------------------------------- power law

class PowerLawRecoveryTest : public ::testing::TestWithParam<double> {};

TEST_P(PowerLawRecoveryTest, MleRecoversAlpha) {
  // The discrete continuous-approximation MLE is accurate for xmin >~ 6
  // (Clauset et al. 2009, Table 3); test in its validity domain.
  const double alpha = GetParam();
  const double xmin = 10.0;
  Rng rng(100 + static_cast<std::uint64_t>(alpha * 10));
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(
        static_cast<double>(sample_power_law(rng, alpha, xmin)));
  }
  const double fitted = fit_power_law_alpha(samples, xmin);
  EXPECT_NEAR(fitted, alpha, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Alphas, PowerLawRecoveryTest,
                         ::testing::Values(1.8, 2.1, 2.5, 3.0));

TEST(PowerLawTest, FullFitFindsSmallKs) {
  Rng rng(55);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(static_cast<double>(sample_power_law(rng, 2.3, 8.0)));
  }
  const PowerLawFit fit = fit_power_law(samples);
  EXPECT_LT(fit.ks, 0.05);
  EXPECT_GT(fit.alpha, 1.8);
  EXPECT_LT(fit.alpha, 2.8);
  EXPECT_GT(fit.tail_n, 50u);
}

TEST(PowerLawTest, KsLargeForNonPowerLaw) {
  // Uniform integers in [1, 100] are far from any power law.
  Rng rng(66);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(static_cast<double>(1 + rng.uniform(100)));
  }
  const double alpha = fit_power_law_alpha(samples, 1.0);
  EXPECT_GT(power_law_ks(samples, alpha, 1.0), 0.1);
}

TEST(PowerLawTest, SampleRespectsXmin) {
  Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(sample_power_law(rng, 2.5, 5.0), 5u);
  }
}

TEST(PowerLawTest, RejectsBadArguments) {
  EXPECT_THROW(fit_power_law_alpha(std::vector<double>{2, 3}, 0.5), CsbError);
  Rng rng(1);
  EXPECT_THROW(sample_power_law(rng, 1.0), CsbError);
  EXPECT_THROW(fit_power_law(std::vector<double>{}), CsbError);
}

// --------------------------------------------------------------- distance

TEST(DistanceTest, NormalizeBySum) {
  const auto out = normalize_by_sum(std::vector<double>{1.0, 3.0});
  EXPECT_DOUBLE_EQ(out[0], 0.25);
  EXPECT_DOUBLE_EQ(out[1], 0.75);
  EXPECT_THROW(normalize_by_sum(std::vector<double>{}), CsbError);
  EXPECT_THROW(normalize_by_sum(std::vector<double>{0.0, 0.0}), CsbError);
}

TEST(DistanceTest, SortedQuantileInterpolates) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(sorted_quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(sorted_quantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(sorted_quantile(v, 1.0), 10.0);
  const std::vector<double> single = {7.0};
  EXPECT_DOUBLE_EQ(sorted_quantile(single, 0.3), 7.0);
}

TEST(DistanceTest, QuantileEuclideanIdenticalIsZero) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile_euclidean_distance(v, v), 0.0);
}

TEST(DistanceTest, QuantileEuclideanDetectsShift) {
  const std::vector<double> a = {1, 2, 3, 4, 5};
  std::vector<double> b;
  for (const double x : a) b.push_back(x + 2.0);
  EXPECT_NEAR(quantile_euclidean_distance(a, b), 2.0, 1e-9);
}

TEST(DistanceTest, QuantileEuclideanHandlesDifferentSizes) {
  const std::vector<double> a = {1, 1, 1, 1, 1, 1};
  const std::vector<double> b = {1, 1};
  EXPECT_DOUBLE_EQ(quantile_euclidean_distance(a, b), 0.0);
}

TEST(DistanceTest, KsIdenticalZeroDisjointOne) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {10, 20, 30};
  EXPECT_DOUBLE_EQ(ks_distance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(ks_distance(a, b), 1.0);
}

TEST(DistanceTest, KsHalfOverlap) {
  const std::vector<double> a = {1, 2};
  const std::vector<double> b = {2, 3};
  EXPECT_DOUBLE_EQ(ks_distance(a, b), 0.5);
}

// ------------------------------------------------------------ descriptive

TEST(RunningStatsTest, MatchesDirectComputation) {
  RunningStats stats;
  const std::vector<double> xs = {3, 1, 4, 1, 5, 9, 2, 6};
  for (const double x : xs) stats.add(x);
  EXPECT_EQ(stats.count(), xs.size());
  EXPECT_DOUBLE_EQ(stats.sum(), 31.0);
  EXPECT_NEAR(stats.mean(), 3.875, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  // Sample variance, direct formula.
  double m2 = 0.0;
  for (const double x : xs) m2 += (x - 3.875) * (x - 3.875);
  EXPECT_NEAR(stats.variance(), m2 / (xs.size() - 1), 1e-12);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    a.add(i * 1.5);
    all.add(i * 1.5);
  }
  for (int i = 50; i < 120; ++i) {
    b.add(i * 0.25);
    all.add(i * 0.25);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.add(5.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

}  // namespace
}  // namespace csb
