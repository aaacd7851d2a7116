// Unit tests for src/mr: list scheduling, the virtual-cluster simulator,
// Dataset transformations, and the ExternalDistinct dedup fed by cluster
// stage tasks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <span>
#include <string>
#include <thread>

#include "mr/cluster.hpp"
#include "mr/dataset.hpp"
#include "store/external_sort.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace csb {
namespace {

// -------------------------------------------------------- list scheduling

struct ScheduleCase {
  std::vector<double> durations;
  std::size_t slots;
  double makespan;
};

// Names a case by its durations and slot count, e.g.
// `durations_3_1_1_1_slots_2`. Without a printer gtest dumps the struct's
// bytes, the vector's heap pointers included, and ctest takes the test
// name from that dump, so the name would change from run to run.
void PrintTo(const ScheduleCase& c, std::ostream* os) {
  *os << "durations";
  if (c.durations.empty()) *os << "_none";
  for (const double d : c.durations) *os << '_' << d;
  *os << "_slots_" << c.slots;
}

class ListScheduleTest : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(ListScheduleTest, ComputesMakespan) {
  const auto& c = GetParam();
  EXPECT_NEAR(list_schedule_makespan(c.durations, c.slots), c.makespan, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ListScheduleTest,
    ::testing::Values(
        ScheduleCase{{}, 4, 0.0},
        ScheduleCase{{5.0}, 1, 5.0},
        ScheduleCase{{5.0}, 8, 5.0},
        ScheduleCase{{1, 1, 1, 1}, 2, 2.0},
        ScheduleCase{{1, 1, 1, 1}, 4, 1.0},
        ScheduleCase{{3, 1, 1, 1}, 2, 3.0},
        // Greedy order matters: tasks assigned in sequence to the least
        // loaded slot.
        ScheduleCase{{2, 2, 3}, 2, 5.0}));

TEST(ListScheduleTest, MoreSlotsNeverSlower) {
  const std::vector<double> durations = {3, 1, 4, 1, 5, 9, 2, 6};
  double prev = 1e18;
  for (std::size_t slots = 1; slots <= 8; ++slots) {
    const double makespan = list_schedule_makespan(durations, slots);
    EXPECT_LE(makespan, prev);
    prev = makespan;
  }
}

TEST(ListScheduleTest, RejectsZeroSlots) {
  EXPECT_THROW(list_schedule_makespan({1.0}, 0), CsbError);
}

// ------------------------------------------------------------ ClusterSim

TEST(ClusterSimTest, StageMetricsAccumulate) {
  ClusterSim cluster(ClusterConfig{.nodes = 2, .cores_per_node = 2});
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back([&ran] { ++ran; });
  const StageMetrics stage = cluster.run_stage("s", std::move(tasks));
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(stage.tasks, 8u);
  EXPECT_GE(stage.task_seconds, stage.makespan_seconds);
  EXPECT_EQ(cluster.metrics().stages, 1u);
  EXPECT_EQ(cluster.metrics().tasks, 8u);
}

TEST(ClusterSimTest, SerialTimeCountsFully) {
  ClusterSim cluster(ClusterConfig{.nodes = 4, .cores_per_node = 4});
  cluster.run_serial("driver", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  EXPECT_GE(cluster.metrics().serial_seconds, 0.005);
  EXPECT_DOUBLE_EQ(cluster.metrics().simulated_seconds,
                   cluster.metrics().serial_seconds);
}

TEST(ClusterSimTest, SerialSegmentsAreRecordedByName) {
  ClusterSim cluster(ClusterConfig{.nodes = 2, .cores_per_node = 2});
  const auto spin = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  cluster.run_serial("collapse", spin);
  cluster.run_serial("kronfit", spin);
  cluster.run_serial("kronfit", spin);  // repeated names aggregate
  const auto& segments = cluster.metrics().serial_segments;
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].name, "collapse");
  EXPECT_EQ(segments[1].name, "kronfit");
  // sleep_for on a steady clock sleeps at least its duration, so these
  // lower bounds hold under any load; kronfit's proves the repeated name
  // aggregated both sleeps.
  EXPECT_GE(segments[0].seconds, 0.002);
  EXPECT_GE(segments[1].seconds, 0.004);
  // The named breakdown sums to the serial total.
  EXPECT_NEAR(segments[0].seconds + segments[1].seconds,
              cluster.metrics().serial_seconds, 1e-12);
  cluster.reset_metrics();
  EXPECT_TRUE(cluster.metrics().serial_segments.empty());
}

TEST(ClusterSimTest, MoreVirtualCoresShrinkSimulatedTime) {
  const auto run = [](std::size_t nodes) {
    ClusterSim cluster(ClusterConfig{.nodes = nodes, .cores_per_node = 1});
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 32; ++i) {
      tasks.push_back([] {
        volatile double x = 0;
        for (int k = 0; k < 400000; ++k) x = x + k;
      });
    }
    cluster.run_stage("work", std::move(tasks));
    return cluster.metrics().simulated_seconds;
  };
  const double t1 = run(1);
  const double t8 = run(8);
  EXPECT_LT(t8, t1);             // strong scaling in virtual time
  EXPECT_GT(t8, t1 / 32.0);      // but bounded by the task structure
}

TEST(ClusterSimTest, StageExceptionPropagates) {
  ClusterSim cluster(ClusterConfig{.nodes = 1, .cores_per_node = 2});
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] {});
  tasks.push_back([] { throw CsbError("task failed"); });
  EXPECT_THROW(cluster.run_stage("bad", std::move(tasks)), CsbError);
}

// The stage runner shares the fork-join contract: whatever the pool size,
// the error of the lowest failing task surfaces (task 3 fails first in
// time, task 1 wins), and only after every task has finished.
TEST(ClusterSimTest, StageRethrowsLowestFailingTask) {
  for (const std::size_t threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    ClusterSim cluster(ClusterConfig{.nodes = 2, .cores_per_node = 4}, pool);
    std::vector<std::function<void()>> tasks(5, [] {});
    tasks[1] = [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw CsbError("task 1");
    };
    tasks[3] = [] { throw CsbError("task 3"); };
    try {
      cluster.run_stage("bad", std::move(tasks));
      ADD_FAILURE() << threads << " threads: nothing thrown";
    } catch (const CsbError& e) {
      EXPECT_EQ(std::string(e.what()), "task 1") << threads << " threads";
    }
  }
}

TEST(ClusterSimTest, StageWaitsForSlowTaskBeforeRethrowing) {
  for (const std::size_t threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    ClusterSim cluster(ClusterConfig{.nodes = 1, .cores_per_node = 2}, pool);
    bool slow_done = false;  // ordered by the join's latch, not an atomic
    std::vector<std::function<void()>> tasks;
    tasks.push_back([] { throw CsbError("fast failure"); });
    tasks.push_back([&slow_done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      slow_done = true;
    });
    EXPECT_THROW(cluster.run_stage("bad", std::move(tasks)), CsbError);
    EXPECT_TRUE(slow_done) << threads << " threads";
  }
}

TEST(ClusterSimTest, ResetClearsMetrics) {
  ClusterSim cluster(ClusterConfig{.nodes = 1, .cores_per_node = 1});
  cluster.run_serial("x", [] {});
  cluster.reset_metrics();
  EXPECT_DOUBLE_EQ(cluster.metrics().simulated_seconds, 0.0);
  EXPECT_EQ(cluster.metrics().stages, 0u);
}

TEST(ClusterSimTest, NodeOfPartitionRoundRobin) {
  ClusterSim cluster(ClusterConfig{.nodes = 3, .cores_per_node = 1});
  EXPECT_EQ(cluster.node_of_partition(0), 0u);
  EXPECT_EQ(cluster.node_of_partition(4), 1u);
  EXPECT_EQ(cluster.node_of_partition(8), 2u);
}

TEST(ClusterSimTest, RejectsEmptyConfig) {
  EXPECT_THROW(ClusterSim(ClusterConfig{.nodes = 0, .cores_per_node = 1}),
               CsbError);
}

// --------------------------------------------------------------- Dataset

ClusterConfig small_cluster() { return ClusterConfig{.nodes = 2, .cores_per_node = 2}; }

TEST(DatasetTest, FromVectorBalancesPartitions) {
  ClusterSim cluster(small_cluster());
  std::vector<int> data(10);
  std::iota(data.begin(), data.end(), 0);
  const auto ds = Dataset<int>::from_vector(cluster, data, 3);
  EXPECT_EQ(ds.num_partitions(), 3u);
  EXPECT_EQ(ds.count(), 10u);
  EXPECT_EQ(ds.partition(0).size(), 4u);
  EXPECT_EQ(ds.partition(1).size(), 3u);
  EXPECT_EQ(ds.partition(2).size(), 3u);
  EXPECT_EQ(ds.collect(), data);
}

TEST(DatasetTest, GenerateBuildsPartitionsInParallel) {
  ClusterSim cluster(small_cluster());
  const auto ds = Dataset<std::size_t>::generate(
      cluster, 4, [](std::size_t p) {
        return std::vector<std::size_t>(p + 1, p);
      });
  EXPECT_EQ(ds.count(), 1u + 2 + 3 + 4);
  EXPECT_EQ(ds.partition(3).size(), 4u);
  EXPECT_EQ(ds.partition(3).front(), 3u);
}

TEST(DatasetTest, MapTransformsEveryElement) {
  ClusterSim cluster(small_cluster());
  const auto ds = Dataset<int>::from_vector(cluster, {1, 2, 3, 4, 5}, 2);
  const auto doubled = ds.map([](const int& x) { return x * 2; });
  EXPECT_EQ(doubled.collect(), (std::vector<int>{2, 4, 6, 8, 10}));
}

TEST(DatasetTest, FilterKeepsMatching) {
  ClusterSim cluster(small_cluster());
  const auto ds = Dataset<int>::from_vector(cluster, {1, 2, 3, 4, 5, 6}, 3);
  const auto even = ds.filter([](const int& x) { return x % 2 == 0; });
  EXPECT_EQ(even.collect(), (std::vector<int>{2, 4, 6}));
}

TEST(DatasetTest, FlatMapExpands) {
  ClusterSim cluster(small_cluster());
  const auto ds = Dataset<int>::from_vector(cluster, {1, 3}, 2);
  const auto repeated = ds.flat_map(
      [](const int& x) { return std::vector<int>(x, x); });
  EXPECT_EQ(repeated.collect(), (std::vector<int>{1, 3, 3, 3}));
}

class DatasetSampleTest : public ::testing::TestWithParam<double> {};

TEST_P(DatasetSampleTest, FractionApproximatelyRespected) {
  const double fraction = GetParam();
  ClusterSim cluster(small_cluster());
  std::vector<int> data(20000, 1);
  const auto ds = Dataset<int>::from_vector(cluster, data, 4);
  const auto sampled = ds.sample(fraction, 7);
  const double expected = fraction * 20000;
  EXPECT_NEAR(static_cast<double>(sampled.count()), expected,
              expected * 0.05 + 50);
}

INSTANTIATE_TEST_SUITE_P(Fractions, DatasetSampleTest,
                         ::testing::Values(0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0));

TEST(DatasetTest, SampleIsDeterministicPerSeed) {
  ClusterSim cluster(small_cluster());
  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 0);
  const auto ds = Dataset<int>::from_vector(cluster, data, 4);
  EXPECT_EQ(ds.sample(0.3, 42).collect(), ds.sample(0.3, 42).collect());
  EXPECT_NE(ds.sample(0.3, 42).collect(), ds.sample(0.3, 43).collect());
}

/// The sealed set's ascending key stream, gathered to one vector.
std::vector<std::uint64_t> scanned(const ExternalDistinct& distinct) {
  std::vector<std::uint64_t> keys;
  distinct.scan([&keys](std::span<const std::uint64_t> chunk) {
    keys.insert(keys.end(), chunk.begin(), chunk.end());
  });
  return keys;
}

TEST(DatasetTest, DistinctRemovesDuplicates) {
  ExternalDistinct distinct(ExternalDistinctOptions{});
  distinct.add(std::vector<std::uint64_t>{5, 1, 5, 2, 1, 5, 9, 2, 2});
  EXPECT_EQ(distinct.seal(), 4u);
  EXPECT_EQ(scanned(distinct), (std::vector<std::uint64_t>{1, 2, 5, 9}));
}

TEST(DatasetTest, DistinctOnAlreadyUniqueKeepsAll) {
  std::vector<std::uint64_t> keys(500);
  std::iota(keys.begin(), keys.end(), 0);
  ExternalDistinct distinct(ExternalDistinctOptions{});
  distinct.add(keys);
  EXPECT_EQ(distinct.seal(), 500u);
  EXPECT_EQ(scanned(distinct), keys);
}

TEST(DatasetTest, DistinctMergesDuplicatesSplitAcrossPartitions) {
  // Every key is added by every stage task, concurrently, each task in its
  // own rotated order; at the minimum budget the copies also land in
  // different spilled runs. All of them must merge to one key each,
  // whichever task and run held them, at any pool size.
  constexpr std::uint64_t kKeys = 40'000;
  constexpr std::size_t kTasks = 4;
  std::vector<std::uint64_t> expected(kKeys);
  std::iota(expected.begin(), expected.end(), 0);
  const std::string spill = ::testing::TempDir() + "/csb_mr_distinct";
  for (const std::size_t workers : {1u, 4u}) {
    ThreadPool pool(workers);
    ClusterSim cluster(small_cluster(), pool);
    ExternalDistinct distinct(
        ExternalDistinctOptions{.spill_directory = spill,
                                .memory_budget_bytes = 1ULL << 19,
                                .pool = &pool});
    std::vector<std::function<void()>> tasks;
    for (std::size_t t = 0; t < kTasks; ++t) {
      tasks.push_back([&distinct, t] {
        std::vector<std::uint64_t> keys(kKeys);
        for (std::uint64_t i = 0; i < kKeys; ++i) {
          keys[i] = (i + t * kKeys / kTasks) % kKeys;
        }
        for (std::size_t at = 0; at < kKeys; at += 4096) {
          distinct.add(std::span<const std::uint64_t>(keys).subspan(
              at, std::min<std::size_t>(4096, kKeys - at)));
        }
      });
    }
    cluster.run_stage("store:distinct", std::move(tasks));
    EXPECT_EQ(distinct.seal(), kKeys) << workers << " workers";
    EXPECT_GT(distinct.spilled_runs(), 0u) << workers << " workers";
    EXPECT_EQ(scanned(distinct), expected) << workers << " workers";
  }
  std::filesystem::remove_all(spill);
}

TEST(DatasetTest, DistinctIsDeterministic) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 300; ++i) keys.push_back(i % 97);
  // The scanned stream is the ascending key set: a function of the key
  // multiset alone, so arrival order and batching do not change it.
  ExternalDistinct batch(ExternalDistinctOptions{});
  batch.add(keys);
  batch.seal();
  ExternalDistinct one_by_one(ExternalDistinctOptions{});
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    one_by_one.add(std::span<const std::uint64_t>(&*it, 1));
  }
  one_by_one.seal();
  EXPECT_EQ(scanned(batch), scanned(one_by_one));
  EXPECT_EQ(batch.unique_count(), 97u);
}

TEST(DatasetTest, SampleFractionTwoEmitsExactlyTwoCopies) {
  ClusterSim cluster(small_cluster());
  std::vector<int> data(200);
  std::iota(data.begin(), data.end(), 0);
  const auto ds = Dataset<int>::from_vector(cluster, data, 4);
  // fraction = 2.0 has no fractional part: every element is emitted exactly
  // twice (the PGPBA Kronecker-parity configuration), no randomness at all.
  const auto doubled = ds.sample(2.0, 123);
  EXPECT_EQ(doubled.count(), 400u);
  auto values = doubled.collect();
  std::sort(values.begin(), values.end());
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(values[2 * i], i);
    EXPECT_EQ(values[2 * i + 1], i);
  }
}

TEST(DatasetTest, ConcatMoveMatchesConcat) {
  ClusterSim cluster(small_cluster());
  auto a = Dataset<int>::from_vector(cluster, {1, 2, 3, 4}, 2);
  auto b = Dataset<int>::from_vector(cluster, {5, 6}, 2);
  const auto joined = Dataset<int>::concat_move(std::move(a), std::move(b));
  EXPECT_EQ(joined.num_partitions(), 4u);
  EXPECT_EQ(joined.collect(), (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(DatasetTest, CoalescedPreservesElementsAndOrder) {
  ClusterSim cluster(small_cluster());
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  const auto coalesced =
      Dataset<int>::from_vector(cluster, data, 10).coalesced(3);
  EXPECT_EQ(coalesced.num_partitions(), 3u);
  EXPECT_EQ(coalesced.collect(), data);
  // Already at/below the target: no-op, partition count unchanged.
  EXPECT_EQ(Dataset<int>::from_vector(cluster, data, 2).coalesced(3)
                .num_partitions(),
            2u);
}

TEST(DatasetTest, ConcatJoinsPartitions) {
  ClusterSim cluster(small_cluster());
  auto a = Dataset<int>::from_vector(cluster, {1, 2}, 1);
  auto b = Dataset<int>::from_vector(cluster, {3}, 1);
  const auto joined = Dataset<int>::concat_move(std::move(a), std::move(b));
  EXPECT_EQ(joined.num_partitions(), 2u);
  EXPECT_EQ(joined.collect(), (std::vector<int>{1, 2, 3}));
}

TEST(DatasetTest, BytesAndPerNodeBytes) {
  ClusterSim cluster(ClusterConfig{.nodes = 2, .cores_per_node = 1});
  const auto ds = Dataset<std::uint64_t>::from_vector(
      cluster, std::vector<std::uint64_t>(100, 1), 4);
  EXPECT_EQ(ds.bytes(), 100 * sizeof(std::uint64_t));
  const auto per_node = ds.per_node_bytes();
  ASSERT_EQ(per_node.size(), 2u);
  EXPECT_EQ(per_node[0] + per_node[1], ds.bytes());
  EXPECT_EQ(per_node[0], per_node[1]);  // 25+25 elements each
}

TEST(DatasetTest, OperationsRecordStages) {
  ClusterSim cluster(small_cluster());
  const auto ds = Dataset<int>::from_vector(cluster, {1, 2, 3}, 2);
  cluster.reset_metrics();
  (void)ds.map([](const int& x) { return x; });
  (void)ds.filter([](const int&) { return true; });
  // map + filter = 2 stages.
  EXPECT_EQ(cluster.metrics().stages, 2u);
}

TEST(DatasetTest, ReduceSumsElements) {
  ClusterSim cluster(small_cluster());
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 1);
  const auto ds = Dataset<int>::from_vector(cluster, data, 7);
  EXPECT_EQ(ds.reduce(0, [](int a, int b) { return a + b; }), 5050);
  EXPECT_EQ(ds.reduce(0, [](int a, int b) { return std::max(a, b); }), 100);
}

TEST(DatasetTest, AggregateWithDifferentResultType) {
  ClusterSim cluster(small_cluster());
  const auto ds = Dataset<int>::from_vector(cluster, {1, 2, 3, 4, 5}, 3);
  // Count odd elements into a u64.
  const auto odd_count = ds.aggregate(
      std::uint64_t{0},
      [](std::uint64_t acc, int x) { return acc + (x % 2); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(odd_count, 3u);
}

TEST(DatasetTest, ReduceOnEmptyPartitionsGivesIdentity) {
  // `identity` must be the combine's neutral element (it seeds every
  // partition and the driver merge).
  ClusterSim cluster(small_cluster());
  std::vector<std::vector<int>> empty(4);
  const Dataset<int> ds(cluster, std::move(empty));
  EXPECT_EQ(ds.reduce(0, [](int a, int b) { return a + b; }), 0);
  EXPECT_EQ(ds.reduce(1, [](int a, int b) { return a * b; }), 1);
}

TEST(DatasetTest, RejectsZeroPartitions) {
  ClusterSim cluster(small_cluster());
  EXPECT_THROW(Dataset<int>::from_vector(cluster, {1}, 0), CsbError);
}

}  // namespace
}  // namespace csb
