// Unit tests for src/util: RNG, thread pool, fork-join, formatting,
// hashing, error macros.
#include <gtest/gtest.h>

#include <fcntl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/file_mapping.hpp"
#include "util/flat_set.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/scoped_fd.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace csb {
namespace {

// ---------------------------------------------------------------- random

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkIsDeterministicAndIndependent) {
  Rng parent(7);
  Rng c1 = parent.fork(0);
  Rng c2 = parent.fork(1);
  Rng c1_again = Rng(7).fork(0);
  EXPECT_EQ(c1(), c1_again());
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1() == c2()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkDoesNotAdvanceParent) {
  Rng a(9);
  Rng b(9);
  (void)a.fork(5);
  EXPECT_EQ(a(), b());
}

class RngUniformBoundTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngUniformBoundTest, StaysBelowBound) {
  const std::uint64_t bound = GetParam();
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.uniform(bound), bound);
}

TEST_P(RngUniformBoundTest, HitsAllSmallValues) {
  const std::uint64_t bound = GetParam();
  if (bound > 64) GTEST_SKIP() << "coverage check only for small bounds";
  Rng rng(43);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(rng.uniform(bound));
  EXPECT_EQ(seen.size(), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngUniformBoundTest,
                         ::testing::Values(1, 2, 3, 7, 10, 64, 1000,
                                           1ULL << 32, (1ULL << 63) + 5));

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(6);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t x = rng.uniform_range(-3, 3);
    ASSERT_GE(x, -3);
    ASSERT_LE(x, 3);
    saw_lo |= x == -3;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

class RngBernoulliTest : public ::testing::TestWithParam<double> {};

TEST_P(RngBernoulliTest, MatchesRate) {
  const double p = GetParam();
  Rng rng(77);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.bernoulli(p) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, p, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Rates, RngBernoulliTest,
                         ::testing::Values(0.0, 0.1, 0.5, 0.9, 1.0));

TEST(SplitMixTest, ProducesDistinctSequence) {
  std::uint64_t state = 0;
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(splitmix64(state));
  EXPECT_EQ(seen.size(), 1000u);
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  int result = 0;
  std::latch done(1);
  pool.post([&] {
    result = 21 * 2;
    done.count_down();
  });
  done.wait();
  EXPECT_EQ(result, 42);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  const std::vector<std::function<void()>> tasks = {
      [] {}, [] { throw CsbError("boom"); }};
  EXPECT_THROW(parallel_tasks(&pool, tasks), CsbError);
}

TEST(ThreadPoolTest, RunsManyTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::latch done(200);
  for (int i = 0; i < 200; ++i) {
    pool.post([&] {
      ++counter;
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, SizeIsAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

// ------------------------------------------------------------- parallel

class MakeChunksTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(MakeChunksTest, CoversRangeExactlyOnce) {
  const auto [n, chunk_size] = GetParam();
  const auto chunks = make_fixed_chunks(0, n, chunk_size);
  std::size_t covered = 0;
  std::size_t expect_begin = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const ChunkRange& c = chunks[i];
    EXPECT_EQ(c.chunk_index, i);
    EXPECT_EQ(c.begin, expect_begin);
    EXPECT_LT(c.begin, c.end);
    // Every chunk but the last spans exactly chunk_size indices.
    if (c.end != n) {
      EXPECT_EQ(c.end - c.begin, chunk_size);
    }
    covered += c.end - c.begin;
    expect_begin = c.end;
  }
  EXPECT_EQ(covered, n);
  EXPECT_EQ(chunks.size(), (n + chunk_size - 1) / chunk_size);
}

// The second value is the chunk size.
INSTANTIATE_TEST_SUITE_P(
    Sizes, MakeChunksTest,
    ::testing::Combine(::testing::Values(1, 2, 10, 1000, 12345),
                       ::testing::Values(1, 2, 8, 64)));

TEST(MakeChunksTest, EmptyRangeYieldsNoChunks) {
  EXPECT_TRUE(make_fixed_chunks(5, 5, 4).empty());
  EXPECT_TRUE(make_fixed_chunks(7, 3, 4).empty());
}

TEST(MakeChunksTest, RespectsGrain) {
  const auto chunks = make_fixed_chunks(0, 100, 30);
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[2].begin, 60u);
  EXPECT_EQ(chunks[3].end - chunks[3].begin, 10u);
  // A zero chunk size is clamped to one index per chunk.
  EXPECT_EQ(make_fixed_chunks(0, 5, 0).size(), 5u);
}

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(5000);
  parallel_for_fixed_chunks(&pool, 0, visits.size(), 16,
                            [&](const ChunkRange& c) {
                              for (std::size_t i = c.begin; i < c.end; ++i) {
                                ++visits[i];
                              }
                            });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, PropagatesBodyExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for_fixed_chunks(&pool, 0, 100, 1,
                                         [](const ChunkRange& c) {
                                           if (c.begin == 50) {
                                             throw CsbError("bad index");
                                           }
                                         }),
               CsbError);
}

TEST(ParallelForTest, ChunkIndicesAreSequential) {
  ThreadPool pool(2);
  std::mutex mu;
  std::vector<ChunkRange> seen;
  parallel_for_fixed_chunks(&pool, 0, 1000, 10, [&](const ChunkRange& c) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(c);
  });
  std::sort(seen.begin(), seen.end(),
            [](const ChunkRange& a, const ChunkRange& b) {
              return a.chunk_index < b.chunk_index;
            });
  const auto expected = make_fixed_chunks(0, 1000, 10);
  ASSERT_EQ(seen.size(), expected.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].chunk_index, i);
    EXPECT_EQ(seen[i].begin, expected[i].begin);
    EXPECT_EQ(seen[i].end, expected[i].end);
  }
}

// The fork-join contract behind parallel_tasks and
// parallel_for_fixed_chunks, at every pool size (nullptr = inline): the
// error of the lowest failing task index surfaces, however the tasks are
// scheduled, and no task is still running when the caller catches.

std::vector<std::unique_ptr<ThreadPool>> contract_pools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const std::size_t threads : {1, 2, 3, 8}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  return pools;
}

std::string pool_label(const std::unique_ptr<ThreadPool>& pool) {
  return pool ? std::to_string(pool->size()) + " threads" : "inline";
}

TEST(ForkJoinTest, ParallelTasksRethrowsLowestFailingIndex) {
  for (const auto& pool : contract_pools()) {
    // Task 3 fails first in time; task 1 still wins.
    std::vector<std::function<void()>> tasks(5, [] {});
    tasks[1] = [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw CsbError("task 1");
    };
    tasks[3] = [] { throw CsbError("task 3"); };
    try {
      parallel_tasks(pool.get(), tasks);
      ADD_FAILURE() << pool_label(pool) << ": nothing thrown";
    } catch (const CsbError& e) {
      EXPECT_EQ(std::string(e.what()), "task 1") << pool_label(pool);
    }
  }
}

TEST(ForkJoinTest, ParallelForFixedChunksRethrowsLowestFailingChunk) {
  for (const auto& pool : contract_pools()) {
    try {
      parallel_for_fixed_chunks(pool.get(), 0, 50, 10,
                                [](const ChunkRange& c) {
                                  if (c.chunk_index == 1) {
                                    std::this_thread::sleep_for(
                                        std::chrono::milliseconds(20));
                                    throw CsbError("chunk 1");
                                  }
                                  if (c.chunk_index == 3) {
                                    throw CsbError("chunk 3");
                                  }
                                });
      ADD_FAILURE() << pool_label(pool) << ": nothing thrown";
    } catch (const CsbError& e) {
      EXPECT_EQ(std::string(e.what()), "chunk 1") << pool_label(pool);
    }
  }
}

TEST(ForkJoinTest, SlowTaskFinishesBeforeTheCallerCatches) {
  for (const auto& pool : contract_pools()) {
    if (!pool) continue;  // inline: task 0's throw ends the loop
    // Task 0 fails at once; task 1 still writes caller state afterwards.
    // The write is plain, not atomic: the join's latch is what orders it
    // before the catch (ThreadSanitizer checks the happens-before).
    bool slow_done = false;
    const std::vector<std::function<void()>> tasks = {
        [] { throw CsbError("fast failure"); },
        [&slow_done] {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          slow_done = true;
        }};
    EXPECT_THROW(parallel_tasks(pool.get(), tasks), CsbError);
    EXPECT_TRUE(slow_done) << pool_label(pool);

    bool slow_chunk_done = false;
    EXPECT_THROW(parallel_for_fixed_chunks(
                     pool.get(), 0, 2, 1,
                     [&slow_chunk_done](const ChunkRange& c) {
                       if (c.chunk_index == 0) throw CsbError("fast failure");
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(50));
                       slow_chunk_done = true;
                     }),
                 CsbError);
    EXPECT_TRUE(slow_chunk_done) << pool_label(pool);
  }
}

TEST(ForkJoinTest, NullPoolRunsInIndexOrder) {
  std::vector<std::size_t> order;
  parallel_for_fixed_chunks(nullptr, 0, 40, 10, [&order](const ChunkRange& c) {
    order.push_back(c.chunk_index);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

// -------------------------------------------------------------- format

struct CommaCase {
  std::uint64_t value;
  const char* expected;
};

// Names a case by its value. Without a printer gtest dumps the struct's
// bytes, the `expected` pointer included, and ctest takes the test name
// from that dump, so the name would change with the load address.
void PrintTo(const CommaCase& c, std::ostream* os) { *os << c.value; }

class WithCommasTest : public ::testing::TestWithParam<CommaCase> {};

TEST_P(WithCommasTest, Formats) {
  EXPECT_EQ(with_commas(GetParam().value), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, WithCommasTest,
    ::testing::Values(CommaCase{0, "0"}, CommaCase{5, "5"},
                      CommaCase{999, "999"}, CommaCase{1000, "1,000"},
                      CommaCase{123456, "123,456"},
                      CommaCase{1234567, "1,234,567"},
                      CommaCase{1000000000ULL, "1,000,000,000"}));

TEST(FormatTest, HumanBytes) {
  EXPECT_EQ(human_bytes(0), "0 B");
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(1536), "1.50 KiB");
  EXPECT_EQ(human_bytes(1ULL << 20), "1.00 MiB");
  EXPECT_EQ(human_bytes(3ULL << 30), "3.00 GiB");
}

TEST(FormatTest, HumanSeconds) {
  EXPECT_EQ(human_seconds(0.0000005), "0.5 us");
  EXPECT_EQ(human_seconds(0.005), "5.0 ms");
  EXPECT_EQ(human_seconds(1.5), "1.50 s");
  EXPECT_EQ(human_seconds(90.0), "1m 30.0s");
}

TEST(FormatTest, Sci) {
  EXPECT_EQ(sci(12345.0, 3), "1.23e+04");
  EXPECT_EQ(sci(0.000123, 2), "1.2e-04");
}

// ---------------------------------------------------------------- hash

TEST(HashTest, Mix64IsInjectiveOnSample) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(HashTest, PairHashIsOrderSensitive) {
  EXPECT_NE(hash_pair(1, 2), hash_pair(2, 1));
}

TEST(HashTest, PairHashHasFewCollisionsOnGrid) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t u = 0; u < 100; ++u) {
    for (std::uint64_t v = 0; v < 100; ++v) seen.insert(hash_pair(u, v));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

// ------------------------------------------------------------ flat set

TEST(FlatSetTest, InsertReportsNewness) {
  FlatSet64 set;
  EXPECT_TRUE(set.insert(42));
  EXPECT_FALSE(set.insert(42));
  EXPECT_TRUE(set.insert(43));
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatSetTest, ContainsTracksInserts) {
  FlatSet64 set;
  for (std::uint64_t i = 1; i <= 100; ++i) set.insert(i * 7919);
  for (std::uint64_t i = 1; i <= 100; ++i) {
    EXPECT_TRUE(set.contains(i * 7919));
    EXPECT_FALSE(set.contains(i * 7919 + 1));
  }
}

TEST(FlatSetTest, ZeroKeyIsStorable) {
  // 0 is the internal empty-slot sentinel; it must still behave as a key.
  FlatSet64 set;
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_TRUE(set.contains(0));
  EXPECT_EQ(set.size(), 1u);
  set.clear();
  EXPECT_FALSE(set.contains(0));
}

TEST(FlatSetTest, GrowsPastInitialCapacityWithoutLoss) {
  FlatSet64 set;  // default capacity: growth exercises every rehash
  constexpr std::uint64_t kKeys = 100'000;
  Rng rng(99);
  std::set<std::uint64_t> reference;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const std::uint64_t key = rng.uniform(1'000'000);
    EXPECT_EQ(set.insert(key), reference.insert(key).second);
  }
  EXPECT_EQ(set.size(), reference.size());
  for (const std::uint64_t key : reference) EXPECT_TRUE(set.contains(key));
}

TEST(FlatSetTest, ReserveAvoidsRehash) {
  FlatSet64 set(1000);
  const std::size_t capacity = set.capacity();
  for (std::uint64_t i = 1; i <= 1000; ++i) set.insert(i);
  EXPECT_EQ(set.capacity(), capacity);  // no growth during expected inserts
  EXPECT_EQ(set.size(), 1000u);
}

// --------------------------------------------------------------- error

TEST(ErrorTest, CheckThrowsWithLocation) {
  try {
    CSB_CHECK(1 == 2);
    FAIL() << "expected CsbError";
  } catch (const CsbError& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(ErrorTest, CheckMsgIncludesMessage) {
  try {
    CSB_CHECK_MSG(false, "context " << 42);
    FAIL() << "expected CsbError";
  } catch (const CsbError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(ErrorTest, CheckPassesSilently) {
  EXPECT_NO_THROW(CSB_CHECK(true));
  EXPECT_NO_THROW(CSB_CHECK_MSG(1 + 1 == 2, "fine"));
}

// ------------------------------------------------------------- stopwatch

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(sw.millis(), 15.0);
  sw.restart();
  EXPECT_LT(sw.millis(), 15.0);
}

// ------------------------------------------------------------ FileMapping

TEST(FileMappingTest, MapsFileAndMovesOwnership) {
  const std::string path = ::testing::TempDir() + "/csb_file_mapping.bin";
  std::ofstream(path, std::ios::binary) << "mapped bytes";
  const ScopedFd fd(::open(path.c_str(), O_RDONLY));
  ASSERT_GE(fd.fd, 0);
  FileMapping first(fd.fd, 12, path);
  FileMapping second(std::move(first));
  EXPECT_TRUE(first.bytes().empty());
  ASSERT_EQ(second.bytes().size(), 12u);
  EXPECT_EQ(std::string(second.bytes().begin(), second.bytes().end()),
            "mapped bytes");
  std::remove(path.c_str());
}

// A descriptor opened write-only cannot be mapped for reading: the error
// names the file.
TEST(FileMappingTest, FailedMapNamesFile) {
  const std::string path = ::testing::TempDir() + "/csb_file_mapping_wo.bin";
  std::ofstream(path, std::ios::binary) << "bytes";
  const ScopedFd fd(::open(path.c_str(), O_WRONLY));
  ASSERT_GE(fd.fd, 0);
  try {
    FileMapping mapping(fd.fd, 5, path);
    ADD_FAILURE() << "mapping a write-only descriptor succeeded";
  } catch (const CsbError& error) {
    EXPECT_NE(std::string(error.what()).find("cannot map " + path),
              std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace csb
