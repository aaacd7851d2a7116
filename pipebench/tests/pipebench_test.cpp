// Tests of the benchmark's own parts: the sink-timing decorator, the
// resource probes, the span recorder, and per-layer attribution of an
// injected slowdown. Built as pipebench_test next to the harness:
//
//   cmake --build .bench_build/pipebench --target pipebench_test
//   .bench_build/pipebench/pipebench_test
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "gen/generator.hpp"
#include "harness.hpp"
#include "probes.hpp"
#include "seed/seed.hpp"
#include "spans.hpp"
#include "store/shard_store.hpp"
#include "timing_store.hpp"
#include "trace/traffic_model.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using namespace pipebench;

constexpr std::uint64_t kMiB = 1ULL << 20;

/// A fresh directory under the system temp dir, removed at scope exit.
class TempDir {
 public:
  TempDir()
      : path_(fs::temp_directory_path() /
              ("pipebench_test_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

csb::SeedBundle small_seed() {
  csb::TrafficModelConfig config;
  config.benign_sessions = 2'000;
  config.client_hosts = 400;
  config.server_hosts = 40;
  config.seed = 7;
  return csb::build_seed_from_netflow(
      csb::sessions_to_netflow(csb::TrafficModel(config).generate_benign()));
}

csb::GenConfig small_config(bool with_properties) {
  csb::GenConfig config;
  config.desired_edges = 200'000;
  config.partitions = 8;
  config.seed = 5;
  config.with_properties = with_properties;
  return config;
}

void generate(const csb::SeedBundle& seed, csb::ThreadPool& pool,
              const std::string& generator, bool with_properties,
              csb::GraphStore& store) {
  csb::ClusterSim cluster(
      csb::ClusterConfig{.nodes = 1, .cores_per_node = pool.size()}, pool);
  (void)csb::require_generator(generator).generate_into(
      seed.graph, seed.profile, cluster, small_config(with_properties), store);
}

TEST(CoveredSeconds, CountsOverlapOnceAndClipsToWindow) {
  const std::int64_t s = 1'000'000'000;
  // [0,2s) and [1s,3s) overlap; [5s,6s) is separate; [9s,12s) is clipped
  // at the window end 10s.
  const std::vector<Interval> intervals = {
      {0, 2 * s}, {1 * s, 3 * s}, {5 * s, 6 * s}, {9 * s, 12 * s}};
  EXPECT_DOUBLE_EQ(covered_seconds(intervals, {0, 10 * s}), 5.0);
  EXPECT_DOUBLE_EQ(covered_seconds(intervals, {2 * s, 5 * s}), 1.0);
  EXPECT_DOUBLE_EQ(covered_seconds({}, {0, 10 * s}), 0.0);
}

TEST(TimingStore, DecoratedMemoryStoreHoldsTheSameGraph) {
  const csb::SeedBundle seed = small_seed();
  csb::ThreadPool pool(4);
  for (const char* generator : {"pgsk", "pgpba", "pgsk-fast"}) {
    csb::MemoryStore plain;
    generate(seed, pool, generator, true, plain);
    csb::MemoryStore inner;
    TimingStore decorated(inner, nullptr);
    generate(seed, pool, generator, true, decorated);
    EXPECT_TRUE(inner.graph() == plain.graph()) << generator;
    EXPECT_GT(decorated.put_edges_stats().calls, 0U) << generator;
    EXPECT_EQ(decorated.put_edges_stats().bytes,
              plain.graph().num_edges() * 2 * sizeof(csb::VertexId));
    EXPECT_EQ(decorated.put_properties_stats().bytes,
              plain.graph().num_edges() * kPropertyRowBytes);
  }
}

TEST(TimingStore, DecoratedShardStoreWritesTheSameChecksums) {
  const csb::SeedBundle seed = small_seed();
  csb::ThreadPool pool(4);
  TempDir dir;
  const auto options = [&](const char* name) {
    return csb::ShardStoreOptions{.directory = (dir.path() / name).string(),
                                  .shard_count = 4,
                                  .memory_budget_bytes = 8 * kMiB,
                                  .build_csr = true,
                                  .pool = &pool};
  };
  csb::ShardStore plain(options("plain"));
  generate(seed, pool, "pgsk", true, plain);
  csb::ShardStore inner(options("decorated"));
  SpanRecorder recorder;
  TimingStore decorated(inner, &recorder);
  generate(seed, pool, "pgsk", true, decorated);

  const csb::ShardManifest& a = plain.manifest();
  const csb::ShardManifest& b = inner.manifest();
  ASSERT_EQ(a.shards.size(), b.shards.size());
  EXPECT_EQ(a.edges, b.edges);
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].edge_checksum, b.shards[s].edge_checksum);
    EXPECT_EQ(a.shards[s].prop_checksum, b.shards[s].prop_checksum);
  }
  EXPECT_EQ(a.csr_checksum, b.csr_checksum);
  ASSERT_EQ(recorder.spans().size(), 1U);
  EXPECT_EQ(recorder.spans()[0].name, "store.finish");
  EXPECT_GT(recorder.spans()[0].wall_s(), 0.0);
}

TEST(Probes, PeakRssSeesAKnownAllocation) {
  ResourceWindow window;
  window.start();
  {
    std::vector<char> block(96 * kMiB);
    std::memset(block.data(), 1, block.size());
    ASSERT_EQ(block[block.size() / 2], 1);
  }
  window.stop();
  ASSERT_TRUE(window.peak_rss().has_value())
      << "VmHWM reset through /proc/self/clear_refs is unavailable";
  // The freed block is gone from RSS, yet the window's peak holds it.
  EXPECT_GE(*window.peak_rss(), 96 * kMiB);
  ASSERT_TRUE(reset_peak_rss());
  EXPECT_LT(*peak_rss_bytes(), *window.peak_rss());
}

TEST(Probes, IoCountersSeeAKnownFileWrite) {
  TempDir dir;
  const fs::path file = dir.path() / "blob.bin";
  const std::vector<char> blob(8 * kMiB, 'x');
  ResourceWindow write;
  write.start();
  std::ofstream(file, std::ios::binary)
      .write(blob.data(), static_cast<std::streamsize>(blob.size()));
  write.stop();
  EXPECT_GE(write.write_bytes(), blob.size());
  EXPECT_LT(write.write_bytes(), blob.size() + kMiB);

  ResourceWindow read;
  read.start();
  std::vector<char> back(blob.size());
  std::ifstream(file, std::ios::binary)
      .read(back.data(), static_cast<std::streamsize>(back.size()));
  read.stop();
  EXPECT_EQ(back, blob);
  EXPECT_GE(read.read_bytes(), blob.size());
}

TEST(Probes, CpuTimeCountsEveryThread) {
  ResourceWindow window;
  window.start();
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([] {
      const std::int64_t end = now_ns() + 200'000'000;
      volatile std::uint64_t sink = 0;
      while (now_ns() < end) sink = sink + 1;
    });
  }
  for (std::thread& t : threads) t.join();
  window.stop();
  EXPECT_GE(window.cpu_s(), 0.3);
  EXPECT_GE(window.wall_s(), 0.2);
}

TEST(SpanRecorder, ParentPeakIncludesChildPeakAfterTheChildResets) {
  SpanRecorder rec;
  rec.call("outer", [&] {
    {
      std::vector<char> big(128 * kMiB, 1);
      ASSERT_EQ(big.back(), 1);
    }
    rec.call("inner", [] {
      std::vector<char> small(32 * kMiB, 1);
      ASSERT_EQ(small.back(), 1);
    });
  });
  ASSERT_EQ(rec.spans().size(), 2U);
  const Span& outer = rec.spans()[0];
  const Span& inner = rec.spans()[1];
  EXPECT_EQ(inner.parent, 0);
  ASSERT_TRUE(outer.peak_rss && inner.peak_rss);
  EXPECT_GE(*outer.peak_rss, 128 * kMiB);
  EXPECT_GE(*inner.peak_rss, 32 * kMiB);
  EXPECT_LT(*inner.peak_rss, *outer.peak_rss);
}

/// One traced measurement of `workload` at a small scale.
Measurement small_run(const std::string& workload, std::chrono::milliseconds delay) {
  TempDir dir;
  HarnessOptions options;
  options.workload = workload;
  options.seed = 3;
  options.seconds = 0.0;
  options.trace = true;
  options.workdir = dir.path();
  options.threads = 4;
  options.min_setups = 1;
  options.setup_seconds = 0.0;
  options.min_passes = 1;
  // The smallest scale at which pgsk-spill's 1 MB dedup budget still spills.
  options.scale = 0.05;
  options.put_edges_delay = delay;
  return measure(options);
}

TEST(Attribution, SlowedPutEdgesIsNamedAndOnlyMovesTheStoreWorkloads) {
  // Large enough that the wall-time rise stands well clear of pass-to-pass
  // noise, sanitizer builds included.
  const auto delay = std::chrono::milliseconds(50);
  for (const char* workload : {"pgsk-spill", "fast-shards"}) {
    const Measurement base = small_run(workload, {});
    const Measurement slowed = small_run(workload, delay);
    ASSERT_TRUE(base.failures.empty()) << base.failures.front();
    ASSERT_TRUE(slowed.failures.empty()) << slowed.failures.front();
    const double calls = slowed.per_layer.at("store.put_edges.calls");
    ASSERT_GT(calls, 0.0) << workload;
    const double injected_s = calls * 0.050;
    EXPECT_GE(slowed.per_layer.at("store.put_edges.busy_s") -
                  base.per_layer.at("store.put_edges.busy_s"),
              0.9 * injected_s)
        << workload;
    // The four pool threads share the sleeps, and other tasks run beside a
    // sleeping thread, so the pass waits for somewhat under a quarter.
    EXPECT_GE(slowed.end_to_end.at("wall_s") - base.end_to_end.at("wall_s"),
              0.15 * injected_s)
        << workload;
    const auto ranked = rank_layer_changes(base.per_layer, slowed.per_layer);
    EXPECT_EQ(ranked.front().layer, "store.put_edges") << workload;
  }
  // ingest makes no sink calls, so the delay never runs.
  const Measurement base = small_run("ingest", {});
  const Measurement slowed = small_run("ingest", delay);
  ASSERT_TRUE(base.failures.empty()) << base.failures.front();
  ASSERT_TRUE(slowed.failures.empty()) << slowed.failures.front();
  EXPECT_EQ(slowed.per_layer.at("store.put_edges.calls"), 0.0);
  EXPECT_EQ(slowed.per_layer.at("store.put_edges.busy_s"), 0.0);
  EXPECT_LT(slowed.end_to_end.at("wall_s"), 2.0 * base.end_to_end.at("wall_s") + 0.05);
}

TEST(Harness, EveryWorkloadPassesItsChecksAtSmallScale) {
  for (const std::string& workload : workload_names()) {
    const Measurement m = small_run(workload, {});
    EXPECT_TRUE(m.failures.empty())
        << workload << ": " << (m.failures.empty() ? "" : m.failures.front());
    EXPECT_EQ(m.failed, 0U) << workload;
    // Warm-up, one untraced, one traced and one serial pass.
    EXPECT_EQ(m.attempted, 4U) << workload;
    for (const MetricDef& def : per_layer_metrics()) {
      EXPECT_TRUE(m.per_layer.contains(def.name)) << workload << " " << def.name;
    }
    for (const MetricDef& def : end_to_end_metrics()) {
      EXPECT_GT(m.end_to_end.at(def.name), 0.0) << workload << " " << def.name;
    }
  }
}

}  // namespace
