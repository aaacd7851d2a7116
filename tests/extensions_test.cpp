// Tests for the extension features beyond the paper's minimum: betweenness
// centrality (exact + sampled), the streaming detector, Dataset coalesce /
// move-concat, duration smoothing, and column-based graph construction.
#include <gtest/gtest.h>

#include <bit>
#include <numeric>

#include "graph/betweenness.hpp"
#include "graph/pagerank.hpp"
#include "gen/baselines.hpp"
#include "ids/streaming.hpp"
#include "mr/dataset.hpp"
#include "trace/attacks.hpp"
#include "trace/traffic_model.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace csb {
namespace {

// ------------------------------------------------------------ betweenness

TEST(BetweennessTest, PathGraphCenter) {
  // 0 -> 1 -> 2: vertex 1 lies on the single shortest path 0 -> 2.
  PropertyGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  ThreadPool pool(2);
  const auto bc = betweenness_centrality(g, pool);
  EXPECT_DOUBLE_EQ(bc[0], 0.0);
  EXPECT_DOUBLE_EQ(bc[1], 1.0);
  EXPECT_DOUBLE_EQ(bc[2], 0.0);
}

TEST(BetweennessTest, StarCenterDirected) {
  // Directed star in both directions: leaves reach each other through 0.
  constexpr std::uint64_t kLeaves = 5;
  PropertyGraph g(kLeaves + 1);
  for (VertexId v = 1; v <= kLeaves; ++v) {
    g.add_edge(v, 0);
    g.add_edge(0, v);
  }
  ThreadPool pool(2);
  const auto bc = betweenness_centrality(g, pool);
  // Each ordered leaf pair (u, w), u != w routes through the hub: 5*4 = 20.
  EXPECT_DOUBLE_EQ(bc[0], static_cast<double>(kLeaves * (kLeaves - 1)));
  for (VertexId v = 1; v <= kLeaves; ++v) EXPECT_DOUBLE_EQ(bc[v], 0.0);
}

TEST(BetweennessTest, SplitShortestPathsShareCredit) {
  // Two equal-length paths 0->1->3 and 0->2->3: vertices 1 and 2 each get
  // half of the single 0->3 dependency.
  PropertyGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  ThreadPool pool(2);
  const auto bc = betweenness_centrality(g, pool);
  EXPECT_DOUBLE_EQ(bc[1], 0.5);
  EXPECT_DOUBLE_EQ(bc[2], 0.5);
}

TEST(BetweennessTest, ParallelEdgesDoNotInflate) {
  PropertyGraph g(3);
  for (int i = 0; i < 4; ++i) {
    g.add_edge(0, 1);
    g.add_edge(1, 2);
  }
  ThreadPool pool(2);
  const auto bc = betweenness_centrality(g, pool);
  EXPECT_DOUBLE_EQ(bc[1], 1.0);
}

TEST(BetweennessTest, SampledEstimatorTracksExact) {
  // Heavy-tailed BA graph (chains of new -> old edges give the hubs large
  // betweenness); the sampled estimator must rank the top hub first and
  // approximate its exact score.
  const PropertyGraph g = classic_barabasi_albert(300, 2, 17);
  ThreadPool pool(2);
  const auto exact = betweenness_centrality(g, pool);
  BetweennessOptions sampled_options;
  sampled_options.sample_sources = g.num_vertices() / 2;
  const auto sampled = betweenness_centrality(g, pool, sampled_options);
  // The sampled winner must be among the exact top-5 (close hubs may swap
  // rank under sampling), and its estimate within 2x of its exact score.
  const std::size_t sampled_argmax = static_cast<std::size_t>(
      std::distance(sampled.begin(),
                    std::max_element(sampled.begin(), sampled.end())));
  std::vector<std::size_t> rank(exact.size());
  std::iota(rank.begin(), rank.end(), 0);
  std::sort(rank.begin(), rank.end(), [&exact](std::size_t a, std::size_t b) {
    return exact[a] > exact[b];
  });
  EXPECT_TRUE(std::find(rank.begin(), rank.begin() + 5, sampled_argmax) !=
              rank.begin() + 5);
  const double top = exact[sampled_argmax];
  ASSERT_GT(top, 0.0);
  EXPECT_NEAR(sampled[sampled_argmax] / top, 1.0, 1.0);
}

TEST(BetweennessTest, EmptyAndEdgelessGraphs) {
  ThreadPool pool(1);
  PropertyGraph empty;
  EXPECT_TRUE(betweenness_centrality(empty, pool).empty());
  PropertyGraph isolated(4);
  const auto bc = betweenness_centrality(isolated, pool);
  for (const double c : bc) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(BetweennessTest, ScoresDoNotDependOnPoolSize) {
  // Source chunks are fixed and their partials summed in chunk order, so
  // exact and sampled scores are bit-identical at any pool size and on
  // every repeat.
  constexpr std::uint64_t kVertices = 2000;
  PropertyGraph g(kVertices);
  Rng rng(2024);
  for (int e = 0; e < 12000; ++e) {
    g.add_edge(rng.uniform(kVertices), rng.uniform(kVertices));
  }
  BetweennessOptions sampled;
  sampled.sample_sources = 300;
  for (const BetweennessOptions& options : {BetweennessOptions{}, sampled}) {
    ThreadPool serial(1);
    const auto reference = betweenness_centrality(g, serial, options);
    for (const std::size_t threads : {1, 2, 3, 8}) {
      ThreadPool pool(threads);
      for (int repeat = 0; repeat < 3; ++repeat) {
        const auto bc = betweenness_centrality(g, pool, options);
        ASSERT_EQ(bc.size(), reference.size());
        std::size_t differing = 0;
        for (std::size_t v = 0; v < bc.size(); ++v) {
          if (std::bit_cast<std::uint64_t>(bc[v]) !=
              std::bit_cast<std::uint64_t>(reference[v])) {
            ++differing;
          }
        }
        EXPECT_EQ(differing, 0u)
            << "sample_sources=" << options.sample_sources << ", "
            << threads << " threads, repeat " << repeat;
      }
    }
  }
}

// ------------------------------------------------------ weighted pagerank

TEST(WeightedPageRankTest, UniformWeightsMatchUnweighted) {
  const PropertyGraph g = classic_barabasi_albert(200, 2, 4);
  ThreadPool pool(2);
  const std::vector<double> uniform(g.num_edges(), 1.0);
  const auto weighted = pagerank_weighted(g, pool, uniform);
  const auto plain = pagerank(g, pool);
  ASSERT_EQ(weighted.scores.size(), plain.scores.size());
  for (std::size_t v = 0; v < plain.scores.size(); ++v) {
    EXPECT_NEAR(weighted.scores[v], plain.scores[v], 1e-9);
  }
}

TEST(WeightedPageRankTest, WeightShiftsRankTowardHeavyEdges) {
  // 0 -> 1 and 0 -> 2; all of 0's weight goes to 1.
  PropertyGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  ThreadPool pool(1);
  const std::vector<double> weights = {100.0, 1.0};
  const auto result = pagerank_weighted(g, pool, weights);
  EXPECT_GT(result.scores[1], result.scores[2]);
  double sum = 0.0;
  for (const double s : result.scores) sum += s;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(WeightedPageRankTest, ZeroWeightVertexIsDangling) {
  PropertyGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  ThreadPool pool(1);
  // Vertex 1's only out-edge has weight 0: its mass spreads uniformly.
  const std::vector<double> weights = {1.0, 0.0};
  const auto result = pagerank_weighted(g, pool, weights);
  double sum = 0.0;
  for (const double s : result.scores) sum += s;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(WeightedPageRankTest, TrafficWeightingPromotesByteHubs) {
  // Two servers with equal flow counts; one moves 1000x the bytes.
  PropertyGraph g(5);
  EdgeProperties heavy;
  heavy.out_bytes = 1'000'000;
  EdgeProperties light;
  light.out_bytes = 1'000;
  g.add_edge(0, 3, heavy);
  g.add_edge(1, 3, heavy);
  g.add_edge(0, 4, light);
  g.add_edge(1, 4, light);
  g.add_edge(2, 0, light);  // feed the sources so ranks differentiate
  g.add_edge(2, 1, light);
  ThreadPool pool(1);
  const auto by_count = pagerank(g, pool);
  const auto by_bytes = pagerank_by_traffic(g, pool);
  // Flow-count PageRank ties the two servers; traffic weighting must not.
  EXPECT_NEAR(by_count.scores[3], by_count.scores[4], 1e-9);
  EXPECT_GT(by_bytes.scores[3], 2.0 * by_bytes.scores[4]);
}

TEST(WeightedPageRankTest, RejectsMisalignedWeights) {
  PropertyGraph g(2);
  g.add_edge(0, 1);
  ThreadPool pool(1);
  EXPECT_THROW((void)pagerank_weighted(g, pool, std::vector<double>{}),
               CsbError);
  EXPECT_THROW(
      (void)pagerank_weighted(g, pool, std::vector<double>{-1.0}),
      CsbError);
}

// ----------------------------------------------------------- diurnal model

TEST(DiurnalTrafficTest, AmplitudeZeroIsBackwardCompatible) {
  TrafficModelConfig config;
  config.benign_sessions = 200;
  const auto flat = TrafficModel(config).generate_benign();
  config.diurnal_amplitude = 0.0;  // explicit zero = same draws
  const auto also_flat = TrafficModel(config).generate_benign();
  ASSERT_EQ(flat.size(), also_flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i].start_us, also_flat[i].start_us);
  }
}

TEST(DiurnalTrafficTest, PeakHalfOutweighsTroughHalf) {
  TrafficModelConfig config;
  config.benign_sessions = 8'000;
  config.capture_window_s = 86'400;  // one full day
  config.diurnal_amplitude = 0.9;
  const auto sessions = TrafficModel(config).generate_benign();
  // sin() is positive over the first half period: the first half-day must
  // hold clearly more than half of the sessions.
  std::size_t first_half = 0;
  const std::uint64_t midpoint =
      config.start_time_us + 43'200ull * 1'000'000;
  for (const auto& s : sessions) {
    if (s.start_us < midpoint) ++first_half;
  }
  EXPECT_GT(static_cast<double>(first_half) / sessions.size(), 0.6);
}

TEST(DiurnalTrafficTest, RejectsBadAmplitude) {
  TrafficModelConfig config;
  config.diurnal_amplitude = 1.5;
  EXPECT_THROW(TrafficModel{config}, CsbError);
}

// -------------------------------------------------------------- streaming

NetflowRecord flow_at(std::uint64_t t_us, std::uint32_t src,
                      std::uint32_t dst) {
  NetflowRecord r;
  r.src_ip = src;
  r.dst_ip = dst;
  r.protocol = Protocol::kTcp;
  r.dst_port = 80;
  r.first_us = t_us;
  r.last_us = t_us + 1000;
  r.out_bytes = 54;
  r.out_pkts = 1;
  r.syn_count = 1;
  r.state = ConnState::kS0;
  return r;
}

TEST(StreamingDetectorTest, RaisesAlarmWhenWindowCloses) {
  DetectionThresholds thresholds;  // defaults: nf_t = 128
  StreamingDetector detector(thresholds, StreamingOptions{.window_us = 1'000'000});
  // 500 tiny S0 flows from distinct sources to one victim inside a window.
  std::vector<StreamingAlarm> alarms;
  for (int i = 0; i < 500; ++i) {
    auto raised = detector.ingest(flow_at(1000 + i, 100 + i, 7));
    alarms.insert(alarms.end(), raised.begin(), raised.end());
  }
  EXPECT_TRUE(alarms.empty());  // window still open
  auto raised = detector.ingest(flow_at(5'000'000, 1, 2));
  alarms.insert(alarms.end(), raised.begin(), raised.end());
  ASSERT_FALSE(alarms.empty());
  bool found = false;
  for (const auto& a : alarms) {
    if (a.alarm.detection_ip == 7 &&
        (a.alarm.type == AttackClass::kDdos ||
         a.alarm.type == AttackClass::kSynFlood)) {
      found = true;
      EXPECT_EQ(a.window_start_us, 0u);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(detector.windows_closed(), 1u);
}

TEST(StreamingDetectorTest, FinishFlushesOpenWindow) {
  StreamingDetector detector(DetectionThresholds{},
                             StreamingOptions{.window_us = 60'000'000});
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(detector.ingest(flow_at(1000 + i, 100 + i, 7)).empty());
  }
  const auto alarms = detector.finish();
  EXPECT_FALSE(alarms.empty());
  EXPECT_EQ(detector.flows_ingested(), 500u);
}

TEST(StreamingDetectorTest, QuietWindowsRaiseNothing) {
  StreamingDetector detector(DetectionThresholds{},
                             StreamingOptions{.window_us = 1'000'000});
  std::vector<StreamingAlarm> alarms;
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 20; ++i) {
      auto raised = detector.ingest(
          flow_at(w * 1'000'000 + i * 1000, 100 + i, 200 + i));
      alarms.insert(alarms.end(), raised.begin(), raised.end());
    }
  }
  auto raised = detector.finish();
  alarms.insert(alarms.end(), raised.begin(), raised.end());
  EXPECT_TRUE(alarms.empty());
  EXPECT_EQ(detector.windows_closed(), 10u);
}

TEST(StreamingDetectorTest, MatchesBatchDetectorPerWindow) {
  // Streaming over one window == batch detection over the same flows.
  Rng rng(5);
  SynFloodConfig attack;
  attack.victim_ip = 42;
  attack.flows = 2000;
  attack.duration_s = 30;  // inside one 60 s window
  std::vector<NetflowRecord> records;
  for (const auto& s : inject_syn_flood(attack, rng)) {
    records.push_back(to_netflow(s));
  }
  std::sort(records.begin(), records.end(),
            [](const NetflowRecord& a, const NetflowRecord& b) {
              return a.first_us < b.first_us;
            });

  const DetectionThresholds thresholds;
  const auto batch = AnomalyDetector(thresholds).detect(records);

  StreamingDetector streaming(thresholds,
                              StreamingOptions{.window_us = 60'000'000});
  std::vector<Alarm> streamed;
  for (const auto& r : records) {
    for (const auto& a : streaming.ingest(r)) streamed.push_back(a.alarm);
  }
  for (const auto& a : streaming.finish()) streamed.push_back(a.alarm);
  std::sort(streamed.begin(), streamed.end(),
            [](const Alarm& a, const Alarm& b) {
              return std::tie(a.detection_ip, a.type) <
                     std::tie(b.detection_ip, b.type);
            });
  EXPECT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < std::min(streamed.size(), batch.size()); ++i) {
    EXPECT_EQ(streamed[i].detection_ip, batch[i].detection_ip);
    EXPECT_EQ(streamed[i].type, batch[i].type);
  }
}

TEST(StreamingDetectorTest, RejectsOutOfOrderAndBadWindow) {
  StreamingDetector detector(DetectionThresholds{},
                             StreamingOptions{.window_us = 1'000'000});
  detector.ingest(flow_at(5000, 1, 2));
  EXPECT_THROW(detector.ingest(flow_at(4000, 1, 2)), CsbError);
  EXPECT_THROW(StreamingDetector(DetectionThresholds{},
                                 StreamingOptions{.window_us = 0}),
               CsbError);
}

// --------------------------------------------------- dataset extensions

TEST(DatasetCoalesceTest, MergesToTargetPreservingElements) {
  ClusterSim cluster(ClusterConfig{.nodes = 2, .cores_per_node = 2});
  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Dataset<int>::from_vector(cluster, data, 16);
  auto merged = std::move(ds).coalesced(4);
  EXPECT_EQ(merged.num_partitions(), 4u);
  auto collected = merged.collect();
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, data);
}

TEST(DatasetCoalesceTest, NoOpWhenAlreadySmall) {
  ClusterSim cluster(ClusterConfig{.nodes = 1, .cores_per_node = 1});
  auto ds = Dataset<int>::from_vector(cluster, {1, 2, 3}, 2);
  auto merged = std::move(ds).coalesced(8);
  EXPECT_EQ(merged.num_partitions(), 2u);
}

TEST(DatasetConcatMoveTest, StealsPartitions) {
  ClusterSim cluster(ClusterConfig{.nodes = 1, .cores_per_node = 1});
  auto a = Dataset<int>::from_vector(cluster, {1, 2}, 2);
  auto b = Dataset<int>::from_vector(cluster, {3, 4, 5}, 1);
  auto joined = Dataset<int>::concat_move(std::move(a), std::move(b));
  EXPECT_EQ(joined.num_partitions(), 3u);
  EXPECT_EQ(joined.count(), 5u);
}

TEST(ClusterSmoothingTest, MeanEqualizesTaskDurations) {
  // With smoothing, 4 equal-mean tasks on 4 cores have makespan ==
  // mean task time, however lumpy the real durations were.
  ClusterSim lumpy(ClusterConfig{.nodes = 1,
                                 .cores_per_node = 4,
                                 .smooth_task_durations = true});
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([i] {
      volatile double x = 0;
      for (int k = 0; k < (i == 0 ? 4'000'000 : 1000); ++k) x = x + k;
    });
  }
  const StageMetrics stage = lumpy.run_stage("lumpy", std::move(tasks));
  EXPECT_NEAR(stage.makespan_seconds, stage.task_seconds / 4.0,
              stage.task_seconds * 0.01);
}

TEST(FromColumnsTest, BuildsAndValidates) {
  const auto g = PropertyGraph::from_columns(3, {0, 1}, {2, 2});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edge_dst(0), 2u);
  EXPECT_THROW(PropertyGraph::from_columns(2, {0}, {5}), CsbError);
  EXPECT_THROW(PropertyGraph::from_columns(2, {0, 1}, {1}), CsbError);
}

TEST(AttachPropertiesTest, AttachesColumnsOfRightSize) {
  PropertyGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  PropertyColumns short_columns;
  short_columns.resize_for_overwrite(1);
  EXPECT_THROW(g.attach_properties(short_columns), CsbError);
  EXPECT_FALSE(g.has_properties());

  PropertyColumns columns;
  columns.resize_for_overwrite(2);
  columns.set_row(0, EdgeProperties{});
  columns.set_row(1, EdgeProperties{.dst_port = 80});
  g.attach_properties(std::move(columns));
  EXPECT_TRUE(g.has_properties());
  EXPECT_EQ(g.protocols().size(), 2u);
  EXPECT_EQ(g.edge_properties(0), EdgeProperties{});
  EXPECT_EQ(g.edge_properties(1).dst_port, 80u);
}

}  // namespace
}  // namespace csb
