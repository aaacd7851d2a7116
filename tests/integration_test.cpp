// End-to-end integration tests crossing every module boundary:
//   traffic model -> PCAP bytes -> decode -> flow assembly -> seed graph
//   -> PGPBA/PGSK growth -> veracity, and the IDS pipeline on labeled
//   attack traffic — the complete workflows a benchmark user runs.
#include <gtest/gtest.h>

#include <sstream>

#include "gen/pgpba.hpp"
#include "gen/pgsk.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph_io.hpp"
#include "ids/calibrate.hpp"
#include "ids/detector.hpp"
#include "pcap/pcap_file.hpp"
#include "seed/seed.hpp"
#include "trace/attacks.hpp"
#include "trace/traffic_model.hpp"
#include "veracity/veracity.hpp"

namespace csb {
namespace {

TEST(EndToEndTest, PcapToSeedToPgpbaToVeracity) {
  // 1. Model -> real PCAP file.
  TrafficModelConfig config;
  config.benign_sessions = 600;
  config.client_hosts = 100;
  config.server_hosts = 25;
  const auto sessions = TrafficModel(config).generate_benign();
  const std::string path = ::testing::TempDir() + "/csb_end_to_end.pcap";
  write_pcap_file(path, sessions_to_packets(sessions));

  // 2. PCAP file -> seed bundle (Fig. 1).
  const SeedBundle seed = build_seed_from_pcap_file(path);
  ASSERT_GT(seed.graph.num_edges(), 500u);

  // 3. Seed -> synthetic graph (PGPBA).
  ClusterSim cluster(ClusterConfig{.nodes = 4, .cores_per_node = 2});
  PgpbaOptions options;
  options.desired_edges = 6 * seed.graph.num_edges();
  const GenResult result =
      pgpba_generate(seed.graph, seed.profile, cluster, options);
  ASSERT_GE(result.graph.num_edges(), options.desired_edges);
  ASSERT_TRUE(result.graph.has_properties());

  // 4. Veracity against the seed.
  ThreadPool pool(2);
  const VeracityReport report =
      evaluate_veracity(seed.graph, result.graph, pool);
  EXPECT_GT(report.degree_score, 0.0);
  EXPECT_LT(report.degree_score, 0.1);
  EXPECT_LT(report.pagerank_score, 0.1);

  // 5. Synthetic attribute distributions stay inside the seed support.
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const EdgeId e = rng.uniform(result.graph.num_edges());
    const EdgeProperties p = result.graph.edge_properties(e);
    EXPECT_GT(seed.profile.in_bytes().pmf(static_cast<double>(p.in_bytes)),
              0.0);
  }
}

TEST(EndToEndTest, PgskPipelineWithPersistence) {
  TrafficModelConfig config;
  config.benign_sessions = 500;
  const SeedBundle seed = build_seed_from_netflow(
      sessions_to_netflow(TrafficModel(config).generate_benign()));

  ClusterSim cluster(ClusterConfig{.nodes = 4, .cores_per_node = 2});
  PgskOptions options;
  options.desired_edges = 2 * seed.graph.num_edges();
  options.fit.gradient_iterations = 8;
  options.fit.swaps_per_iteration = 200;
  options.fit.burn_in_swaps = 500;
  const GenResult result =
      pgsk_generate(seed.graph, seed.profile, cluster, options);

  // Round-trip the synthetic dataset through the binary format (how a
  // benchmark would hand it to the system under test).
  std::stringstream buffer;
  save_binary(result.graph, buffer);
  const PropertyGraph loaded = load_binary(buffer);
  EXPECT_EQ(loaded, result.graph);
}

TEST(EndToEndTest, IdsPipelineOnLabeledTraffic) {
  // Benign baseline, calibration, attack injection, detection — the §IV
  // workflow with ground-truth checks of both hits and false positives.
  TrafficModelConfig config;
  config.benign_sessions = 4000;
  const TrafficModel model(config);
  auto sessions = model.generate_benign();
  const auto benign = sessions_to_netflow(sessions);
  const auto thresholds = calibrate_thresholds(
      benign, CalibrationOptions{.quantile = 1.0, .margin = 2.5});

  Rng rng(77);
  const std::uint64_t t0 = config.start_time_us;
  SynFloodConfig syn;
  syn.victim_ip = model.server_ip(49);  // cold FTP-pool server
  syn.flows = 6000;
  syn.start_us = t0;
  HostScanConfig scan;
  scan.scanner_ip = 0xc6336401;  // external scanner
  scan.target_ip = model.server_ip(53);
  scan.port_count = 3000;
  scan.start_us = t0;
  UdpFloodConfig udp;
  udp.attacker_ip = 0xc6336402;
  udp.victim_ip = model.server_ip(47);
  udp.flows = 500;
  udp.pkts_per_flow = 800;
  udp.start_us = t0;

  auto all = benign;
  for (const auto& s : inject_syn_flood(syn, rng)) all.push_back(to_netflow(s));
  for (const auto& s : inject_host_scan(scan, rng)) all.push_back(to_netflow(s));
  for (const auto& s : inject_udp_flood(udp, rng)) all.push_back(to_netflow(s));

  const AnomalyDetector detector(thresholds);
  const auto alarms = detector.detect(all);

  const auto has = [&](std::uint32_t ip, AttackClass type) {
    return std::any_of(alarms.begin(), alarms.end(), [&](const Alarm& a) {
      return a.detection_ip == ip && a.type == type;
    });
  };
  EXPECT_TRUE(has(syn.victim_ip, AttackClass::kDdos) ||
              has(syn.victim_ip, AttackClass::kSynFlood));
  EXPECT_TRUE(has(scan.target_ip, AttackClass::kHostScan) ||
              has(scan.scanner_ip, AttackClass::kHostScan));
  EXPECT_TRUE(has(udp.victim_ip, AttackClass::kFlooding));

  // No alarm may point at an uninvolved benign client.
  for (const auto& alarm : alarms) {
    EXPECT_NE(alarm.detection_ip, model.client_ip(0));
  }
}

TEST(EndToEndTest, SimulatedClusterScalesGenerators) {
  // Strong-scaling smoke test of the Fig. 12 methodology: the same PGPBA
  // job on more virtual nodes must report a smaller simulated makespan.
  TrafficModelConfig config;
  config.benign_sessions = 800;
  const SeedBundle seed = build_seed_from_netflow(
      sessions_to_netflow(TrafficModel(config).generate_benign()));
  const auto run = [&](std::size_t nodes) {
    double best = 1e18;
    for (int repeat = 0; repeat < 3; ++repeat) {
      ClusterSim cluster(ClusterConfig{.nodes = nodes,
                                       .cores_per_node = 2,
                                       .smooth_task_durations = true});
      PgpbaOptions options;
      options.desired_edges = 20 * seed.graph.num_edges();
      options.fraction = 1.0;
      options.partitions = 64;  // fixed task granularity across runs
      const GenResult result =
          pgpba_generate(seed.graph, seed.profile, cluster, options);
      best = std::min(best, result.metrics.simulated_seconds);
    }
    return best;
  };
  const double t2 = run(2);
  const double t16 = run(16);
  EXPECT_LT(t16, t2);
}

TEST(EndToEndTest, GraphmlExportOfSyntheticData) {
  TrafficModelConfig config;
  config.benign_sessions = 120;
  const SeedBundle seed = build_seed_from_netflow(
      sessions_to_netflow(TrafficModel(config).generate_benign()));
  ClusterSim cluster(ClusterConfig{.nodes = 2, .cores_per_node = 2});
  PgpbaOptions options;
  options.desired_edges = 2 * seed.graph.num_edges();
  const GenResult result =
      pgpba_generate(seed.graph, seed.profile, cluster, options);
  std::stringstream xml;
  save_graphml(result.graph, xml);
  EXPECT_NE(xml.str().find("</graphml>"), std::string::npos);
  EXPECT_NE(xml.str().find("protocol"), std::string::npos);
}

}  // namespace
}  // namespace csb
