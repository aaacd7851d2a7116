// Unit tests for src/seed: NetFlow -> graph mapping, the Fig. 1 analysis
// step, the p(a | IN_BYTES) factorization, and the full PCAP pipeline.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "flow/netflow_io.hpp"
#include "gen/properties.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph_io.hpp"
#include "obs/trace.hpp"
#include "pcap/pcap_file.hpp"
#include "seed/seed.hpp"
#include "trace/traffic_model.hpp"
#include "input_sweep.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace csb {
namespace {

std::vector<NetflowRecord> tiny_records() {
  // Three hosts, four flows: A->B twice, B->C, C->A.
  NetflowRecord ab1;
  ab1.src_ip = 0x0a000001;
  ab1.dst_ip = 0x0a000002;
  ab1.protocol = Protocol::kTcp;
  ab1.src_port = 50000;
  ab1.dst_port = 80;
  ab1.first_us = 0;
  ab1.last_us = 1'000'000;
  ab1.out_bytes = 1000;
  ab1.in_bytes = 5000;
  ab1.out_pkts = 10;
  ab1.in_pkts = 12;
  ab1.state = ConnState::kSF;
  NetflowRecord ab2 = ab1;
  ab2.dst_port = 443;
  ab2.in_bytes = 800;
  NetflowRecord bc = ab1;
  bc.src_ip = 0x0a000002;
  bc.dst_ip = 0x0a000003;
  bc.in_bytes = 200000;
  NetflowRecord ca = ab1;
  ca.src_ip = 0x0a000003;
  ca.dst_ip = 0x0a000001;
  ca.protocol = Protocol::kUdp;
  ca.state = ConnState::kNone;
  return {ab1, ab2, bc, ca};
}

/// `count` property rows drawn from `profile` by the compiled sampler, as
/// property chunk 0 of `seed`.
PropertyColumns sampled_rows(const SeedProfile& profile, std::uint64_t seed,
                             std::size_t count) {
  PropertyColumns rows;
  PropertySampler(profile).sample_chunk(
      seed, ChunkRange{.begin = 0, .end = count, .chunk_index = 0}, rows);
  return rows;
}

// ------------------------------------------------------- graph mapping

TEST(GraphFromNetflowTest, MapsHostsToDenseIds) {
  const auto graph = graph_from_netflow(tiny_records());
  EXPECT_EQ(graph.num_vertices(), 3u);
  EXPECT_EQ(graph.num_edges(), 4u);
  EXPECT_TRUE(graph.has_properties());
  // First appearance order: A=0, B=1, C=2.
  EXPECT_EQ(graph.edge_src(0), 0u);
  EXPECT_EQ(graph.edge_dst(0), 1u);
  EXPECT_EQ(graph.edge_src(2), 1u);
  EXPECT_EQ(graph.edge_dst(2), 2u);
  EXPECT_EQ(graph.edge_src(3), 2u);
  EXPECT_EQ(graph.edge_dst(3), 0u);
}

TEST(GraphFromNetflowTest, PreservesNetflowAttributes) {
  const auto records = tiny_records();
  const auto graph = graph_from_netflow(records);
  const EdgeProperties p = graph.edge_properties(2);
  EXPECT_EQ(p.in_bytes, 200000u);
  EXPECT_EQ(p.duration_ms, 1000u);
  EXPECT_EQ(p.state, ConnState::kSF);
  EXPECT_EQ(graph.edge_properties(3).protocol, Protocol::kUdp);
}

TEST(GraphFromNetflowTest, EmptyInputGivesEmptyGraph) {
  const auto graph = graph_from_netflow({});
  EXPECT_EQ(graph.num_vertices(), 0u);
  EXPECT_EQ(graph.num_edges(), 0u);
}

// ------------------------------------------------------ incremental builder

TEST(IncrementalBuilderTest, MatchesBatchConstruction) {
  const auto records = tiny_records();
  IncrementalGraphBuilder builder;
  for (const auto& rec : records) builder.add(rec);
  EXPECT_EQ(builder.graph(), graph_from_netflow(records));
  EXPECT_EQ(builder.flows_ingested(), records.size());
}

TEST(IncrementalBuilderTest, IpMappingIsBidirectional) {
  IncrementalGraphBuilder builder;
  const auto records = tiny_records();
  for (const auto& rec : records) builder.add(rec);
  for (VertexId v = 0; v < builder.graph().num_vertices(); ++v) {
    EXPECT_EQ(builder.vertex_of(builder.ip_of(v)), v);
  }
  EXPECT_THROW((void)builder.ip_of(999), CsbError);
}

TEST(IncrementalBuilderTest, GraphIsValidMidStream) {
  IncrementalGraphBuilder builder;
  const auto records = tiny_records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    builder.add(records[i]);
    // Any prefix must be a well-formed property graph.
    EXPECT_EQ(builder.graph().num_edges(), i + 1);
    EXPECT_TRUE(builder.graph().has_properties());
  }
}

TEST(IncrementalBuilderTest, TakeResetsBuilder) {
  IncrementalGraphBuilder builder;
  for (const auto& rec : tiny_records()) builder.add(rec);
  const PropertyGraph taken = builder.take();
  EXPECT_EQ(taken.num_edges(), 4u);
  EXPECT_EQ(builder.graph().num_edges(), 0u);
  EXPECT_EQ(builder.graph().num_vertices(), 0u);
  // The builder is reusable: old IPs get fresh ids.
  builder.add(tiny_records().front());
  EXPECT_EQ(builder.graph().num_vertices(), 2u);
}

// ----------------------------------------------------------- seed profile

TEST(SeedProfileTest, DegreeDistributionsMatchGraph) {
  const auto graph = graph_from_netflow(tiny_records());
  const auto profile = SeedProfile::analyze(graph);
  // Out-degrees: A=2, B=1, C=1 -> support {1, 2}, P(1)=2/3.
  EXPECT_EQ(profile.out_degree().support_size(), 2u);
  EXPECT_NEAR(profile.out_degree().pmf(1), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(profile.out_degree().pmf(2), 1.0 / 3.0, 1e-12);
  // In-degrees: A=1, B=2, C=1.
  EXPECT_NEAR(profile.in_degree().pmf(2), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(profile.seed_vertices(), 3u);
  EXPECT_EQ(profile.seed_edges(), 4u);
}

TEST(SeedProfileTest, InBytesMarginalMatchesSeed) {
  const auto graph = graph_from_netflow(tiny_records());
  const auto profile = SeedProfile::analyze(graph);
  EXPECT_NEAR(profile.in_bytes().pmf(5000), 0.5, 1e-12);
  EXPECT_NEAR(profile.in_bytes().pmf(800), 0.25, 1e-12);
  EXPECT_NEAR(profile.in_bytes().pmf(200000), 0.25, 1e-12);
}

TEST(SeedProfileTest, SampledPropertiesStayInSeedSupport) {
  const auto graph = graph_from_netflow(tiny_records());
  const auto profile = SeedProfile::analyze(graph);
  const std::set<std::uint64_t> seed_in_bytes = {5000, 800, 200000};
  const std::set<std::uint16_t> seed_ports = {80, 443};
  const PropertyColumns rows = sampled_rows(profile, 3, 500);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const EdgeProperties p = rows.row(i);
    EXPECT_TRUE(seed_in_bytes.contains(p.in_bytes));
    EXPECT_TRUE(seed_ports.contains(p.dst_port));
    EXPECT_TRUE(p.protocol == Protocol::kTcp || p.protocol == Protocol::kUdp);
    EXPECT_TRUE(p.state == ConnState::kSF || p.state == ConnState::kNone);
    EXPECT_EQ(p.out_bytes, 1000u);
    EXPECT_EQ(p.duration_ms, 1000u);
  }
}

TEST(SeedProfileTest, ConditionalStructureIsRespected) {
  // in_bytes 800 only ever co-occurs with dst_port 443 in the seed, so the
  // conditional p(dst_port | in_bytes=800-bucket) must put all mass there.
  const auto graph = graph_from_netflow(tiny_records());
  const auto profile = SeedProfile::analyze(graph);
  const PropertyColumns rows = sampled_rows(profile, 4, 2000);
  int n800 = 0;
  for (std::size_t i = 0; i < rows.size() && n800 < 50; ++i) {
    const EdgeProperties p = rows.row(i);
    if (p.in_bytes == 800) {
      ++n800;
      EXPECT_EQ(p.dst_port, 443u);
      EXPECT_EQ(p.protocol, Protocol::kTcp);
    }
  }
  EXPECT_GT(n800, 0);
}

TEST(SeedProfileTest, RejectsStructureOnlyOrEmptySeed) {
  PropertyGraph structure_only(3);
  structure_only.add_edge(0, 1);
  EXPECT_THROW(SeedProfile::analyze(structure_only), CsbError);
  PropertyGraph empty(3);
  EXPECT_THROW(SeedProfile::analyze(empty), CsbError);
}

TEST(SeedProfileTest, PropertyCountMatchesSchema) {
  EXPECT_EQ(SeedProfile::property_count(), kNetflowAttributeCount);
  EXPECT_EQ(SeedProfile::property_count(), 9u);
}

// -------------------------------------------------------- full pipeline

TEST(SeedPipelineTest, PacketsToSeedBundle) {
  TrafficModelConfig config;
  config.benign_sessions = 300;
  const auto sessions = TrafficModel(config).generate_benign();
  const auto packets = sessions_to_packets(sessions);
  const SeedBundle bundle = build_seed_from_packets(packets);
  // Each session is a distinct flow (up to rare 5-tuple collisions).
  EXPECT_GE(bundle.graph.num_edges(), 290u);
  EXPECT_LE(bundle.graph.num_edges(), 300u);
  EXPECT_GT(bundle.graph.num_vertices(), 50u);
  EXPECT_TRUE(bundle.graph.has_properties());
  EXPECT_EQ(bundle.profile.seed_edges(), bundle.graph.num_edges());
}

TEST(SeedPipelineTest, NetflowShortcutMatchesPacketPath) {
  TrafficModelConfig config;
  config.benign_sessions = 150;
  const auto sessions = TrafficModel(config).generate_benign();
  const SeedBundle via_packets =
      build_seed_from_packets(sessions_to_packets(sessions));
  const SeedBundle via_netflow =
      build_seed_from_netflow(sessions_to_netflow(sessions));
  // Both paths must agree on scale; flow-level details may differ by
  // 5-tuple collisions only.
  EXPECT_NEAR(static_cast<double>(via_packets.graph.num_edges()),
              static_cast<double>(via_netflow.graph.num_edges()), 5.0);
  EXPECT_EQ(via_packets.graph.num_vertices(),
            via_netflow.graph.num_vertices());
}

TEST(SeedProfileIoTest, RoundTripsExactly) {
  const auto graph = graph_from_netflow(tiny_records());
  const SeedProfile profile = SeedProfile::analyze(graph);
  std::stringstream buffer;
  profile.save(buffer);
  const SeedProfile loaded = SeedProfile::load(buffer);
  EXPECT_TRUE(loaded == profile);
  EXPECT_EQ(loaded.seed_vertices(), profile.seed_vertices());
  // Sampling behaves identically after the round trip.
  EXPECT_EQ(sampled_rows(profile, 7, 100), sampled_rows(loaded, 7, 100));
}

TEST(SeedProfileIoTest, FileRoundTripAndErrors) {
  TrafficModelConfig config;
  config.benign_sessions = 200;
  const SeedBundle bundle = build_seed_from_netflow(
      sessions_to_netflow(TrafficModel(config).generate_benign()));
  const std::string path = ::testing::TempDir() + "/csb_profile_test.bin";
  bundle.profile.save_file(path);
  EXPECT_TRUE(SeedProfile::load_file(path) == bundle.profile);

  std::stringstream bad("not a profile at all............");
  EXPECT_THROW(SeedProfile::load(bad), CsbError);

  std::stringstream truncated;
  bundle.profile.save(truncated);
  std::string bytes = truncated.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream half(bytes);
  EXPECT_THROW(SeedProfile::load(half), CsbError);
}

// Every truncation of a valid profile file either loads or is rejected as
// bad input naming the file and a byte offset — never as a failed internal
// check. Only the whole file loads.
TEST(SeedProfileIoTest, TruncationSweepNamesFileAndOffset) {
  const SeedBundle bundle = build_seed_from_netflow(tiny_records());
  std::stringstream full;
  bundle.profile.save(full);
  const std::string path = ::testing::TempDir() + "/csb_profile_sweep.bin";
  const InputLoader load = [](const std::string& file) {
    (void)SeedProfile::load_file(file);
  };
  EXPECT_TRUE(sweep_input(path, full.str(), load,
                          "bad seed profile " + path + ": byte ",
                          /*flip_span=*/0)
                  .empty());
}

// A probability with its sign bit flipped is bad input at that field's
// offset, caught before the distribution is built — not a failed check
// inside EmpiricalDistribution.
TEST(SeedProfileIoTest, NegativeProbabilityNamesFileAndOffset) {
  const SeedBundle bundle = build_seed_from_netflow(tiny_records());
  std::stringstream full;
  bundle.profile.save(full);
  std::string bytes = full.str();
  // magic, version, |V|, |E| (24 bytes), then the in-degree distribution:
  // its size (8), the first support value (8), the first probability.
  constexpr std::size_t kFirstProbability = 24 + 8 + 8;
  bytes[kFirstProbability + 7] =
      static_cast<char>(bytes[kFirstProbability + 7] ^ 0x80);  // sign bit
  const std::string path = ::testing::TempDir() + "/csb_profile_negative.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  try {
    (void)SeedProfile::load_file(path);
    ADD_FAILURE() << "a negative probability loaded";
  } catch (const CsbError& error) {
    const std::string message = error.what();
    EXPECT_EQ(message.rfind("bad seed profile " + path + ": byte " +
                                std::to_string(kFirstProbability) + ": ",
                            0),
              0u)
        << message;
    EXPECT_EQ(message.find("CSB_CHECK failed"), std::string::npos) << message;
  }
  std::remove(path.c_str());
}

// A condition-bucket key names one of the 65 log2 slots; a key past them
// is bad input at its offset, not a failed check in ConditionalDistribution.
TEST(SeedProfileIoTest, BucketKeyOutOfRangeNamesOffset) {
  const SeedBundle bundle = build_seed_from_netflow(tiny_records());
  std::stringstream full;
  bundle.profile.save(full);
  std::string bytes = full.str();
  // Header (24 bytes), three distributions of (size, then 16 bytes per
  // support value), then the protocol conditional's bucket count (8).
  std::size_t key_at = 24 + 8;
  for (const EmpiricalDistribution* dist :
       {&bundle.profile.in_degree(), &bundle.profile.out_degree(),
        &bundle.profile.in_bytes()}) {
    key_at += 8 + 16 * dist->support_size();
  }
  const std::uint32_t key = 99;
  bytes.replace(key_at, sizeof key, reinterpret_cast<const char*>(&key),
                sizeof key);
  std::istringstream in(bytes);
  try {
    (void)SeedProfile::load(in, "cut.profile");
    ADD_FAILURE() << "bucket key 99 loaded";
  } catch (const CsbError& error) {
    EXPECT_EQ(std::string(error.what()),
              "bad seed profile cut.profile: byte " + std::to_string(key_at) +
                  ": condition bucket 99 out of range or out of order");
  }
}

// ------------------------------------------------------ pool determinism

std::string serialized_bundle(const SeedBundle& bundle) {
  // Exactly what `csbgen seed` writes: the binary graph plus the profile.
  std::stringstream out;
  save_binary(bundle.graph, out);
  bundle.profile.save(out);
  return out.str();
}

TEST(SeedDeterminismTest, NetflowSeedIdenticalAcrossPoolSizes) {
  // Enough records that the chunked graph build and profile fits actually
  // run multi-chunk; the serialized seed must be byte-identical to the
  // serial build at every pool size, including a single-worker pool.
  TrafficModelConfig config;
  config.benign_sessions = 6'000;
  config.client_hosts = 500;
  config.server_hosts = 80;
  const auto records =
      sessions_to_netflow(TrafficModel(config).generate_benign());
  ASSERT_GT(records.size(), 2'048u);
  const SeedBundle serial = build_seed_from_netflow(records);
  const std::string serial_bytes = serialized_bundle(serial);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    SeedOptions options;
    options.pool = &pool;
    const SeedBundle pooled = build_seed_from_netflow(records, options);
    EXPECT_EQ(pooled.graph, serial.graph) << threads << " threads";
    EXPECT_TRUE(pooled.profile == serial.profile) << threads << " threads";
    EXPECT_EQ(serialized_bundle(pooled), serial_bytes)
        << threads << " threads";
  }
}

TEST(SeedDeterminismTest, PcapSeedIdenticalAcrossPoolSizes) {
  // End-to-end from a capture file: indexed read, chunked decode, sharded
  // flow assembly, parallel graph build and profile — all byte-identical
  // to the serial pipeline.
  TrafficModelConfig config;
  config.benign_sessions = 2'500;
  const auto packets =
      sessions_to_packets(TrafficModel(config).generate_benign());
  const std::string path =
      ::testing::TempDir() + "/csb_seed_determinism.pcap";
  write_pcap_file(path, packets);
  const SeedBundle serial = build_seed_from_pcap_file(path);
  const std::string serial_bytes = serialized_bundle(serial);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    SeedOptions options;
    options.pool = &pool;
    const SeedBundle pooled = build_seed_from_pcap_file(path, options);
    EXPECT_EQ(pooled.graph, serial.graph) << threads << " threads";
    EXPECT_TRUE(pooled.profile == serial.profile) << threads << " threads";
    EXPECT_EQ(serialized_bundle(pooled), serial_bytes)
        << threads << " threads";
  }
}

TEST(SeedDeterminismTest, BooksSeedSubPhases) {
  // The parallel pipeline reports its stages through the csb.trace.v1
  // recorder: every sub-span of the ingestion path must appear.
  TrafficModelConfig config;
  config.benign_sessions = 3'000;
  const auto packets =
      sessions_to_packets(TrafficModel(config).generate_benign());
  const std::string path = ::testing::TempDir() + "/csb_seed_phases.pcap";
  write_pcap_file(path, packets);

  TraceRecorder recorder;
  TraceRecorder::set_current(&recorder);
  ThreadPool pool(2);
  SeedOptions options;
  options.pool = &pool;
  const SeedBundle bundle = build_seed_from_pcap_file(path, options);
  TraceRecorder::set_current(nullptr);
  ASSERT_GT(bundle.graph.num_edges(), 2'048u);

  std::set<std::string> names;
  for (const auto& span : recorder.spans()) names.insert(span.name);
  for (const char* expected :
       {"seed:index", "seed:decode", "seed:assemble-flows",
        "seed:build-graph", "seed:build-graph:scan",
        "seed:build-graph:remap", "seed:build-graph:fill", "seed:profile",
        "seed:profile:structure", "seed:profile:attributes"}) {
    EXPECT_TRUE(names.contains(expected)) << "missing span " << expected;
  }
}

TEST(SeedPipelineTest, PcapFileRoundTrip) {
  TrafficModelConfig config;
  config.benign_sessions = 60;
  const auto sessions = TrafficModel(config).generate_benign();
  const auto packets = sessions_to_packets(sessions);
  const std::string path = ::testing::TempDir() + "/csb_seed_test.pcap";
  write_pcap_file(path, packets);
  const SeedBundle bundle = build_seed_from_pcap_file(path);
  EXPECT_GT(bundle.graph.num_edges(), 50u);
}

// The ingest reader is chosen by the file's first four bytes, never by its
// name: a capture named .cap is a capture, a CSV named .pcap is a CSV.
TEST(FlowsFromFileTest, PicksReaderByContent) {
  TrafficModelConfig config;
  config.benign_sessions = 60;
  const auto sessions = TrafficModel(config).generate_benign();
  const std::string capture = ::testing::TempDir() + "/csb_flows_test.cap";
  write_pcap_file(capture, sessions_to_packets(sessions));
  EXPECT_EQ(flows_from_file(capture), flows_from_pcap_file(capture));

  const std::string csv = ::testing::TempDir() + "/csb_flows_test_csv.pcap";
  const auto records = sessions_to_netflow(sessions);
  save_netflow_csv_file(records, csv);
  EXPECT_EQ(flows_from_file(csv), load_netflow_csv_file(csv));
}

TEST(FlowsFromFileTest, DirectoryAndUnreadablePathNameThePath) {
  const auto message_of = [](const std::string& path) {
    try {
      (void)flows_from_file(path);
    } catch (const CsbError& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  const std::string dir = ::testing::TempDir();
  EXPECT_NE(message_of(dir).find("cannot read flows from " + dir),
            std::string::npos)
      << message_of(dir);
  const std::string missing = dir + "/csb_flows_test_missing.csv";
  EXPECT_NE(message_of(missing).find("cannot read flows from " + missing),
            std::string::npos)
      << message_of(missing);
}

}  // namespace
}  // namespace csb
