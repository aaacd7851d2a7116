// Unit and property tests for src/trace: session normalization/lowering
// invariants, the benign traffic model, and the attack injectors' shapes.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <unordered_set>

#include "trace/attacks.hpp"
#include "trace/session.hpp"
#include "trace/traffic_model.hpp"
#include "util/error.hpp"

namespace csb {
namespace {

// ----------------------------------------------------------- normalization

// gtest prints a case without a printer as its raw bytes, and ctest takes the
// test name from that dump. The padding after `state` is therefore a named,
// zero-initialised member: implicit padding holds leftover stack bytes and
// would give the same case a different name on every test discovery.
struct NormalizeCase {
  Protocol protocol;
  ConnState state;
  std::array<std::uint8_t, 6> zero_pad{};
  std::uint64_t out_bytes;
  std::uint64_t in_bytes;
  std::uint32_t out_pkts;
  std::uint32_t in_pkts;
};
static_assert(sizeof(NormalizeCase) == 32,
              "NormalizeCase must have no implicit padding");

class NormalizeTest : public ::testing::TestWithParam<NormalizeCase> {};

TEST_P(NormalizeTest, ProducesConsistentSpec) {
  const auto& c = GetParam();
  SessionSpec spec;
  spec.client_ip = 1;
  spec.server_ip = 2;
  spec.protocol = c.protocol;
  spec.client_port = 1234;
  spec.server_port = 80;
  spec.duration_ms = 100;
  spec.out_bytes = c.out_bytes;
  spec.in_bytes = c.in_bytes;
  spec.out_pkts = c.out_pkts;
  spec.in_pkts = c.in_pkts;
  spec.state = c.state;
  normalize_session(spec);

  // to_netflow must agree with the spec exactly — that is the definition of
  // a normalized spec.
  const NetflowRecord rec = to_netflow(spec);
  EXPECT_EQ(rec.out_bytes, spec.out_bytes);
  EXPECT_EQ(rec.in_bytes, spec.in_bytes);
  EXPECT_EQ(rec.out_pkts, spec.out_pkts);
  EXPECT_EQ(rec.in_pkts, spec.in_pkts);

  // Packets must expand to the same counts.
  const auto packets = to_packets(spec);
  EXPECT_EQ(packets.size(), spec.out_pkts + spec.in_pkts);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, NormalizeTest,
    ::testing::Values(
        NormalizeCase{Protocol::kTcp, ConnState::kSF, {}, 5000, 20000, 10,
                      20},
        NormalizeCase{Protocol::kTcp, ConnState::kSF, {}, 0, 0, 0, 0},
        NormalizeCase{Protocol::kTcp, ConnState::kS0, {}, 100, 999, 2, 7},
        NormalizeCase{Protocol::kTcp, ConnState::kRej, {}, 0, 0, 3, 3},
        NormalizeCase{Protocol::kTcp, ConnState::kS1, {}, 100000, 2000000, 0, 0},
        NormalizeCase{Protocol::kTcp, ConnState::kRsto, {}, 800, 800, 5, 2},
        NormalizeCase{Protocol::kTcp, ConnState::kRstr, {}, 800, 800, 5, 5},
        NormalizeCase{Protocol::kTcp, ConnState::kOth, {}, 1500, 0, 1, 0},
        NormalizeCase{Protocol::kUdp, ConnState::kNone, {}, 4200, 0, 3, 0},
        NormalizeCase{Protocol::kUdp, ConnState::kNone, {}, 0, 0, 0, 0},
        NormalizeCase{Protocol::kIcmp, ConnState::kNone, {}, 640, 640, 4, 4}));

TEST(NormalizeTest, GrowsPacketsWhenPayloadExceedsCapacity) {
  SessionSpec spec;
  spec.client_ip = 1;
  spec.server_ip = 2;
  spec.protocol = Protocol::kUdp;
  spec.out_bytes = 100 * kMaxPayload;  // cannot fit in 2 packets
  spec.out_pkts = 2;
  normalize_session(spec);
  EXPECT_GE(spec.out_pkts, 100u);
  EXPECT_EQ(to_netflow(spec).out_bytes, spec.out_bytes);
}

TEST(NormalizeTest, S0HasNoResponderTraffic) {
  SessionSpec spec;
  spec.client_ip = 1;
  spec.server_ip = 2;
  spec.protocol = Protocol::kTcp;
  spec.state = ConnState::kS0;
  spec.in_bytes = 5000;
  spec.in_pkts = 10;
  normalize_session(spec);
  EXPECT_EQ(spec.in_bytes, 0u);
  EXPECT_EQ(spec.in_pkts, 0u);
}

TEST(NormalizeTest, SinglePacketFlowHasZeroDuration) {
  SessionSpec spec;
  spec.client_ip = 1;
  spec.server_ip = 2;
  spec.protocol = Protocol::kTcp;
  spec.state = ConnState::kS0;
  spec.out_pkts = 1;
  spec.duration_ms = 5000;
  normalize_session(spec);
  EXPECT_EQ(spec.duration_ms, 0u);
}

TEST(NormalizeTest, TcpWithoutStateThrows) {
  SessionSpec spec;
  spec.protocol = Protocol::kTcp;
  spec.state = ConnState::kNone;
  EXPECT_THROW(normalize_session(spec), CsbError);
}

class RandomSessionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSessionSweep, NormalizeThenLowerIsAlwaysConsistent) {
  // Property test: for random budgets across all protocols and states,
  // normalize_session must make to_netflow and to_packets agree exactly.
  Rng rng(GetParam());
  constexpr ConnState kTcpStates[] = {
      ConnState::kSF,   ConnState::kS1,   ConnState::kS0, ConnState::kRej,
      ConnState::kRsto, ConnState::kRstr, ConnState::kOth};
  for (int i = 0; i < 200; ++i) {
    SessionSpec spec;
    spec.client_ip = 1 + static_cast<std::uint32_t>(rng.uniform(1000));
    spec.server_ip = 2000 + static_cast<std::uint32_t>(rng.uniform(1000));
    const int proto = static_cast<int>(rng.uniform(3));
    spec.protocol = proto == 0   ? Protocol::kTcp
                    : proto == 1 ? Protocol::kUdp
                                 : Protocol::kIcmp;
    spec.client_port = static_cast<std::uint16_t>(rng.uniform(65536));
    spec.server_port = static_cast<std::uint16_t>(rng.uniform(65536));
    spec.start_us = rng.uniform(1ULL << 40);
    spec.duration_ms = static_cast<std::uint32_t>(rng.uniform(100000));
    spec.out_bytes = rng.uniform(1 << 22);
    spec.in_bytes = rng.uniform(1 << 22);
    spec.out_pkts = static_cast<std::uint32_t>(rng.uniform(2000));
    spec.in_pkts = static_cast<std::uint32_t>(rng.uniform(2000));
    spec.state = spec.protocol == Protocol::kTcp
                     ? kTcpStates[rng.uniform(std::size(kTcpStates))]
                     : ConnState::kNone;
    normalize_session(spec);

    const NetflowRecord rec = to_netflow(spec);  // throws if inconsistent
    const auto packets = to_packets(spec);
    ASSERT_EQ(packets.size(), spec.out_pkts + spec.in_pkts);
    std::uint64_t wire_total = 0;
    for (const auto& packet : packets) wire_total += packet.orig_len;
    EXPECT_EQ(wire_total, rec.out_bytes + rec.in_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSessionSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ToPacketsTest, RequiresNormalizedSpec) {
  SessionSpec spec;
  spec.client_ip = 1;
  spec.server_ip = 2;
  spec.protocol = Protocol::kTcp;
  spec.state = ConnState::kSF;
  spec.out_pkts = 1;  // below the SF minimum of 3
  EXPECT_THROW(to_packets(spec), CsbError);
}

TEST(ToPacketsTest, TimestampsSpanDuration) {
  SessionSpec spec;
  spec.client_ip = 1;
  spec.server_ip = 2;
  spec.protocol = Protocol::kUdp;
  spec.start_us = 10'000'000;
  spec.duration_ms = 500;
  spec.out_pkts = 10;
  normalize_session(spec);
  const auto packets = to_packets(spec);
  EXPECT_EQ(packets.front().timestamp_us, spec.start_us);
  EXPECT_EQ(packets.back().timestamp_us, spec.start_us + 500'000);
  for (std::size_t i = 1; i < packets.size(); ++i) {
    EXPECT_GE(packets[i].timestamp_us, packets[i - 1].timestamp_us);
  }
}

// ------------------------------------------------------------ traffic model

TEST(TrafficModelTest, GeneratesRequestedSessionCount) {
  TrafficModelConfig config;
  config.benign_sessions = 500;
  const TrafficModel model(config);
  const auto sessions = model.generate_benign();
  EXPECT_EQ(sessions.size(), 500u);
}

TEST(TrafficModelTest, SessionsAreSortedAndLabeledBenign) {
  TrafficModelConfig config;
  config.benign_sessions = 300;
  const auto sessions = TrafficModel(config).generate_benign();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(sessions[i].start_us, sessions[i - 1].start_us);
    }
    EXPECT_EQ(sessions[i].label, TrafficLabel::kBenign);
  }
}

TEST(TrafficModelTest, HostsStayInConfiguredRanges) {
  TrafficModelConfig config;
  config.benign_sessions = 400;
  const TrafficModel model(config);
  const auto sessions = model.generate_benign();
  for (const auto& s : sessions) {
    EXPECT_GE(s.client_ip, model.client_ip(0));
    EXPECT_LE(s.client_ip, model.client_ip(config.client_hosts - 1));
    EXPECT_GE(s.server_ip, model.server_ip(0));
    EXPECT_LE(s.server_ip, model.server_ip(config.server_hosts - 1));
  }
}

TEST(TrafficModelTest, DeterministicPerSeed) {
  TrafficModelConfig config;
  config.benign_sessions = 100;
  const auto a = TrafficModel(config).generate_benign();
  const auto b = TrafficModel(config).generate_benign();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].client_ip, b[i].client_ip);
    EXPECT_EQ(a[i].out_bytes, b[i].out_bytes);
  }
  config.seed = 43;
  const auto c = TrafficModel(config).generate_benign();
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= a[i].client_ip != c[i].client_ip ||
                a[i].out_bytes != c[i].out_bytes;
  }
  EXPECT_TRUE(any_diff);
}

TEST(TrafficModelTest, ServerPopularityIsSkewed) {
  TrafficModelConfig config;
  config.benign_sessions = 5000;
  config.server_hosts = 40;
  const auto sessions = TrafficModel(config).generate_benign();
  std::unordered_map<std::uint32_t, int> hits;
  for (const auto& s : sessions) ++hits[s.server_ip];
  int max_hits = 0;
  for (const auto& [ip, n] : hits) max_hits = std::max(max_hits, n);
  // Zipf(1.1) over 40 servers: the hottest server draws >> 1/40 of traffic.
  EXPECT_GT(max_hits, 5000 / 40 * 3);
}

TEST(TrafficModelTest, MixesProtocols) {
  TrafficModelConfig config;
  config.benign_sessions = 2000;
  const auto sessions = TrafficModel(config).generate_benign();
  std::set<Protocol> seen;
  for (const auto& s : sessions) seen.insert(s.protocol);
  EXPECT_EQ(seen.size(), 3u);  // TCP, UDP, ICMP all present
}

TEST(SessionsToNetflowTest, ConvertsAndSorts) {
  TrafficModelConfig config;
  config.benign_sessions = 50;
  auto sessions = TrafficModel(config).generate_benign();
  const auto records = sessions_to_netflow(sessions);
  ASSERT_EQ(records.size(), 50u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].first_us, records[i - 1].first_us);
  }
}

TEST(SessionsToPacketsTest, GloballyOrdered) {
  TrafficModelConfig config;
  config.benign_sessions = 20;
  const auto sessions = TrafficModel(config).generate_benign();
  const auto packets = sessions_to_packets(sessions);
  for (std::size_t i = 1; i < packets.size(); ++i) {
    EXPECT_GE(packets[i].timestamp_us, packets[i - 1].timestamp_us);
  }
}

// ---------------------------------------------------------------- attacks

TEST(SynFloodTest, ShapeMatchesSignature) {
  SynFloodConfig config;
  config.victim_ip = 0x0a000010;
  config.flows = 500;
  Rng rng(1);
  const auto sessions = inject_syn_flood(config, rng);
  ASSERT_EQ(sessions.size(), 500u);
  std::unordered_set<std::uint32_t> distinct_clients;
  for (const auto& s : sessions) {
    EXPECT_EQ(s.server_ip, config.victim_ip);
    EXPECT_EQ(s.server_port, config.victim_port);
    EXPECT_EQ(s.state, ConnState::kS0);
    EXPECT_EQ(s.in_pkts, 0u);
    EXPECT_LE(s.out_pkts, 4u);
    EXPECT_EQ(s.label, TrafficLabel::kSynFlood);
    distinct_clients.insert(s.client_ip);
  }
  EXPECT_GT(distinct_clients.size(), 200u);  // many spoofed sources
}

TEST(HostScanTest, CoversAllPortsOfOneHost) {
  HostScanConfig config;
  config.scanner_ip = 1;
  config.target_ip = 2;
  config.first_port = 100;
  config.port_count = 300;
  Rng rng(2);
  const auto sessions = inject_host_scan(config, rng);
  ASSERT_EQ(sessions.size(), 300u);
  std::set<std::uint16_t> ports;
  for (const auto& s : sessions) {
    EXPECT_EQ(s.client_ip, 1u);
    EXPECT_EQ(s.server_ip, 2u);
    EXPECT_EQ(s.label, TrafficLabel::kHostScan);
    EXPECT_TRUE(s.state == ConnState::kRej || s.state == ConnState::kS1);
    ports.insert(s.server_port);
  }
  EXPECT_EQ(ports.size(), 300u);
  EXPECT_EQ(*ports.begin(), 100u);
}

TEST(NetworkScanTest, CoversManyHostsOnePort) {
  NetworkScanConfig config;
  config.scanner_ip = 9;
  config.subnet_base = 0x0a010000;
  config.host_count = 200;
  Rng rng(3);
  const auto sessions = inject_network_scan(config, rng);
  ASSERT_EQ(sessions.size(), 200u);
  std::set<std::uint32_t> targets;
  for (const auto& s : sessions) {
    EXPECT_EQ(s.server_port, config.port);
    EXPECT_EQ(s.label, TrafficLabel::kNetworkScan);
    targets.insert(s.server_ip);
  }
  EXPECT_EQ(targets.size(), 200u);
}

TEST(UdpFloodTest, HighVolumeAtVictim) {
  UdpFloodConfig config;
  config.attacker_ip = 5;
  config.victim_ip = 6;
  config.flows = 50;
  Rng rng(4);
  const auto sessions = inject_udp_flood(config, rng);
  std::uint64_t total_pkts = 0;
  for (const auto& s : sessions) {
    EXPECT_EQ(s.protocol, Protocol::kUdp);
    EXPECT_EQ(s.server_ip, 6u);
    EXPECT_EQ(s.label, TrafficLabel::kUdpFlood);
    total_pkts += s.out_pkts;
  }
  EXPECT_GT(total_pkts, 50u * config.pkts_per_flow / 2);
}

TEST(IcmpFloodTest, IcmpOnly) {
  IcmpFloodConfig config;
  config.attacker_ip = 5;
  config.victim_ip = 6;
  Rng rng(5);
  for (const auto& s : inject_icmp_flood(config, rng)) {
    EXPECT_EQ(s.protocol, Protocol::kIcmp);
    EXPECT_EQ(s.label, TrafficLabel::kIcmpFlood);
  }
}

TEST(DdosTest, ManyDistinctBots) {
  DdosConfig config;
  config.victim_ip = 7;
  config.bot_count = 100;
  config.flows_per_bot = 4;
  Rng rng(6);
  const auto sessions = inject_ddos(config, rng);
  EXPECT_EQ(sessions.size(), 400u);
  std::unordered_set<std::uint32_t> bots;
  for (const auto& s : sessions) {
    EXPECT_EQ(s.server_ip, 7u);
    EXPECT_EQ(s.label, TrafficLabel::kDdos);
    bots.insert(s.client_ip);
  }
  EXPECT_EQ(bots.size(), 100u);
}

TEST(ReflectionTest, SmurfIsIcmpFromManyReflectors) {
  ReflectionConfig config;
  config.victim_ip = 11;
  config.reflectors = 200;
  config.flows_per_reflector = 3;
  Rng rng(7);
  const auto sessions = inject_reflection(config, rng);
  ASSERT_EQ(sessions.size(), 600u);
  std::unordered_set<std::uint32_t> reflectors;
  for (const auto& s : sessions) {
    EXPECT_EQ(s.protocol, Protocol::kIcmp);
    EXPECT_EQ(s.server_ip, 11u);
    EXPECT_EQ(s.in_pkts, 0u);
    EXPECT_EQ(s.label, TrafficLabel::kReflection);
    reflectors.insert(s.client_ip);
  }
  EXPECT_EQ(reflectors.size(), 200u);
}

TEST(ReflectionTest, FraggleUsesUdpEchoService) {
  ReflectionConfig config;
  config.victim_ip = 12;
  config.protocol = Protocol::kUdp;
  config.reflectors = 50;
  Rng rng(8);
  for (const auto& s : inject_reflection(config, rng)) {
    EXPECT_EQ(s.protocol, Protocol::kUdp);
    EXPECT_EQ(s.client_port, 7u);  // echo
  }
}

TEST(ReflectionTest, RejectsTcp) {
  ReflectionConfig config;
  config.protocol = Protocol::kTcp;
  Rng rng(9);
  EXPECT_THROW(inject_reflection(config, rng), CsbError);
}

TEST(AttackTest, InjectorsRejectEmptyConfigs) {
  Rng rng(1);
  SynFloodConfig syn;
  syn.flows = 0;
  EXPECT_THROW(inject_syn_flood(syn, rng), CsbError);
  HostScanConfig scan;
  scan.port_count = 0;
  EXPECT_THROW(inject_host_scan(scan, rng), CsbError);
  DdosConfig ddos;
  ddos.bot_count = 0;
  EXPECT_THROW(inject_ddos(ddos, rng), CsbError);
}

}  // namespace
}  // namespace csb
