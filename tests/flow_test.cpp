// Unit tests for src/flow: the flow assembler's TCP state machine, timeout
// handling, byte/packet attribution, and NetFlow CSV IO. Sessions from
// src/trace are used as packet sources, which also pins down the
// session -> packets -> flow contract end to end.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <utility>

#include "flow/assembler.hpp"
#include "flow/netflow_io.hpp"
#include "obs/metrics.hpp"
#include "pcap/packet.hpp"
#include "trace/attacks.hpp"
#include "trace/session.hpp"
#include "trace/traffic_model.hpp"
#include "input_sweep.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace csb {
namespace {

std::vector<DecodedPacket> decode_all(const std::vector<PcapPacket>& packets) {
  std::vector<DecodedPacket> decoded;
  for (const auto& packet : packets) {
    auto summary = decode_frame(packet.data.data(), packet.data.size(),
                                packet.orig_len, packet.timestamp_us);
    if (summary) decoded.push_back(*summary);
  }
  return decoded;
}

SessionSpec base_session(Protocol protocol, ConnState state) {
  SessionSpec spec;
  spec.client_ip = 0x0a000001;
  spec.server_ip = 0x0a000002;
  spec.protocol = protocol;
  spec.client_port = 50000;
  spec.server_port = 443;
  spec.start_us = 1'000'000;
  spec.duration_ms = 2000;
  spec.out_bytes = 4000;
  spec.in_bytes = 9000;
  spec.out_pkts = 8;
  spec.in_pkts = 9;
  spec.state = state;
  normalize_session(spec);
  return spec;
}

// --------------------------------------------------- session -> one flow

class TcpStateRoundTrip : public ::testing::TestWithParam<ConnState> {};

TEST_P(TcpStateRoundTrip, AssemblerReproducesSessionExactly) {
  const SessionSpec spec = base_session(Protocol::kTcp, GetParam());
  const NetflowRecord expected = to_netflow(spec);
  const auto flows = assemble_flows(decode_all(to_packets(spec)));
  ASSERT_EQ(flows.size(), 1u);
  const NetflowRecord& flow = flows.front();
  EXPECT_EQ(flow.src_ip, spec.client_ip);
  EXPECT_EQ(flow.dst_ip, spec.server_ip);
  EXPECT_EQ(flow.src_port, spec.client_port);
  EXPECT_EQ(flow.dst_port, spec.server_port);
  EXPECT_EQ(flow.protocol, Protocol::kTcp);
  EXPECT_EQ(flow.state, GetParam());
  EXPECT_EQ(flow.out_bytes, expected.out_bytes);
  EXPECT_EQ(flow.in_bytes, expected.in_bytes);
  EXPECT_EQ(flow.out_pkts, expected.out_pkts);
  EXPECT_EQ(flow.in_pkts, expected.in_pkts);
  EXPECT_EQ(flow.duration_ms(), spec.duration_ms);
  EXPECT_EQ(flow.syn_count, expected.syn_count);
  EXPECT_EQ(flow.ack_count, expected.ack_count);
}

INSTANTIATE_TEST_SUITE_P(States, TcpStateRoundTrip,
                         ::testing::Values(ConnState::kSF, ConnState::kS1,
                                           ConnState::kS0, ConnState::kRej,
                                           ConnState::kRsto, ConnState::kRstr,
                                           ConnState::kOth));

class NonTcpRoundTrip : public ::testing::TestWithParam<Protocol> {};

TEST_P(NonTcpRoundTrip, AssemblerReproducesSession) {
  const SessionSpec spec = base_session(GetParam(), ConnState::kNone);
  const NetflowRecord expected = to_netflow(spec);
  const auto flows = assemble_flows(decode_all(to_packets(spec)));
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows.front().protocol, GetParam());
  EXPECT_EQ(flows.front().state, ConnState::kNone);
  EXPECT_EQ(flows.front().out_bytes, expected.out_bytes);
  EXPECT_EQ(flows.front().in_bytes, expected.in_bytes);
  EXPECT_EQ(flows.front().out_pkts, expected.out_pkts);
  EXPECT_EQ(flows.front().in_pkts, expected.in_pkts);
}

INSTANTIATE_TEST_SUITE_P(Protocols, NonTcpRoundTrip,
                         ::testing::Values(Protocol::kUdp, Protocol::kIcmp));

// ---------------------------------------------------------- assembler

TEST(FlowAssemblerTest, TwoConcurrentFlowsKeptApart) {
  SessionSpec a = base_session(Protocol::kTcp, ConnState::kSF);
  SessionSpec b = base_session(Protocol::kTcp, ConnState::kSF);
  b.client_port = 50001;  // different 5-tuple
  auto packets = to_packets(a);
  const auto more = to_packets(b);
  packets.insert(packets.end(), more.begin(), more.end());
  std::sort(packets.begin(), packets.end(),
            [](const PcapPacket& x, const PcapPacket& y) {
              return x.timestamp_us < y.timestamp_us;
            });
  const auto flows = assemble_flows(decode_all(packets));
  EXPECT_EQ(flows.size(), 2u);
}

TEST(FlowAssemblerTest, IdleTimeoutSplitsFlows) {
  SessionSpec first = base_session(Protocol::kUdp, ConnState::kNone);
  SessionSpec second = first;
  // Same 5-tuple, but starting 10 minutes later (idle timeout is 60 s).
  second.start_us = first.start_us + 600'000'000;
  auto packets = to_packets(first);
  const auto more = to_packets(second);
  packets.insert(packets.end(), more.begin(), more.end());
  const auto flows = assemble_flows(decode_all(packets));
  EXPECT_EQ(flows.size(), 2u);
}

TEST(FlowAssemblerTest, DirectionFixedByFirstPacket) {
  const SessionSpec spec = base_session(Protocol::kTcp, ConnState::kSF);
  const auto flows = assemble_flows(decode_all(to_packets(spec)));
  ASSERT_EQ(flows.size(), 1u);
  // The client sent the first packet (SYN), so it is the originator even
  // though the server sent more bytes.
  EXPECT_EQ(flows.front().src_ip, spec.client_ip);
  EXPECT_GT(flows.front().in_bytes, flows.front().out_bytes);
}

TEST(FlowAssemblerTest, FinishSortsByFirstPacket) {
  SessionSpec late = base_session(Protocol::kUdp, ConnState::kNone);
  late.start_us = 50'000'000;
  SessionSpec early = base_session(Protocol::kUdp, ConnState::kNone);
  early.client_port = 50002;
  early.start_us = 1'000'000;
  auto packets = to_packets(late);
  const auto more = to_packets(early);
  packets.insert(packets.end(), more.begin(), more.end());
  std::sort(packets.begin(), packets.end(),
            [](const PcapPacket& x, const PcapPacket& y) {
              return x.timestamp_us < y.timestamp_us;
            });
  const auto flows = assemble_flows(decode_all(packets));
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_LT(flows[0].first_us, flows[1].first_us);
}

TEST(FlowAssemblerTest, OpenAndCompletedCounters) {
  FlowAssembler assembler;
  const SessionSpec spec = base_session(Protocol::kTcp, ConnState::kSF);
  for (const auto& packet : decode_all(to_packets(spec))) {
    assembler.add(packet);
  }
  EXPECT_EQ(assembler.open_flows(), 1u);
  EXPECT_EQ(assembler.completed_flows(), 0u);
  const auto flows = assembler.finish();
  EXPECT_EQ(flows.size(), 1u);
  EXPECT_EQ(assembler.open_flows(), 0u);
}

TEST(FlowAssemblerTest, SkipsUnsupportedProtocolPackets) {
  // Real captures carry GRE/ESP/etc. frames the flow model does not cover;
  // they must be counted and dropped, not crash the pipeline.
  FlowAssembler assembler;
  const auto before =
      MetricsRegistry::instance().counter("seed.skipped_packets").value();
  DecodedPacket odd;
  odd.timestamp_us = 1'000'000;
  odd.src_ip = 0x0a000001;
  odd.dst_ip = 0x0a000002;
  odd.protocol = 47;  // GRE
  odd.wire_bytes = 60;
  EXPECT_EQ(assembler.add(odd), 0u);
  EXPECT_EQ(assembler.open_flows(), 0u);
  EXPECT_EQ(assembler.skipped_packets(), 1u);
  EXPECT_EQ(
      MetricsRegistry::instance().counter("seed.skipped_packets").value(),
      before + 1);
  // Supported traffic around the skipped frame is unaffected.
  for (const auto& packet :
       decode_all(to_packets(base_session(Protocol::kUdp, ConnState::kNone)))) {
    assembler.add(packet);
  }
  EXPECT_EQ(assembler.finish().size(), 1u);
}

TEST(FlowAssemblerTest, ActiveTimeoutCutsLongFlow) {
  FlowAssemblerOptions options;
  options.idle_timeout_us = 3'600'000'000;  // effectively off
  options.active_timeout_us = 10'000'000;   // 10 s
  // One UDP "flow" that trickles a packet every 5 s for a minute.
  FlowAssembler assembler(options);
  FrameSpec frame;
  frame.src_ip = 1;
  frame.dst_ip = 2;
  frame.src_port = 1000;
  frame.dst_port = 2000;
  const auto bytes = build_udp_frame(frame);
  for (int i = 0; i < 12; ++i) {
    const auto packet = decode_frame(bytes.data(), bytes.size(),
                                     static_cast<std::uint32_t>(bytes.size()),
                                     5'000'000ull * i);
    ASSERT_TRUE(packet.has_value());
    assembler.add(*packet);
  }
  const auto flows = assembler.finish();
  EXPECT_GT(flows.size(), 3u);
  std::uint32_t total_pkts = 0;
  for (const auto& flow : flows) total_pkts += flow.out_pkts + flow.in_pkts;
  EXPECT_EQ(total_pkts, 12u);
}

// Captures reorder packets by microseconds. A packet stamped before its
// flow's last (or first) packet is no gap, so neither timeout cuts.
TEST(FlowAssemblerTest, OutOfOrderPacketsDoNotCutFlow) {
  FrameSpec frame;
  frame.src_ip = 1;
  frame.dst_ip = 2;
  frame.src_port = 1000;
  frame.dst_port = 2000;
  const auto bytes = build_udp_frame(frame);
  const auto packets_at = [&](std::initializer_list<std::uint64_t> stamps) {
    std::vector<DecodedPacket> packets;
    for (const std::uint64_t ts : stamps) {
      const auto packet = decode_frame(
          bytes.data(), bytes.size(),
          static_cast<std::uint32_t>(bytes.size()), ts);
      EXPECT_TRUE(packet.has_value());
      if (packet) packets.push_back(*packet);
    }
    return packets;
  };
  // Behind the flow's last packet: the idle gap.
  const auto behind_last =
      packets_at({10'000'000, 10'000'500, 10'000'400, 10'000'600});
  const auto flows = assemble_flows(behind_last);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows.front().out_pkts, 4u);
  EXPECT_EQ(flows.front().last_us, 10'000'600u);
  // Behind the flow's first packet: the active-timeout span.
  EXPECT_EQ(assemble_flows(packets_at({10'000'500, 10'000'000})).size(), 1u);
}

// ---------------------------------------------------------- parallel shard

/// Benign traffic with a SYN flood, a host scan and a UDP flood injected at
/// the start of the capture.
std::vector<DecodedPacket> attack_mix_packets() {
  TrafficModelConfig config;
  config.benign_sessions = 800;
  config.client_hosts = 200;
  config.server_hosts = 40;
  auto sessions = TrafficModel(config).generate_benign();

  Rng rng(config.seed ^ 0xa77acULL);
  const auto add = [&](std::vector<SessionSpec> injected) {
    sessions.insert(sessions.end(), injected.begin(), injected.end());
  };
  SynFloodConfig syn;
  syn.victim_ip = 0x0a00000a;
  syn.flows = 800;
  syn.start_us = config.start_time_us;
  add(inject_syn_flood(syn, rng));
  HostScanConfig scan;
  scan.scanner_ip = 0xc6336401;
  scan.target_ip = 0x0a00000b;
  scan.start_us = config.start_time_us;
  add(inject_host_scan(scan, rng));
  UdpFloodConfig flood;
  flood.attacker_ip = 0xc6336403;
  flood.victim_ip = 0x0a00000c;
  flood.flows = 100;
  flood.pkts_per_flow = 50;
  flood.start_us = config.start_time_us;
  add(inject_udp_flood(flood, rng));
  return decode_all(sessions_to_packets(sessions));
}

class ParallelAssemblyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelAssemblyTest, MatchesSerialFlowSequence) {
  // A realistic mixed capture, assembled serially and with N shards, must
  // yield the exact serial record sequence — not just the same multiset.
  // Both paths order finished flows by (first packet time, first packet
  // index), so the outputs are directly comparable element by element.
  TrafficModelConfig config;
  config.benign_sessions = 1'500;
  const auto packets =
      sessions_to_packets(TrafficModel(config).generate_benign());
  const auto decoded = decode_all(packets);

  ThreadPool pool(4);
  const auto serial = assemble_flows(decoded);
  const auto parallel = assemble_flows_parallel(decoded, pool, GetParam());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "flow " << i;
  }
}

TEST_P(ParallelAssemblyTest, MatchesSerialSequenceOnAttackTrace) {
  // Attack traffic stresses the split logic: SYN floods open thousands of
  // tiny flows, scans touch many 5-tuples once, and floods reuse one tuple
  // heavily. The sharded output must still equal the serial sequence.
  const auto decoded = attack_mix_packets();
  ThreadPool pool(4);
  const auto serial = assemble_flows(decoded);
  const auto parallel = assemble_flows_parallel(decoded, pool, GetParam());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "flow " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ParallelAssemblyTest,
                         ::testing::Values(1, 2, 3, 8, 16));

TEST(ParallelAssemblyTest, OutputIsTimestampOrdered) {
  TrafficModelConfig config;
  config.benign_sessions = 600;
  const auto decoded = decode_all(
      sessions_to_packets(TrafficModel(config).generate_benign()));
  ThreadPool pool(4);
  const auto flows = assemble_flows_parallel(decoded, pool, 8);
  for (std::size_t i = 1; i < flows.size(); ++i) {
    EXPECT_GE(flows[i].first_us, flows[i - 1].first_us);
  }
}

TEST(ParallelAssemblyTest, ShardHashDirectionInvariant) {
  const SessionSpec spec = base_session(Protocol::kTcp, ConnState::kSF);
  const auto decoded = decode_all(to_packets(spec));
  ASSERT_GT(decoded.size(), 3u);
  // Packets of both directions hash to the same shard.
  const std::uint64_t expected = FlowAssembler::shard_hash(decoded.front());
  for (const auto& packet : decoded) {
    EXPECT_EQ(FlowAssembler::shard_hash(packet), expected);
  }
}

// ----------------------------------------------------------- golden digests

// ParallelAssemblyTest compares sharded with serial output, so it cannot see
// a change that moves both the same way. These digests pin the assembled
// records themselves; a mismatch means the flow output changed.

/// Digest over every NetflowRecord field, in output order.
std::uint64_t flow_digest(const std::vector<NetflowRecord>& flows) {
  std::uint64_t h = flows.size();
  for (const NetflowRecord& f : flows) {
    for (const std::uint64_t v :
         {std::uint64_t{f.src_ip}, std::uint64_t{f.dst_ip},
          static_cast<std::uint64_t>(f.protocol), std::uint64_t{f.src_port},
          std::uint64_t{f.dst_port}, f.first_us, f.last_us, f.out_bytes,
          f.in_bytes, std::uint64_t{f.out_pkts}, std::uint64_t{f.in_pkts},
          std::uint64_t{f.syn_count}, std::uint64_t{f.ack_count},
          static_cast<std::uint64_t>(f.state)}) {
      h = hash_combine(h, v);
    }
  }
  return h;
}

/// One UDP session of `pkts` packets spread evenly over `duration_s`.
SessionSpec sparse_udp_session(std::uint32_t client, std::uint16_t port,
                               std::uint64_t start_us,
                               std::uint32_t duration_s, std::uint32_t pkts) {
  SessionSpec spec;
  spec.client_ip = client;
  spec.server_ip = 0x0a0000fe;
  spec.protocol = Protocol::kUdp;
  spec.client_port = port;
  spec.server_port = 5353;
  spec.start_us = start_us;
  spec.duration_ms = duration_s * 1000;
  spec.out_pkts = pkts - pkts / 2;
  spec.in_pkts = pkts / 2;
  spec.out_bytes = spec.out_pkts * 200ull;
  spec.in_bytes = spec.in_pkts * 300ull;
  spec.state = ConnState::kNone;
  normalize_session(spec);
  return spec;
}

/// Benign traffic over ten minutes, sessions whose packets sit 90-150 s
/// apart (each gap crosses the 60-s idle timeout), and a 400-flow SYN flood
/// packed into 60 s.
std::vector<DecodedPacket> idle_gap_flood_packets() {
  TrafficModelConfig config;
  config.benign_sessions = 600;
  config.client_hosts = 60;
  config.server_hosts = 12;
  config.capture_window_s = 600;
  config.seed = 7;
  auto sessions = TrafficModel(config).generate_benign();
  for (std::uint32_t i = 0; i < 40; ++i) {
    sessions.push_back(sparse_udp_session(
        0x0a000100 + i % 8, static_cast<std::uint16_t>(40000 + i),
        config.start_time_us + i * 7'000'000ull, 300 + 30 * (i % 3),
        3 + i % 3));
  }
  Rng rng(0xf100dULL);
  SynFloodConfig syn;
  syn.victim_ip = 0x0a00000a;
  syn.flows = 400;
  syn.spoofed_sources = 300;
  syn.start_us = config.start_time_us + 200'000'000;
  syn.duration_s = 60;
  const auto flood = inject_syn_flood(syn, rng);
  sessions.insert(sessions.end(), flood.begin(), flood.end());
  return decode_all(sessions_to_packets(sessions));
}

/// Benign traffic plus long sessions with a packet every 2.5 s, for an
/// assembler whose active timeout is 30 s.
std::vector<DecodedPacket> active_timeout_packets() {
  TrafficModelConfig config;
  config.benign_sessions = 500;
  config.client_hosts = 50;
  config.server_hosts = 10;
  config.capture_window_s = 300;
  config.seed = 11;
  auto sessions = TrafficModel(config).generate_benign();
  for (std::uint32_t i = 0; i < 24; ++i) {
    sessions.push_back(sparse_udp_session(
        0x0a000200 + i % 6, static_cast<std::uint16_t>(41000 + i),
        config.start_time_us + i * 5'000'000ull, 100, 41));
  }
  return decode_all(sessions_to_packets(sessions));
}

FlowAssemblerOptions active_timeout_options() {
  FlowAssemblerOptions options;
  options.active_timeout_us = 30'000'000;
  return options;
}

/// Serial assembly, with the summed add() return values.
std::pair<std::vector<NetflowRecord>, std::size_t> assemble_counting(
    const std::vector<DecodedPacket>& packets, FlowAssemblerOptions options) {
  FlowAssembler assembler(options);
  std::size_t finalized = 0;
  for (const DecodedPacket& packet : packets) {
    finalized += assembler.add(packet);
  }
  return {assembler.finish(), finalized};
}

struct GoldenCase {
  const char* name;
  std::vector<DecodedPacket> (*packets)();
  FlowAssemblerOptions (*options)();
  std::size_t flows;
  std::size_t finalized_by_add;
  std::uint64_t digest;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

class FlowGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(FlowGoldenTest, SerialAndShardedMatchPinnedDigest) {
  const GoldenCase& golden = GetParam();
  const auto packets = golden.packets();
  ASSERT_GT(packets.size(), 1024u) << "too small to take the sharded path";
  const FlowAssemblerOptions options = golden.options();

  const auto [serial, finalized] = assemble_counting(packets, options);
  EXPECT_EQ(serial.size(), golden.flows);
  EXPECT_EQ(finalized, golden.finalized_by_add);
  EXPECT_EQ(flow_digest(serial), golden.digest)
      << "serial digest is 0x" << std::hex << flow_digest(serial);

  ThreadPool pool(4);
  for (const std::size_t shards : {1, 3, 16}) {
    const auto sharded =
        assemble_flows_parallel(packets, pool, shards, options);
    EXPECT_EQ(flow_digest(sharded), golden.digest)
        << shards << " shards: digest is 0x" << std::hex
        << flow_digest(sharded);
  }
}

TEST(FlowGoldenTest, TracesCrossTheirTimeouts) {
  // Each trace must actually cut flows on the timeout it is named for:
  // with that timeout switched off, it assembles fewer flows.
  FlowAssemblerOptions no_idle;
  no_idle.idle_timeout_us = 1'000'000'000'000;
  const auto gaps = idle_gap_flood_packets();
  EXPECT_LT(assemble_flows(gaps, no_idle).size(), assemble_flows(gaps).size());

  FlowAssemblerOptions no_active = active_timeout_options();
  no_active.active_timeout_us = 1'000'000'000'000;
  const auto longs = active_timeout_packets();
  EXPECT_LT(assemble_flows(longs, no_active).size(),
            assemble_flows(longs, active_timeout_options()).size());
}

FlowAssemblerOptions default_options() { return {}; }

// The NetFlow CSV the attack-mix trace assembles to, byte for byte: pins
// the writer's column order and number formatting.
TEST(FlowGoldenTest, NetflowCsvMatchesPinnedDigest) {
  std::ostringstream csv;
  save_netflow_csv(assemble_flows(attack_mix_packets()), csv);
  const std::string bytes = csv.str();
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char byte : bytes) {
    digest = (digest ^ static_cast<unsigned char>(byte)) * 0x100000001b3ULL;
  }
  EXPECT_EQ(bytes.size(), 240700u);
  EXPECT_EQ(digest, 0x63d2d8b9b582f812ULL) << "digest is 0x" << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Traces, FlowGoldenTest,
    ::testing::Values(
        GoldenCase{"AttackMix", attack_mix_packets, default_options, 2724,
                   2707, 0xd843280a0c2b1317},
        GoldenCase{"IdleGapsAndSynFlood", idle_gap_flood_packets,
                   default_options, 1157, 1110, 0x07289555ab44a1c8},
        GoldenCase{"ActiveTimeout", active_timeout_packets,
                   active_timeout_options, 601, 567, 0x57fe6b00fc2dc66e}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

// ------------------------------------------------------------- ip strings

struct IpCase {
  std::uint32_t value;
  const char* text;
};

// Names each case by its dotted quad. Without a printer gtest would dump the
// struct's bytes, `text` pointer included, and ctest takes the test name from
// that dump, so the name would change with the load address.
void PrintTo(const IpCase& c, std::ostream* os) { *os << c.text; }

class IpStringTest : public ::testing::TestWithParam<IpCase> {};

TEST_P(IpStringTest, RoundTrips) {
  EXPECT_EQ(ip_to_string(GetParam().value), GetParam().text);
  EXPECT_EQ(ip_from_string(GetParam().text), GetParam().value);
}

INSTANTIATE_TEST_SUITE_P(Cases, IpStringTest,
                         ::testing::Values(IpCase{0, "0.0.0.0"},
                                           IpCase{0x0a000001, "10.0.0.1"},
                                           IpCase{0xc0a80101, "192.168.1.1"},
                                           IpCase{0xffffffff,
                                                  "255.255.255.255"}));

TEST(IpStringTest, RejectsMalformed) {
  EXPECT_THROW(ip_from_string("1.2.3"), CsbError);
  EXPECT_THROW(ip_from_string("1.2.3.4.5"), CsbError);
  EXPECT_THROW(ip_from_string("256.0.0.1"), CsbError);
  EXPECT_THROW(ip_from_string("a.b.c.d"), CsbError);
}

// ---------------------------------------------------------------- csv io

TEST(NetflowIoTest, RoundTrips) {
  const SessionSpec spec = base_session(Protocol::kTcp, ConnState::kRej);
  std::vector<NetflowRecord> records = {to_netflow(spec)};
  records.push_back(to_netflow(base_session(Protocol::kIcmp, ConnState::kNone)));
  std::stringstream buffer;
  save_netflow_csv(records, buffer);
  const auto loaded = load_netflow_csv(buffer);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0], records[0]);
  EXPECT_EQ(loaded[1], records[1]);
}

TEST(NetflowIoTest, RejectsBadHeaderAndRow) {
  std::stringstream no_header("1,2,3\n");
  EXPECT_THROW(load_netflow_csv(no_header), CsbError);
  std::stringstream bad_row(
      "src_ip,dst_ip,protocol,src_port,dst_port,first_us,last_us,out_bytes,"
      "in_bytes,out_pkts,in_pkts,syn_count,ack_count,state\n1,2,3\n");
  EXPECT_THROW(load_netflow_csv(bad_row), CsbError);
}

TEST(NetflowIoTest, InputSweepLoadsOrNamesFileAndLine) {
  const std::vector<NetflowRecord> records = {
      to_netflow(base_session(Protocol::kTcp, ConnState::kRej)),
      to_netflow(base_session(Protocol::kIcmp, ConnState::kNone))};
  std::stringstream csv;
  save_netflow_csv(records, csv);
  const std::string path = ::testing::TempDir() + "/csb_netflow_sweep.csv";
  (void)sweep_input(
      path, csv.str(),
      [](const std::string& file) { (void)load_netflow_csv_file(file); },
      "bad netflow CSV " + path + ": line ");
}

// The field splitter keeps a trailing empty field, so a row that ends in a
// comma has 15 fields.
TEST(NetflowIoTest, RejectsTrailingComma) {
  std::stringstream csv(
      "src_ip,dst_ip,protocol,src_port,dst_port,first_us,last_us,out_bytes,"
      "in_bytes,out_pkts,in_pkts,syn_count,ack_count,state\n"
      "10.0.0.1,10.0.0.2,TCP,5000,80,1,2,3,4,5,6,7,8,SF,\n");
  try {
    (void)load_netflow_csv(csv, "flows.csv");
    ADD_FAILURE() << "loaded";
  } catch (const CsbError& error) {
    EXPECT_EQ(std::string(error.what()),
              "bad netflow CSV flows.csv: line 2: expected 14 fields, found "
              "15");
  }
}

TEST(NetflowIoTest, RejectsBadFieldsNamingFileAndLine) {
  const std::string header =
      "src_ip,dst_ip,protocol,src_port,dst_port,first_us,last_us,out_bytes,"
      "in_bytes,out_pkts,in_pkts,syn_count,ack_count,state\n";
  const std::string good = "10.0.0.1,10.0.0.2,TCP,5000,80,1,2,3,4,5,6,7,8,SF\n";
  const std::string path = ::testing::TempDir() + "/csb_netflow_bad.csv";
  // {file content, line named in the message, text the reason must contain}
  const struct {
    std::string content;
    std::size_t line;
    std::string reason;
  } cases[] = {
      {"", 1, "no header"},
      {good, 1, "missing header"},
      {header + good + "10.0.0.1,10.0.0.2,TCP,abc,80,1,2,3,4,5,6,7,8,SF\n",
       3, "src_port: not a number"},
      {header + "10.0.0.1,10.0.0.2,TCP,70000,80,1,2,3,4,5,6,7,8,SF\n", 2,
       "src_port: 70000 out of range"},
      {header + "10.0.0.1,10.0.0.2,TCP,1,-1,1,2,3,4,5,6,7,8,SF\n", 2,
       "dst_port: not a number"},
      {header + good + "\n" +
           "10.0.0.1,10.0.0.2,UDP,1,2,1,2,3,4,5,6,7,8,-\n" +
           "10.0.0.1,10.0.0.2,UDP,1,2,1,99999999999999999999,3,4,5,6,7,8,-\n",
       5, "last_us: 99999999999999999999 out of range"},
      {header + "10.0.0.1,10.0.0.2,UDP,1,2,1,2,3,4,4294967296,6,7,8,-\n", 2,
       "out_pkts: 4294967296 out of range"},
      {header + "10.0.0.1,10.0.0.2,UDP,1,2,1,2,3,4,5,6,7,1e3,-\n", 2,
       "ack_count: not a number"},
      {header + "10.0.0.1,10.0.0.2,UDP,1,2,9,2,3,4,5,6,7,8,-\n", 2,
       "last_us before first_us"},
      {header + "10.0.0.256,10.0.0.2,UDP,1,2,1,2,3,4,5,6,7,8,-\n", 2,
       "malformed IPv4 address"},
      {header + "1,2,3\n", 2, "expected 14 fields, found 3"},
  };
  for (const auto& c : cases) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << c.content;
    }
    try {
      (void)load_netflow_csv_file(path);
      ADD_FAILURE() << "loaded: " << c.content;
    } catch (const CsbError& error) {
      const std::string message = error.what();
      EXPECT_EQ(message.rfind("bad netflow CSV " + path + ": line " +
                                  std::to_string(c.line) + ": ",
                              0),
                0u)
          << message;
      EXPECT_NE(message.find(c.reason), std::string::npos) << message;
      EXPECT_EQ(message.find("CSB_CHECK"), std::string::npos) << message;
    }
  }
}

}  // namespace
}  // namespace csb
