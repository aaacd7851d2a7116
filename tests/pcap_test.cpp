// Unit tests for src/pcap: checksums, frame encode/decode round trips, and
// the capture-file writer and index_pcap_file (including foreign byte order,
// nanosecond captures and a truncation/flip sweep of malformed input).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "pcap/packet.hpp"
#include "pcap/pcap_file.hpp"
#include "util/error.hpp"

namespace csb {
namespace {

FrameSpec spec_with_payload(std::uint16_t payload) {
  return FrameSpec{
      .src_ip = 0x0a000001,  // 10.0.0.1
      .dst_ip = 0x0a000002,
      .src_port = 49152,
      .dst_port = 80,
      .ttl = 64,
      .payload_len = payload,
  };
}

// --------------------------------------------------------------- checksum

TEST(ChecksumTest, Rfc1071ReferenceVector) {
  // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data, sizeof data), 0x220d);
}

TEST(ChecksumTest, OddLengthHandled) {
  const std::uint8_t data[] = {0xff, 0x00, 0xab};
  // Manual: 0xff00 + 0xab00 = 0x1aa00 -> fold 0xaa01 -> ~ = 0x55fe.
  EXPECT_EQ(internet_checksum(data, sizeof data), 0x55fe);
}

TEST(ChecksumTest, VerifiesToZeroWhenEmbedded) {
  // IPv4 header of any built frame must verify: sum over the header with
  // the checksum field included is 0 (i.e. checksum(header) == 0).
  const auto frame = build_tcp_frame(spec_with_payload(0), kTcpSyn);
  EXPECT_EQ(internet_checksum(frame.data() + kEthernetHeaderLen,
                              kIpv4MinHeaderLen),
            0);
}

// --------------------------------------------------- frame encode/decode

class TcpFrameTest : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(TcpFrameTest, EncodeDecodeRoundTrip) {
  const std::uint16_t payload = GetParam();
  const FrameSpec spec = spec_with_payload(payload);
  const auto frame =
      build_tcp_frame(spec, static_cast<std::uint8_t>(kTcpSyn | kTcpAck));
  const auto decoded = decode_frame(frame.data(), frame.size(),
                                    static_cast<std::uint32_t>(frame.size()),
                                    123456789);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->src_ip, spec.src_ip);
  EXPECT_EQ(decoded->dst_ip, spec.dst_ip);
  EXPECT_EQ(decoded->protocol, 6);
  EXPECT_EQ(decoded->src_port, spec.src_port);
  EXPECT_EQ(decoded->dst_port, spec.dst_port);
  EXPECT_EQ(decoded->tcp_flags, kTcpSyn | kTcpAck);
  EXPECT_EQ(decoded->payload_bytes, payload);
  EXPECT_EQ(decoded->wire_bytes, frame.size());
  EXPECT_EQ(decoded->timestamp_us, 123456789u);
}

INSTANTIATE_TEST_SUITE_P(Payloads, TcpFrameTest,
                         ::testing::Values(0, 1, 10, 100, 1000, 1460));

class UdpFrameTest : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(UdpFrameTest, EncodeDecodeRoundTrip) {
  const FrameSpec spec = spec_with_payload(GetParam());
  const auto frame = build_udp_frame(spec);
  const auto decoded = decode_frame(frame.data(), frame.size(),
                                    static_cast<std::uint32_t>(frame.size()),
                                    0);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->protocol, 17);
  EXPECT_EQ(decoded->payload_bytes, GetParam());
  EXPECT_EQ(frame.size(),
            kEthernetHeaderLen + kIpv4MinHeaderLen + 8u + GetParam());
}

INSTANTIATE_TEST_SUITE_P(Payloads, UdpFrameTest,
                         ::testing::Values(0, 64, 512, 1460));

TEST(IcmpFrameTest, EncodeDecodeRoundTrip) {
  const FrameSpec spec = spec_with_payload(56);
  const auto frame = build_icmp_frame(spec, /*request=*/true);
  const auto decoded = decode_frame(frame.data(), frame.size(),
                                    static_cast<std::uint32_t>(frame.size()),
                                    0);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->protocol, 1);
  EXPECT_EQ(decoded->src_port, 0);
  EXPECT_EQ(decoded->payload_bytes, 56u);
}

TEST(DecodeTest, RejectsNonIpv4Ethertype) {
  auto frame = build_udp_frame(spec_with_payload(10));
  frame[12] = 0x86;  // 0x86dd = IPv6
  frame[13] = 0xdd;
  EXPECT_FALSE(decode_frame(frame.data(), frame.size(), 0, 0).has_value());
}

TEST(DecodeTest, RejectsUnsupportedProtocol) {
  auto frame = build_udp_frame(spec_with_payload(10));
  frame[kEthernetHeaderLen + 9] = 47;  // GRE
  EXPECT_FALSE(decode_frame(frame.data(), frame.size(), 0, 0).has_value());
}

TEST(DecodeTest, RejectsRunts) {
  const std::uint8_t tiny[10] = {};
  EXPECT_FALSE(decode_frame(tiny, sizeof tiny, 0, 0).has_value());
}

TEST(DecodeTest, SnapTruncationUsesOrigLen) {
  // Simulate a snaplen-truncated capture: only the first 60 bytes of a
  // large frame were stored, but orig_len records the wire size.
  const auto frame = build_tcp_frame(spec_with_payload(1400), kTcpAck);
  const auto decoded = decode_frame(frame.data(), 60,
                                    static_cast<std::uint32_t>(frame.size()),
                                    0);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->wire_bytes, frame.size());
  EXPECT_EQ(decoded->payload_bytes, 1400u);  // from the IPv4 total length
}

// ----------------------------------------------------------- file format
//
// index_pcap_file is the library's one pcap parser, so every format test
// writes its bytes to a file and reads them back through it.

std::string serialize(const std::vector<PcapPacket>& packets,
                      std::uint32_t snaplen = 65535) {
  std::ostringstream out;
  PcapWriter writer(out, snaplen);
  for (const auto& packet : packets) writer.write(packet);
  return out.str();
}

/// Writes `bytes` to a per-test file under the gtest temp dir.
std::string write_capture(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/csb_pcap_" + name +
                           ".pcap";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_FALSE(out.fail()) << "cannot write " << path;
  return path;
}

/// Record `i` of an indexed capture as a standalone packet.
PcapPacket packet_at(const IndexedPcap& capture, std::size_t i) {
  const PcapRecordRef& ref = capture.records[i];
  PcapPacket packet;
  packet.timestamp_us = ref.timestamp_us;
  packet.orig_len = ref.orig_len;
  packet.data.assign(capture.bytes(ref), capture.bytes(ref) + ref.captured_len);
  return packet;
}

/// The CsbError message index_pcap_file throws for `path`; empty when the
/// file loads.
std::string index_error(const std::string& path) {
  try {
    (void)index_pcap_file(path);
  } catch (const CsbError& error) {
    return error.what();
  }
  return "";
}

void reverse_field(std::string& bytes, std::size_t at, std::size_t width) {
  std::reverse(bytes.begin() + static_cast<std::ptrdiff_t>(at),
               bytes.begin() + static_cast<std::ptrdiff_t>(at + width));
}

std::uint32_t native32(const std::string& bytes, std::size_t at) {
  std::uint32_t v;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}

void store32(std::string& bytes, std::size_t at, std::uint32_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
}

/// A native-order capture rewritten in the other byte order: every header
/// field reversed, payload bytes untouched.
std::string to_swapped(std::string bytes) {
  reverse_field(bytes, 0, 4);
  reverse_field(bytes, 4, 2);
  reverse_field(bytes, 6, 2);
  for (std::size_t at = 8; at < 24; at += 4) reverse_field(bytes, at, 4);
  for (std::size_t at = 24; at < bytes.size();) {
    const std::uint32_t incl_len = native32(bytes, at + 8);
    for (std::size_t field = 0; field < 16; field += 4) {
      reverse_field(bytes, at + field, 4);
    }
    at += 16 + incl_len;
  }
  return bytes;
}

/// A native microsecond capture rewritten as a nanosecond one.
std::string to_nanoseconds(std::string bytes) {
  store32(bytes, 0, 0xa1b23c4d);
  for (std::size_t at = 24; at < bytes.size();) {
    store32(bytes, at + 4, native32(bytes, at + 4) * 1000);
    at += 16 + native32(bytes, at + 8);
  }
  return bytes;
}

std::vector<PcapPacket> mixed_packets(int count) {
  std::vector<PcapPacket> packets;
  for (int i = 0; i < count; ++i) {
    PcapPacket packet;
    packet.timestamp_us = 1'000ull * static_cast<std::uint64_t>(i) + 7;
    FrameSpec spec = spec_with_payload(static_cast<std::uint16_t>(20 + i));
    spec.src_port = static_cast<std::uint16_t>(40000 + i);
    packet.data = i % 3 == 0   ? build_tcp_frame(spec, kTcpSyn)
                  : i % 3 == 1 ? build_udp_frame(spec)
                               : build_icmp_frame(spec, true);
    packet.orig_len = static_cast<std::uint32_t>(packet.data.size());
    packets.push_back(packet);
  }
  return packets;
}

TEST(PcapFileTest, WriteReadRoundTrip) {
  std::vector<PcapPacket> packets;
  for (int i = 0; i < 5; ++i) {
    PcapPacket packet;
    packet.timestamp_us = 1'000'000ull * i + 250'000;
    packet.data = build_udp_frame(spec_with_payload(100 + i));
    packet.orig_len = static_cast<std::uint32_t>(packet.data.size());
    packets.push_back(packet);
  }
  std::ostringstream buffer;
  {
    PcapWriter writer(buffer);
    for (const auto& packet : packets) writer.write(packet);
    EXPECT_EQ(writer.packets_written(), 5u);
  }
  const IndexedPcap capture =
      index_pcap_file(write_capture("write_read", buffer.str()));
  EXPECT_EQ(capture.linktype, kLinktypeEthernet);
  ASSERT_EQ(capture.records.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(packet_at(capture, i), packets[i]) << "record " << i;
  }
}

TEST(PcapFileTest, SnaplenTruncatesOnWrite) {
  PcapPacket packet;
  packet.data = build_tcp_frame(spec_with_payload(1000), kTcpAck);
  packet.orig_len = static_cast<std::uint32_t>(packet.data.size());
  const IndexedPcap capture = index_pcap_file(
      write_capture("snaplen", serialize({packet}, /*snaplen=*/64)));
  EXPECT_EQ(capture.snaplen, 64u);
  ASSERT_EQ(capture.records.size(), 1u);
  EXPECT_EQ(capture.records[0].captured_len, 64u);
  EXPECT_EQ(capture.records[0].orig_len, packet.orig_len);
}

TEST(PcapFileTest, ReadsSwappedByteOrder) {
  // Hand-build a big-endian (swapped relative to x86) capture with one
  // 4-byte record.
  const auto be32 = [](std::uint32_t v) {
    return std::string{static_cast<char>(v >> 24),
                       static_cast<char>((v >> 16) & 0xff),
                       static_cast<char>((v >> 8) & 0xff),
                       static_cast<char>(v & 0xff)};
  };
  const auto be16 = [](std::uint16_t v) {
    return std::string{static_cast<char>(v >> 8),
                       static_cast<char>(v & 0xff)};
  };
  std::string file;
  file += be32(0xa1b2c3d4);  // magic written big-endian => swapped on read
  file += be16(2) + be16(4);
  file += be32(0) + be32(0) + be32(65535) + be32(1);
  file += be32(10) + be32(500000) + be32(4) + be32(4);  // record header
  file += std::string("\x01\x02\x03\x04", 4);
  const IndexedPcap capture = index_pcap_file(write_capture("swapped", file));
  EXPECT_EQ(capture.snaplen, 65535u);
  EXPECT_EQ(capture.linktype, 1u);
  ASSERT_EQ(capture.records.size(), 1u);
  const PcapPacket packet = packet_at(capture, 0);
  EXPECT_EQ(packet.timestamp_us, 10'500'000u);
  EXPECT_EQ(packet.data, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(packet.orig_len, 4u);
}

TEST(PcapFileTest, NanosecondMagicConverted) {
  std::ostringstream buffer;
  const std::uint32_t magic = 0xa1b23c4d;
  const std::uint16_t v2 = 2;
  const std::uint16_t v4 = 4;
  const std::uint32_t zero = 0;
  const std::uint32_t snap = 65535;
  const std::uint32_t link = 1;
  buffer.write(reinterpret_cast<const char*>(&magic), 4);
  buffer.write(reinterpret_cast<const char*>(&v2), 2);
  buffer.write(reinterpret_cast<const char*>(&v4), 2);
  buffer.write(reinterpret_cast<const char*>(&zero), 4);
  buffer.write(reinterpret_cast<const char*>(&zero), 4);
  buffer.write(reinterpret_cast<const char*>(&snap), 4);
  buffer.write(reinterpret_cast<const char*>(&link), 4);
  const std::uint32_t ts_sec = 1;
  const std::uint32_t ts_nsec = 750'000'000;  // 750 ms
  const std::uint32_t len = 0;
  buffer.write(reinterpret_cast<const char*>(&ts_sec), 4);
  buffer.write(reinterpret_cast<const char*>(&ts_nsec), 4);
  buffer.write(reinterpret_cast<const char*>(&len), 4);
  buffer.write(reinterpret_cast<const char*>(&len), 4);
  const IndexedPcap capture =
      index_pcap_file(write_capture("nanoseconds", buffer.str()));
  ASSERT_EQ(capture.records.size(), 1u);
  EXPECT_EQ(capture.records[0].timestamp_us, 1'750'000u);
}

TEST(PcapFileTest, RejectsBadMagic) {
  const std::string path = write_capture("bad_magic", std::string(24, 'x'));
  const std::string message = index_error(path);
  EXPECT_EQ(message.rfind("bad pcap " + path + ": byte 0: ", 0), 0u)
      << message;
  EXPECT_NE(message.find("bad magic"), std::string::npos) << message;
}

TEST(PcapFileTest, RejectsTruncatedRecord) {
  PcapPacket packet;
  packet.data = build_udp_frame(spec_with_payload(10));
  packet.orig_len = static_cast<std::uint32_t>(packet.data.size());
  std::string content = serialize({packet});
  content.resize(content.size() - 5);
  const std::string path = write_capture("truncated", content);
  // The payload starts after the 24-byte global and 16-byte record headers.
  const std::string message = index_error(path);
  EXPECT_EQ(message.rfind("bad pcap " + path + ": byte 40: ", 0), 0u)
      << message;
  EXPECT_NE(message.find("truncated record payload"), std::string::npos)
      << message;
  EXPECT_EQ(message.find("CSB_CHECK"), std::string::npos) << message;
}

// The index reproduces every written packet, and the same capture in
// byte-swapped and nanosecond form indexes to the same records.
TEST(PcapFileTest, IndexedReaderMatchesStreamingReader) {
  const std::vector<PcapPacket> packets = mixed_packets(60);
  const std::string path = ::testing::TempDir() + "/csb_pcap_index_test.pcap";
  write_pcap_file(path, packets);

  const IndexedPcap capture = index_pcap_file(path);
  ASSERT_EQ(capture.records.size(), packets.size());
  std::uint64_t offset = 24;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(packet_at(capture, i), packets[i]) << "record " << i;
    EXPECT_EQ(capture.records[i].offset, offset + 16) << "record " << i;
    offset += 16 + capture.records[i].captured_len;
  }
  EXPECT_EQ(offset, capture.data.size());

  const std::string native = serialize(packets);
  for (const auto& [name, bytes] :
       {std::pair{"index_swapped", to_swapped(native)},
        std::pair{"index_nanoseconds", to_nanoseconds(native)}}) {
    const IndexedPcap other = index_pcap_file(write_capture(name, bytes));
    ASSERT_EQ(other.records.size(), packets.size()) << name;
    EXPECT_EQ(other.snaplen, capture.snaplen) << name;
    EXPECT_EQ(other.linktype, capture.linktype) << name;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      EXPECT_EQ(packet_at(other, i), packets[i]) << name << " record " << i;
    }
  }
}

TEST(PcapFileTest, FileRoundTrip) {
  std::vector<PcapPacket> packets(3);
  for (int i = 0; i < 3; ++i) {
    packets[i].timestamp_us = i;
    packets[i].data = build_icmp_frame(spec_with_payload(8), true);
    packets[i].orig_len = static_cast<std::uint32_t>(packets[i].data.size());
  }
  const std::string path = ::testing::TempDir() + "/csb_pcap_test.pcap";
  write_pcap_file(path, packets);
  const IndexedPcap loaded = index_pcap_file(path);
  ASSERT_EQ(loaded.records.size(), 3u);
  EXPECT_EQ(packet_at(loaded, 2).data, packets[2].data);
}

// Input sweep: a small valid capture in µs/native, µs/swapped and ns/native
// form, cut at every length and with single-byte flips in every field of
// the global header and the first record header. Each case either loads or
// is rejected as bad input naming the file and a byte offset, never with an
// assertion text. A cut that falls inside a record must be rejected.
TEST(PcapFileTest, InputSweepLoadsOrNamesFileAndOffset) {
  const std::string native = serialize(mixed_packets(3));
  std::set<std::size_t> record_ends = {24};
  for (std::size_t at = 24; at < native.size();) {
    at += 16 + native32(native, at + 8);
    record_ends.insert(at);
  }
  const std::string path = ::testing::TempDir() + "/csb_pcap_sweep.pcap";
  const auto expect_loads_or_bad_input = [&](const std::string& bytes,
                                             const std::string& what) {
    write_capture("sweep", bytes);
    const std::string message = index_error(path);
    if (message.empty()) return true;
    EXPECT_EQ(message.rfind("bad pcap " + path + ": byte ", 0), 0u)
        << what << ": " << message;
    EXPECT_EQ(message.find("CSB_CHECK failed"), std::string::npos)
        << what << ": " << message;
    return false;
  };

  for (const auto& [form, bytes] :
       {std::pair{"usec/native", native},
        std::pair{"usec/swapped", to_swapped(native)},
        std::pair{"nsec/native", to_nanoseconds(native)}}) {
    ASSERT_TRUE(expect_loads_or_bad_input(bytes, form));
    for (std::size_t length = 0; length < bytes.size(); ++length) {
      const bool loaded = expect_loads_or_bad_input(
          bytes.substr(0, length),
          std::string(form) + " cut to " + std::to_string(length));
      EXPECT_EQ(loaded, record_ends.count(length) != 0)
          << form << " cut to " << length;
    }
    for (std::size_t at = 0; at < 24 + 16; ++at) {
      for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
        std::string flipped = bytes;
        flipped[at] = static_cast<char>(flipped[at] ^ mask);
        (void)expect_loads_or_bad_input(
            flipped, std::string(form) + " byte " + std::to_string(at) +
                         " ^ " + std::to_string(mask));
      }
    }
  }
}

}  // namespace
}  // namespace csb
