// Robustness tests: every parser in the library must reject arbitrary
// garbage with CsbError (or a clean nullopt/false), never crash or read out
// of bounds. Deterministic pseudo-fuzz with bounded iterations.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "flow/netflow_io.hpp"
#include "graph/graph_io.hpp"
#include "pcap/packet.hpp"
#include "pcap/pcap_file.hpp"
#include "seed/seed.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace csb {
namespace {

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> bytes(rng.uniform(max_len + 1));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
  return bytes;
}

class FuzzSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeedTest, DecodeFrameNeverCrashes) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = random_bytes(rng, 256);
    // Any result is fine; the contract is "no crash, no UB".
    const auto decoded =
        decode_frame(bytes.data(), bytes.size(),
                     static_cast<std::uint32_t>(rng.uniform(65536)),
                     rng.uniform(1ULL << 40));
    if (decoded) {
      EXPECT_TRUE(decoded->protocol == 1 || decoded->protocol == 6 ||
                  decoded->protocol == 17);
    }
  }
}

TEST_P(FuzzSeedTest, DecodeMutatedValidFramesNeverCrashes) {
  Rng rng(GetParam() ^ 0xff);
  FrameSpec spec;
  spec.src_ip = 1;
  spec.dst_ip = 2;
  spec.src_port = 1000;
  spec.dst_port = 80;
  spec.payload_len = 100;
  for (int i = 0; i < 2000; ++i) {
    auto frame = build_tcp_frame(spec, kTcpAck);
    // Flip a handful of random bytes.
    for (int flips = 0; flips < 5; ++flips) {
      frame[rng.uniform(frame.size())] ^=
          static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    const std::size_t truncate_to = rng.uniform(frame.size() + 1);
    (void)decode_frame(frame.data(), truncate_to,
                       static_cast<std::uint32_t>(frame.size()), 0);
  }
}

TEST_P(FuzzSeedTest, PcapReaderRejectsGarbage) {
  Rng rng(GetParam() ^ 0xabc);
  const std::string path = ::testing::TempDir() + "/csb_fuzz_pcap_" +
                           std::to_string(GetParam()) + ".pcap";
  static constexpr std::uint32_t kMagics[] = {0xa1b2c3d4, 0xa1b23c4d,
                                              0xd4c3b2a1, 0x4d3cb2a1};
  for (int i = 0; i < 300; ++i) {
    auto bytes = random_bytes(rng, 512);
    // Half the time, start with a valid magic and version 2 so the record
    // walk sees the garbage.
    if (rng.bernoulli(0.5) && bytes.size() >= 6) {
      const std::uint32_t magic = kMagics[rng.uniform(4)];
      std::memcpy(bytes.data(), &magic, sizeof magic);
      const bool swapped = magic == 0xd4c3b2a1 || magic == 0x4d3cb2a1;
      bytes[4] = swapped ? 0 : 2;
      bytes[5] = swapped ? 2 : 0;
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    try {
      (void)index_pcap_file(path);
    } catch (const CsbError& error) {
      // expected for malformed input, reported as such
      const std::string message = error.what();
      EXPECT_EQ(message.rfind("bad pcap " + path + ": byte ", 0), 0u)
          << message;
    }
  }
}

TEST_P(FuzzSeedTest, GraphBinaryLoaderRejectsGarbage) {
  Rng rng(GetParam() ^ 0xdef);
  for (int i = 0; i < 300; ++i) {
    auto bytes = random_bytes(rng, 256);
    // Half the time, start with the right magic to reach deeper code.
    if (rng.bernoulli(0.5) && bytes.size() >= 4) {
      bytes[0] = 'C';
      bytes[1] = 'S';
      bytes[2] = 'B';
      bytes[3] = 'G';
    }
    std::stringstream stream(
        std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    try {
      (void)load_binary(stream);
    } catch (const CsbError&) {
    } catch (const std::bad_alloc&) {
      // a garbage edge count may request a huge-but-bounded allocation
    }
  }
}

TEST_P(FuzzSeedTest, ProfileLoaderRejectsGarbage) {
  Rng rng(GetParam() ^ 0x123);
  for (int i = 0; i < 200; ++i) {
    auto bytes = random_bytes(rng, 256);
    if (rng.bernoulli(0.5) && bytes.size() >= 4) {
      bytes[0] = 'C';
      bytes[1] = 'S';
      bytes[2] = 'B';
      bytes[3] = 'P';
    }
    std::stringstream stream(
        std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    try {
      (void)SeedProfile::load(stream);
    } catch (const CsbError&) {
    } catch (const std::bad_alloc&) {
    }
  }
}

TEST_P(FuzzSeedTest, NetflowCsvRejectsGarbageLines) {
  Rng rng(GetParam() ^ 0x456);
  for (int i = 0; i < 200; ++i) {
    std::string text =
        "src_ip,dst_ip,protocol,src_port,dst_port,first_us,last_us,"
        "out_bytes,in_bytes,out_pkts,in_pkts,syn_count,ack_count,state\n";
    const auto bytes = random_bytes(rng, 120);
    text.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
    std::stringstream stream(text);
    try {
      (void)load_netflow_csv(stream);
    } catch (const CsbError&) {
    }
  }
}

TEST_P(FuzzSeedTest, IpParserRejectsGarbageStrings) {
  Rng rng(GetParam() ^ 0x789);
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    const std::size_t len = rng.uniform(16);
    for (std::size_t c = 0; c < len; ++c) {
      text.push_back(static_cast<char>('0' + rng.uniform(12)));  // digits + : ;
    }
    try {
      (void)ip_from_string(text);
    } catch (const CsbError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(RobustnessTest, ValidIpRoundTripUnderFuzzGrammar) {
  // Sanity companion to the fuzz test: well-formed inputs still parse.
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const auto ip = static_cast<std::uint32_t>(rng.uniform(1ULL << 32));
    EXPECT_EQ(ip_from_string(ip_to_string(ip)), ip);
  }
}

}  // namespace
}  // namespace csb
