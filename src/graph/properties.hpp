// The NetFlow property schema of paper §III.
//
// A property-graph edge models one TCP connection or UDP/ICMP stream between
// two hosts and carries the nine NetFlow attributes the paper lists:
// PROTOCOL, SRC_PORT, DEST_PORT, DURATION, OUT_BYTES, IN_BYTES, OUT_PKTS,
// IN_PKTS and STATE. Vertices carry only their ID (paper: "We only consider
// a single attribute for Dv, that is, ID").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace csb {

/// Transport protocol of a flow; values are the IANA protocol numbers so
/// they round-trip through PCAP without translation.
enum class Protocol : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

[[nodiscard]] constexpr std::string_view to_string(Protocol p) noexcept {
  switch (p) {
    case Protocol::kIcmp: return "ICMP";
    case Protocol::kTcp: return "TCP";
    case Protocol::kUdp: return "UDP";
  }
  return "UNKNOWN";
}

/// The inverse of to_string(Protocol).
[[nodiscard]] inline Protocol protocol_from_string(std::string_view text) {
  for (const Protocol p : {Protocol::kIcmp, Protocol::kTcp, Protocol::kUdp}) {
    if (to_string(p) == text) return p;
  }
  throw CsbError("unknown protocol: " + std::string(text));
}

/// Bro/Zeek-style connection state summary for TCP flows. Non-TCP flows use
/// kNone (§III: "This attribute is used only in the case the edge represents
/// a TCP connection").
enum class ConnState : std::uint8_t {
  kNone = 0,  ///< not a TCP connection
  kS0,        ///< SYN seen, no reply
  kS1,        ///< connection established, not terminated
  kSF,        ///< normal establishment and termination
  kRej,       ///< connection attempt rejected (SYN -> RST)
  kRsto,      ///< established, originator aborted with RST
  kRstr,      ///< established, responder aborted with RST
  kOth,       ///< mid-stream traffic, no handshake observed
};

[[nodiscard]] constexpr std::string_view to_string(ConnState s) noexcept {
  switch (s) {
    case ConnState::kNone: return "-";
    case ConnState::kS0: return "S0";
    case ConnState::kS1: return "S1";
    case ConnState::kSF: return "SF";
    case ConnState::kRej: return "REJ";
    case ConnState::kRsto: return "RSTO";
    case ConnState::kRstr: return "RSTR";
    case ConnState::kOth: return "OTH";
  }
  return "?";
}

/// The inverse of to_string(ConnState).
[[nodiscard]] inline ConnState state_from_string(std::string_view text) {
  for (auto s = ConnState::kNone; s <= ConnState::kOth;
       s = static_cast<ConnState>(static_cast<std::uint8_t>(s) + 1)) {
    if (to_string(s) == text) return s;
  }
  throw CsbError("unknown conn state: " + std::string(text));
}

/// One edge's NetFlow attribute tuple (row view over the SoA columns).
struct EdgeProperties {
  Protocol protocol = Protocol::kTcp;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t duration_ms = 0;
  std::uint64_t out_bytes = 0;  ///< source -> destination payload bytes
  std::uint64_t in_bytes = 0;   ///< destination -> source payload bytes
  std::uint32_t out_pkts = 0;   ///< source -> destination packets
  std::uint32_t in_pkts = 0;    ///< destination -> source packets
  ConnState state = ConnState::kNone;

  friend bool operator==(const EdgeProperties&,
                         const EdgeProperties&) = default;
};

/// Index of each NetFlow attribute; the seed profile stores one fitted
/// distribution per attribute in this order.
enum class NetflowAttribute : std::uint8_t {
  kProtocol = 0,
  kSrcPort,
  kDstPort,
  kDurationMs,
  kOutBytes,
  kInBytes,
  kOutPkts,
  kInPkts,
  kState,
};

inline constexpr std::size_t kNetflowAttributeCount = 9;

[[nodiscard]] constexpr std::string_view to_string(NetflowAttribute a) noexcept {
  switch (a) {
    case NetflowAttribute::kProtocol: return "PROTOCOL";
    case NetflowAttribute::kSrcPort: return "SRC_PORT";
    case NetflowAttribute::kDstPort: return "DEST_PORT";
    case NetflowAttribute::kDurationMs: return "DURATION";
    case NetflowAttribute::kOutBytes: return "OUT_BYTES";
    case NetflowAttribute::kInBytes: return "IN_BYTES";
    case NetflowAttribute::kOutPkts: return "OUT_PKTS";
    case NetflowAttribute::kInPkts: return "IN_PKTS";
    case NetflowAttribute::kState: return "STATE";
  }
  return "?";
}

}  // namespace csb
