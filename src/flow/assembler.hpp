// Flow assembly: packets -> bidirectional NetFlow records.
//
// This replaces Bro in the paper's Fig. 1 pipeline. Packets are keyed by
// the canonical 5-tuple; the first packet of a flow fixes the originator
// direction. A small TCP state machine assigns the Bro-style connection
// state (S0/S1/SF/REJ/RSTO/RSTR/OTH). Flows expire on an idle timeout, are
// cut on the active timeout, or are finalized by finish() at end of capture.
//
// Open flows sit on an intrusive list in the order they were last touched.
// Packets arrive in timestamp order, so that list is also ordered by each
// flow's last_us, and the once-per-capture-second expiry sweep pops idle
// flows off its head instead of walking the whole table.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "flow/netflow.hpp"
#include "pcap/packet.hpp"
#include "util/thread_pool.hpp"

namespace csb {

struct FlowAssemblerOptions {
  /// A flow with no packets for this long is finalized (Cisco default-ish).
  std::uint64_t idle_timeout_us = 60'000'000;
  /// Hard cap on flow duration (active timeout).
  std::uint64_t active_timeout_us = 1'800'000'000;
};

class FlowAssembler {
 public:
  /// A finalized record plus the global index of the packet that opened the
  /// flow. first_seq breaks first_us ties, giving finish() a total order —
  /// the reason sharded assembly can reproduce the serial sequence exactly.
  struct Completed {
    std::uint64_t first_seq = 0;
    NetflowRecord record;
  };

  explicit FlowAssembler(FlowAssemblerOptions options = {});
  // The idle list points into the table's nodes.
  FlowAssembler(const FlowAssembler&) = delete;
  FlowAssembler& operator=(const FlowAssembler&) = delete;

  /// Feeds one packet; packets must arrive in non-decreasing timestamp
  /// order (as in a capture file). Returns the number of flows finalized by
  /// timeout processing triggered by this packet's timestamp. Packets with
  /// a protocol other than TCP/UDP/ICMP are skipped (not fatal) and
  /// tallied in skipped_packets() and the seed.skipped_packets counter.
  std::size_t add(const DecodedPacket& packet);

  /// Same, with the caller supplying the packet's global sequence number.
  /// Sharded assembly feeds each shard its packets' original indices so
  /// per-flow first_seq values match what a serial pass would assign.
  std::size_t add(const DecodedPacket& packet, std::uint64_t seq);

  /// Finalizes all open flows and returns every completed record, ordered
  /// by (first_us, first_seq). The assembler is reset.
  std::vector<NetflowRecord> finish();

  /// finish() variant keeping the sequence tags (for sharded merges).
  std::vector<Completed> finish_sequenced();

  /// Direction-independent 5-tuple hash of a packet — both directions of a
  /// flow map to the same value, so it is a safe shard router.
  static std::uint64_t shard_hash(const DecodedPacket& packet) noexcept;

  [[nodiscard]] std::size_t open_flows() const noexcept {
    return table_.size();
  }
  [[nodiscard]] std::size_t completed_flows() const noexcept {
    return done_.size();
  }
  /// Packets dropped because their protocol is not TCP/UDP/ICMP.
  [[nodiscard]] std::uint64_t skipped_packets() const noexcept {
    return skipped_;
  }

 private:
  struct Key {
    std::uint32_t ip_a, ip_b;
    std::uint16_t port_a, port_b;
    std::uint8_t protocol;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };

  struct Flow {
    Key key{};
    NetflowRecord record;
    std::uint64_t first_seq = 0;
    // Idle list neighbours: `older` was touched before this flow.
    Flow* older = nullptr;
    Flow* newer = nullptr;
    // TCP handshake/termination tracking.
    bool syn_from_orig = false;
    bool synack_from_resp = false;
    bool fin_from_orig = false;
    bool fin_from_resp = false;
    bool rst_from_orig = false;
    bool rst_from_resp = false;
  };

  static Key canonical_key(const DecodedPacket& packet) noexcept;
  /// A new, unlinked flow opened by `packet`.
  static Flow fresh_flow(const Key& key, const DecodedPacket& packet,
                         std::uint64_t seq) noexcept;
  void unlink(Flow& flow) noexcept;
  void link_newest(Flow& flow) noexcept;
  void expire_older_than(std::uint64_t now_us);
  void finalize(Flow& flow);
  static ConnState classify_tcp(const Flow& flow) noexcept;

  FlowAssemblerOptions options_;
  std::unordered_map<Key, Flow, KeyHash> table_;
  Flow* oldest_ = nullptr;  ///< idle list head: least recently touched
  Flow* newest_ = nullptr;
  std::vector<Completed> done_;
  std::uint64_t last_expiry_check_us_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t skipped_ = 0;
};

/// Convenience: run a whole packet vector through an assembler.
std::vector<NetflowRecord> assemble_flows(
    const std::vector<DecodedPacket>& packets,
    FlowAssemblerOptions options = {});

/// Sharded parallel assembly: each packet's shard is the hash of its
/// canonical 5-tuple modulo `shards` (all packets of one flow land in the
/// same shard, so per-flow state never crosses threads). Each shard runs on
/// the pool, walking `packets` in place and feeding its own packets with
/// their global indices, and the sorted per-shard runs are k-way merged by
/// (first_us, first_seq) — the same total order serial finish() uses, so
/// the output sequence is identical to assemble_flows for any shard count.
std::vector<NetflowRecord> assemble_flows_parallel(
    const std::vector<DecodedPacket>& packets, ThreadPool& pool,
    std::size_t shards = 0, FlowAssemblerOptions options = {});

}  // namespace csb
