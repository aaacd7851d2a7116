#include "flow/assembler.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"

namespace csb {

namespace {

bool supported_protocol(std::uint8_t number) noexcept {
  return number == 1 || number == 6 || number == 17;
}

Protocol protocol_from_number(std::uint8_t number) noexcept {
  switch (number) {
    case 1: return Protocol::kIcmp;
    case 17: return Protocol::kUdp;
    default: return Protocol::kTcp;  // callers check supported_protocol first
  }
}

/// Time from `earlier` to `later`, 0 when `later` precedes it: a packet
/// stamped before its flow's last (or first) packet, as reordered captures
/// have, is no gap at all rather than a wrapped unsigned one.
std::uint64_t elapsed_us(std::uint64_t later, std::uint64_t earlier) noexcept {
  return later > earlier ? later - earlier : 0;
}

Counter& skipped_packets_counter() {
  static Counter& counter =
      MetricsRegistry::instance().counter("seed.skipped_packets");
  return counter;
}

}  // namespace

std::size_t FlowAssembler::KeyHash::operator()(const Key& k) const noexcept {
  std::uint64_t h = hash_pair(
      (static_cast<std::uint64_t>(k.ip_a) << 16) | k.port_a,
      (static_cast<std::uint64_t>(k.ip_b) << 16) | k.port_b);
  return static_cast<std::size_t>(hash_combine(h, k.protocol));
}

FlowAssembler::FlowAssembler(FlowAssemblerOptions options)
    : options_(options) {
  CSB_CHECK_MSG(options_.idle_timeout_us > 0, "idle timeout must be positive");
}

FlowAssembler::Key FlowAssembler::canonical_key(
    const DecodedPacket& packet) noexcept {
  // Direction-independent key: order endpoints by (ip, port).
  const auto a = std::make_pair(packet.src_ip, packet.src_port);
  const auto b = std::make_pair(packet.dst_ip, packet.dst_port);
  Key key{};
  key.protocol = packet.protocol;
  if (a <= b) {
    key.ip_a = packet.src_ip;
    key.port_a = packet.src_port;
    key.ip_b = packet.dst_ip;
    key.port_b = packet.dst_port;
  } else {
    key.ip_a = packet.dst_ip;
    key.port_a = packet.dst_port;
    key.ip_b = packet.src_ip;
    key.port_b = packet.src_port;
  }
  return key;
}

std::size_t FlowAssembler::add(const DecodedPacket& packet) {
  // The internal counter mirrors a serial pass over the full packet
  // sequence, so it must advance for skipped packets too (the sharded path
  // assigns global indices the same way).
  return add(packet, next_seq_++);
}

FlowAssembler::Flow FlowAssembler::fresh_flow(
    const Key& key, const DecodedPacket& packet, std::uint64_t seq) noexcept {
  Flow flow;
  flow.key = key;
  flow.record.src_ip = packet.src_ip;
  flow.record.dst_ip = packet.dst_ip;
  flow.record.protocol = protocol_from_number(packet.protocol);
  flow.record.src_port = packet.src_port;
  flow.record.dst_port = packet.dst_port;
  flow.record.first_us = packet.timestamp_us;
  flow.record.last_us = packet.timestamp_us;
  flow.first_seq = seq;
  return flow;
}

void FlowAssembler::unlink(Flow& flow) noexcept {
  (flow.older != nullptr ? flow.older->newer : oldest_) = flow.newer;
  (flow.newer != nullptr ? flow.newer->older : newest_) = flow.older;
  flow.older = nullptr;
  flow.newer = nullptr;
}

void FlowAssembler::link_newest(Flow& flow) noexcept {
  flow.older = newest_;
  flow.newer = nullptr;
  (newest_ != nullptr ? newest_->newer : oldest_) = &flow;
  newest_ = &flow;
}

std::size_t FlowAssembler::add(const DecodedPacket& packet,
                               std::uint64_t seq) {
  // One stray GRE/ESP/etc. packet must not abort a whole ingest: drop it
  // and account for the drop instead of throwing.
  if (!supported_protocol(packet.protocol)) {
    ++skipped_;
    skipped_packets_counter().add(1);
    return 0;
  }

  // Periodic expiry sweep: amortized by running at most once per second of
  // capture time.
  std::size_t expired = 0;
  if (packet.timestamp_us >= last_expiry_check_us_ + 1'000'000) {
    const std::size_t before = done_.size();
    expire_older_than(packet.timestamp_us);
    last_expiry_check_us_ = packet.timestamp_us;
    expired = done_.size() - before;
  }

  const Key key = canonical_key(packet);
  const auto [it, inserted] = table_.try_emplace(key);
  Flow& flow = it->second;
  NetflowRecord& rec = flow.record;
  if (inserted) {
    flow = fresh_flow(key, packet, seq);
  } else {
    unlink(flow);
    // Timeout cuts: finalize the flow and start a fresh one. The idle cut
    // is decided here, per packet, not only by the periodic sweep — the
    // sweep's timing depends on which other flows share the assembler, so
    // a sweep-only cut would make sharded assembly diverge from serial.
    if (elapsed_us(packet.timestamp_us, rec.first_us) >
            options_.active_timeout_us ||
        elapsed_us(packet.timestamp_us, rec.last_us) >
            options_.idle_timeout_us) {
      finalize(flow);
      flow = fresh_flow(key, packet, seq);
      ++expired;
    }
  }
  link_newest(flow);

  const bool from_originator =
      packet.src_ip == rec.src_ip && packet.src_port == rec.src_port;
  rec.last_us = std::max(rec.last_us, packet.timestamp_us);
  if (from_originator) {
    rec.out_bytes += packet.wire_bytes;
    rec.out_pkts += 1;
  } else {
    rec.in_bytes += packet.wire_bytes;
    rec.in_pkts += 1;
  }

  if (packet.protocol == 6) {
    if (packet.tcp_flags & kTcpSyn) ++rec.syn_count;
    if (packet.tcp_flags & kTcpAck) ++rec.ack_count;
    if (from_originator) {
      if ((packet.tcp_flags & kTcpSyn) && !(packet.tcp_flags & kTcpAck)) {
        flow.syn_from_orig = true;
      }
      if (packet.tcp_flags & kTcpFin) flow.fin_from_orig = true;
      if (packet.tcp_flags & kTcpRst) flow.rst_from_orig = true;
    } else {
      if ((packet.tcp_flags & kTcpSyn) && (packet.tcp_flags & kTcpAck)) {
        flow.synack_from_resp = true;
      }
      if (packet.tcp_flags & kTcpFin) flow.fin_from_resp = true;
      if (packet.tcp_flags & kTcpRst) flow.rst_from_resp = true;
    }
  }
  return expired;
}

void FlowAssembler::expire_older_than(std::uint64_t now_us) {
  // Packets arrive in timestamp order, so the idle list is ordered by
  // last_us and the idle flows are exactly a prefix of it. (Were a
  // timestamp to step back, an idle flow could wait for a later sweep; its
  // record would not change, as add() makes the idle cut per packet.)
  while (oldest_ != nullptr && elapsed_us(now_us, oldest_->record.last_us) >
                                   options_.idle_timeout_us) {
    Flow& flow = *oldest_;
    const Key key = flow.key;
    unlink(flow);
    finalize(flow);
    table_.erase(key);
  }
}

ConnState FlowAssembler::classify_tcp(const Flow& flow) noexcept {
  const bool established = flow.syn_from_orig && flow.synack_from_resp;
  if (flow.syn_from_orig && flow.rst_from_resp && !established) {
    return ConnState::kRej;
  }
  if (established) {
    if (flow.fin_from_orig && flow.fin_from_resp) return ConnState::kSF;
    if (flow.rst_from_orig) return ConnState::kRsto;
    if (flow.rst_from_resp) return ConnState::kRstr;
    return ConnState::kS1;
  }
  if (flow.syn_from_orig) return ConnState::kS0;
  return ConnState::kOth;  // mid-stream: no handshake observed
}

void FlowAssembler::finalize(Flow& flow) {
  if (flow.record.protocol == Protocol::kTcp) {
    flow.record.state = classify_tcp(flow);
  } else {
    flow.record.state = ConnState::kNone;
  }
  done_.push_back(Completed{flow.first_seq, flow.record});
}

std::vector<FlowAssembler::Completed> FlowAssembler::finish_sequenced() {
  // csblint: unordered-iteration-ok — the sort below imposes the
  // (first_us, first_seq) total order, so finalize order cannot escape
  for (auto& [key, flow] : table_) finalize(flow);
  table_.clear();
  oldest_ = nullptr;
  newest_ = nullptr;
  // (first_us, first_seq) is a total order over flows — first_seq values
  // are distinct — so the result is a deterministic sequence, not just a
  // deterministic multiset.
  std::sort(done_.begin(), done_.end(),
            [](const Completed& a, const Completed& b) {
              if (a.record.first_us != b.record.first_us) {
                return a.record.first_us < b.record.first_us;
              }
              return a.first_seq < b.first_seq;
            });
  std::vector<Completed> out = std::move(done_);
  done_.clear();
  last_expiry_check_us_ = 0;
  next_seq_ = 0;
  skipped_ = 0;
  return out;
}

std::vector<NetflowRecord> FlowAssembler::finish() {
  std::vector<Completed> completed = finish_sequenced();
  std::vector<NetflowRecord> out;
  out.reserve(completed.size());
  for (auto& done : completed) out.push_back(std::move(done.record));
  return out;
}

std::vector<NetflowRecord> assemble_flows(
    const std::vector<DecodedPacket>& packets, FlowAssemblerOptions options) {
  FlowAssembler assembler(options);
  for (const auto& packet : packets) assembler.add(packet);
  return assembler.finish();
}

std::uint64_t FlowAssembler::shard_hash(const DecodedPacket& packet) noexcept {
  const Key key = canonical_key(packet);
  return KeyHash{}(key);
}

std::vector<NetflowRecord> assemble_flows_parallel(
    const std::vector<DecodedPacket>& packets, ThreadPool& pool,
    std::size_t shards, FlowAssemblerOptions options) {
  if (shards == 0) shards = pool.size();
  shards = std::max<std::size_t>(1, shards);
  if (shards == 1 || packets.size() < 1024) {
    return assemble_flows(packets, options);
  }

  // One shard id per packet, computed on the pool. Each shard task then
  // walks `packets` in place and feeds its own packets, tagged with their
  // global indices, in capture order: the per-shard order preserves the
  // timestamp order the assembler requires, and the tags let the merge
  // reproduce the serial (first_us, first_seq) sequence exactly.
  std::vector<std::uint32_t> shard_of(packets.size());
  parallel_for_fixed_chunks(
      &pool, 0, packets.size(), std::size_t{1} << 16,
      [&](const ChunkRange& chunk) {
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          shard_of[i] = static_cast<std::uint32_t>(
              FlowAssembler::shard_hash(packets[i]) % shards);
        }
      });

  std::vector<std::vector<FlowAssembler::Completed>> per_shard(shards);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    tasks.emplace_back([&packets, &shard_of, &per_shard, options, s] {
      FlowAssembler assembler(options);
      for (std::size_t i = 0; i < packets.size(); ++i) {
        if (shard_of[i] == s) assembler.add(packets[i], i);
      }
      per_shard[s] = assembler.finish_sequenced();
    });
  }
  parallel_tasks(&pool, tasks);

  // k-way merge of the sorted runs. first_seq values are distinct across
  // shards, so (first_us, first_seq) is a total order and the heap's pop
  // sequence is unique.
  using Cursor = std::pair<std::size_t, std::size_t>;  // (shard, next record)
  const auto later = [&per_shard](const Cursor& a, const Cursor& b) {
    const FlowAssembler::Completed& x = per_shard[a.first][a.second];
    const FlowAssembler::Completed& y = per_shard[b.first][b.second];
    if (x.record.first_us != y.record.first_us) {
      return x.record.first_us > y.record.first_us;
    }
    return x.first_seq > y.first_seq;
  };
  std::vector<Cursor> heads;
  std::size_t total = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    total += per_shard[s].size();
    if (!per_shard[s].empty()) heads.emplace_back(s, 0);
  }
  std::make_heap(heads.begin(), heads.end(), later);
  std::vector<NetflowRecord> out;
  out.reserve(total);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    auto& [s, at] = heads.back();
    out.push_back(per_shard[s][at].record);
    if (++at < per_shard[s].size()) {
      std::push_heap(heads.begin(), heads.end(), later);
    } else {
      heads.pop_back();
    }
  }
  return out;
}

}  // namespace csb
