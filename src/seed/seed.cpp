#include "seed/seed.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "flow/assembler.hpp"
#include "graph/algorithms.hpp"
#include "obs/trace.hpp"
#include "pcap/pcap_file.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace csb {

namespace {

/// Packets per fixed decode chunk.
constexpr std::size_t kDecodeChunk = 4096;
/// Records per fixed chunk in the two-pass graph build.
constexpr std::size_t kGraphChunk = 2048;

}  // namespace

PropertyGraph graph_from_netflow(const std::vector<NetflowRecord>& records,
                                 ThreadPool* pool) {
  if (pool == nullptr || records.size() <= kGraphChunk) {
    // Serial builder: first-appearance vertex numbering, one pass.
    PropertyGraph graph;
    std::unordered_map<std::uint32_t, VertexId> id_of;
    id_of.reserve(records.size());
    const auto vertex_of = [&](std::uint32_t ip) {
      const auto [it, inserted] = id_of.try_emplace(ip, graph.num_vertices());
      if (inserted) graph.add_vertex();
      return it->second;
    };
    graph.reserve_edges(records.size());
    for (const NetflowRecord& rec : records) {
      const VertexId src = vertex_of(rec.src_ip);
      const VertexId dst = vertex_of(rec.dst_ip);
      graph.add_edge(src, dst, rec.to_edge_properties());
    }
    return graph;
  }

  // Two-pass parallel build. Vertex ids must be byte-identical to the
  // serial builder's first-appearance numbering, so pass one ranks every
  // distinct IP by the index of its first appearance (src slot 2r, dst
  // slot 2r+1 for record r — the order the serial loop visits them).
  TraceRecorder* const trace = TraceRecorder::current();
  const std::size_t m = records.size();
  const auto chunks = make_fixed_chunks(0, m, kGraphChunk);
  std::vector<std::unordered_map<std::uint32_t, std::uint64_t>> first_seen(
      chunks.size());
  {
    PhaseScope phase(trace, "seed:build-graph:scan");
    parallel_for_fixed_chunks(
        pool, 0, m, kGraphChunk, [&](const ChunkRange& chunk) {
          auto& local = first_seen[chunk.chunk_index];
          local.reserve(2 * (chunk.end - chunk.begin));
          for (std::size_t r = chunk.begin; r < chunk.end; ++r) {
            local.try_emplace(records[r].src_ip, 2 * r);
            local.try_emplace(records[r].dst_ip, 2 * r + 1);
          }
        });
  }

  std::unordered_map<std::uint32_t, VertexId> id_of;
  std::uint64_t vertices = 0;
  {
    PhaseScope phase(trace, "seed:build-graph:remap");
    // Merging in chunk order makes the first insertion win with the
    // global minimum appearance slot (chunk c's slots all precede chunk
    // c+1's); sorting by slot then yields first-appearance numbering.
    std::unordered_map<std::uint32_t, std::uint64_t> appearance;
    std::size_t guess = 0;
    for (const auto& local : first_seen) guess += local.size();
    appearance.reserve(guess);
    for (const auto& local : first_seen) {
      for (const auto& [ip, slot] : local) appearance.try_emplace(ip, slot);
    }
    std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
    order.reserve(appearance.size());
    // csblint: unordered-iteration-ok — sorted by slot on the next line
    for (const auto& [ip, slot] : appearance) order.emplace_back(slot, ip);
    std::sort(order.begin(), order.end());
    id_of.reserve(order.size());
    for (const auto& [slot, ip] : order) {
      id_of.emplace(ip, static_cast<VertexId>(vertices++));
    }
  }

  PropertyGraph graph;
  {
    PhaseScope phase(trace, "seed:build-graph:fill");
    std::vector<VertexId> src(m);
    std::vector<VertexId> dst(m);
    parallel_for_fixed_chunks(
        pool, 0, m, kGraphChunk, [&](const ChunkRange& chunk) {
          for (std::size_t r = chunk.begin; r < chunk.end; ++r) {
            src[r] = id_of.find(records[r].src_ip)->second;
            dst[r] = id_of.find(records[r].dst_ip)->second;
          }
        });
    graph = PropertyGraph::from_columns_unchecked(vertices, std::move(src),
                                                  std::move(dst));
    graph.ensure_properties_for_overwrite();
    parallel_for_fixed_chunks(
        pool, 0, m, kGraphChunk, [&](const ChunkRange& chunk) {
          for (std::size_t r = chunk.begin; r < chunk.end; ++r) {
            graph.set_edge_properties(static_cast<EdgeId>(r),
                                      records[r].to_edge_properties());
          }
        });
  }
  return graph;
}

EdgeId IncrementalGraphBuilder::add(const NetflowRecord& record) {
  const VertexId src = vertex_of(record.src_ip);
  const VertexId dst = vertex_of(record.dst_ip);
  return graph_.add_edge(src, dst, record.to_edge_properties());
}

VertexId IncrementalGraphBuilder::vertex_of(std::uint32_t ip) {
  const auto [it, inserted] = vertex_by_ip_.try_emplace(ip, graph_.num_vertices());
  if (inserted) {
    graph_.add_vertex();
    ip_by_vertex_.push_back(ip);
  }
  return it->second;
}

std::uint32_t IncrementalGraphBuilder::ip_of(VertexId vertex) const {
  CSB_CHECK_MSG(vertex < ip_by_vertex_.size(), "unknown vertex");
  return ip_by_vertex_[vertex];
}

PropertyGraph IncrementalGraphBuilder::take() {
  PropertyGraph out = std::move(graph_);
  graph_ = PropertyGraph{};
  vertex_by_ip_.clear();
  ip_by_vertex_.clear();
  return out;
}

SeedProfile SeedProfile::analyze(const PropertyGraph& seed,
                                 ThreadPool* pool) {
  CSB_CHECK_MSG(seed.num_edges() > 0, "seed graph has no edges");
  CSB_CHECK_MSG(seed.has_properties(),
                "seed graph must carry NetFlow properties");

  SeedProfile profile;
  profile.seed_vertices_ = seed.num_vertices();
  profile.seed_edges_ = seed.num_edges();
  TraceRecorder* const trace = TraceRecorder::current();

  // Fits run as parallel_tasks writing disjoint profile members; each task
  // runs its fit with a null inner pool, and only this driver waits, so
  // tasks never wait on the pool they occupy. Every fit is bit-identical to
  // the serial code regardless of completion order.
  std::vector<std::function<void()>> fits;
  const auto wait = [&fits, pool] {
    parallel_tasks(pool, fits);
    fits.clear();
  };

  {
    // Structural distributions: per-vertex in/out degree of the seed.
    PhaseScope phase(trace, "seed:profile:structure");
    const auto in_deg = in_degrees(seed);
    const auto out_deg = out_degrees(seed);
    const std::vector<double> in_samples(in_deg.begin(), in_deg.end());
    const std::vector<double> out_samples(out_deg.begin(), out_deg.end());
    fits.emplace_back([&] {
      profile.in_degree_ =
          EmpiricalDistribution::from_samples(in_samples, nullptr);
    });
    fits.emplace_back([&] {
      profile.out_degree_ =
          EmpiricalDistribution::from_samples(out_samples, nullptr);
    });
    wait();
  }

  // Attribute factorization: p(IN_BYTES), then p(a | IN_BYTES).
  PhaseScope phase(trace, "seed:profile:attributes");
  const auto in_bytes = seed.in_bytes();
  const std::vector<double> byte_samples(in_bytes.begin(), in_bytes.end());
  fits.emplace_back([&] {
    profile.in_bytes_ =
        EmpiricalDistribution::from_samples(byte_samples, nullptr);
  });
  const auto fit_conditional = [&](ConditionalDistribution& into,
                                   std::function<double(std::size_t)> value) {
    fits.emplace_back([&into, &in_bytes, value = std::move(value)] {
      into = ConditionalDistribution::fit(in_bytes, value, nullptr);
    });
  };
  fit_conditional(profile.protocol_, [&seed](std::size_t e) {
    return static_cast<double>(static_cast<std::uint8_t>(seed.protocols()[e]));
  });
  fit_conditional(profile.src_port_, [&seed](std::size_t e) {
    return static_cast<double>(seed.src_ports()[e]);
  });
  fit_conditional(profile.dst_port_, [&seed](std::size_t e) {
    return static_cast<double>(seed.dst_ports()[e]);
  });
  fit_conditional(profile.duration_ms_, [&seed](std::size_t e) {
    return static_cast<double>(seed.durations_ms()[e]);
  });
  fit_conditional(profile.out_bytes_, [&seed](std::size_t e) {
    return static_cast<double>(seed.out_bytes()[e]);
  });
  fit_conditional(profile.out_pkts_, [&seed](std::size_t e) {
    return static_cast<double>(seed.out_pkts()[e]);
  });
  fit_conditional(profile.in_pkts_, [&seed](std::size_t e) {
    return static_cast<double>(seed.in_pkts()[e]);
  });
  fit_conditional(profile.state_, [&seed](std::size_t e) {
    return static_cast<double>(static_cast<std::uint8_t>(seed.states()[e]));
  });
  wait();
  return profile;
}

EdgeProperties SeedProfile::sample_properties(Rng& rng) const {
  EdgeProperties props;
  const auto in_bytes = static_cast<std::uint64_t>(in_bytes_.sample(rng));
  props.in_bytes = in_bytes;
  props.protocol = static_cast<Protocol>(
      static_cast<std::uint8_t>(protocol_.sample(in_bytes, rng)));
  props.src_port =
      static_cast<std::uint16_t>(src_port_.sample(in_bytes, rng));
  props.dst_port =
      static_cast<std::uint16_t>(dst_port_.sample(in_bytes, rng));
  props.duration_ms =
      static_cast<std::uint32_t>(duration_ms_.sample(in_bytes, rng));
  props.out_bytes =
      static_cast<std::uint64_t>(out_bytes_.sample(in_bytes, rng));
  props.out_pkts =
      static_cast<std::uint32_t>(out_pkts_.sample(in_bytes, rng));
  props.in_pkts = static_cast<std::uint32_t>(in_pkts_.sample(in_bytes, rng));
  props.state = static_cast<ConnState>(
      static_cast<std::uint8_t>(state_.sample(in_bytes, rng)));
  return props;
}

namespace {

/// Shared decode core: decode_frame over fixed chunks of `n` frames
/// (frame_at(i) returns pointer/length/metadata for frame i), per-chunk
/// output buffers concatenated in chunk order — the decoded sequence is
/// identical to the serial loop for any pool size.
template <typename FrameAt>
std::vector<DecodedPacket> decode_chunked(std::size_t n,
                                          const FrameAt& frame_at,
                                          ThreadPool* pool) {
  // No ClusterSim here — the seed pipeline is host-side preprocessing — so
  // phases attach to the process-wide recorder slot csbgen installs.
  TraceRecorder* const trace = TraceRecorder::current();
  PhaseScope phase(trace, "seed:decode");
  const auto chunks = make_fixed_chunks(0, n, kDecodeChunk);
  std::vector<std::vector<DecodedPacket>> per_chunk(chunks.size());
  parallel_for_fixed_chunks(
      pool, 0, n, kDecodeChunk, [&](const ChunkRange& chunk) {
        auto& out = per_chunk[chunk.chunk_index];
        out.reserve(chunk.end - chunk.begin);
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          const auto [data, size, orig_len, timestamp_us] = frame_at(i);
          if (auto summary = decode_frame(data, size, orig_len,
                                          timestamp_us)) {
            out.push_back(*summary);
          }
        }
      });
  std::vector<DecodedPacket> decoded;
  std::size_t total = 0;
  for (const auto& out : per_chunk) total += out.size();
  decoded.reserve(total);
  for (const auto& out : per_chunk) {
    decoded.insert(decoded.end(), out.begin(), out.end());
  }
  return decoded;
}

struct FrameView {
  const std::uint8_t* data;
  std::size_t size;
  std::uint32_t orig_len;
  std::uint64_t timestamp_us;
};

}  // namespace

std::vector<DecodedPacket> decode_packets(
    const std::vector<PcapPacket>& packets, ThreadPool* pool) {
  return decode_chunked(
      packets.size(),
      [&packets](std::size_t i) {
        const PcapPacket& p = packets[i];
        return FrameView{p.data.data(), p.data.size(), p.orig_len,
                         p.timestamp_us};
      },
      pool);
}

std::vector<DecodedPacket> decode_packets(const IndexedPcap& capture,
                                          ThreadPool* pool) {
  return decode_chunked(
      capture.records.size(),
      [&capture](std::size_t i) {
        const PcapRecordRef& ref = capture.records[i];
        return FrameView{capture.bytes(ref), ref.captured_len, ref.orig_len,
                         ref.timestamp_us};
      },
      pool);
}

namespace {

std::vector<NetflowRecord> assemble_decoded(
    const std::vector<DecodedPacket>& decoded, ThreadPool* pool) {
  PhaseScope phase(TraceRecorder::current(), "seed:assemble-flows");
  if (pool != nullptr) return assemble_flows_parallel(decoded, *pool);
  return assemble_flows(decoded);
}

}  // namespace

SeedBundle build_seed_from_packets(const std::vector<PcapPacket>& packets,
                                   const SeedOptions& options) {
  return build_seed_from_netflow(
      assemble_decoded(decode_packets(packets, options.pool), options.pool),
      options);
}

std::vector<NetflowRecord> flows_from_pcap_file(const std::string& path,
                                                ThreadPool* pool) {
  std::vector<DecodedPacket> decoded;
  {
    IndexedPcap capture;
    {
      PhaseScope phase(TraceRecorder::current(), "seed:index");
      capture = index_pcap_file(path);
    }
    decoded = decode_packets(capture, pool);
  }
  return assemble_decoded(decoded, pool);
}

SeedBundle build_seed_from_pcap_file(const std::string& path,
                                     const SeedOptions& options) {
  return build_seed_from_netflow(flows_from_pcap_file(path, options.pool),
                                 options);
}

SeedBundle build_seed_from_netflow(const std::vector<NetflowRecord>& records,
                                   const SeedOptions& options) {
  TraceRecorder* const trace = TraceRecorder::current();
  SeedBundle bundle{PropertyGraph{}, SeedProfile{}};
  {
    PhaseScope phase(trace, "seed:build-graph");
    bundle.graph = graph_from_netflow(records, options.pool);
  }
  {
    PhaseScope phase(trace, "seed:profile");
    bundle.profile = SeedProfile::analyze(bundle.graph, options.pool);
  }
  return bundle;
}

}  // namespace csb
