// The preliminary steps of paper Fig. 1:
//
//   PCAP -> (Bro substitute: decode + flow assembly) -> NetFlow
//        -> property-graph mapping (hosts = vertices, flows = edges)
//        -> structural & attribute analysis -> SeedProfile.
//
// The SeedProfile is the contract between seed analysis and the two
// generators: it carries the in-/out-degree distributions that tune the
// preferential attachment / Kronecker expansion, and the NetFlow attribute
// distributions, factored exactly as §III prescribes — p(IN_BYTES)
// unconditionally, then p(a | IN_BYTES) for every other attribute a.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "flow/netflow.hpp"
#include "graph/property_graph.hpp"
#include "pcap/packet.hpp"
#include "pcap/pcap_file.hpp"
#include "stats/conditional.hpp"
#include "stats/empirical.hpp"

namespace csb {

class ThreadPool;

/// Knobs for the parallel seed pipeline. Every stage is deterministic:
/// seed.bin and the profile are byte-identical for any pool size, null
/// pool (the historical serial code path) included.
struct SeedOptions {
  /// Worker pool for every pipeline stage; null runs everything inline.
  /// Flow assembly shards over the pool's size.
  ThreadPool* pool = nullptr;
};

/// Maps NetFlow records onto a property-graph: distinct IPs become dense
/// vertex ids (in order of first appearance), each record becomes one
/// edge. With a pool the build is two-pass — parallel per-chunk unique-IP
/// collection, a deterministic dense remap (IPs ranked by first-appearance
/// record index, so vertex numbering is byte-identical to the serial
/// builder), then parallel edge/property fill into pre-sized columns.
PropertyGraph graph_from_netflow(const std::vector<NetflowRecord>& records,
                                 ThreadPool* pool = nullptr);

/// Incremental form of graph_from_netflow for streaming ingestion (paper
/// §VI future work): flows append one edge at a time while the IP <-> vertex
/// mapping stays queryable in both directions. The accumulated graph is
/// always valid, so analyses can run on any prefix of the stream.
class IncrementalGraphBuilder {
 public:
  /// Appends one flow; returns the new edge's id.
  EdgeId add(const NetflowRecord& record);

  /// Vertex for an IP, creating it if unseen.
  VertexId vertex_of(std::uint32_t ip);

  /// IP of an existing vertex.
  [[nodiscard]] std::uint32_t ip_of(VertexId vertex) const;

  /// The graph built so far (valid at any point).
  [[nodiscard]] const PropertyGraph& graph() const noexcept { return graph_; }

  [[nodiscard]] std::uint64_t flows_ingested() const noexcept {
    return graph_.num_edges();
  }

  /// Releases the accumulated graph and resets the builder.
  PropertyGraph take();

 private:
  PropertyGraph graph_;
  std::unordered_map<std::uint32_t, VertexId> vertex_by_ip_;
  std::vector<std::uint32_t> ip_by_vertex_;
};

/// Distributions extracted from a seed property-graph.
class SeedProfile {
 public:
  /// Runs the analysis step of Fig. 1 on a seed graph with properties.
  /// The nine conditional fits (plus the degree and IN_BYTES marginals)
  /// dispatch as independent pool tasks; the fitted profile is
  /// bit-identical for any pool size.
  static SeedProfile analyze(const PropertyGraph& seed,
                             ThreadPool* pool = nullptr);

  /// Structural distributions (per-vertex degrees of the seed).
  [[nodiscard]] const EmpiricalDistribution& in_degree() const {
    return in_degree_;
  }
  [[nodiscard]] const EmpiricalDistribution& out_degree() const {
    return out_degree_;
  }

  /// p(IN_BYTES) — the root of the attribute factorization.
  [[nodiscard]] const EmpiricalDistribution& in_bytes() const {
    return in_bytes_;
  }

  /// Calls fn(field, p(a | IN_BYTES)) for the eight other attributes, where
  /// `field` is the EdgeProperties member a stores. The order is the
  /// per-row draw order of the property sampler (gen/properties.hpp):
  /// protocol, src_port, dst_port, duration_ms, out_bytes, out_pkts,
  /// in_pkts, state.
  template <typename Fn>
  void for_each_conditional(Fn&& fn) const {
    fn(&EdgeProperties::protocol, protocol_);
    fn(&EdgeProperties::src_port, src_port_);
    fn(&EdgeProperties::dst_port, dst_port_);
    fn(&EdgeProperties::duration_ms, duration_ms_);
    fn(&EdgeProperties::out_bytes, out_bytes_);
    fn(&EdgeProperties::out_pkts, out_pkts_);
    fn(&EdgeProperties::in_pkts, in_pkts_);
    fn(&EdgeProperties::state, state_);
  }

  /// Number of fitted attribute distributions (the |properties| factor in
  /// the paper's O(|E| x |properties|) complexity).
  [[nodiscard]] static constexpr std::size_t property_count() noexcept {
    return kNetflowAttributeCount;
  }

  [[nodiscard]] std::uint64_t seed_vertices() const noexcept {
    return seed_vertices_;
  }
  [[nodiscard]] std::uint64_t seed_edges() const noexcept {
    return seed_edges_;
  }

  /// Binary (de)serialization, so the Fig. 1 analysis runs once and later
  /// generator invocations reload the fitted distributions directly.
  void save(std::ostream& out) const;
  /// Malformed input throws CsbError("bad seed profile <name>: byte
  /// <offset>: <reason>"); load_file names the file.
  static SeedProfile load(std::istream& in,
                          const std::string& name = "stream");
  void save_file(const std::string& path) const;
  static SeedProfile load_file(const std::string& path);

  friend bool operator==(const SeedProfile&, const SeedProfile&);

 private:
  EmpiricalDistribution in_degree_{EmpiricalDistribution::from_weighted({{0, 1}})};
  EmpiricalDistribution out_degree_{EmpiricalDistribution::from_weighted({{0, 1}})};
  EmpiricalDistribution in_bytes_{EmpiricalDistribution::from_weighted({{0, 1}})};
  ConditionalDistribution protocol_;
  ConditionalDistribution src_port_;
  ConditionalDistribution dst_port_;
  ConditionalDistribution duration_ms_;
  ConditionalDistribution out_bytes_;
  ConditionalDistribution out_pkts_;
  ConditionalDistribution in_pkts_;
  ConditionalDistribution state_;
  std::uint64_t seed_vertices_ = 0;
  std::uint64_t seed_edges_ = 0;
};

/// A seed graph together with its analysis.
struct SeedBundle {
  PropertyGraph graph;
  SeedProfile profile;
};

/// Runs decode_frame over fixed packet chunks on the pool with chunk-order
/// concatenation (books the `seed:decode` phase). Frames that fail to
/// decode are dropped, exactly as the serial loop dropped them.
std::vector<DecodedPacket> decode_packets(
    const std::vector<PcapPacket>& packets, ThreadPool* pool = nullptr);

/// Same, decoding straight out of an indexed capture's mapped file — no
/// per-packet PcapPacket materialization at all.
std::vector<DecodedPacket> decode_packets(const IndexedPcap& capture,
                                          ThreadPool* pool = nullptr);

/// Full Fig. 1 pipeline from an in-memory capture.
SeedBundle build_seed_from_packets(const std::vector<PcapPacket>& packets,
                                   const SeedOptions& options = {});

/// Fig. 1's PCAP -> NetFlow half for a capture on disk: index_pcap_file
/// (`seed:index` phase), decode straight out of the mapped file
/// (`seed:decode`), then flow assembly (`seed:assemble-flows`), sharded
/// over `pool` when one is given. The file is unmapped once decoded.
std::vector<NetflowRecord> flows_from_pcap_file(const std::string& path,
                                                ThreadPool* pool = nullptr);

/// Flow records from an input file, its reader chosen by content: a file
/// whose first four bytes are a libpcap magic goes through
/// flows_from_pcap_file, anything else is read as NetFlow CSV. A directory
/// or a path that cannot be opened throws CsbError naming it.
std::vector<NetflowRecord> flows_from_file(const std::string& path,
                                           ThreadPool* pool = nullptr);

/// Full Fig. 1 pipeline from a pcap file on disk: flows_from_pcap_file,
/// then the seed graph and its profile.
SeedBundle build_seed_from_pcap_file(const std::string& path,
                                     const SeedOptions& options = {});

/// Shortcut used by benches: seed straight from NetFlow records.
SeedBundle build_seed_from_netflow(const std::vector<NetflowRecord>& records,
                                   const SeedOptions& options = {});

}  // namespace csb
