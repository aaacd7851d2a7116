// Directed multigraph with NetFlow edge properties — the paper's
// G = (V, E, Dv, De).
//
// Storage is structure-of-arrays: endpoint columns (src, dst) plus one
// column per NetFlow attribute. SoA keeps the structural algorithms
// (degrees, PageRank, CSR construction) streaming over two dense u64
// arrays, and lets the generators run their structure phase first and bulk
// fill the property columns afterwards — exactly the two-phase shape of
// PGPBA/PGSK (Figs. 2-3: edges first, addProperty loop second).
//
// Vertices are dense ids [0, num_vertices). The edge multiset may contain
// parallel edges and self-loops; property columns either cover every edge
// or are absent entirely (has_properties()).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/properties.hpp"
#include "util/error.hpp"
#include "util/memory.hpp"

namespace csb {

using VertexId = std::uint64_t;
using EdgeId = std::uint64_t;

/// One NetFlow property column. The default-init allocator makes resize()
/// leave rows uninitialized, so a producer that overwrites every row (the
/// generators' property stage) pays no full-column write.
template <typename T>
using PropertyColumn = std::vector<T, DefaultInitAllocator<T>>;

/// The nine NetFlow property columns of a graph (all the same length).
struct PropertyColumns {
  PropertyColumn<Protocol> protocol;
  PropertyColumn<std::uint16_t> src_port;
  PropertyColumn<std::uint16_t> dst_port;
  PropertyColumn<std::uint32_t> duration_ms;
  PropertyColumn<std::uint64_t> out_bytes;
  PropertyColumn<std::uint64_t> in_bytes;
  PropertyColumn<std::uint32_t> out_pkts;
  PropertyColumn<std::uint32_t> in_pkts;
  PropertyColumn<ConnState> state;

  /// Sizes every column to `rows`; rows past the old size are
  /// indeterminate until overwritten.
  void resize_for_overwrite(std::size_t rows);

  friend bool operator==(const PropertyColumns&,
                         const PropertyColumns&) = default;
};

class PropertyGraph {
 public:
  PropertyGraph() = default;

  /// Creates a graph with `vertices` isolated vertices and no edges.
  explicit PropertyGraph(std::uint64_t vertices) : num_vertices_(vertices) {}

  // --- vertices ---

  [[nodiscard]] std::uint64_t num_vertices() const noexcept {
    return num_vertices_;
  }

  /// Appends one vertex and returns its id.
  VertexId add_vertex() noexcept { return num_vertices_++; }

  /// Appends `count` vertices and returns the id of the first one.
  VertexId add_vertices(std::uint64_t count) noexcept {
    const VertexId first = num_vertices_;
    num_vertices_ += count;
    return first;
  }

  // --- edges ---

  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return src_.size();
  }

  /// Adds a structural edge (no properties). Only valid while the graph has
  /// no property columns.
  EdgeId add_edge(VertexId src, VertexId dst);

  /// Adds an edge with its NetFlow properties. Only valid while all existing
  /// edges also have properties (or the graph is empty).
  EdgeId add_edge(VertexId src, VertexId dst, const EdgeProperties& props);

  /// Pre-allocates edge storage.
  void reserve_edges(std::uint64_t capacity);

  /// Builds a structure-only graph directly from endpoint columns (which
  /// callers typically fill in parallel). Validates that every endpoint is
  /// a known vertex.
  static PropertyGraph from_columns(std::uint64_t vertices,
                                    std::vector<VertexId> src,
                                    std::vector<VertexId> dst);

  /// from_columns without the O(|E|) endpoint scan — for callers that have
  /// already validated the endpoints (e.g. in parallel while filling the
  /// columns).
  static PropertyGraph from_columns_unchecked(std::uint64_t vertices,
                                              std::vector<VertexId> src,
                                              std::vector<VertexId> dst);

  [[nodiscard]] VertexId edge_src(EdgeId e) const { return src_[check(e)]; }
  [[nodiscard]] VertexId edge_dst(EdgeId e) const { return dst_[check(e)]; }

  [[nodiscard]] std::span<const VertexId> sources() const noexcept {
    return src_;
  }
  [[nodiscard]] std::span<const VertexId> destinations() const noexcept {
    return dst_;
  }

  // --- properties ---

  [[nodiscard]] bool has_properties() const noexcept {
    return !props_.protocol.empty();
  }

  /// Gathers one edge's property row. Requires has_properties().
  [[nodiscard]] EdgeProperties edge_properties(EdgeId e) const;

  /// Replaces one edge's property row. Requires has_properties().
  void set_edge_properties(EdgeId e, const EdgeProperties& props);

  /// Attaches property columns to a structure-only graph, filling every
  /// existing edge with default rows. No-op when properties already exist.
  void ensure_properties();

  /// Attaches property columns WITHOUT initializing their contents (O(1)
  /// per element instead of a full-column write): every row is
  /// indeterminate until overwritten. Only for callers that immediately
  /// fill all rows.
  void ensure_properties_for_overwrite();

  /// Takes over filled property columns by move (O(1)); every column must
  /// have num_edges() rows.
  void attach_properties(PropertyColumns columns);

  /// Drops all property columns, leaving the bare structure (used by PGSK's
  /// multiset -> set collapse, paper Fig. 3 lines 1-5).
  void drop_properties() noexcept;

  // Column access for analysis passes (valid only with has_properties()).
  [[nodiscard]] std::span<const Protocol> protocols() const noexcept {
    return props_.protocol;
  }
  [[nodiscard]] std::span<const std::uint16_t> src_ports() const noexcept {
    return props_.src_port;
  }
  [[nodiscard]] std::span<const std::uint16_t> dst_ports() const noexcept {
    return props_.dst_port;
  }
  [[nodiscard]] std::span<const std::uint32_t> durations_ms() const noexcept {
    return props_.duration_ms;
  }
  [[nodiscard]] std::span<const std::uint64_t> out_bytes() const noexcept {
    return props_.out_bytes;
  }
  [[nodiscard]] std::span<const std::uint64_t> in_bytes() const noexcept {
    return props_.in_bytes;
  }
  [[nodiscard]] std::span<const std::uint32_t> out_pkts() const noexcept {
    return props_.out_pkts;
  }
  [[nodiscard]] std::span<const std::uint32_t> in_pkts() const noexcept {
    return props_.in_pkts;
  }
  [[nodiscard]] std::span<const ConnState> states() const noexcept {
    return props_.state;
  }

  /// Approximate heap footprint of the graph in bytes (used by the memory
  /// experiment, paper Fig. 11).
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept;

  /// Bytes per edge for this graph's layout (structure + properties).
  [[nodiscard]] static std::uint64_t bytes_per_edge(bool with_properties) noexcept;

  friend bool operator==(const PropertyGraph&, const PropertyGraph&) = default;

 private:
  EdgeId check(EdgeId e) const {
    CSB_CHECK_MSG(e < src_.size(), "edge id out of range");
    return e;
  }

  std::uint64_t num_vertices_ = 0;
  std::vector<VertexId> src_;
  std::vector<VertexId> dst_;
  // NetFlow property columns (all empty, or all sized like src_).
  PropertyColumns props_;
};

}  // namespace csb
