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
#include <utility>
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

/// One column of the NetFlow schema: the EdgeProperties member it stores
/// and its name in the text formats (the CSV header, the GraphML keys).
template <typename T>
struct NetflowField {
  T EdgeProperties::*member;
  const char* name;
};

/// The NetFlow column schema: the one list of the nine property columns,
/// in the order every format lays them out (props-NNNN.bin, the binary
/// graph dump, the CSV and GraphML files). Calls fn(field, sets.<column>...)
/// once per column, where `field` is the column's NetflowField and each
/// column set in `sets` (zero or more PropertyColumns / PropertyRowsView)
/// contributes its column of that name. Every column walk is built on it.
template <typename Fn, typename... Sets>
constexpr void zip_netflow_columns(Fn&& fn, Sets&... sets) {
  fn(NetflowField{&EdgeProperties::protocol, "protocol"}, sets.protocol...);
  fn(NetflowField{&EdgeProperties::src_port, "src_port"}, sets.src_port...);
  fn(NetflowField{&EdgeProperties::dst_port, "dst_port"}, sets.dst_port...);
  fn(NetflowField{&EdgeProperties::duration_ms, "duration_ms"},
     sets.duration_ms...);
  fn(NetflowField{&EdgeProperties::out_bytes, "out_bytes"}, sets.out_bytes...);
  fn(NetflowField{&EdgeProperties::in_bytes, "in_bytes"}, sets.in_bytes...);
  fn(NetflowField{&EdgeProperties::out_pkts, "out_pkts"}, sets.out_pkts...);
  fn(NetflowField{&EdgeProperties::in_pkts, "in_pkts"}, sets.in_pkts...);
  fn(NetflowField{&EdgeProperties::state, "state"}, sets.state...);
}

/// The nine NetFlow columns (all the same length) over a column type:
/// owning PropertyColumn (PropertyColumns) or a read-only span
/// (PropertyRowsView).
template <template <typename> class Column>
struct NetflowColumns {
  Column<Protocol> protocol;
  Column<std::uint16_t> src_port;
  Column<std::uint16_t> dst_port;
  Column<std::uint32_t> duration_ms;
  Column<std::uint64_t> out_bytes;
  Column<std::uint64_t> in_bytes;
  Column<std::uint32_t> out_pkts;
  Column<std::uint32_t> in_pkts;
  Column<ConnState> state;

  [[nodiscard]] std::size_t size() const noexcept { return protocol.size(); }

  /// Calls fn(column) for the nine columns in schema order.
  template <typename Fn>
  void for_each_column(Fn&& fn) {
    zip_netflow_columns([&fn](auto, auto& column) { fn(column); }, *this);
  }
  template <typename Fn>
  void for_each_column(Fn&& fn) const {
    zip_netflow_columns([&fn](auto, auto& column) { fn(column); }, *this);
  }

  /// Gathers row `i`.
  [[nodiscard]] EdgeProperties row(std::size_t i) const {
    EdgeProperties props;
    zip_netflow_columns(
        [&](auto field, const auto& col) { props.*field.member = col[i]; },
        *this);
    return props;
  }

  friend bool operator==(const NetflowColumns&,
                         const NetflowColumns&) = default;
};

template <typename T>
using ColumnSpan = std::span<const T>;

/// A window of property rows in column form, as the generators hand them
/// to GraphStore::put_properties.
using PropertyRowsView = NetflowColumns<ColumnSpan>;

/// The owning property columns of a graph.
struct PropertyColumns : NetflowColumns<PropertyColumn> {
  /// Bytes of one row across the nine columns.
  static constexpr std::uint64_t kRowBytes = [] {
    std::uint64_t bytes = 0;
    zip_netflow_columns([&bytes](auto field) {
      bytes += sizeof(std::declval<EdgeProperties&>().*field.member);
    });
    return bytes;
  }();

  /// Sizes every column to `rows`; rows past the old size are
  /// indeterminate until overwritten.
  void resize_for_overwrite(std::size_t rows) {
    for_each_column([rows](auto& column) { column.resize(rows); });
  }
  void reserve(std::size_t rows) {
    for_each_column([rows](auto& column) { column.reserve(rows); });
  }
  void push_back(const EdgeProperties& props) {
    zip_netflow_columns(
        [&props](auto field, auto& col) { col.push_back(props.*field.member); },
        *this);
  }
  void set_row(std::size_t i, const EdgeProperties& props) {
    zip_netflow_columns(
        [&](auto field, auto& col) { col[i] = props.*field.member; }, *this);
  }

  /// Rows [first, first + count).
  [[nodiscard]] PropertyRowsView view(std::size_t first,
                                      std::size_t count) const {
    PropertyRowsView rows;
    zip_netflow_columns(
        [first, count](auto, auto& window, const auto& column) {
          window = std::span(column).subspan(first, count);
        },
        rows, *this);
    return rows;
  }
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
    return props_.size() != 0;
  }

  /// Gathers one edge's property row. Requires has_properties().
  [[nodiscard]] EdgeProperties edge_properties(EdgeId e) const;

  /// Takes over filled property columns by move (O(1)); every column must
  /// have num_edges() rows.
  void attach_properties(PropertyColumns columns);

  /// The property columns (empty without has_properties()).
  [[nodiscard]] const PropertyColumns& properties() const noexcept {
    return props_;
  }

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
