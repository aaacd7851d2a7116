#include "graph/property_graph.hpp"

#include <algorithm>
#include <utility>

namespace csb {

void PropertyColumns::resize_for_overwrite(std::size_t rows) {
  // resize() default-initializes under the column allocator, so no column
  // content is written here.
  protocol.resize(rows);
  src_port.resize(rows);
  dst_port.resize(rows);
  duration_ms.resize(rows);
  out_bytes.resize(rows);
  in_bytes.resize(rows);
  out_pkts.resize(rows);
  in_pkts.resize(rows);
  state.resize(rows);
}

PropertyGraph PropertyGraph::from_columns(std::uint64_t vertices,
                                          std::vector<VertexId> src,
                                          std::vector<VertexId> dst) {
  CSB_CHECK_MSG(src.size() == dst.size(),
                "endpoint columns must have equal length");
  if (!src.empty()) {
    const VertexId max_src = *std::max_element(src.begin(), src.end());
    const VertexId max_dst = *std::max_element(dst.begin(), dst.end());
    CSB_CHECK_MSG(max_src < vertices && max_dst < vertices,
                  "edge endpoints must be existing vertices");
  }
  return from_columns_unchecked(vertices, std::move(src), std::move(dst));
}

PropertyGraph PropertyGraph::from_columns_unchecked(std::uint64_t vertices,
                                                    std::vector<VertexId> src,
                                                    std::vector<VertexId> dst) {
  CSB_CHECK_MSG(src.size() == dst.size(),
                "endpoint columns must have equal length");
  PropertyGraph graph(vertices);
  graph.src_ = std::move(src);
  graph.dst_ = std::move(dst);
  return graph;
}

EdgeId PropertyGraph::add_edge(VertexId src, VertexId dst) {
  CSB_CHECK_MSG(src < num_vertices_ && dst < num_vertices_,
                "edge endpoints must be existing vertices");
  CSB_CHECK_MSG(!has_properties(),
                "structure-only add_edge on a graph with property columns; "
                "use the property overload");
  src_.push_back(src);
  dst_.push_back(dst);
  return src_.size() - 1;
}

EdgeId PropertyGraph::add_edge(VertexId src, VertexId dst,
                               const EdgeProperties& props) {
  CSB_CHECK_MSG(src < num_vertices_ && dst < num_vertices_,
                "edge endpoints must be existing vertices");
  CSB_CHECK_MSG(has_properties() || src_.empty(),
                "property add_edge on a graph with structure-only edges; "
                "call ensure_properties() first");
  src_.push_back(src);
  dst_.push_back(dst);
  props_.protocol.push_back(props.protocol);
  props_.src_port.push_back(props.src_port);
  props_.dst_port.push_back(props.dst_port);
  props_.duration_ms.push_back(props.duration_ms);
  props_.out_bytes.push_back(props.out_bytes);
  props_.in_bytes.push_back(props.in_bytes);
  props_.out_pkts.push_back(props.out_pkts);
  props_.in_pkts.push_back(props.in_pkts);
  props_.state.push_back(props.state);
  return src_.size() - 1;
}

void PropertyGraph::reserve_edges(std::uint64_t capacity) {
  src_.reserve(capacity);
  dst_.reserve(capacity);
  if (has_properties()) {
    props_.protocol.reserve(capacity);
    props_.src_port.reserve(capacity);
    props_.dst_port.reserve(capacity);
    props_.duration_ms.reserve(capacity);
    props_.out_bytes.reserve(capacity);
    props_.in_bytes.reserve(capacity);
    props_.out_pkts.reserve(capacity);
    props_.in_pkts.reserve(capacity);
    props_.state.reserve(capacity);
  }
}

EdgeProperties PropertyGraph::edge_properties(EdgeId e) const {
  CSB_CHECK_MSG(has_properties(), "graph has no property columns");
  check(e);
  return EdgeProperties{
      .protocol = props_.protocol[e],
      .src_port = props_.src_port[e],
      .dst_port = props_.dst_port[e],
      .duration_ms = props_.duration_ms[e],
      .out_bytes = props_.out_bytes[e],
      .in_bytes = props_.in_bytes[e],
      .out_pkts = props_.out_pkts[e],
      .in_pkts = props_.in_pkts[e],
      .state = props_.state[e],
  };
}

void PropertyGraph::set_edge_properties(EdgeId e, const EdgeProperties& props) {
  CSB_CHECK_MSG(has_properties(), "graph has no property columns");
  check(e);
  props_.protocol[e] = props.protocol;
  props_.src_port[e] = props.src_port;
  props_.dst_port[e] = props.dst_port;
  props_.duration_ms[e] = props.duration_ms;
  props_.out_bytes[e] = props.out_bytes;
  props_.in_bytes[e] = props.in_bytes;
  props_.out_pkts[e] = props.out_pkts;
  props_.in_pkts[e] = props.in_pkts;
  props_.state[e] = props.state;
}

void PropertyGraph::ensure_properties() {
  if (has_properties() && props_.protocol.size() == src_.size()) return;
  const std::size_t n = src_.size();
  props_.protocol.assign(n, Protocol::kTcp);
  props_.src_port.assign(n, 0);
  props_.dst_port.assign(n, 0);
  props_.duration_ms.assign(n, 0);
  props_.out_bytes.assign(n, 0);
  props_.in_bytes.assign(n, 0);
  props_.out_pkts.assign(n, 0);
  props_.in_pkts.assign(n, 0);
  props_.state.assign(n, ConnState::kNone);
}

void PropertyGraph::ensure_properties_for_overwrite() {
  if (has_properties() && props_.protocol.size() == src_.size()) return;
  props_.resize_for_overwrite(src_.size());
}

void PropertyGraph::attach_properties(PropertyColumns columns) {
  const std::size_t n = src_.size();
  CSB_CHECK_MSG(columns.protocol.size() == n && columns.src_port.size() == n &&
                    columns.dst_port.size() == n &&
                    columns.duration_ms.size() == n &&
                    columns.out_bytes.size() == n &&
                    columns.in_bytes.size() == n &&
                    columns.out_pkts.size() == n &&
                    columns.in_pkts.size() == n && columns.state.size() == n,
                "property columns must have one row per edge");
  props_ = std::move(columns);
}

void PropertyGraph::drop_properties() noexcept { props_ = PropertyColumns{}; }

std::uint64_t PropertyGraph::bytes_per_edge(bool with_properties) noexcept {
  std::uint64_t bytes = 2 * sizeof(VertexId);
  if (with_properties) {
    bytes += sizeof(Protocol) + 2 * sizeof(std::uint16_t) +
             sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t) +
             2 * sizeof(std::uint32_t) + sizeof(ConnState);
  }
  return bytes;
}

std::uint64_t PropertyGraph::memory_bytes() const noexcept {
  return num_edges() * bytes_per_edge(has_properties());
}

}  // namespace csb
