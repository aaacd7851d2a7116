#include "graph/property_graph.hpp"

#include <algorithm>
#include <utility>

namespace csb {

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
                "property add_edge on a graph with structure-only edges");
  src_.push_back(src);
  dst_.push_back(dst);
  props_.push_back(props);
  return src_.size() - 1;
}

void PropertyGraph::reserve_edges(std::uint64_t capacity) {
  src_.reserve(capacity);
  dst_.reserve(capacity);
  if (has_properties()) props_.reserve(capacity);
}

EdgeProperties PropertyGraph::edge_properties(EdgeId e) const {
  CSB_CHECK_MSG(has_properties(), "graph has no property columns");
  return props_.row(check(e));
}

void PropertyGraph::attach_properties(PropertyColumns columns) {
  bool sized = true;
  columns.for_each_column([&](const auto& column) {
    sized = sized && column.size() == src_.size();
  });
  CSB_CHECK_MSG(sized, "property columns must have one row per edge");
  props_ = std::move(columns);
}

std::uint64_t PropertyGraph::bytes_per_edge(bool with_properties) noexcept {
  return 2 * sizeof(VertexId) +
         (with_properties ? PropertyColumns::kRowBytes : 0);
}

std::uint64_t PropertyGraph::memory_bytes() const noexcept {
  return num_edges() * bytes_per_edge(has_properties());
}

}  // namespace csb
