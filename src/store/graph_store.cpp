#include "store/graph_store.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace csb {

namespace {

template <typename Column>
void copy_at(Column& column, std::uint64_t first,
             std::span<const typename Column::value_type> values) {
  std::copy(values.begin(), values.end(), column.begin() + first);
}

}  // namespace

void MemoryStore::begin(const StoreHeader& header) {
  CSB_CHECK_MSG(!begun_, "MemoryStore::begin called twice");
  begun_ = true;
  header_ = header;
  src_.resize(header.edges);
  dst_.resize(header.edges);
  if (header.with_properties) props_.resize_for_overwrite(header.edges);
}

void MemoryStore::put_edges(std::uint64_t first_edge,
                            std::span<const VertexId> src,
                            std::span<const VertexId> dst) {
  CSB_CHECK_MSG(begun_ && !finished_, "put_edges outside begin/finish");
  CSB_CHECK_MSG(src.size() == dst.size(), "endpoint spans must align");
  CSB_CHECK_MSG(first_edge + src.size() <= header_.edges,
                "edge chunk exceeds the announced edge count");
  // Validated per chunk, on the worker that writes it, so finish() needs
  // no serial pass over the edges.
  VertexId max_endpoint = 0;
  for (std::size_t i = 0; i < src.size(); ++i) {
    max_endpoint = std::max({max_endpoint, src[i], dst[i]});
  }
  CSB_CHECK_MSG(src.empty() || max_endpoint < header_.vertices,
                "edge endpoints must be existing vertices");
  copy_at(src_, first_edge, src);
  copy_at(dst_, first_edge, dst);
}

void MemoryStore::put_properties(std::uint64_t first_edge,
                                 const PropertyRowsView& rows) {
  CSB_CHECK_MSG(begun_ && !finished_, "put_properties outside begin/finish");
  CSB_CHECK_MSG(header_.with_properties,
                "put_properties on a structure-only store");
  CSB_CHECK_MSG(first_edge + rows.size() <= header_.edges,
                "property chunk exceeds the announced edge count");
  zip_netflow_columns(
      [first_edge](auto, auto& column, const auto& chunk) {
        copy_at(column, first_edge, chunk);
      },
      props_, rows);
}

void MemoryStore::finish() {
  CSB_CHECK_MSG(begun_ && !finished_, "finish outside begin / called twice");
  finished_ = true;
  // Endpoints were checked chunk by chunk in put_edges; the columns hand
  // over by move.
  graph_ = PropertyGraph::from_columns_unchecked(
      header_.vertices, std::move(src_), std::move(dst_));
  if (header_.with_properties) graph_.attach_properties(std::move(props_));
}

const PropertyGraph& MemoryStore::graph() const {
  CSB_CHECK_MSG(finished_, "MemoryStore::graph before finish");
  return graph_;
}

PropertyGraph MemoryStore::take_graph() {
  CSB_CHECK_MSG(finished_, "MemoryStore::take_graph before finish");
  return std::move(graph_);
}

}  // namespace csb
