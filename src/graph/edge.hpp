// The bare structural edge shared by the generators (gen/) and the
// graph-store sinks (store/). Lives in graph/ so both layers can use it
// without gen <-> store dependencies.
#pragma once

#include <cstdint>

#include "graph/property_graph.hpp"

namespace csb {

/// A bare structural edge as it travels through the Map-Reduce datasets
/// and the GraphStore sinks.
struct Edge {
  VertexId src = 0;
  VertexId dst = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Packed (src << 32 | dst) identity key — the key PGSK's Kronecker descent
/// deduplicates and the per-edge re-multiply streams are seeded by. Exact
/// for |V| < 2^32 (all our configurations), which is what makes the dedup
/// a true set operation.
inline std::uint64_t edge_key(const Edge& e) noexcept {
  return (e.src << 32) | (e.dst & 0xffffffffULL);
}

}  // namespace csb
