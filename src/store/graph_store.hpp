// GraphStore — the polymorphic sink the generators emit into (ROADMAP
// item 1: "sharded binary edge format + mmap CSR").
//
// The generation output contract is a *stream*, not an object (Prat-Pérez
// et al.; Yoo/Henderson): a generator announces the output dimensions once
// via begin(), then emits edge chunks and property-row chunks addressed by
// their global edge offset, and seals the output with finish(). Offset
// addressing is what makes the contract parallel-safe *and* deterministic:
// chunks may arrive from any worker in any order, but every byte's final
// position is a pure function of the chunk geometry — never of scheduling.
//
// Two backends:
//   * MemoryStore — in-RAM columns; finish() yields the PropertyGraph that
//     Generator::generate returns.
//   * ShardStore  — sharded on-disk binary + mmap-able CSR index
//     (store/shard_store.hpp), bounded resident memory.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "graph/edge.hpp"
#include "graph/properties.hpp"
#include "graph/property_graph.hpp"

namespace csb {

/// Output dimensions, announced once before any chunk is emitted.
struct StoreHeader {
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  bool with_properties = false;
  /// The generator's RNG seed, recorded for provenance (ShardStore writes
  /// it into the manifest).
  std::uint64_t seed = 0;
};

/// The polymorphic generation sink. Call sequence: begin() once, then any
/// number of put_edges / put_properties calls (thread-safe, any order, each
/// chunk's offset range within [0, edges)), then finish() once. Every edge
/// offset must be covered exactly once by put_edges (and, when
/// with_properties, by put_properties) before finish().
class GraphStore {
 public:
  virtual ~GraphStore() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  virtual void begin(const StoreHeader& header) = 0;

  /// Writes endpoint columns for global edges
  /// [first_edge, first_edge + src.size()). src and dst are equal length.
  virtual void put_edges(std::uint64_t first_edge,
                         std::span<const VertexId> src,
                         std::span<const VertexId> dst) = 0;

  /// Writes property rows for global edges
  /// [first_edge, first_edge + rows.size()). Column form (PropertyRowsView,
  /// graph/property_graph.hpp) keeps this a straight copy per column on
  /// both backends.
  virtual void put_properties(std::uint64_t first_edge,
                              const PropertyRowsView& rows) = 0;

  virtual void finish() = 0;
};

/// In-memory backend and the only in-RAM producer: Generator::generate is
/// generate_into captured here. put_edges validates each chunk's endpoints
/// on the worker that writes it, and finish() hands the columns to the
/// graph by move, so no serial O(|E|) pass runs outside the chunk writers.
class MemoryStore final : public GraphStore {
 public:
  [[nodiscard]] std::string_view name() const override { return "memory"; }
  void begin(const StoreHeader& header) override;
  void put_edges(std::uint64_t first_edge, std::span<const VertexId> src,
                 std::span<const VertexId> dst) override;
  void put_properties(std::uint64_t first_edge,
                      const PropertyRowsView& rows) override;
  void finish() override;

  /// Valid after finish().
  [[nodiscard]] const PropertyGraph& graph() const;
  /// Moves the assembled graph out (valid once, after finish()).
  [[nodiscard]] PropertyGraph take_graph();

 private:
  StoreHeader header_;
  bool begun_ = false;
  bool finished_ = false;
  std::vector<VertexId> src_;
  std::vector<VertexId> dst_;
  PropertyColumns props_;
  PropertyGraph graph_;
};

/// Chunked replay of an existing in-RAM graph through any store: begin /
/// 64K-edge put_edges+put_properties chunks / finish. The save path of the
/// `shards` GraphFormat; generators never go through it.
void replay_graph_into(const PropertyGraph& graph, GraphStore& store,
                       std::uint64_t seed);

}  // namespace csb
