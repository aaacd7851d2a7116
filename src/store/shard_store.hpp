// ShardStore — sharded on-disk graph store with an mmap-able CSR index.
//
// On-disk layout (one directory per graph):
//
//   manifest.json   shard count, seed, per-shard edge counts + checksums
//   edges-NNNN.bin  shard NNNN's endpoint columns: src[E_s] then dst[E_s],
//                   little-endian u64
//   props-NNNN.bin  shard NNNN's nine NetFlow property columns, column-major
//                   in schema order (protocol u8, src_port u16, dst_port u16,
//                   duration_ms u32, out_bytes u64, in_bytes u64,
//                   out_pkts u32, in_pkts u32, state u8)
//   csr.bin         in-direction CSR over the whole graph: 24-byte header
//                   ("CSBX", u32 version, u64 vertices, u64 edges), then
//                   out_degree[V] u64, in_offsets[V+1] u64,
//                   in_neighbors[E] u64 (the *sources* of each vertex's
//                   incoming edges, in global edge order — exactly
//                   CsrView(graph, kIn)'s layout)
//
// Shard s holds the contiguous global edge range
// [s * ceil(E/S), min(E, (s+1) * ceil(E/S))): sharding is pure offset
// arithmetic, so writers split chunks across shard boundaries without
// coordination and the concatenated shard bytes are invariant to the shard
// count. Writes go through pwrite on pre-sized files — thread-safe,
// order-free, deterministic.
//
// Checksums are sums (mod 2^64) of per-edge mix terms keyed by the global
// edge index, so they commute across arrival order yet pin every byte to
// its position. They are stored as hex strings in the manifest (the JSON
// layer models numbers as doubles).
//
// finish() builds csr.bin out of core: one counting pass over the shard
// files for out-degrees and in-offsets, then vertex-range slices sized to
// `memory_budget_bytes` are scattered and pwritten at their disjoint file
// offsets — resident memory stays O(V + budget) however large E grows.
// With a ThreadPool both passes run in parallel (per-shard counting tasks,
// per-vertex-range scatter tasks with the budget split across them) and
// stay byte-identical to the serial path at any pool size: counting uses
// commutative relaxed atomic increments, and every scatter task owns a
// disjoint vertex range whose csr.bin slice position is pure offset
// arithmetic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "store/graph_store.hpp"
#include "util/file_mapping.hpp"

namespace csb {

class ThreadPool;

struct ShardStoreOptions {
  std::string directory;
  std::uint32_t shard_count = 8;
  /// Byte budget for the CSR neighbor-scatter buffers (resident memory of
  /// the finish() pass beyond the O(V) degree/offset arrays). Under a pool
  /// the budget is split evenly across concurrent scatter tasks.
  std::uint64_t memory_budget_bytes = 256ULL << 20;
  /// Skip csr.bin (write-only archives that will never run veracity).
  bool build_csr = true;
  /// Optional pool for the finish() pipeline (CSR counting + scatter).
  /// Null runs every pass inline on the calling thread; the artifacts are
  /// byte-identical either way.
  ThreadPool* pool = nullptr;
};

/// Per-shard manifest row.
struct ShardInfo {
  std::string edge_file;
  std::string prop_file;  ///< empty when the store has no properties
  std::uint64_t first_edge = 0;
  std::uint64_t edges = 0;
  std::uint64_t edge_checksum = 0;
  std::uint64_t prop_checksum = 0;
};

struct ShardManifest {
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  bool with_properties = false;
  std::uint64_t seed = 0;
  std::uint32_t shard_count = 0;
  std::uint64_t edges_per_shard = 0;
  std::vector<ShardInfo> shards;
  std::string csr_file;  ///< empty when build_csr was off
  std::uint64_t csr_checksum = 0;
};

class ShardStore final : public GraphStore {
 public:
  explicit ShardStore(ShardStoreOptions options);
  ~ShardStore() override;

  [[nodiscard]] std::string_view name() const override { return "shards"; }
  void begin(const StoreHeader& header) override;
  void put_edges(std::uint64_t first_edge, std::span<const VertexId> src,
                 std::span<const VertexId> dst) override;
  void put_properties(std::uint64_t first_edge,
                      const PropertyRowsView& rows) override;
  /// Builds csr.bin and writes manifest.json. After this the directory is
  /// a complete, self-describing graph.
  void finish() override;

  [[nodiscard]] const ShardManifest& manifest() const;

 private:
  struct ShardFile;

  ShardStoreOptions options_;
  StoreHeader header_;
  bool begun_ = false;
  bool finished_ = false;
  std::uint64_t per_shard_ = 0;
  std::vector<std::unique_ptr<ShardFile>> shards_;
  ShardManifest manifest_;
};

/// Read-only view of csr.bin, valid while the owning ShardStoreReader
/// lives. Spans point into the mmap'd file.
class CsrIndexView {
 public:
  [[nodiscard]] std::uint64_t num_vertices() const noexcept {
    return vertices_;
  }
  [[nodiscard]] std::uint64_t num_edges() const noexcept { return edges_; }
  [[nodiscard]] std::span<const std::uint64_t> out_degrees() const noexcept {
    return out_degrees_;
  }
  /// in_offsets[v] .. in_offsets[v+1] delimit v's incoming-edge sources.
  [[nodiscard]] std::span<const std::uint64_t> in_offsets() const noexcept {
    return in_offsets_;
  }
  [[nodiscard]] std::span<const VertexId> in_neighbors() const noexcept {
    return in_neighbors_;
  }
  [[nodiscard]] std::uint64_t in_degree(VertexId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }
  [[nodiscard]] std::uint64_t total_degree(VertexId v) const {
    return out_degrees_[v] + in_degree(v);
  }

 private:
  friend class ShardStoreReader;
  std::uint64_t vertices_ = 0;
  std::uint64_t edges_ = 0;
  std::span<const std::uint64_t> out_degrees_;
  std::span<const std::uint64_t> in_offsets_;
  std::span<const VertexId> in_neighbors_;
};

/// Opens a ShardStore directory: parses + validates manifest.json, checks
/// every shard file's size, and maps csr.bin when present. All failures
/// throw CsbError naming the offending file.
class ShardStoreReader {
 public:
  explicit ShardStoreReader(const std::string& directory);

  [[nodiscard]] const ShardManifest& manifest() const { return manifest_; }
  [[nodiscard]] bool has_csr() const noexcept {
    return !csr_map_.bytes().empty();
  }
  /// The mmap'd CSR index; throws when the store was written without one.
  [[nodiscard]] const CsrIndexView& csr() const;

  /// Streams the edge list in global order as (first_edge, src, dst)
  /// chunks, verifying each shard's checksum; throws CsbError naming a
  /// corrupt shard file.
  void scan_edges(
      const std::function<void(std::uint64_t, std::span<const VertexId>,
                               std::span<const VertexId>)>& emit) const;

  /// Reads shard s's property columns into rows
  /// [first_row, first_row + shard edges) of `into`, verifying the shard
  /// checksum.
  void read_shard_properties(std::size_t s, PropertyColumns& into,
                             std::uint64_t first_row) const;

  /// Recomputes every shard checksum and the csr.bin checksum. A non-null
  /// pool fans the per-shard scans and the CSR word sum out over it — the
  /// commutative index-keyed checksums make the result order-free, and
  /// errors are rethrown in shard order so diagnostics stay deterministic.
  void verify(ThreadPool* pool = nullptr) const;

  /// Materializes the whole store as an in-RAM PropertyGraph (tests, and
  /// the `shards` GraphFormat load path). Verifies checksums on the way.
  [[nodiscard]] PropertyGraph to_property_graph() const;

 private:
  /// Streams one shard's edges in local order, verifying its checksum.
  /// Thread-safe for distinct shards (verify fans it over a pool).
  void scan_shard_edges(
      std::size_t s,
      const std::function<void(std::uint64_t, std::span<const VertexId>,
                               std::span<const VertexId>)>& emit) const;

  std::string directory_;
  ShardManifest manifest_;
  CsrIndexView csr_;
  FileMapping csr_map_;  ///< csr.bin; empty when the store has none
};

/// The checksum terms (exposed for tests): sum over the covered edges of
/// edge_checksum_term / property_checksum_term, mod 2^64.
[[nodiscard]] std::uint64_t edge_checksum_term(std::uint64_t index,
                                               VertexId src, VertexId dst);
[[nodiscard]] std::uint64_t property_checksum_term(std::uint64_t index,
                                                   const EdgeProperties& row);
/// csr.bin checksum term: keyed by the 8-byte word's index within the
/// file, summed mod 2^64 over every word (header included). Commutative,
/// so parallel scatter tasks and parallel verify scans accumulate it in
/// any order; index-keyed, so transposed words still fail.
[[nodiscard]] std::uint64_t csr_checksum_term(std::uint64_t word_index,
                                              std::uint64_t word);

}  // namespace csb
