// ExternalDistinct — budgeted distinct-set of u64 keys.
//
// The exact generators' distinct phase and the fast samplers' optional
// dedup path both reduce to "collect u64 edge keys, keep each once". Under
// `memory_budget_bytes` this is an in-RAM sort+unique; above it, full
// buffers are sorted and spilled as run files, and seal() merges the runs
// (dropping duplicates at the merge frontier) into sorted-unique part
// files streamed back by scan().
//
// With a ThreadPool, seal() splits the keys' actual span — the smallest
// first record to the largest last record over the sorted runs — into R
// even ranges and runs R independent multi-way merges in parallel, one
// part file per range. Every run is sorted, so each merge binary-searches
// its key range's segment in every run and merges only that; ranges are
// disjoint and emitted in ascending range order, so the concatenated
// parts equal the serial single-merge stream exactly.
//
// Determinism: the final output is the ascending sorted-unique key set —
// a pure function of the key *multiset*, never of arrival order, spill
// timing, or pool size. That is what lets concurrent add() calls keep the
// byte-identical-parallelism contract.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace csb {

class ThreadPool;

struct ExternalDistinctOptions {
  /// Directory for spill runs; required only when the budget can overflow.
  std::string spill_directory;
  /// In-RAM buffer cap before a sorted run is spilled.
  std::uint64_t memory_budget_bytes = 256ULL << 20;
  /// Optional pool for seal()'s range-partitioned merge. Null merges
  /// serially; the scanned key stream is identical either way.
  ThreadPool* pool = nullptr;
};

class ExternalDistinct {
 public:
  explicit ExternalDistinct(ExternalDistinctOptions options);
  ~ExternalDistinct();
  ExternalDistinct(const ExternalDistinct&) = delete;
  ExternalDistinct& operator=(const ExternalDistinct&) = delete;

  /// Adds keys (duplicates welcome). Thread-safe; call before seal().
  void add(std::span<const std::uint64_t> keys);

  /// Sorts/merges everything; returns the distinct count. Call once.
  std::uint64_t seal();

  /// Streams the distinct keys in ascending order as span chunks. Valid
  /// after seal(); repeatable.
  void scan(const std::function<void(std::span<const std::uint64_t>)>& emit)
      const;

  /// Number of independently scannable segments after seal(). Segments
  /// partition the ascending key stream: concatenating
  /// scan_segment(0..scan_segments()) reproduces scan() exactly. The
  /// segment *boundaries* may differ with spill count or pool size — only
  /// the concatenated stream is invariant — so callers must address their
  /// output by key position, not by segment index.
  [[nodiscard]] std::size_t scan_segments() const;

  /// Streams segment `segment` of the ascending key stream as span chunks.
  /// Thread-safe against concurrent scan_segment calls on other (or the
  /// same) segments; repeatable.
  void scan_segment(
      std::size_t segment,
      const std::function<void(std::span<const std::uint64_t>)>& emit) const;

  [[nodiscard]] std::uint64_t unique_count() const;
  /// Number of run files ever spilled (0 = the whole set fit in RAM).
  [[nodiscard]] std::size_t spilled_runs() const { return spilled_; }
  /// Number of merge partitions seal() used (0 = no merge was needed).
  [[nodiscard]] std::size_t merge_partitions() const { return parts_.size(); }

 private:
  void spill_locked();

  ExternalDistinctOptions options_;
  std::mutex mutex_;
  std::vector<std::uint64_t> buffer_;
  std::vector<std::string> runs_;   ///< sorted-unique spill files
  std::vector<std::string> parts_;  ///< merged range parts, ascending
  bool sealed_ = false;
  std::uint64_t unique_ = 0;
  std::size_t spilled_ = 0;
};

}  // namespace csb
