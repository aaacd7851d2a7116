// The benchmark's four workloads. Each builds its inputs from a seed in
// setup(), then runs one pass of its pipeline per run() call through the
// library's public calls, and checks the pass's outputs in check(). README.md
// in this directory says why each workload exists and what it should move.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"
#include "util/thread_pool.hpp"

namespace pipebench {

struct RunOptions {
  /// Spans around every public call when set; untraced otherwise.
  SpanRecorder* recorder = nullptr;
  /// Injected into every GraphStore::put_edges call (attribution tests).
  std::chrono::nanoseconds put_edges_delay{};
  /// Which of the workload's input variants the pass runs on.
  int variant = 0;
  /// Cores of the virtual cluster (1 node). The generators size their
  /// property chunks by it, so it is part of the input: the serial baseline
  /// keeps it and shrinks only the real pool. 0 = the pool's size.
  std::size_t virtual_cores = 0;
};

/// What one pass produced, beyond the spans.
struct PassResult {
  /// Edges delivered: produced edges, or for `ingest` the seed graph's
  /// edges (one per assembled flow).
  std::uint64_t edges = 0;
  /// Output digest: equal for every pass over the same inputs, at any pool
  /// size.
  std::uint64_t digest = 0;
  /// Failed correctness checks, one line each; empty when the pass is
  /// correct.
  std::vector<std::string> failures;
  /// Per-layer counts and the sink-call accounting of the pass (names as in
  /// BENCHMARK.json's per_layer list).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Number of input variants setup() builds; passes cycle over them.
  [[nodiscard]] virtual int variants() const { return 1; }
  /// Builds the inputs for `seed`, replacing earlier ones.
  virtual void setup(std::uint64_t seed, csb::ThreadPool& pool) = 0;
  /// One timed pass of the pipeline on `pool`.
  virtual void run(csb::ThreadPool& pool, const RunOptions& options) = 0;
  /// Checks and digests the last pass's outputs, then deletes them.
  virtual PassResult check() = 0;
};

/// Workload names, in BENCHMARK.json order.
std::vector<std::string> workload_names();

/// `scale` multiplies every size (1 = the benchmark's sizes); files go under
/// `workdir`, which must exist. Throws std::invalid_argument on an unknown
/// name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const std::filesystem::path& workdir,
                                        double scale = 1.0);

/// The library call names the harness wraps in spans.
std::vector<std::string> call_names();

}  // namespace pipebench
