// The measurement loop: set-up, untraced passes for the end-to-end
// metrics, and (traced runs) traced passes at pool = threads plus one at
// pool = 1 for the per-layer metrics. Every pass's outputs are checked and
// digested; a digest that differs between passes fails the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
};

/// End-to-end metrics (tracing off), in BENCHMARK.json order.
std::vector<MetricDef> end_to_end_metrics();
/// Per-layer metrics (traced runs), in BENCHMARK.json order. A layer a
/// workload never calls reports 0.
std::vector<MetricDef> per_layer_metrics();

struct HarnessOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path workdir;
  std::size_t threads = 1;
  int min_setups = 3;
  double setup_seconds = 1.0;
  int min_passes = 3;
  double scale = 1.0;
  std::chrono::nanoseconds put_edges_delay{};
};

struct Measurement {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;  ///< filled by traced runs
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::string spans_json;  ///< traced runs: every span of every pass
  std::string filesystem;  ///< type of the filesystem holding workdir
};

Measurement measure(const HarnessOptions& options);

/// One row per layer time metric (self time: gen.self_s stands for
/// gen.generate_into, sink calls count their busy time), ordered by how much
/// it grew from `before` to `after`; the first row names the layer that
/// moved most.
struct LayerChange {
  std::string layer;
  std::string metric;
  double before = 0.0;
  double after = 0.0;
};
std::vector<LayerChange> rank_layer_changes(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after);

}  // namespace pipebench
