// Virtual-cluster execution substrate — the stand-in for Apache Spark on the
// Shadow II supercomputer (see DESIGN.md, substitutions table).
//
// Work is expressed as *stages*: bags of independent tasks, mirroring
// Spark's stage/task model. Tasks execute for real on a local thread pool
// (sized to the hardware), and each task's wall duration is measured. The
// simulator then *replays* those measured durations onto a virtual cluster
// of `nodes x cores_per_node` slots using greedy list scheduling (each task
// goes to the currently least-loaded virtual core — what Spark's scheduler
// approximates). The simulated makespan of a job is
//
//     sum over stages of (max virtual-core busy time in the stage)
//   + measured driver-serial time between stages.
//
// This gives honest strong-scaling and throughput numbers on a single-core
// container: the parallel structure (and the serial fractions, e.g. PGSK's
// store:distinct:seal) comes from real measured work, only the placement
// is virtual.
//
// Memory accounting: Dataset partitions are assigned to virtual nodes
// round-robin; per-node dataset bytes plus a configurable platform
// overhead reproduce the paper's Fig. 11 memory curves.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace csb {

struct ClusterConfig {
  std::size_t nodes = 1;
  std::size_t cores_per_node = 1;
  /// Replace each task's measured duration with the stage mean before
  /// scheduling. Stages built by the generators are homogeneous (equal
  /// item counts per task), so the mean is the noise-robust estimator —
  /// per-task wall timings on an oversubscribed host carry OS jitter that
  /// would otherwise put a max-task floor under every stage's makespan.
  /// Leave off for workloads with genuinely skewed tasks.
  bool smooth_task_durations = false;

  [[nodiscard]] std::size_t total_cores() const noexcept {
    return nodes * cores_per_node;
  }
};

/// One named driver-serial segment (aggregated across run_serial calls with
/// the same name), e.g. PGSK's "collapse" and "kronfit" phases.
struct SerialSegment {
  std::string name;
  double seconds = 0.0;
};

/// Accumulated metrics of all stages run since the last reset.
struct JobMetrics {
  double simulated_seconds = 0.0;  ///< virtual makespan incl. serial time
  double serial_seconds = 0.0;     ///< driver-side (non-parallelizable) time
  double task_seconds = 0.0;       ///< sum of all task durations
  double wall_seconds = 0.0;       ///< real elapsed time on this machine
  std::uint64_t stages = 0;
  std::uint64_t tasks = 0;
  /// Per-name breakdown of serial_seconds, in first-seen order — makes the
  /// Amdahl term attributable (collapse vs. kronfit in the Fig. 12 bench).
  std::vector<SerialSegment> serial_segments;
};

/// Metrics of a single stage.
struct StageMetrics {
  std::string name;
  double makespan_seconds = 0.0;  ///< max virtual-core busy time
  double task_seconds = 0.0;      ///< sum of task durations
  std::uint64_t tasks = 0;
};

class ClusterSim {
 public:
  explicit ClusterSim(const ClusterConfig& config);

  /// Uses a caller-provided pool (shared across simulators in benches).
  ClusterSim(const ClusterConfig& config, ThreadPool& pool);

  [[nodiscard]] const ClusterConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] ThreadPool& pool() noexcept { return *pool_; }

  /// Runs every task (in parallel on the real pool), times each, and
  /// schedules the durations onto the virtual cluster. Task exceptions
  /// propagate after all tasks finish.
  StageMetrics run_stage(const std::string& name,
                         std::vector<std::function<void()>> tasks);

  /// Times `work` and books it as driver-serial time (adds to the makespan
  /// at full weight — the Amdahl component).
  void run_serial(const std::string& name, const std::function<void()>& work);

  [[nodiscard]] const JobMetrics& metrics() const noexcept { return metrics_; }
  void reset_metrics() noexcept { metrics_ = {}; }

  /// Attaches (or detaches, with nullptr) a span recorder: every stage and
  /// serial segment run afterwards is recorded as a csb.trace.v1 span with
  /// per-task histograms and virtual-node placement. Detached costs one
  /// pointer test per stage — see bench/trace_overhead.
  void set_trace(TraceRecorder* recorder) noexcept { trace_ = recorder; }
  [[nodiscard]] TraceRecorder* trace() const noexcept { return trace_; }

  /// Virtual node that hosts partition `p` (round-robin placement).
  [[nodiscard]] std::size_t node_of_partition(std::size_t p) const noexcept {
    return p % config_.nodes;
  }

 private:
  ClusterConfig config_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;
  JobMetrics metrics_;
  TraceRecorder* trace_ = nullptr;
};

/// Greedy list scheduling of task durations onto `slots` identical machines;
/// returns the makespan. Exposed for direct testing.
double list_schedule_makespan(const std::vector<double>& durations,
                              std::size_t slots);

/// As above, but also reports each slot's total busy time (the virtual-core
/// placement the trace layer aggregates into per-node busy seconds).
double list_schedule_makespan(const std::vector<double>& durations,
                              std::size_t slots,
                              std::vector<double>& slot_busy);

}  // namespace csb
