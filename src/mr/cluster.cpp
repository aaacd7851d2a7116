#include "mr/cluster.hpp"

#include <algorithm>
#include <queue>
#include <thread>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace csb {

double list_schedule_makespan(const std::vector<double>& durations,
                              std::size_t slots,
                              std::vector<double>& slot_busy) {
  CSB_CHECK_MSG(slots > 0, "list scheduling needs at least one slot");
  slot_busy.assign(slots, 0.0);
  if (durations.empty()) return 0.0;
  // Min-heap of (busy time, slot); each task lands on the least-loaded slot
  // (lowest index on ties, matching the scalar version's determinism).
  using Slot = std::pair<double, std::size_t>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> cores;
  for (std::size_t i = 0; i < slots; ++i) cores.push({0.0, i});
  for (const double d : durations) {
    auto [busy, slot] = cores.top();
    cores.pop();
    busy += d;
    slot_busy[slot] = busy;
    cores.push({busy, slot});
  }
  double makespan = 0.0;
  for (const double busy : slot_busy) makespan = std::max(makespan, busy);
  return makespan;
}

double list_schedule_makespan(const std::vector<double>& durations,
                              std::size_t slots) {
  CSB_CHECK_MSG(slots > 0, "list scheduling needs at least one slot");
  if (durations.empty()) return 0.0;
  // Min-heap of core busy times; each task lands on the least-loaded core.
  std::priority_queue<double, std::vector<double>, std::greater<>> cores;
  for (std::size_t i = 0; i < slots; ++i) cores.push(0.0);
  for (const double d : durations) {
    const double busy = cores.top();
    cores.pop();
    cores.push(busy + d);
  }
  double makespan = 0.0;
  while (!cores.empty()) {
    makespan = std::max(makespan, cores.top());
    cores.pop();
  }
  return makespan;
}

ClusterSim::ClusterSim(const ClusterConfig& config)
    : config_(config),
      owned_pool_(std::make_unique<ThreadPool>(
          std::min<std::size_t>(config.total_cores(),
                                std::max(1u, std::thread::hardware_concurrency())))),
      pool_(owned_pool_.get()) {
  CSB_CHECK_MSG(config.nodes > 0 && config.cores_per_node > 0,
                "cluster needs at least one node and one core");
}

ClusterSim::ClusterSim(const ClusterConfig& config, ThreadPool& pool)
    : config_(config), pool_(&pool) {
  CSB_CHECK_MSG(config.nodes > 0 && config.cores_per_node > 0,
                "cluster needs at least one node and one core");
}

StageMetrics ClusterSim::run_stage(const std::string& name,
                                   std::vector<std::function<void()>> tasks) {
  StageMetrics stage;
  stage.name = name;
  stage.tasks = tasks.size();
  if (tasks.empty()) return stage;

  const double trace_t0 = trace_ != nullptr ? trace_->now() : 0.0;
  Stopwatch wall;
  std::vector<double> durations(tasks.size(), 0.0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i] = [&durations, i, task = std::move(tasks[i])] {
      Stopwatch timer;
      task();
      durations[i] = timer.seconds();
    };
  }
  parallel_tasks(pool_, tasks);

  for (const double d : durations) stage.task_seconds += d;
  // Histogram the *measured* durations before any smoothing — the trace
  // records what the tasks actually did, not the scheduler's view.
  std::vector<std::uint64_t> task_hist;
  if (trace_ != nullptr) task_hist = duration_histogram_log2us(durations);
  if (config_.smooth_task_durations) {
    const double mean =
        stage.task_seconds / static_cast<double>(durations.size());
    std::fill(durations.begin(), durations.end(), mean);
  }
  if (trace_ == nullptr) {
    stage.makespan_seconds =
        list_schedule_makespan(durations, config_.total_cores());
  } else {
    std::vector<double> slot_busy;
    stage.makespan_seconds =
        list_schedule_makespan(durations, config_.total_cores(), slot_busy);
    SpanRecord span;
    span.name = name;
    span.kind = "stage";
    span.t0 = trace_t0;
    span.t1 = trace_->now();
    span.seconds = stage.makespan_seconds;
    span.tasks = stage.tasks;
    span.task_seconds = stage.task_seconds;
    span.task_hist = std::move(task_hist);
    span.node_busy.assign(config_.nodes, 0.0);
    for (std::size_t slot = 0; slot < slot_busy.size(); ++slot) {
      span.node_busy[slot / config_.cores_per_node] += slot_busy[slot];
    }
    trace_->record_span(std::move(span));
  }

  metrics_.simulated_seconds += stage.makespan_seconds;
  metrics_.task_seconds += stage.task_seconds;
  metrics_.wall_seconds += wall.seconds();
  metrics_.stages += 1;
  metrics_.tasks += stage.tasks;
  static Counter& stages_run = MetricsRegistry::instance().counter("cluster.stages");
  static Counter& tasks_run = MetricsRegistry::instance().counter("cluster.tasks");
  stages_run.increment();
  tasks_run.add(stage.tasks);
  return stage;
}

void ClusterSim::run_serial(const std::string& name,
                            const std::function<void()>& work) {
  const double trace_t0 = trace_ != nullptr ? trace_->now() : 0.0;
  Stopwatch timer;
  work();
  const double elapsed = timer.seconds();
  if (trace_ != nullptr) {
    SpanRecord span;
    span.name = name;
    span.kind = "serial";
    span.t0 = trace_t0;
    span.t1 = trace_->now();
    span.seconds = elapsed;
    trace_->record_span(std::move(span));
  }
  metrics_.simulated_seconds += elapsed;
  metrics_.serial_seconds += elapsed;
  metrics_.wall_seconds += elapsed;
  auto& segments = metrics_.serial_segments;
  const auto segment =
      std::find_if(segments.begin(), segments.end(),
                   [&name](const SerialSegment& s) { return s.name == name; });
  if (segment != segments.end()) {
    segment->seconds += elapsed;
  } else {
    segments.push_back({name, elapsed});
  }
}

}  // namespace csb
