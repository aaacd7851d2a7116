// Span tracing and the `csb.trace.v1` NDJSON schema — the single
// machine-readable shape every producer in the suite emits (generator runs
// via `csbgen generate --trace`, the fig* benches, micro benches) and every
// consumer reads (`csbgen report`, scripts/check_trace_schema.sh, the
// schema tests). See docs/observability.md for the field reference.
//
// One record per line, every record carrying {"v":"csb.trace.v1","type":T}:
//   meta     run-level attributes (tool, algo, cluster shape, ...)
//   span     a named timed region: kind "phase" (generator-level, nested),
//            "stage" (one ClusterSim parallel stage: task count/sum,
//            virtual-node busy seconds, task-duration histogram) or
//            "serial" (driver-serial segment — the Amdahl term)
//   counter  a MetricsRegistry value at snapshot time
//   mem      an RSS/high-water-mark sample
//   bench    one benchmark measurement row (name + flat fields object)
//
// TraceRecorder is the in-process collector. Disabled tracing is a null
// recorder pointer: every instrumentation site is one pointer test, so the
// allocation-lean hot paths of PR 1 stay intact (asserted by the
// bench/trace_overhead micro bench).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/memwatch.hpp"

namespace csb {

inline constexpr std::string_view kTraceSchemaVersion = "csb.trace.v1";

/// One timed region. `seconds` is the *booked* duration — the virtual
/// makespan for stages, wall time for serial segments and phases — while
/// [t0, t1] are wall timestamps relative to the recorder epoch (for stages
/// on the virtual cluster, t1 - t0 is host wall time, not makespan).
struct SpanRecord {
  std::uint64_t id = 0;      ///< 1-based, assigned by the recorder
  std::uint64_t parent = 0;  ///< enclosing phase span id; 0 = root
  std::string name;
  std::string kind;  ///< "phase" | "stage" | "serial"
  double t0 = 0.0;
  double t1 = 0.0;
  double seconds = 0.0;
  std::uint64_t tasks = 0;
  double task_seconds = 0.0;
  /// Busy seconds per virtual node under list-scheduled placement.
  std::vector<double> node_busy;
  /// Task-duration histogram: bucket i counts tasks with wall duration in
  /// [2^i, 2^(i+1)) microseconds; trailing zero buckets trimmed.
  std::vector<std::uint64_t> task_hist;
};

struct CounterRecord {
  std::string name;
  std::uint64_t value = 0;
};

struct MemRecord {
  std::string label;
  double t = 0.0;
  std::uint64_t rss_bytes = 0;
  std::uint64_t hwm_bytes = 0;
};

/// One benchmark measurement: a name plus a flat fields object (numbers or
/// strings). The shared emitter all benches route --json output through.
struct BenchRecord {
  std::string name;
  std::vector<std::pair<std::string, JsonValue>> fields;
};

/// Log2-microsecond-bucket histogram of task durations (SpanRecord::task_hist
/// semantics). Exposed for tests.
std::vector<std::uint64_t> duration_histogram_log2us(
    const std::vector<double>& seconds);

/// Renders single NDJSON lines (no trailing newline). Pure functions of the
/// records, so writer output is deterministic given deterministic inputs —
/// the property the golden-file test pins.
namespace trace_lines {
std::string meta(const std::vector<std::pair<std::string, std::string>>& attrs);
std::string span(const SpanRecord& span);
std::string counter(const CounterRecord& counter);
std::string mem(const MemRecord& mem);
std::string bench(const BenchRecord& bench);
}  // namespace trace_lines

/// Collects spans, counters and memory samples for one run and serializes
/// them as csb.trace.v1 NDJSON. Thread-safe; recording is mutex-guarded but
/// instrumentation sites only reach it behind an enabled-recorder test.
class TraceRecorder {
 public:
  TraceRecorder();

  /// Seconds since recorder construction (the span timestamp base).
  [[nodiscard]] double now() const;

  void set_meta(std::string key, std::string value);

  /// Opens a nested phase span; returns its id for end_phase. Phases form a
  /// stack (generator phases like "grow", "kronfit", "properties"); stage and
  /// serial spans recorded while a phase is open become its children.
  std::uint64_t begin_phase(std::string_view name);
  void end_phase(std::uint64_t id);

  /// Innermost open phase id (0 = none).
  [[nodiscard]] std::uint64_t open_parent() const;

  /// Records a completed span. Assigns the id; a zero parent is replaced by
  /// the innermost open phase.
  void record_span(SpanRecord span);

  void record_counter(std::string_view name, std::uint64_t value);

  /// Dumps every non-zero MetricsRegistry counter/gauge into the trace.
  void record_metrics_snapshot();

  /// Takes one RSS sample (and folds it into the watermark). With
  /// enable_memory_sampling(), end_phase() samples automatically, giving the
  /// per-phase memory curve of the Fig. 11 story.
  MemorySample record_memory(std::string_view label);
  void enable_memory_sampling(bool enabled) { sample_memory_ = enabled; }

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& meta()
      const noexcept {
    return meta_;
  }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<CounterRecord>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::vector<MemRecord>& memory() const noexcept {
    return mems_;
  }

  /// NDJSON layout: meta, then spans in completion order (so span t1 values
  /// are monotone non-decreasing — validated by the schema checker), then
  /// memory samples, then counters.
  void write_ndjson(std::ostream& out) const;
  /// write_ndjson into the file at `path`. A path that cannot be opened
  /// throws CsbError("cannot open trace file <path> for writing: <reason>"),
  /// a failed write CsbError("cannot write trace file <path>: <reason>").
  void write_ndjson_file(const std::string& path) const;

  /// Process-wide "current recorder" slot for code without a ClusterSim
  /// handle (the seed pipeline). Null when tracing is off.
  static TraceRecorder* current() noexcept;
  static void set_current(TraceRecorder* recorder) noexcept;

 private:
  struct OpenPhase {
    std::uint64_t id = 0;
    std::string name;
    double t0 = 0.0;
    std::uint64_t parent = 0;
  };

  mutable std::mutex mutex_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<SpanRecord> spans_;
  std::vector<CounterRecord> counters_;
  std::vector<MemRecord> mems_;
  std::vector<OpenPhase> open_phases_;
  MemoryWatermark watermark_;
  std::uint64_t next_id_ = 1;
  bool sample_memory_ = false;
};

/// RAII phase helper; a null recorder makes it a no-op.
class PhaseScope {
 public:
  PhaseScope(TraceRecorder* recorder, std::string_view name)
      : recorder_(recorder),
        id_(recorder ? recorder->begin_phase(name) : 0) {}
  ~PhaseScope() {
    if (recorder_ != nullptr) recorder_->end_phase(id_);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  TraceRecorder* recorder_;
  std::uint64_t id_;
};

/// Line-at-a-time csb.trace.v1 file writer for producers that stream
/// records instead of collecting them (the bench emitters), and for a
/// recorder's file opened before the run it records (csbgen). Open and
/// write failures throw the CsbErrors TraceRecorder::write_ndjson_file
/// does.
class TraceFileWriter {
 public:
  explicit TraceFileWriter(const std::string& path);
  ~TraceFileWriter();

  void write_meta(
      const std::vector<std::pair<std::string, std::string>>& attrs);
  void write_bench(const BenchRecord& record);
  /// recorder.write_ndjson into the file.
  void write_recorder(const TraceRecorder& recorder);
  void write_line(const std::string& line);

 private:
  std::ofstream out_;
  std::string path_;
};

/// A parsed csb.trace.v1 file.
struct ParsedTrace {
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<SpanRecord> spans;
  std::vector<CounterRecord> counters;
  std::vector<MemRecord> mems;
  std::vector<BenchRecord> benches;
  std::uint64_t records = 0;

  [[nodiscard]] std::string meta_value(std::string_view key,
                                       std::string fallback = "") const;
};

/// Parses NDJSON. With `errors` non-null, problems (malformed lines, schema
/// violations: missing/unknown version tag or type, missing fields,
/// non-monotone span timestamps, dangling parent ids) are appended as
/// "line <n>: <reason>" and parsing continues; with `errors` null the first
/// problem throws CsbError "bad trace <source>: line <n>: <reason>".
ParsedTrace parse_trace_ndjson(std::istream& in,
                               std::vector<std::string>* errors = nullptr,
                               const std::string& source = "<stream>");
/// parse_trace_ndjson over the file at `path`, which names the source; a
/// file that cannot be opened throws CsbError "bad trace <path>: cannot
/// open".
ParsedTrace parse_trace_file(const std::string& path,
                             std::vector<std::string>* errors = nullptr);

}  // namespace csb
