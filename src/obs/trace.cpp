#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <istream>
#include <ostream>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/input_reader.hpp"

namespace csb {

std::vector<std::uint64_t> duration_histogram_log2us(
    const std::vector<double>& seconds) {
  std::vector<std::uint64_t> hist;
  for (const double s : seconds) {
    const auto us = static_cast<std::uint64_t>(std::max(0.0, s) * 1e6);
    // bucket = floor(log2(us)), with sub-microsecond tasks in bucket 0.
    const std::size_t bucket =
        us < 2 ? 0 : static_cast<std::size_t>(std::bit_width(us) - 1);
    if (bucket >= hist.size()) hist.resize(bucket + 1, 0);
    ++hist[bucket];
  }
  return hist;
}

namespace trace_lines {

namespace {

std::string line_head(std::string_view type) {
  std::string out = "{\"v\":\"";
  out += kTraceSchemaVersion;
  out += "\",\"type\":\"";
  out += type;
  out += '"';
  return out;
}

void append_field(std::string& out, std::string_view key,
                  const std::string& rendered) {
  out += ',';
  append_json_escaped(out, key);
  out += ':';
  out += rendered;
}

void append_string_field(std::string& out, std::string_view key,
                         std::string_view value) {
  out += ',';
  append_json_escaped(out, key);
  out += ':';
  append_json_escaped(out, value);
}

}  // namespace

std::string meta(
    const std::vector<std::pair<std::string, std::string>>& attrs) {
  std::string out = line_head("meta");
  out += ",\"attrs\":{";
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (i != 0) out += ',';
    append_json_escaped(out, attrs[i].first);
    out += ':';
    append_json_escaped(out, attrs[i].second);
  }
  out += "}}";
  return out;
}

std::string span(const SpanRecord& span) {
  std::string out = line_head("span");
  append_field(out, "id", json_number(static_cast<double>(span.id)));
  append_field(out, "parent", json_number(static_cast<double>(span.parent)));
  append_string_field(out, "name", span.name);
  append_string_field(out, "kind", span.kind);
  append_field(out, "t0", json_number(span.t0));
  append_field(out, "t1", json_number(span.t1));
  append_field(out, "seconds", json_number(span.seconds));
  if (span.tasks != 0) {
    append_field(out, "tasks", json_number(static_cast<double>(span.tasks)));
    append_field(out, "task_seconds", json_number(span.task_seconds));
  }
  if (!span.node_busy.empty()) {
    out += ",\"node_busy\":[";
    for (std::size_t i = 0; i < span.node_busy.size(); ++i) {
      if (i != 0) out += ',';
      out += json_number(span.node_busy[i]);
    }
    out += ']';
  }
  if (!span.task_hist.empty()) {
    out += ",\"task_hist\":[";
    for (std::size_t i = 0; i < span.task_hist.size(); ++i) {
      if (i != 0) out += ',';
      out += json_number(static_cast<double>(span.task_hist[i]));
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::string counter(const CounterRecord& counter) {
  std::string out = line_head("counter");
  append_string_field(out, "name", counter.name);
  append_field(out, "value",
               json_number(static_cast<double>(counter.value)));
  out += '}';
  return out;
}

std::string mem(const MemRecord& mem) {
  std::string out = line_head("mem");
  append_string_field(out, "label", mem.label);
  append_field(out, "t", json_number(mem.t));
  append_field(out, "rss_bytes",
               json_number(static_cast<double>(mem.rss_bytes)));
  append_field(out, "hwm_bytes",
               json_number(static_cast<double>(mem.hwm_bytes)));
  out += '}';
  return out;
}

std::string bench(const BenchRecord& bench) {
  std::string out = line_head("bench");
  append_string_field(out, "name", bench.name);
  out += ",\"fields\":{";
  for (std::size_t i = 0; i < bench.fields.size(); ++i) {
    if (i != 0) out += ',';
    append_json_escaped(out, bench.fields[i].first);
    out += ':';
    out += bench.fields[i].second.dump();
  }
  out += "}}";
  return out;
}

}  // namespace trace_lines

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double TraceRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void TraceRecorder::set_meta(std::string key, std::string value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [existing, existing_value] : meta_) {
    if (existing == key) {
      existing_value = std::move(value);
      return;
    }
  }
  meta_.emplace_back(std::move(key), std::move(value));
}

std::uint64_t TraceRecorder::begin_phase(std::string_view name) {
  const double t0 = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  OpenPhase phase;
  phase.id = next_id_++;
  phase.name = std::string(name);
  phase.t0 = t0;
  phase.parent = open_phases_.empty() ? 0 : open_phases_.back().id;
  open_phases_.push_back(std::move(phase));
  return open_phases_.back().id;
}

void TraceRecorder::end_phase(std::uint64_t id) {
  const double t1 = now();
  MemorySample mem_sample;
  if (sample_memory_) mem_sample = watermark_.sample();
  const std::lock_guard<std::mutex> lock(mutex_);
  CSB_CHECK_MSG(!open_phases_.empty() && open_phases_.back().id == id,
                "end_phase out of order (phases must nest)");
  const OpenPhase phase = std::move(open_phases_.back());
  open_phases_.pop_back();
  SpanRecord span;
  span.id = phase.id;
  span.parent = phase.parent;
  span.name = phase.name;
  span.kind = "phase";
  span.t0 = phase.t0;
  span.t1 = t1;
  span.seconds = t1 - phase.t0;
  spans_.push_back(std::move(span));
  if (sample_memory_) {
    mems_.push_back({spans_.back().name, t1, mem_sample.rss_bytes,
                     mem_sample.hwm_bytes});
  }
}

std::uint64_t TraceRecorder::open_parent() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return open_phases_.empty() ? 0 : open_phases_.back().id;
}

void TraceRecorder::record_span(SpanRecord span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  span.id = next_id_++;
  if (span.parent == 0 && !open_phases_.empty()) {
    span.parent = open_phases_.back().id;
  }
  spans_.push_back(std::move(span));
}

void TraceRecorder::record_counter(std::string_view name,
                                   std::uint64_t value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.push_back({std::string(name), value});
}

void TraceRecorder::record_metrics_snapshot() {
  const auto samples = MetricsRegistry::instance().snapshot();
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const MetricSample& sample : samples) {
    counters_.push_back({sample.name, sample.value});
  }
}

MemorySample TraceRecorder::record_memory(std::string_view label) {
  const double t = now();
  const MemorySample sample = watermark_.sample();
  const std::lock_guard<std::mutex> lock(mutex_);
  mems_.push_back({std::string(label), t, sample.rss_bytes,
                   sample.hwm_bytes});
  return sample;
}

void TraceRecorder::write_ndjson(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  out << trace_lines::meta(meta_) << '\n';
  for (const SpanRecord& span : spans_) {
    out << trace_lines::span(span) << '\n';
  }
  for (const MemRecord& mem : mems_) {
    out << trace_lines::mem(mem) << '\n';
  }
  for (const CounterRecord& counter : counters_) {
    out << trace_lines::counter(counter) << '\n';
  }
}

void TraceRecorder::write_ndjson_file(const std::string& path) const {
  TraceFileWriter(path).write_recorder(*this);
}

namespace {
std::atomic<TraceRecorder*> g_current_recorder{nullptr};
}  // namespace

TraceRecorder* TraceRecorder::current() noexcept {
  return g_current_recorder.load(std::memory_order_acquire);
}

void TraceRecorder::set_current(TraceRecorder* recorder) noexcept {
  g_current_recorder.store(recorder, std::memory_order_release);
}

TraceFileWriter::TraceFileWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path) {
  // An unopenable trace output is a user error, reported with errno's text.
  if (!out_.is_open()) {
    const std::string reason = errno_text();
    throw CsbError("cannot open trace file " + path + " for writing: " +
                   reason);
  }
}

TraceFileWriter::~TraceFileWriter() { out_.flush(); }

void TraceFileWriter::write_meta(
    const std::vector<std::pair<std::string, std::string>>& attrs) {
  write_line(trace_lines::meta(attrs));
}

void TraceFileWriter::write_bench(const BenchRecord& record) {
  write_line(trace_lines::bench(record));
}

void TraceFileWriter::write_recorder(const TraceRecorder& recorder) {
  recorder.write_ndjson(out_);
  out_.flush();
  if (!out_.good()) throw cannot_write("trace file", path_, errno_text());
}

void TraceFileWriter::write_line(const std::string& line) {
  out_ << line << '\n';
  if (!out_.good()) throw cannot_write("trace file", path_, errno_text());
}

std::string ParsedTrace::meta_value(std::string_view key,
                                    std::string fallback) const {
  for (const auto& [name, value] : meta) {
    if (name == key) return value;
  }
  return fallback;
}

namespace {

double number_or(const JsonValue& object, std::string_view key,
                 double fallback) {
  const JsonValue* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_number()
                                                : fallback;
}

}  // namespace

ParsedTrace parse_trace_ndjson(std::istream& in,
                               std::vector<std::string>* errors,
                               const std::string& source) {
  ParsedTrace trace;
  LineReader lines(in, "trace", source);
  // Each problem names the line read last: collected as "line <n>:
  // <reason>", or thrown as "bad trace <source>: line <n>: <reason>".
  const auto report = [errors, &lines](const std::string& what) {
    if (errors == nullptr) lines.fail(what);
    errors->push_back(
        input_problem(InputUnit::kLine, lines.line_number(), what));
  };
  std::string line;
  double last_span_t1 = 0.0;
  while (lines.next(line)) {
    JsonValue record;
    try {
      record = parse_json(line);
    } catch (const CsbError& error) {
      report(error.what());
      continue;
    }
    if (!record.is_object()) {
      report("record is not a JSON object");
      continue;
    }
    const JsonValue* version = record.find("v");
    if (version == nullptr || !version->is_string() ||
        version->as_string() != kTraceSchemaVersion) {
      report("missing or unknown schema version tag \"v\"");
      continue;
    }
    const JsonValue* type = record.find("type");
    if (type == nullptr || !type->is_string()) {
      report("missing record \"type\"");
      continue;
    }
    ++trace.records;
    const std::string& kind = type->as_string();
    if (kind == "meta") {
      const JsonValue* attrs = record.find("attrs");
      if (attrs == nullptr || !attrs->is_object()) {
        report("meta record without \"attrs\" object");
        continue;
      }
      for (const auto& [key, value] : attrs->members()) {
        trace.meta.emplace_back(
            key, value.is_string() ? value.as_string() : value.dump());
      }
    } else if (kind == "span") {
      SpanRecord span;
      const JsonValue* name = record.find("name");
      const JsonValue* span_kind = record.find("kind");
      if (name == nullptr || !name->is_string() || name->as_string().empty()) {
        report("span without a non-empty \"name\"");
        continue;
      }
      if (span_kind == nullptr || !span_kind->is_string()) {
        report("span without a \"kind\"");
        continue;
      }
      span.name = name->as_string();
      span.kind = span_kind->as_string();
      if (span.kind != "phase" && span.kind != "stage" &&
          span.kind != "serial") {
        report("unknown span kind \"" + span.kind + "\"");
        continue;
      }
      span.id = static_cast<std::uint64_t>(number_or(record, "id", 0));
      span.parent = static_cast<std::uint64_t>(number_or(record, "parent", 0));
      span.t0 = number_or(record, "t0", -1.0);
      span.t1 = number_or(record, "t1", -1.0);
      span.seconds = number_or(record, "seconds", -1.0);
      if (span.id == 0) report("span without a positive id");
      if (record.find("parent") == nullptr) {
        report("span without a parent field");
      }
      if (span.t0 < 0.0 || span.t1 < 0.0 || span.seconds < 0.0) {
        report("span timestamps must be present and >= 0");
      } else if (span.t1 < span.t0) {
        report("span ends before it starts (t1 < t0)");
      } else if (span.t1 + 1e-9 < last_span_t1) {
        report("span end timestamps are not monotone non-decreasing");
      }
      last_span_t1 = std::max(last_span_t1, span.t1);
      span.tasks = static_cast<std::uint64_t>(number_or(record, "tasks", 0));
      span.task_seconds = number_or(record, "task_seconds", 0.0);
      if (const JsonValue* busy = record.find("node_busy");
          busy != nullptr && busy->is_array()) {
        for (const JsonValue& item : busy->items()) {
          if (!item.is_number()) {
            report("span node_busy items must be numbers");
          } else {
            span.node_busy.push_back(item.as_number());
          }
        }
      }
      if (const JsonValue* hist = record.find("task_hist");
          hist != nullptr && hist->is_array()) {
        for (const JsonValue& item : hist->items()) {
          if (!item.is_number() || item.as_number() < 0.0) {
            report("span task_hist items must be non-negative numbers");
          } else {
            span.task_hist.push_back(item.as_u64());
          }
        }
      }
      trace.spans.push_back(std::move(span));
    } else if (kind == "counter") {
      const JsonValue* name = record.find("name");
      const JsonValue* value = record.find("value");
      if (name == nullptr || !name->is_string() || name->as_string().empty() ||
          value == nullptr || !value->is_number() ||
          value->as_number() < 0.0) {
        report("counter needs a non-empty name and a non-negative value");
        continue;
      }
      trace.counters.push_back({name->as_string(), value->as_u64()});
    } else if (kind == "mem") {
      MemRecord mem;
      const JsonValue* label = record.find("label");
      if (label == nullptr || !label->is_string()) {
        report("mem record without a label");
        continue;
      }
      mem.label = label->as_string();
      mem.t = number_or(record, "t", 0.0);
      mem.rss_bytes =
          static_cast<std::uint64_t>(number_or(record, "rss_bytes", 0));
      mem.hwm_bytes =
          static_cast<std::uint64_t>(number_or(record, "hwm_bytes", 0));
      trace.mems.push_back(std::move(mem));
    } else if (kind == "bench") {
      BenchRecord bench;
      const JsonValue* name = record.find("name");
      const JsonValue* fields = record.find("fields");
      if (name == nullptr || !name->is_string() || fields == nullptr ||
          !fields->is_object()) {
        report("bench needs a name and a fields object");
        continue;
      }
      bench.name = name->as_string();
      bench.fields = fields->members();
      trace.benches.push_back(std::move(bench));
    } else {
      report("unknown record type \"" + kind + "\"");
    }
  }
  if (trace.records == 0) {
    report("trace has no csb.trace.v1 records");
  }
  if (trace.meta.empty()) {
    report("trace has no meta record");
  }
  // Parent references must resolve (phases are written after their
  // children, so this is a whole-file check, not an order check).
  std::vector<std::uint64_t> ids;
  ids.reserve(trace.spans.size());
  for (const SpanRecord& span : trace.spans) ids.push_back(span.id);
  for (const SpanRecord& span : trace.spans) {
    if (span.parent == 0) continue;
    if (std::find(ids.begin(), ids.end(), span.parent) == ids.end()) {
      report("span " + std::to_string(span.id) +
             " references missing parent " + std::to_string(span.parent));
    }
  }
  return trace;
}

ParsedTrace parse_trace_file(const std::string& path,
                             std::vector<std::string>* errors) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw CsbError("bad trace " + path + ": cannot open");
  return parse_trace_ndjson(in, errors, path);
}

}  // namespace csb
