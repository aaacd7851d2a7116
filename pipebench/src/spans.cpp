#include "spans.hpp"

#include <algorithm>
#include <sstream>

namespace pipebench {

void SpanRecorder::fold_watermark() {
  const std::uint64_t hwm = peak_rss_bytes().value_or(0);
  for (Open& o : stack_) o.running_peak = std::max(o.running_peak, hwm);
}

void SpanRecorder::open(std::string name) {
  fold_watermark();
  const int id = static_cast<int>(spans_.size());
  Span span;
  span.name = std::move(name);
  span.parent = stack_.empty() ? -1 : stack_.back().id;
  const bool reset_ok = reset_peak_rss();
  // A failed reset poisons every enclosing span's peak too: their
  // watermark would include whatever the process peaked at before.
  if (!reset_ok) {
    for (Open& o : stack_) o.reset_ok = false;
  }
  stack_.push_back(Open{id, process_cpu_seconds(), io_counters(), reset_ok, 0});
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
}

void SpanRecorder::close() {
  const std::int64_t end = now_ns();
  fold_watermark();
  const Open o = stack_.back();
  stack_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(o.id)];
  span.end_ns = end;
  span.cpu_s = process_cpu_seconds() - o.start_cpu;
  const IoCounters io = io_counters();
  span.read_bytes = io.read_bytes - o.start_io.read_bytes;
  span.write_bytes = io.write_bytes - o.start_io.write_bytes;
  if (o.reset_ok && o.running_peak > 0) span.peak_rss = o.running_peak;
}

std::string SpanRecorder::to_json() const {
  std::ostringstream out;
  out.precision(9);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << s.name
        << "\", \"parent\": " << s.parent
        << ", \"start_s\": " << static_cast<double>(s.start_ns - origin) * 1e-9
        << ", \"end_s\": " << static_cast<double>(s.end_ns - origin) * 1e-9
        << ", \"cpu_s\": " << s.cpu_s << ", \"read_bytes\": " << s.read_bytes
        << ", \"write_bytes\": " << s.write_bytes << ", \"peak_rss_bytes\": ";
    if (s.peak_rss) {
      out << *s.peak_rss;
    } else {
      out << "null";
    }
    out << "}";
  }
  out << "\n]\n";
  return out.str();
}

}  // namespace pipebench
