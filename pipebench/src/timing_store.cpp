#include "timing_store.hpp"

#include <algorithm>
#include <thread>

namespace pipebench {

TimingStore::TimingStore(csb::GraphStore& inner, SpanRecorder* recorder,
                         std::chrono::nanoseconds put_edges_delay)
    : inner_(inner), recorder_(recorder), put_edges_delay_(put_edges_delay) {}

void TimingStore::begin(const csb::StoreHeader& header) {
  inner_.begin(header);
}

void TimingStore::record(CallStats& stats, Interval interval,
                         std::uint64_t bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats.calls;
  stats.busy_s += static_cast<double>(interval.end_ns - interval.start_ns) * 1e-9;
  stats.bytes += bytes;
  intervals_.push_back(interval);
}

void TimingStore::put_edges(std::uint64_t first_edge,
                            std::span<const csb::VertexId> src,
                            std::span<const csb::VertexId> dst) {
  const std::int64_t start = now_ns();
  if (put_edges_delay_.count() > 0) std::this_thread::sleep_for(put_edges_delay_);
  inner_.put_edges(first_edge, src, dst);
  record(edges_, Interval{start, now_ns()},
         (src.size() + dst.size()) * sizeof(csb::VertexId));
}

void TimingStore::put_properties(std::uint64_t first_edge,
                                 const csb::PropertyRowsView& rows) {
  const std::int64_t start = now_ns();
  inner_.put_properties(first_edge, rows);
  record(properties_, Interval{start, now_ns()},
         rows.size() * kPropertyRowBytes);
}

void TimingStore::finish() {
  const std::int64_t start = now_ns();
  traced(recorder_, "store.finish", [&] { inner_.finish(); });
  const Interval interval{start, now_ns()};
  const std::lock_guard<std::mutex> lock(mutex_);
  intervals_.push_back(interval);
}

CallStats TimingStore::put_edges_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return edges_;
}

CallStats TimingStore::put_properties_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return properties_;
}

std::vector<Interval> TimingStore::intervals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return intervals_;
}

double covered_seconds(std::vector<Interval> intervals, Interval window) {
  for (Interval& i : intervals) {
    i.start_ns = std::max(i.start_ns, window.start_ns);
    i.end_ns = std::min(i.end_ns, window.end_ns);
  }
  std::erase_if(intervals,
                [](const Interval& i) { return i.end_ns <= i.start_ns; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start_ns < b.start_ns;
            });
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool in_run = false;
  for (const Interval& i : intervals) {
    if (in_run && i.start_ns <= run_end) {
      run_end = std::max(run_end, i.end_ns);
      continue;
    }
    if (in_run) covered += run_end - run_start;
    run_start = i.start_ns;
    run_end = i.end_ns;
    in_run = true;
  }
  if (in_run) covered += run_end - run_start;
  return static_cast<double>(covered) * 1e-9;
}

}  // namespace pipebench
