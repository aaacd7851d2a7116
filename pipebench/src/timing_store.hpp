// A GraphStore decorator that forwards every sink call unchanged to the
// wrapped store and records, per call kind, how many calls arrived, how
// long each took (the intervals, from whichever pool thread made the call)
// and how many payload bytes it carried. finish() runs inside a
// "store.finish" span when a span recorder is attached.
//
// For tests of the per-layer attribution, put_edges can be slowed by a
// fixed delay per call; the delay is inside the recorded interval.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "spans.hpp"
#include "store/graph_store.hpp"

namespace pipebench {

struct Interval {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Totals of one sink call kind.
struct CallStats {
  std::uint64_t calls = 0;
  double busy_s = 0.0;  ///< summed across threads
  std::uint64_t bytes = 0;
};

class TimingStore final : public csb::GraphStore {
 public:
  TimingStore(csb::GraphStore& inner, SpanRecorder* recorder,
              std::chrono::nanoseconds put_edges_delay = {});

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  void begin(const csb::StoreHeader& header) override;
  void put_edges(std::uint64_t first_edge, std::span<const csb::VertexId> src,
                 std::span<const csb::VertexId> dst) override;
  void put_properties(std::uint64_t first_edge,
                      const csb::PropertyRowsView& rows) override;
  void finish() override;

  [[nodiscard]] CallStats put_edges_stats() const;
  [[nodiscard]] CallStats put_properties_stats() const;
  /// Every recorded sink-call interval (put_edges, put_properties, finish).
  [[nodiscard]] std::vector<Interval> intervals() const;

 private:
  void record(CallStats& stats, Interval interval, std::uint64_t bytes);

  csb::GraphStore& inner_;
  SpanRecorder* recorder_;
  std::chrono::nanoseconds put_edges_delay_;
  mutable std::mutex mutex_;
  CallStats edges_;       // guarded by mutex_
  CallStats properties_;  // guarded by mutex_
  std::vector<Interval> intervals_;  // guarded by mutex_
};

/// Length in seconds of the union of `intervals` clipped to the window
/// [window.start_ns, window.end_ns): overlapping intervals (concurrent
/// calls from several pool threads) count once.
double covered_seconds(std::vector<Interval> intervals, Interval window);

/// Payload bytes of one property row: the nine NetFlow columns.
inline constexpr std::uint64_t kPropertyRowBytes = 1 + 2 + 2 + 4 + 8 + 8 + 4 + 4 + 1;

}  // namespace pipebench
