// In-memory span list recorded by the harness around each public library
// call it makes (name, start, end, parent, plus CPU, I/O and peak-RSS
// deltas). Spans are kept in memory and written out once, when the run
// ends; nothing inside the library is instrumented.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "probes.hpp"

namespace pipebench {

struct Span {
  std::string name;
  int parent = -1;  ///< index into the recorder's list, -1 at top level
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double cpu_s = 0.0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  /// Peak RSS over the span; nullopt when the watermark could not be reset.
  std::optional<std::uint64_t> peak_rss;

  [[nodiscard]] double wall_s() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// Records nested spans from one thread. Opening a span resets the kernel's
/// peak-RSS watermark, so before each reset the current watermark is folded
/// into every still-open span: a parent's peak is the maximum over its own
/// stretches and its children's peaks, never lost to a child's reset.
class SpanRecorder {
 public:
  /// Runs `fn` inside a span named `name` and returns its result. Spans
  /// opened inside `fn` are its children.
  template <typename F>
  decltype(auto) call(std::string name, F&& fn) {
    open(std::move(name));
    struct Closer {
      SpanRecorder* recorder;
      ~Closer() { recorder->close(); }
    } closer{this};
    return std::forward<F>(fn)();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// JSON array of every span, times relative to the first span's start.
  [[nodiscard]] std::string to_json() const;

 private:
  void open(std::string name);
  /// Closes the innermost open span.
  void close();

  struct Open {
    int id;
    double start_cpu;
    IoCounters start_io;
    bool reset_ok;
    std::uint64_t running_peak;
  };
  void fold_watermark();

  std::vector<Span> spans_;
  std::vector<Open> stack_;
};

/// Runs `fn` inside a span when a recorder is attached, plainly otherwise.
template <typename F>
decltype(auto) traced(SpanRecorder* recorder, std::string name, F&& fn) {
  if (recorder == nullptr) return std::forward<F>(fn)();
  return recorder->call(std::move(name), std::forward<F>(fn));
}

}  // namespace pipebench
