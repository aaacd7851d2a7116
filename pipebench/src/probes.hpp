// Resource probes read from outside the library: process CPU time
// (getrusage), the resident-set high-water mark (VmHWM, resettable through
// /proc/self/clear_refs) and the bytes the process read and wrote through
// syscalls (/proc/self/io rchar/wchar).
#pragma once

#include <cstdint>
#include <optional>

namespace pipebench {

/// User + system CPU seconds of the whole process, all threads.
double process_cpu_seconds();

/// Resets the kernel's peak-RSS watermark to the current RSS by writing
/// "5" to /proc/self/clear_refs. Returns false when the kernel refuses,
/// in which case VmHWM still carries every earlier peak of the process.
bool reset_peak_rss();

/// Current VmHWM in bytes; nullopt when /proc/self/status has no value.
std::optional<std::uint64_t> peak_rss_bytes();

/// Cumulative syscall I/O of the process (rchar, wchar), zero when
/// /proc/self/io is unreadable.
struct IoCounters {
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
};
IoCounters io_counters();

/// One measured interval: wall, CPU and I/O deltas plus the peak RSS over
/// the interval. The peak is measured only when the watermark reset at
/// start() succeeded; otherwise it is nullopt, never a delta of an
/// inherited watermark.
class ResourceWindow {
 public:
  void start();
  void stop();

  [[nodiscard]] double wall_s() const noexcept { return wall_s_; }
  [[nodiscard]] double cpu_s() const noexcept { return cpu_s_; }
  [[nodiscard]] std::optional<std::uint64_t> peak_rss() const noexcept {
    return peak_rss_;
  }
  [[nodiscard]] std::uint64_t read_bytes() const noexcept { return read_; }
  [[nodiscard]] std::uint64_t write_bytes() const noexcept { return write_; }

 private:
  std::int64_t start_ns_ = 0;
  double start_cpu_ = 0.0;
  IoCounters start_io_;
  bool reset_ok_ = false;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
  std::optional<std::uint64_t> peak_rss_;
  std::uint64_t read_ = 0;
  std::uint64_t write_ = 0;
};

/// Monotonic clock in nanoseconds (steady_clock).
std::int64_t now_ns();

}  // namespace pipebench
