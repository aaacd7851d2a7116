#include "probes.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/memwatch.hpp"

namespace pipebench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  // The write reaches the kernel at fclose; its status is the reset's.
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

std::optional<std::uint64_t> peak_rss_bytes() {
  const csb::MemorySample sample = csb::sample_process_memory();
  if (sample.hwm_bytes == 0) return std::nullopt;
  return sample.hwm_bytes;
}

IoCounters io_counters() {
  IoCounters io;
  std::FILE* f = std::fopen("/proc/self/io", "r");
  if (f == nullptr) return io;
  char line[128];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    unsigned long long value = 0;
    if (std::sscanf(line, "rchar: %llu", &value) == 1) {
      io.read_bytes = value;
    } else if (std::sscanf(line, "wchar: %llu", &value) == 1) {
      io.write_bytes = value;
    }
  }
  std::fclose(f);
  return io;
}

void ResourceWindow::start() {
  reset_ok_ = reset_peak_rss();
  start_io_ = io_counters();
  start_cpu_ = process_cpu_seconds();
  start_ns_ = now_ns();
}

void ResourceWindow::stop() {
  wall_s_ = static_cast<double>(now_ns() - start_ns_) * 1e-9;
  cpu_s_ = process_cpu_seconds() - start_cpu_;
  const IoCounters io = io_counters();
  read_ = io.read_bytes - start_io_.read_bytes;
  write_ = io.write_bytes - start_io_.write_bytes;
  peak_rss_ = reset_ok_ ? peak_rss_bytes() : std::nullopt;
}

}  // namespace pipebench
