// Process-wide registry of named counters and gauges — the aggregate side
// of the observability layer (the span side lives in obs/trace.hpp).
//
// Producers resolve a counter once (the name lookup takes a mutex) and then
// bump it with relaxed atomic adds, so instrumented hot paths pay one
// uncontended atomic per *batch* of work, never a lock. The generators
// publish: edges emitted, KronFit accept rate, Kronecker retry rounds,
// spilled dedup runs, and Dataset allocation bytes; the memory
// watermark sampler (obs/memwatch.hpp) publishes RSS gauges.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace csb {

/// Monotonic counter. Stable address for the process lifetime once
/// registered, so callers may cache the reference.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins gauge (e.g. a memory high-water mark in bytes).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void set(std::uint64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  /// Raises the gauge to `value` if larger (watermark semantics).
  void record_max(std::uint64_t value) noexcept {
    std::uint64_t seen = value_.load(std::memory_order_relaxed);
    while (seen < value && !value_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

struct MetricSample {
  std::string name;
  std::uint64_t value = 0;
};

/// Name-keyed process singleton. Registration is find-or-create and
/// thread-safe; returned references stay valid forever (deque-backed).
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  /// Counters first, then gauges, each in registration order, skipping
  /// zero-valued entries unless `include_zero`.
  [[nodiscard]] std::vector<MetricSample> snapshot(
      bool include_zero = false) const;

  /// Zeroes every counter and gauge (names stay registered). Benches and
  /// the CLI call this before a run so snapshots describe that run only.
  void reset_all();

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl();
  const Impl& impl() const;
};

}  // namespace csb
