// Dataset<T>: a partitioned, immutable collection — the RDD analogue PGPBA
// and the Fig. 11/12 benches run on (paper §III uses RDD.sample()). PGSK's
// de-duplication (Spark's RDD distinct) is the budgeted ExternalDistinct
// (store/external_sort.hpp).
//
// Every transformation executes one stage per source partition on the
// owning ClusterSim, so simulated makespan, serial time and per-node memory
// are tracked automatically. Transformations return new datasets; the
// inputs are left untouched (RDD semantics).
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "mr/cluster.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace csb {

template <typename T>
class Dataset {
 public:
  Dataset(ClusterSim& cluster, std::vector<std::vector<T>> partitions)
      : cluster_(&cluster), partitions_(std::move(partitions)) {
    CSB_CHECK_MSG(!partitions_.empty(), "Dataset needs >= 1 partition");
    // Every transformation lands here, so this one counter tracks total
    // payload bytes allocated across the job (Fig. 11's memory pressure
    // proxy). O(partitions) + one relaxed atomic add — noise next to the
    // stage that produced the data.
    static Counter& allocated =
        MetricsRegistry::instance().counter("dataset.allocated_bytes");
    allocated.add(bytes());
  }

  /// Splits `data` into `partitions` nearly equal slices.
  static Dataset from_vector(ClusterSim& cluster, std::vector<T> data,
                             std::size_t partitions) {
    CSB_CHECK_MSG(partitions > 0, "Dataset needs >= 1 partition");
    std::vector<std::vector<T>> parts(partitions);
    const std::size_t n = data.size();
    const std::size_t base = n / partitions;
    const std::size_t extra = n % partitions;
    std::size_t at = 0;
    for (std::size_t p = 0; p < partitions; ++p) {
      const std::size_t len = base + (p < extra ? 1 : 0);
      parts[p].assign(std::make_move_iterator(data.begin() + at),
                      std::make_move_iterator(data.begin() + at + len));
      at += len;
    }
    return Dataset(cluster, std::move(parts));
  }

  /// Builds each partition in parallel with `producer(partition_index)`.
  static Dataset generate(
      ClusterSim& cluster, std::size_t partitions,
      const std::function<std::vector<T>(std::size_t)>& producer) {
    CSB_CHECK_MSG(partitions > 0, "Dataset needs >= 1 partition");
    std::vector<std::vector<T>> parts(partitions);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(partitions);
    for (std::size_t p = 0; p < partitions; ++p) {
      tasks.push_back([&parts, &producer, p] { parts[p] = producer(p); });
    }
    cluster.run_stage("generate", std::move(tasks));
    return Dataset(cluster, std::move(parts));
  }

  [[nodiscard]] std::size_t num_partitions() const noexcept {
    return partitions_.size();
  }
  [[nodiscard]] const std::vector<T>& partition(std::size_t p) const {
    CSB_CHECK(p < partitions_.size());
    return partitions_[p];
  }
  [[nodiscard]] ClusterSim& cluster() const noexcept { return *cluster_; }

  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& p : partitions_) n += p.size();
    return n;
  }

  /// Heap bytes of the element payload (used by the Fig. 11 memory bench).
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return count() * sizeof(T);
  }

  /// Payload bytes held by each virtual node under round-robin placement.
  [[nodiscard]] std::vector<std::uint64_t> per_node_bytes() const {
    std::vector<std::uint64_t> bytes(cluster_->config().nodes, 0);
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
      bytes[cluster_->node_of_partition(p)] +=
          partitions_[p].size() * sizeof(T);
    }
    return bytes;
  }

  template <typename F>
  auto map(F&& fn) const -> Dataset<std::invoke_result_t<F, const T&>> {
    using U = std::invoke_result_t<F, const T&>;
    std::vector<std::vector<U>> out(partitions_.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(partitions_.size());
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
      tasks.push_back([this, &out, &fn, p] {
        const auto& in = partitions_[p];
        out[p].reserve(in.size());
        for (const T& item : in) out[p].push_back(fn(item));
      });
    }
    cluster_->run_stage("map", std::move(tasks));
    return Dataset<U>(*cluster_, std::move(out));
  }

  template <typename F>
  auto flat_map(F&& fn) const
      -> Dataset<typename std::invoke_result_t<F, const T&>::value_type> {
    using U = typename std::invoke_result_t<F, const T&>::value_type;
    std::vector<std::vector<U>> out(partitions_.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(partitions_.size());
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
      tasks.push_back([this, &out, &fn, p] {
        for (const T& item : partitions_[p]) {
          auto produced = fn(item);
          out[p].insert(out[p].end(), std::make_move_iterator(produced.begin()),
                        std::make_move_iterator(produced.end()));
        }
      });
    }
    cluster_->run_stage("flat_map", std::move(tasks));
    return Dataset<U>(*cluster_, std::move(out));
  }

  template <typename Pred>
  Dataset filter(Pred&& pred) const {
    std::vector<std::vector<T>> out(partitions_.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(partitions_.size());
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
      tasks.push_back([this, &out, &pred, p] {
        for (const T& item : partitions_[p]) {
          if (pred(item)) out[p].push_back(item);
        }
      });
    }
    cluster_->run_stage("filter", std::move(tasks));
    return Dataset(*cluster_, std::move(out));
  }

  /// Element sampling (RDD.sample). fraction <= 1 keeps each element with
  /// probability `fraction` (without replacement); fraction > 1 samples with
  /// replacement, emitting floor(fraction) copies of each element plus one
  /// more with probability frac(fraction) — PGPBA relies on this for the
  /// paper's fraction = 2 configuration.
  Dataset sample(double fraction, std::uint64_t seed) const {
    CSB_CHECK_MSG(fraction >= 0.0, "sample fraction must be nonnegative");
    std::vector<std::vector<T>> out(partitions_.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(partitions_.size());
    const auto whole = static_cast<std::uint64_t>(fraction);
    const double remainder = fraction - static_cast<double>(whole);
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
      tasks.push_back([this, &out, fraction, whole, remainder, seed, p] {
        Rng rng = Rng(seed).fork(p);
        const auto& in = partitions_[p];
        auto& kept = out[p];
        // Expected output is fraction * n; pre-size so the fraction >= 1
        // paths (PGPBA's fraction = 2 stage) never regrow the buffer.
        kept.reserve(static_cast<std::size_t>(
            std::ceil(fraction * static_cast<double>(in.size()))));
        for (const T& item : in) {
          std::uint64_t copies = whole;
          if (remainder > 0.0 && rng.bernoulli(remainder)) ++copies;
          for (std::uint64_t c = 0; c < copies; ++c) kept.push_back(item);
        }
      });
    }
    cluster_->run_stage("sample", std::move(tasks));
    return Dataset(*cluster_, std::move(out));
  }

  /// Concatenates two datasets (RDD.union) by stealing both inputs'
  /// partitions — no element copies. PGPBA unions the growing edge list
  /// every iteration, where a copying union would cost O(|E| x
  /// iterations).
  static Dataset concat_move(Dataset&& a, Dataset&& b) {
    CSB_CHECK_MSG(a.cluster_ == b.cluster_,
                  "concat requires datasets on the same cluster");
    std::vector<std::vector<T>> parts = std::move(a.partitions_);
    for (auto& partition : b.partitions_) {
      parts.push_back(std::move(partition));
    }
    return Dataset(*a.cluster_, std::move(parts));
  }

  /// Reduces the partition count by merging adjacent partitions (Spark's
  /// RDD.coalesce). Rvalue-qualified: element buffers move, so the merge
  /// stage only appends. Without this, iterative concat unions (PGPBA's
  /// growth loop) double the partition count every round and task
  /// granularity collapses.
  Dataset coalesced(std::size_t target) && {
    CSB_CHECK_MSG(target > 0, "coalesce needs >= 1 partition");
    if (partitions_.size() <= target) return std::move(*this);
    std::vector<std::vector<T>> merged(target);
    const std::size_t source_count = partitions_.size();
    std::vector<std::function<void()>> tasks;
    tasks.reserve(target);
    for (std::size_t t = 0; t < target; ++t) {
      tasks.push_back([this, &merged, t, target, source_count] {
        auto& out = merged[t];
        // Contiguous block of source partitions -> target t.
        const std::size_t begin = t * source_count / target;
        const std::size_t end = (t + 1) * source_count / target;
        std::size_t total = 0;
        for (std::size_t p = begin; p < end; ++p) {
          total += partitions_[p].size();
        }
        out.reserve(total);
        for (std::size_t p = begin; p < end; ++p) {
          out.insert(out.end(),
                     std::make_move_iterator(partitions_[p].begin()),
                     std::make_move_iterator(partitions_[p].end()));
        }
      });
    }
    cluster_->run_stage("coalesce", std::move(tasks));
    return Dataset(*cluster_, std::move(merged));
  }

  /// Two-level aggregation (RDD.aggregate): each partition folds locally
  /// with `accumulate(U, T)` in a parallel stage, then the per-partition
  /// results fold on the driver with `merge(U, U)`. Both must be
  /// associative with `identity` as the neutral element.
  template <typename U, typename Accumulate, typename Merge>
  U aggregate(U identity, Accumulate&& accumulate, Merge&& merge) const {
    std::vector<U> partials(partitions_.size(), identity);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(partitions_.size());
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
      tasks.push_back([this, &partials, &accumulate, identity, p] {
        U acc = identity;
        for (const T& item : partitions_[p]) acc = accumulate(acc, item);
        partials[p] = acc;
      });
    }
    cluster_->run_stage("reduce", std::move(tasks));
    U total = identity;
    for (const U& partial : partials) total = merge(total, partial);
    return total;
  }

  /// RDD.reduce specialization: fold the elements themselves with one
  /// associative `combine(T, T)` and neutral element `identity`.
  template <typename Combine>
  T reduce(T identity, Combine&& combine) const {
    return aggregate(std::move(identity), combine, combine);
  }

  /// Gathers every element to the driver, preserving partition order.
  [[nodiscard]] std::vector<T> collect() const {
    std::vector<T> all;
    all.reserve(count());
    for (const auto& p : partitions_) {
      all.insert(all.end(), p.begin(), p.end());
    }
    return all;
  }

 private:
  ClusterSim* cluster_;
  std::vector<std::vector<T>> partitions_;
};

}  // namespace csb
