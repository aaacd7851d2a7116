// The dedup kernel that BM_DistinctDedup (micro_generators) and
// distinct_dedup_100k (trace_overhead) both time: PGSK's production
// dedup, an ExternalDistinct fed by concurrent stage tasks and then
// sealed, on the same fixed 100k packed edge keys.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "gen/sink_stages.hpp"
#include "graph/edge.hpp"
#include "mr/cluster.hpp"
#include "store/external_sort.hpp"
#include "util/random.hpp"

namespace csb::bench {

/// 100k packed edge keys over a 4096 x 4096 endpoint space (so some
/// repeat), cut into 8 equal batches — one per stage task.
inline std::vector<std::vector<std::uint64_t>> dedup_key_batches() {
  constexpr std::size_t kKeys = 100'000;
  constexpr std::size_t kBatches = 8;
  Rng rng(4);
  std::vector<std::vector<std::uint64_t>> batches(kBatches);
  for (std::size_t i = 0; i < kKeys; ++i) {
    const Edge e{rng.uniform(1 << 12), rng.uniform(1 << 12)};
    batches[i * kBatches / kKeys].push_back(edge_key(e));
  }
  return batches;
}

/// Adds each batch from its own `store:distinct` stage task into a fresh
/// in-RAM ExternalDistinct, seals it, and returns the distinct count.
inline std::uint64_t dedup_keys(
    ClusterSim& cluster,
    const std::vector<std::vector<std::uint64_t>>& batches) {
  ExternalDistinctOptions options;
  options.pool = &cluster.pool();
  ExternalDistinct distinct(options);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(batches.size());
  for (const auto& batch : batches) {
    tasks.push_back([&distinct, &batch] { distinct.add(batch); });
  }
  cluster.run_stage("store:distinct", std::move(tasks));
  return seal_distinct(cluster, distinct);
}

}  // namespace csb::bench
