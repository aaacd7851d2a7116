#include "workload/workload_runner.hpp"

#include <atomic>
#include <span>
#include <vector>

#include "stats/alias_table.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/stopwatch.hpp"

namespace csb {

namespace {

/// Executes one query of the given class and folds a witness value into
/// the checksum.
std::uint64_t execute(const GraphQueryEngine& engine, QueryClass cls,
                      Rng& rng) {
  const PropertyGraph& graph = engine.graph();
  const std::uint64_t n = graph.num_vertices();
  const auto random_host = [&] { return rng.uniform(n); };
  switch (cls) {
    case QueryClass::kTopKDegree: {
      const auto top = engine.top_k_by_degree(10);
      return top.empty() ? 0 : top.front();
    }
    case QueryClass::kHostSummary: {
      const HostSummary summary = engine.host_summary(random_host());
      return summary.flows_in + summary.flows_out + summary.bytes_sent;
    }
    case QueryClass::kFlowScan: {
      FlowFilter filter;
      filter.protocol = rng.bernoulli(0.5) ? Protocol::kTcp : Protocol::kUdp;
      filter.min_total_bytes = rng.uniform(4096);
      return engine.count_flows(filter);
    }
    case QueryClass::kShortestPath: {
      const auto path = engine.shortest_path(random_host(), random_host());
      return path ? path->size() : 0;
    }
    case QueryClass::kTwoHop: {
      return engine.k_hop_neighborhood(random_host(), 2).size();
    }
    case QueryClass::kEgonet: {
      return engine.egonet(random_host()).num_edges();
    }
    case QueryClass::kScanningFans: {
      return engine.scanning_fans(16, 500.0).size();
    }
  }
  return 0;
}

}  // namespace

WorkloadResult run_workload(const GraphQueryEngine& engine,
                            const WorkloadOptions& options) {
  CSB_CHECK_MSG(options.queries > 0, "workload needs queries");
  CSB_CHECK_MSG(engine.graph().num_vertices() > 0,
                "workload needs a non-empty graph");
  const AliasTable mix(std::span<const double>(options.mix.weights.data(),
                                               options.mix.weights.size()));

  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  const std::uint64_t per_thread =
      (options.queries + threads - 1) / threads;

  WorkloadResult result;
  std::vector<std::array<std::uint64_t, kQueryClassCount>> class_counts(
      threads, std::array<std::uint64_t, kQueryClassCount>{});
  std::vector<std::uint64_t> checksums(threads, 0);
  std::vector<std::uint64_t> executed(threads, 0);

  ThreadPool pool(threads);
  Stopwatch wall;
  std::vector<std::function<void()>> tasks;
  std::uint64_t remaining = options.queries;
  for (std::size_t t = 0; t < threads; ++t) {
    const std::uint64_t quota = std::min<std::uint64_t>(per_thread, remaining);
    remaining -= quota;
    if (quota == 0) break;
    tasks.emplace_back([&, t, quota] {
      Rng rng = Rng(options.seed).fork(t);
      for (std::uint64_t q = 0; q < quota; ++q) {
        const auto cls = static_cast<QueryClass>(mix.sample(rng));
        checksums[t] ^= execute(engine, cls, rng) + 0x9e3779b9 * q;
        ++class_counts[t][static_cast<std::size_t>(cls)];
        ++executed[t];
      }
    });
  }
  parallel_tasks(&pool, tasks);
  result.wall_seconds = wall.seconds();

  for (std::size_t t = 0; t < threads; ++t) {
    result.total_queries += executed[t];
    result.checksum ^= checksums[t];
    for (std::size_t c = 0; c < kQueryClassCount; ++c) {
      result.per_class[c] += class_counts[t][c];
    }
  }
  return result;
}

}  // namespace csb
