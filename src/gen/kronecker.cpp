#include "gen/kronecker.hpp"

#include <cmath>
#include <functional>
#include <vector>

#include "gen/fast_samplers.hpp"
#include "gen/sink_stages.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace csb {

namespace {

/// Domain separator for the recursive-descent placement streams (so they
/// never collide with the re-multiply / property streams of the same user
/// seed), and the per-round separator of the adaptive retries.
constexpr std::uint64_t kDescentSalt = 0xde5c'e9d0'0000'0001ULL;
constexpr std::uint64_t kRoundSalt = 0x51ed2701ULL;
/// Oversample factor and retry cap of the adaptive distinct rounds.
constexpr double kOversample = 1.1;
constexpr std::uint32_t kMaxRounds = 64;

}  // namespace

DescentCells descent_cells(const Initiator& initiator) {
  const double sum = initiator.sum();
  return DescentCells{.p00 = initiator.theta[0][0] / sum,
                      .p01 = initiator.theta[0][1] / sum,
                      .p10 = initiator.theta[1][0] / sum};
}

void descend_chunk(const DescentCells& cells, std::uint32_t k,
                   std::uint64_t stream_seed, const ChunkRange& chunk,
                   std::uint64_t* keys) {
  Rng rng = counter_rng(stream_seed, chunk.chunk_index);
  for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
    VertexId u = 0;
    VertexId v = 0;
    for (std::uint32_t level = 0; level < k; ++level) {
      const double x = rng.uniform_double();
      std::uint64_t bi;
      std::uint64_t bj;
      if (x < cells.p00) {
        bi = 0; bj = 0;
      } else if (x < cells.p00 + cells.p01) {
        bi = 0; bj = 1;
      } else if (x < cells.p00 + cells.p01 + cells.p10) {
        bi = 1; bj = 0;
      } else {
        bi = 1; bj = 1;
      }
      u = (u << 1) | bi;
      v = (v << 1) | bj;
    }
    keys[i - chunk.begin] = (u << 32) | (v & 0xffffffffULL);
  }
}

std::unique_ptr<ExternalDistinct> stochastic_kronecker_distinct(
    ClusterSim& cluster, const Initiator& initiator, std::uint32_t k,
    std::uint64_t target, std::uint64_t seed, std::size_t parts,
    const ExternalDistinctOptions& distinct_options) {
  CSB_CHECK_MSG(k >= 1 && k <= 32,
                "the Kronecker descent packs endpoints into 64-bit keys "
                "(1 <= k <= 32)");
  CSB_CHECK_MSG(target > 0, "nothing to generate (zero target edges)");
  // A k-level descent can only produce 4^k distinct cells; demanding close
  // to that many distinct edges would loop forever.
  if (k < 31) {
    CSB_CHECK_MSG(target <= (1ULL << (2 * k)),
                  "edges_to_place exceeds the 4^k distinct-edge capacity");
  }
  const DescentCells cells = descent_cells(initiator);

  static Counter& rounds_run =
      MetricsRegistry::instance().counter("kron.rounds");

  // Adaptive rounds: place ceil(missing * oversample) descents per round
  // until the distinct set reaches the target. A retry rebuilds the
  // distinct and re-streams every round's placements — regeneration from
  // counter streams is cheap, and at 1.1x oversampling retries are rare.
  std::unique_ptr<ExternalDistinct> distinct;
  std::vector<std::uint64_t> round_places;
  std::uint64_t unique = 0;
  for (std::uint32_t round = 0;; ++round) {
    if (round >= kMaxRounds) {
      throw CsbError(
          "stochastic Kronecker did not reach the target edge count; the "
          "initiator is too concentrated for the requested size");
    }
    rounds_run.increment();
    const std::uint64_t missing = target - unique;
    round_places.push_back(static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(missing) * kOversample)));
    distinct = std::make_unique<ExternalDistinct>(distinct_options);
    std::vector<std::function<void()>> tasks;
    for (std::size_t r = 0; r < round_places.size(); ++r) {
      const std::uint64_t stream_seed = seed ^ kDescentSalt ^ (r * kRoundSalt);
      const auto chunks = make_fixed_chunks(
          0, static_cast<std::size_t>(round_places[r]),
          fast_sampler_chunk_size(round_places[r], parts));
      for (const ChunkRange& chunk : chunks) {
        tasks.push_back([&cells, &distinct, k, stream_seed, chunk] {
          std::vector<std::uint64_t> keys(chunk.end - chunk.begin);
          descend_chunk(cells, k, stream_seed, chunk, keys.data());
          distinct->add(keys);
        });
      }
    }
    cluster.run_stage("store:distinct", std::move(tasks));
    unique = seal_distinct(cluster, *distinct);
    if (unique >= target) return distinct;
  }
}

PropertyGraph deterministic_kronecker(
    const std::array<std::array<bool, 2>, 2>& initiator, std::uint32_t k) {
  CSB_CHECK_MSG(k >= 1 && k <= 12, "deterministic kronecker is O(4^k); k <= 12");
  const std::uint64_t n = 1ULL << k;
  PropertyGraph graph(n);
  for (std::uint64_t u = 0; u < n; ++u) {
    for (std::uint64_t v = 0; v < n; ++v) {
      bool present = true;
      for (std::uint32_t level = 0; level < k && present; ++level) {
        present = initiator[(u >> level) & 1][(v >> level) & 1];
      }
      if (present) graph.add_edge(u, v);
    }
  }
  return graph;
}

}  // namespace csb
