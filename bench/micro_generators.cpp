// Micro benchmarks (google-benchmark) for the per-edge costs behind the
// paper's O(|E| x |properties|) complexity claims: alias sampling, the
// property tuple draw, the preferential-attachment stage, the Kronecker
// recursive descent, the ExternalDistinct dedup, KronFit, and a PageRank
// iteration.
//
// `--json FILE` (or `--json=FILE`) writes one csb.trace.v1 bench record per
// benchmark to FILE in addition to the console output (same schema as the
// fig* benches and `csbgen generate --trace`), so the perf trajectory of the
// hot kernels can be tracked across commits with one parser.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "obs/trace.hpp"

#include "dedup_kernel.hpp"
#include "gen/generator.hpp"
#include "gen/kronecker.hpp"
#include "gen/kronfit.hpp"
#include "gen/pgpba.hpp"
#include "gen/properties.hpp"
#include "graph/algorithms.hpp"
#include "graph/betweenness.hpp"
#include "graph/pagerank.hpp"
#include "seed/seed.hpp"
#include "stats/alias_table.hpp"
#include "trace/traffic_model.hpp"

namespace csb {
namespace {

const SeedBundle& shared_seed() {
  static const SeedBundle seed = [] {
    TrafficModelConfig config;
    config.benign_sessions = 10'000;
    return build_seed_from_netflow(
        sessions_to_netflow(TrafficModel(config).generate_benign()));
  }();
  return seed;
}

void BM_AliasSample(benchmark::State& state) {
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (double& w : weights) w = rng.uniform_double() + 0.01;
  const AliasTable table(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSample)->Arg(16)->Arg(1024)->Arg(65536);

void BM_PropertyTupleSample(benchmark::State& state) {
  // One 65,536-row property chunk per iteration through the compiled
  // sampler the store:props stage runs; items are rows.
  constexpr std::size_t kRows = 65'536;
  const PropertySampler sampler(shared_seed().profile);
  PropertyColumns rows;
  std::size_t chunk_index = 0;
  for (auto _ : state) {
    sampler.sample_chunk(/*seed=*/2,
                         ChunkRange{.begin = 0, .end = kRows,
                                    .chunk_index = chunk_index++},
                         rows);
    benchmark::DoNotOptimize(rows.in_bytes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    kRows));
}
BENCHMARK(BM_PropertyTupleSample);

void BM_KroneckerDescent(benchmark::State& state) {
  // Recursive descents at order k through PGSK's own kernel, one fixed-size
  // chunk per iteration; each descent is one synthetic edge placement.
  constexpr std::size_t kChunk = 1024;
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const DescentCells cells = descent_cells(Initiator{});
  std::vector<std::uint64_t> keys(kChunk);
  std::size_t chunk_index = 0;
  for (auto _ : state) {
    descend_chunk(cells, k, /*stream_seed=*/3,
                  ChunkRange{.begin = 0, .end = kChunk,
                             .chunk_index = chunk_index++},
                  keys.data());
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kChunk));
}
BENCHMARK(BM_KroneckerDescent)->Arg(16)->Arg(24)->Arg(32);

void BM_PgpbaIteration(benchmark::State& state) {
  const SeedBundle& seed = shared_seed();
  ClusterSim cluster(ClusterConfig{.nodes = 1, .cores_per_node = 2});
  for (auto _ : state) {
    PgpbaOptions options;
    options.desired_edges = seed.graph.num_edges() + 1;  // one iteration
    options.fraction = 1.0;
    options.with_properties = false;
    const GenResult result =
        pgpba_generate(seed.graph, seed.profile, cluster, options);
    benchmark::DoNotOptimize(result.graph.num_edges());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(
                                result.graph.num_edges() -
                                seed.graph.num_edges()));
  }
}
BENCHMARK(BM_PgpbaIteration)->Unit(benchmark::kMillisecond);

void BM_KronFit(benchmark::State& state) {
  // The driver-serial Amdahl term of every PGSK run (fig09/fig12 options).
  const SeedBundle& seed = shared_seed();
  static const PropertyGraph simple = simplify(seed.graph);
  KronFitOptions options;
  options.gradient_iterations = 10;
  options.swaps_per_iteration = 300;
  options.burn_in_swaps = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kronfit(simple, options).log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(simple.num_edges()));
}
BENCHMARK(BM_KronFit)->Unit(benchmark::kMillisecond);

void BM_DistinctDedup(benchmark::State& state) {
  // PGSK's dedup: 100k packed edge keys added by 8 stage tasks into the
  // in-RAM ExternalDistinct, then sealed.
  ClusterSim cluster(ClusterConfig{.nodes = 1, .cores_per_node = 2});
  const std::vector<std::vector<std::uint64_t>> batches =
      bench::dedup_key_batches();
  std::uint64_t keys = 0;
  for (const auto& batch : batches) keys += batch.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::dedup_keys(cluster, batches));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys));
}
BENCHMARK(BM_DistinctDedup)->Unit(benchmark::kMillisecond);

void BM_SccLabeling(benchmark::State& state) {
  const SeedBundle& seed = shared_seed();
  for (auto _ : state) {
    benchmark::DoNotOptimize(strongly_connected_components(seed.graph));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(seed.graph.num_edges()));
}
BENCHMARK(BM_SccLabeling)->Unit(benchmark::kMillisecond);

void BM_CoreDecomposition(benchmark::State& state) {
  const SeedBundle& seed = shared_seed();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core_numbers(seed.graph));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(seed.graph.num_edges()));
}
BENCHMARK(BM_CoreDecomposition)->Unit(benchmark::kMillisecond);

void BM_SampledBetweenness(benchmark::State& state) {
  const SeedBundle& seed = shared_seed();
  ThreadPool pool(2);
  BetweennessOptions options;
  options.sample_sources = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        betweenness_centrality(seed.graph, pool, options));
  }
}
BENCHMARK(BM_SampledBetweenness)->Unit(benchmark::kMillisecond);

void BM_PageRankIteration(benchmark::State& state) {
  const SeedBundle& seed = shared_seed();
  ThreadPool pool(2);
  for (auto _ : state) {
    PageRankOptions options;
    options.max_iterations = 1;
    options.tolerance = 0.0;
    benchmark::DoNotOptimize(pagerank(seed.graph, pool, options).scores);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(seed.graph.num_edges()));
}
BENCHMARK(BM_PageRankIteration)->Unit(benchmark::kMillisecond);

// One end-to-end run of a registered generator at a small fixed size (2x
// the seed, structure only, 1 virtual node). Registered dynamically below
// for every entry of the Generator registry, so the sweep — and every
// printed benchmark label — tracks the registry instead of a hard-coded
// generator list; the exact-vs-fast pairs race under identical configs.
void BM_RegistryGenerator(benchmark::State& state, const Generator* gen) {
  const SeedBundle& seed = shared_seed();
  ClusterSim cluster(ClusterConfig{.nodes = 1, .cores_per_node = 2});
  GenConfig config;
  config.desired_edges = 2 * seed.graph.num_edges();
  config.with_properties = false;
  const auto specs = gen->options();
  if (std::find_if(specs.begin(), specs.end(), [](const OptionSpec& s) {
        return s.name == "fit-iters";
      }) != specs.end()) {
    // Micro-bench KronFit budget: the sweep measures expansion cost, not
    // the (driver-serial, separately benched) fit.
    config.extra = {
        {"fit-iters", "2"}, {"fit-swaps", "50"}, {"fit-burnin", "50"}};
  }
  for (auto _ : state) {
    const GenResult result =
        gen->generate(seed.graph, seed.profile, cluster, config);
    benchmark::DoNotOptimize(result.graph.num_edges());
    state.SetItemsProcessed(
        state.items_processed() +
        static_cast<std::int64_t>(result.graph.num_edges()));
  }
}

// Console reporter that also collects one csb.trace.v1 bench record per
// measured run; the records are written after the run when --json was given.
// (google-benchmark's own file reporter slot only fires under its
// --benchmark_out flag, so collection happens on the display path instead.)
class TraceCollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    ConsoleReporter::ReportRuns(report);
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const auto iters = static_cast<double>(run.iterations);
      BenchRecord record;
      record.name = run.benchmark_name();
      record.fields.emplace_back(
          "iterations", JsonValue(static_cast<double>(run.iterations)));
      record.fields.emplace_back(
          "real_s_per_iter",
          JsonValue(iters > 0 ? run.real_accumulated_time / iters : 0.0));
      record.fields.emplace_back(
          "cpu_s_per_iter",
          JsonValue(iters > 0 ? run.cpu_accumulated_time / iters : 0.0));
      if (const auto it = run.counters.find("items_per_second");
          it != run.counters.end()) {
        record.fields.emplace_back("items_per_second",
                                   JsonValue(it->second.value));
      }
      records_.push_back(std::move(record));
    }
  }

  [[nodiscard]] const std::vector<BenchRecord>& records() const noexcept {
    return records_;
  }

 private:
  std::vector<BenchRecord> records_;
};

}  // namespace

/// One benchmark per registry entry, labelled "generator/<name>"; called
/// from main so registration happens before RunSpecifiedBenchmarks.
void register_generator_benchmarks() {
  for (const Generator* gen : all_generators()) {
    const std::string label = "generator/" + std::string(gen->name());
    benchmark::RegisterBenchmark(label.c_str(), BM_RegistryGenerator, gen)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace csb

// Custom main instead of benchmark_main: honours the repo-wide
// `--json FILE` convention by emitting csb.trace.v1 alongside the console
// report.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc));
  args.emplace_back(argc > 0 ? argv[0] : "micro_generators");
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--json="));
    } else {
      args.push_back(arg);
    }
  }
  std::vector<char*> cargv;
  cargv.reserve(args.size());
  for (std::string& arg : args) cargv.push_back(arg.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  csb::register_generator_benchmarks();
  csb::TraceCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    csb::TraceFileWriter writer(json_path);
    writer.write_meta({{"tool", "micro_generators"}});
    for (const csb::BenchRecord& record : reporter.records()) {
      writer.write_bench(record);
    }
    std::cout << "wrote " << json_path << " (csb.trace.v1)\n";
  }
  return 0;
}
