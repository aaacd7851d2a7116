// Fast-sampler gate bench: the exact-vs-fast generator races at a fixed
// 8-virtual-node cluster, reporting the core-phase speedup (grow + store
// booked seconds, i.e. simulated time minus the shared collapse/KronFit
// preprocessing) and the matched-scale veracity of each
// fast sampler against its exact counterpart (degree + PageRank KS,
// evaluate_structural_ks).
//
// scripts/check_bench_regress.sh diffs the `--json` output against the
// committed BENCH_observability.json baseline: a change that erodes the
// pgsk-fast speedup below its floor, or drifts either sampler's KS past
// the pinned ceilings, fails the build long before the fig09 sweep is
// rerun. No google-benchmark dependency, so the gate runs in every
// configuration including sanitized trees.
#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_support/report.hpp"
#include "common.hpp"
#include "gen/generator.hpp"
#include "obs/trace.hpp"
#include "veracity/veracity.hpp"

namespace {

struct RaceResult {
  double core_s = 1e18;       ///< best-of-repeats booked core seconds
  csb::PropertyGraph graph;   ///< deterministic across repeats
  std::uint64_t edges = 0;
};

RaceResult run_contender(const csb::Generator& gen,
                         const csb::SeedBundle& seed,
                         const std::map<std::string, std::string>& extra,
                         std::uint64_t target, int repeats) {
  using namespace csb;
  RaceResult best;
  for (int r = 0; r < repeats; ++r) {
    TraceRecorder trace;
    ClusterSim cluster(ClusterConfig{
        .nodes = 8, .cores_per_node = 2, .smooth_task_durations = true});
    cluster.set_trace(&trace);
    GenConfig config;
    config.desired_edges = target;
    config.with_properties = false;
    config.extra = extra;
    GenResult result =
        gen.generate(seed.graph, seed.profile, cluster, config);
    double core = 0.0;
    // "store" covers every generator's streamed pipeline, which books its
    // expand/re-multiply/emit work under store:* spans.
    for (const std::string_view phase : {"grow", "store"}) {
      core += phase_booked_seconds(trace.spans(), phase);
    }
    if (core < best.core_s) {
      best.core_s = core;
      best.edges = result.graph.num_edges();
      best.graph = std::move(result.graph);
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csb;
  print_experiment_header(
      "fast samplers — exact-vs-fast core speedup at 8 virtual nodes",
      "pgsk-fast replaces the recursive descent with Chung-Lu "
      "ball-dropping; pgpba-fast replaces the growth rounds with skip-ahead "
      "attachment; both must beat the exact core phases at matched KS "
      "veracity.");

  constexpr int kRepeats = 3;
  const SeedBundle seed = bench::default_seed(bench::scaled(15'000));
  const std::uint64_t target = 64 * seed.graph.num_edges();
  const std::map<std::string, std::string> kron_fit = {
      {"fit-iters", "10"}, {"fit-swaps", "300"}, {"fit-burnin", "1000"}};

  ThreadPool pool(2);

  // Kronecker race: identical fit budget, so the core phases isolate the
  // expansion strategy.
  const RaceResult pgsk = run_contender(
      require_generator("pgsk"), seed, kron_fit, target, kRepeats);
  const RaceResult pgsk_fast = run_contender(
      require_generator("pgsk-fast"), seed, kron_fit, target, kRepeats);
  const double pgsk_speedup =
      pgsk_fast.core_s > 0.0 ? pgsk.core_s / pgsk_fast.core_s : 0.0;
  const StructuralKs pgsk_ks =
      evaluate_structural_ks(pgsk.graph, pgsk_fast.graph, pool);

  // Preferential-attachment race: Kronecker-parity doubling for the exact
  // generator; the fast sampler is sized to the exact output so the KS
  // comparison is at matched scale.
  const RaceResult pgpba =
      run_contender(require_generator("pgpba"), seed,
                    {{"fraction", "1.0"}}, target, kRepeats);
  const RaceResult pgpba_fast = run_contender(
      require_generator("pgpba-fast"), seed, {}, pgpba.edges, kRepeats);
  const double pgpba_speedup =
      pgpba_fast.core_s > 0.0 ? pgpba.core_s / pgpba_fast.core_s : 0.0;
  const StructuralKs pgpba_ks =
      evaluate_structural_ks(pgpba.graph, pgpba_fast.graph, pool);

  ReportTable table(
      "fast-sampler race (best of " + std::to_string(kRepeats) + " repeats)",
      {"pair", "exact_core_s", "fast_core_s", "speedup", "degree_ks",
       "pagerank_ks"});
  table.add_row({"pgsk", cell_fixed(pgsk.core_s, 3),
                 cell_fixed(pgsk_fast.core_s, 3),
                 cell_fixed(pgsk_speedup, 2),
                 cell_fixed(pgsk_ks.degree_ks, 4),
                 cell_fixed(pgsk_ks.pagerank_ks, 4)});
  table.add_row({"pgpba", cell_fixed(pgpba.core_s, 3),
                 cell_fixed(pgpba_fast.core_s, 3),
                 cell_fixed(pgpba_speedup, 2),
                 cell_fixed(pgpba_ks.degree_ks, 4),
                 cell_fixed(pgpba_ks.pagerank_ks, 4)});
  table.print();
  std::cout << "\n(core_s = grow + store booked seconds; KS = "
               "degree / PageRank distance fast-vs-exact at matched "
               "scale)\n";

  if (const std::string json = json_output_path(argc, argv); !json.empty()) {
    TraceFileWriter writer(json);
    writer.write_meta({{"tool", "fast_samplers"}});
    BenchRecord record;
    record.name = "fast_samplers";
    record.fields.emplace_back("pgsk_core_s", JsonValue(pgsk.core_s));
    record.fields.emplace_back("pgsk_fast_core_s",
                               JsonValue(pgsk_fast.core_s));
    record.fields.emplace_back("pgsk_speedup", JsonValue(pgsk_speedup));
    record.fields.emplace_back("pgsk_degree_ks",
                               JsonValue(pgsk_ks.degree_ks));
    record.fields.emplace_back("pgsk_pagerank_ks",
                               JsonValue(pgsk_ks.pagerank_ks));
    record.fields.emplace_back("pgpba_core_s", JsonValue(pgpba.core_s));
    record.fields.emplace_back("pgpba_fast_core_s",
                               JsonValue(pgpba_fast.core_s));
    record.fields.emplace_back("pgpba_speedup", JsonValue(pgpba_speedup));
    record.fields.emplace_back("pgpba_degree_ks",
                               JsonValue(pgpba_ks.degree_ks));
    record.fields.emplace_back("pgpba_pagerank_ks",
                               JsonValue(pgpba_ks.pagerank_ks));
    writer.write_bench(record);
    std::cout << "wrote " << json << " (csb.trace.v1)\n";
  }
  return 0;
}
