// Fig. 9: edge generation time vs synthetic graph size, PGPBA vs PGSK on a
// 60-node virtual cluster — extended with the O(1)-per-edge fast samplers
// (pgpba-fast, pgsk-fast) racing their exact counterparts.
//
// Paper shape: both exact generators are linear in the number of edges,
// PGPBA is consistently faster; PGPBA runs with fraction = 2 so both double
// the graph per iteration (Kronecker parity). The fast samplers must track
// the same linear shape with a much smaller constant on the expansion
// phases (the `core` columns: the grow/generate/store phases, i.e.
// simulated time minus the shared collapse/KronFit preprocessing).
//
// All four contenders dispatch through the Generator registry; row labels
// are Generator::name(), never hard-coded strings.
#include <iostream>
#include <map>
#include <string>

#include "bench_support/report.hpp"
#include "common.hpp"
#include "gen/generator.hpp"
#include "obs/trace.hpp"

int main(int argc, char** argv) {
  using namespace csb;
  print_experiment_header(
      "Fig. 9 — generation time vs size (60 virtual nodes)",
      "linear time in edges for both exact generators; PGPBA faster; "
      "fraction=2 for Kronecker parity; fast samplers match the shape with "
      "a smaller constant.");

  const SeedBundle seed = bench::default_seed(bench::scaled(15'000));
  // Smoothed task durations: at 720 virtual cores the per-task work is
  // microseconds, and raw per-task timer noise would swamp the fast-vs-exact
  // core ratios this figure now reports.
  const ClusterConfig cluster_config{
      .nodes = 60, .cores_per_node = 12, .smooth_task_durations = true};

  // The same KronFit budget for the exact and fast Kronecker generators so
  // the race isolates the expansion strategy, not the fit.
  const std::map<std::string, std::string> kron_fit = {
      {"fit-iters", "10"}, {"fit-swaps", "300"}, {"fit-burnin", "1000"}};
  struct Contender {
    const Generator* gen;
    std::map<std::string, std::string> extra;
  };
  const std::vector<Contender> contenders = {
      // Kronecker parity: growth = 1 + fraction = 2x per iteration (the
      // paper states "fraction = 2" under its own parameterization).
      {&require_generator("pgpba"), {{"fraction", "1.0"}}},
      {&require_generator("pgpba-fast"), {}},
      {&require_generator("pgsk"), kron_fit},
      {&require_generator("pgsk-fast"), kron_fit},
  };

  ReportTable table("generation time (simulated seconds)",
                    {"generator", "target_edges", "edges", "simulated_s",
                     "core_s", "core_eps"});
  constexpr int kRepeats = 3;
  for (const std::uint64_t factor : {4, 8, 16, 32, 64, 128}) {
    const std::uint64_t target = factor * seed.graph.num_edges();
    for (const Contender& contender : contenders) {
      // Best of kRepeats, same policy as fig12/serial_fraction: the minimum
      // simulated time is the least host-noise-contaminated sample.
      double best_simulated = 1e18;
      double best_core = 0.0;
      std::uint64_t edges_out = 0;
      for (int r = 0; r < kRepeats; ++r) {
        TraceRecorder trace;
        ClusterSim cluster(cluster_config);
        cluster.set_trace(&trace);
        GenConfig config;
        config.desired_edges = target;
        config.extra = contender.extra;
        const GenResult result = contender.gen->generate(
            seed.graph, seed.profile, cluster, config);
        double core = 0.0;
        // "store" covers every generator's streamed pipeline, which books
        // its expand/re-multiply/emit work under store:* spans.
        for (const std::string_view phase : {"grow", "generate", "store"}) {
          core += phase_booked_seconds(trace.spans(), phase);
        }
        if (result.metrics.simulated_seconds < best_simulated) {
          best_simulated = result.metrics.simulated_seconds;
          best_core = core;
          edges_out = result.graph.num_edges();
        }
      }
      const double edges = static_cast<double>(edges_out);
      table.add_row(
          {std::string(contender.gen->name()), cell_u64(target),
           cell_u64(edges_out), cell_fixed(best_simulated, 3),
           cell_fixed(best_core, 4),
           cell_u64(best_core > 0.0
                        ? static_cast<std::uint64_t>(edges / best_core)
                        : 0)});
    }
  }
  table.print();
  std::cout << "\n(simulated seconds on 60 virtual nodes x 12 cores; "
               "core_s = grow/generate/store booked seconds, core_eps = "
               "edges / core_s; check linearity per generator and the "
               "fast-vs-exact core_s ratios — the gated "
               "best-of-N race at CI scale lives in bench/fast_samplers)\n";
  if (const std::string json = json_output_path(argc, argv); !json.empty()) {
    write_trace_report(json, "fig09_generation_time", {&table});
    std::cout << "wrote " << json << " (csb.trace.v1)\n";
  }
  return 0;
}
