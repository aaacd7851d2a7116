// Fig. 12: strong-scaling speedup, 10 -> 60 compute nodes at fixed output
// size.
//
// Paper shape: PGPBA is near the ideal linear speedup; PGSK scales
// linearly too but sits further from ideal — its dedup barrier and the
// driver-side KronFit are the serial components. Here the serial breakdown
// names them: the dedup seal (store:distinct:seal), the store:begin prefix
// sum and header, KronFit's Metropolis chain (kronfit:driver), the
// collapse planner (collapse:plan), and whatever else the driver ran.
//
// Node model: 2 virtual cores per node (scaled down from the paper's 12)
// so each task carries enough real work for stable timing on the host
// running this bench; the node-count axis is the paper's 10..60. Each
// configuration runs twice and keeps the faster simulated time.
#include <algorithm>
#include <iostream>

#include "bench_support/report.hpp"
#include "common.hpp"
#include "gen/pgpba.hpp"
#include "gen/pgsk.hpp"

int main(int argc, char** argv) {
  using namespace csb;
  print_experiment_header(
      "Fig. 12 — strong-scaling speedup (fixed size, 10..60 nodes)",
      "PGPBA near-ideal; PGSK linear but below ideal (dedup barrier + "
      "driver-side KronFit).");

  const SeedBundle seed = bench::default_seed(bench::scaled(20'000));
  const std::uint64_t pgpba_target = 512 * seed.graph.num_edges();
  const std::uint64_t pgsk_target = 256 * seed.graph.num_edges();
  constexpr std::size_t kCoresPerNode = 2;
  constexpr std::size_t kPartitions = 2 * 60 * kCoresPerNode;
  constexpr int kRepeats = 3;

  const auto run_pgpba = [&](std::size_t nodes) {
    double best = 1e18;
    for (int r = 0; r < kRepeats; ++r) {
      ClusterSim cluster(
          ClusterConfig{.nodes = nodes,
                        .cores_per_node = kCoresPerNode,
                        .smooth_task_durations = true});
      PgpbaOptions options;
      options.desired_edges = pgpba_target;
      options.fraction = 1.0;
      options.partitions = kPartitions;
      const GenResult result =
          pgpba_generate(seed.graph, seed.profile, cluster, options);
      best = std::min(best, result.metrics.simulated_seconds);
    }
    return best;
  };
  // PGSK keeps the full metrics of its best repeat: the named serial
  // segments say how the Amdahl term splits between the multiset collapse
  // and the KronFit optimization.
  const auto run_pgsk = [&](std::size_t nodes) {
    double best = 1e18;
    JobMetrics best_metrics;
    for (int r = 0; r < kRepeats; ++r) {
      ClusterSim cluster(
          ClusterConfig{.nodes = nodes,
                        .cores_per_node = kCoresPerNode,
                        .smooth_task_durations = true});
      PgskOptions options;
      options.desired_edges = pgsk_target;
      options.partitions = kPartitions;
      options.fit.gradient_iterations = 10;
      options.fit.swaps_per_iteration = 300;
      options.fit.burn_in_swaps = 1000;
      const GenResult result =
          pgsk_generate(seed.graph, seed.profile, cluster, options);
      if (result.metrics.simulated_seconds < best) {
        best = result.metrics.simulated_seconds;
        best_metrics = result.metrics;
      }
    }
    return best_metrics;
  };

  // Serial segments are grouped by prefix: the collapse planner books
  // "collapse:plan" and KronFit books "kronfit:driver", so an exact-name
  // lookup would silently report zero after the stage decomposition.
  const auto segment_seconds = [](const JobMetrics& metrics,
                                  const std::string& prefix) {
    double total = 0.0;
    for (const SerialSegment& segment : metrics.serial_segments) {
      if (segment.name.rfind(prefix, 0) == 0) total += segment.seconds;
    }
    return total;
  };

  double pgpba_base = 0.0;
  double pgsk_base = 0.0;
  ReportTable table("speedup vs 10 nodes",
                    {"nodes", "pgpba_s", "pgpba_speedup", "pgsk_s",
                     "pgsk_speedup", "ideal"});
  ReportTable serial_table(
      "PGSK driver-serial breakdown (best repeat, seconds)",
      {"nodes", "collapse_s", "kronfit_s", "dedup_seal_s", "begin_s",
       "other_serial_s", "serial_fraction"});
  for (const std::size_t nodes : {10, 20, 30, 40, 50, 60}) {
    const double pgpba_s = run_pgpba(nodes);
    const JobMetrics pgsk_metrics = run_pgsk(nodes);
    const double pgsk_s = pgsk_metrics.simulated_seconds;
    if (nodes == 10) {
      pgpba_base = pgpba_s;
      pgsk_base = pgsk_s;
    }
    table.add_row({cell_u64(nodes), cell_fixed(pgpba_s, 3),
                   cell_fixed(pgpba_base / pgpba_s, 2),
                   cell_fixed(pgsk_s, 3), cell_fixed(pgsk_base / pgsk_s, 2),
                   cell_fixed(static_cast<double>(nodes) / 10.0, 1)});

    const double collapse_s = segment_seconds(pgsk_metrics, "collapse");
    const double kronfit_s = segment_seconds(pgsk_metrics, "kronfit");
    const double seal_s = segment_seconds(pgsk_metrics, "store:distinct");
    const double begin_s = segment_seconds(pgsk_metrics, "store:begin");
    const double other_s = pgsk_metrics.serial_seconds - collapse_s -
                           kronfit_s - seal_s - begin_s;
    serial_table.add_row(
        {cell_u64(nodes), cell_fixed(collapse_s, 3), cell_fixed(kronfit_s, 3),
         cell_fixed(seal_s, 3), cell_fixed(begin_s, 3), cell_fixed(other_s, 3),
         cell_fixed(pgsk_metrics.serial_seconds / pgsk_s, 3)});
  }
  table.print();
  std::cout << "\n(speedups relative to 10 nodes; ideal = nodes/10)\n\n";
  serial_table.print();
  std::cout << "\n(the serial fraction bounds PGSK's achievable speedup; "
               "columns aggregate serial segments by name prefix: "
               "collapse:*, kronfit:*, store:distinct:seal, store:begin, "
               "and the rest, e.g. store:finalize)\n";
  if (const std::string json = json_output_path(argc, argv); !json.empty()) {
    write_trace_report(json, "fig12_speedup", {&table, &serial_table});
    std::cout << "wrote " << json << " (csb.trace.v1)\n";
  }
  return 0;
}
