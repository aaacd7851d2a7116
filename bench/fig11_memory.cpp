// Fig. 11: per-worker-node memory usage vs synthetic graph size.
//
// Paper shape: flat (~10 GB/node platform overhead) for small graphs,
// then linear growth up to ~300 GB/node for 2e10 edges on 60 nodes. Our
// virtual cluster accounts actual edge-payload bytes per node (round-robin
// partition placement) plus a scaled-down constant platform overhead.
#include <algorithm>
#include <iostream>

#include "bench_support/report.hpp"
#include "common.hpp"
#include "gen/pgpba.hpp"
#include "gen/pgsk.hpp"
#include "util/format.hpp"

namespace {

// The paper's Spark workers held ~10 GB of platform overhead per node; our
// in-process substrate is far lighter, so we book a proportional constant
// (the trend, not the absolute, is the claim under test).
constexpr std::uint64_t kPlatformOverheadBytes = 8ull << 20;  // 8 MiB

}  // namespace

int main() {
  using namespace csb;
  print_experiment_header(
      "Fig. 11 — memory per worker node vs size",
      "flat platform-overhead floor for small graphs, then linear growth in "
      "edges; PGPBA and PGSK nearly identical (same edge payload).");

  const SeedBundle seed = bench::default_seed(bench::scaled(15'000));
  const ClusterConfig cluster_config{.nodes = 60, .cores_per_node = 12};
  const std::uint64_t per_edge = PropertyGraph::bytes_per_edge(true);

  ReportTable table("max memory per node",
                    {"edges", "pgpba_bytes_per_node", "pgsk_bytes_per_node",
                     "pgpba_human"});
  for (const std::uint64_t factor : {1, 4, 16, 64, 256}) {
    const std::uint64_t target = factor * seed.graph.num_edges();

    ClusterSim pgpba_cluster(cluster_config);
    PgpbaOptions pgpba_options;
    pgpba_options.desired_edges = target;
    pgpba_options.fraction = 1.0;  // Kronecker-parity doubling (growth = 1 + fraction)
    pgpba_options.with_properties = false;
    const GenResult pgpba = pgpba_generate(seed.graph, seed.profile,
                                           pgpba_cluster, pgpba_options);
    // Edge payload spread round-robin over nodes + property columns.
    const std::uint64_t pgpba_node_bytes =
        kPlatformOverheadBytes +
        pgpba.graph.num_edges() * per_edge / cluster_config.nodes;

    ClusterSim pgsk_cluster(cluster_config);
    PgskOptions pgsk_options;
    pgsk_options.desired_edges = target;
    pgsk_options.with_properties = false;
    pgsk_options.fit.gradient_iterations = 8;
    pgsk_options.fit.swaps_per_iteration = 300;
    pgsk_options.fit.burn_in_swaps = 1000;
    const GenResult pgsk = pgsk_generate(seed.graph, seed.profile,
                                         pgsk_cluster, pgsk_options);
    const std::uint64_t pgsk_node_bytes =
        kPlatformOverheadBytes +
        pgsk.graph.num_edges() * per_edge / cluster_config.nodes;

    table.add_row({cell_u64(target), cell_u64(pgpba_node_bytes),
                   cell_u64(pgsk_node_bytes),
                   human_bytes(pgpba_node_bytes)});
  }
  table.print();
  std::cout << "\n(platform overhead floor: "
            << human_bytes(kPlatformOverheadBytes)
            << " per node; " << per_edge << " bytes/edge with properties)\n";
  return 0;
}
