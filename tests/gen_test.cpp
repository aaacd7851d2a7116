// Unit tests for src/gen: PGPBA growth and determinism, KronFit recovery,
// stochastic/deterministic Kronecker, PGSK sizing, property assignment, and
// the baseline generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>

#include "gen/baselines.hpp"
#include "gen/fast_samplers.hpp"
#include "gen/kronecker.hpp"
#include "gen/kronfit.hpp"
#include "gen/pgpba.hpp"
#include "gen/pgsk.hpp"
#include "gen/properties.hpp"
#include "gen/sink_stages.hpp"
#include "graph/algorithms.hpp"
#include "seed/seed.hpp"
#include "store/graph_store.hpp"
#include "stats/power_law.hpp"
#include "trace/traffic_model.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace csb {
namespace {

SeedBundle small_seed(std::uint64_t sessions = 800) {
  TrafficModelConfig config;
  config.benign_sessions = sessions;
  config.client_hosts = 120;
  config.server_hosts = 30;
  return build_seed_from_netflow(
      sessions_to_netflow(TrafficModel(config).generate_benign()));
}

ClusterConfig four_cores() { return ClusterConfig{.nodes = 2, .cores_per_node = 2}; }

/// The sealed distinct set's ascending key stream, gathered to one vector.
std::vector<std::uint64_t> scanned_keys(const ExternalDistinct& distinct) {
  std::vector<std::uint64_t> keys;
  distinct.scan([&keys](std::span<const std::uint64_t> chunk) {
    keys.insert(keys.end(), chunk.begin(), chunk.end());
  });
  return keys;
}

/// The Kronecker descent's target when none is given: the initiator's
/// expected edge count at order k.
std::uint64_t expected_target(const Initiator& initiator, std::uint32_t k) {
  return static_cast<std::uint64_t>(
      std::llround(initiator.expected_edges(k)));
}

// ------------------------------------------------------------- properties

/// Streams `graph`'s edges into a MemoryStore and samples every property row
/// with the shared store:props stage, as each generator does.
PropertyGraph with_sampled_properties(const PropertyGraph& graph,
                                      const SeedProfile& profile,
                                      ClusterSim& cluster,
                                      std::uint64_t seed) {
  MemoryStore store;
  store.begin(StoreHeader{.vertices = graph.num_vertices(),
                          .edges = graph.num_edges(),
                          .with_properties = true});
  emit_columns_into(graph.sources(), graph.destinations(), store, cluster);
  run_property_stage(store, profile, cluster, seed, graph.num_edges());
  store.finish();
  return store.take_graph();
}

TEST(AssignPropertiesTest, FillsEveryEdgeFromSeedSupport) {
  const SeedBundle seed = small_seed(200);
  PropertyGraph structure(10);
  for (int i = 0; i < 200; ++i) structure.add_edge(i % 10, (i * 3) % 10);
  ClusterSim cluster(four_cores());
  const PropertyGraph g =
      with_sampled_properties(structure, seed.profile, cluster, 42);
  ASSERT_TRUE(g.has_properties());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeProperties p = g.edge_properties(e);
    EXPECT_GT(seed.profile.in_bytes().pmf(static_cast<double>(p.in_bytes)),
              0.0);
  }
}

TEST(AssignPropertiesTest, DeterministicPerSeedValue) {
  const SeedBundle seed = small_seed(200);
  PropertyGraph structure(5);
  for (int i = 0; i < 50; ++i) structure.add_edge(i % 5, (i + 1) % 5);
  ClusterSim cluster(four_cores());
  const PropertyGraph a =
      with_sampled_properties(structure, seed.profile, cluster, 7);
  EXPECT_EQ(a, with_sampled_properties(structure, seed.profile, cluster, 7));
  EXPECT_NE(a, with_sampled_properties(structure, seed.profile, cluster, 8));
}

template <typename T>
void put_pod(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

/// A serialized EmpiricalDistribution: its (value, probability) pairs.
void put_distribution(std::string& out,
                      const std::vector<std::pair<double, double>>& mass) {
  put_pod(out, static_cast<std::uint64_t>(mass.size()));
  for (const auto& [value, probability] : mass) {
    put_pod(out, value);
    put_pod(out, probability);
  }
}

/// A property column value as the seed profile stores it.
template <typename T>
double profile_value(T value) {
  if constexpr (std::is_enum_v<T>) {
    return static_cast<std::underlying_type_t<T>>(value);
  } else {
    return static_cast<double>(value);
  }
}

// The property stream at chunk scale: every chunk of a 200k-row stage (16
// chunks of property_chunk_size(200'000, 8) rows), FNV-1a over each
// column's bytes in schema order. The golden generator graphs fit in one
// chunk; this pins the per-chunk streams, the per-row draw order and each
// column's cast over many chunks.
TEST(PropertySamplerTest, ChunkColumnsMatchRecordedDigest) {
  const SeedBundle seed = small_seed(300);
  const PropertySampler sampler(seed.profile);
  constexpr std::uint64_t kRows = 200'000;
  const auto chunks =
      make_fixed_chunks(0, kRows, property_chunk_size(kRows, 8));
  ASSERT_EQ(chunks.size(), 16u);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  PropertyColumns rows;
  for (const ChunkRange& chunk : chunks) {
    sampler.sample_chunk(29, chunk, rows);
    ASSERT_EQ(rows.size(), chunk.end - chunk.begin);
    rows.for_each_column([&hash](const auto& column) {
      const auto* bytes =
          reinterpret_cast<const unsigned char*>(column.data());
      for (std::size_t i = 0; i < column.size() * sizeof(column[0]); ++i) {
        hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
      }
    });
  }
  EXPECT_EQ(hash, 0x9f9148009bea81a6ULL) << "digest is 0x" << std::hex
                                         << hash;
}

TEST(PropertySamplerTest, UnseenBucketDrawsFromMarginal) {
  // A profile whose eight conditionals observed IN_BYTES bucket 1 only:
  // rows drawn with in_bytes 1 take the bucket's values (`observed`), rows
  // drawn with in_bytes 5000 (bucket 13) take the marginals' (`unseen`).
  const EdgeProperties observed{.protocol = Protocol::kTcp,
                                .src_port = 1000,
                                .dst_port = 80,
                                .duration_ms = 10,
                                .out_bytes = 300,
                                .in_bytes = 1,
                                .out_pkts = 3,
                                .in_pkts = 5,
                                .state = ConnState::kSF};
  const EdgeProperties unseen{.protocol = Protocol::kUdp,
                              .src_port = 2000,
                              .dst_port = 443,
                              .duration_ms = 20,
                              .out_bytes = 400,
                              .in_bytes = 5000,
                              .out_pkts = 4,
                              .in_pkts = 6,
                              .state = ConnState::kRej};
  std::string bytes = "CSBP";
  put_pod(bytes, std::uint32_t{1});  // version
  put_pod(bytes, std::uint64_t{2});  // seed vertices
  put_pod(bytes, std::uint64_t{2});  // seed edges
  put_distribution(bytes, {{1.0, 1.0}});  // in-degree
  put_distribution(bytes, {{1.0, 1.0}});  // out-degree
  put_distribution(bytes, {{1.0, 0.5}, {5000.0, 0.5}});  // in_bytes
  const auto put_conditional = [&](auto field) {
    put_pod(bytes, std::uint64_t{1});  // one observed bucket...
    put_pod(bytes, ConditionalDistribution::bucket_of(1));  // ...bucket 1
    put_distribution(bytes, {{profile_value(observed.*field), 1.0}});
    put_distribution(bytes, {{profile_value(unseen.*field), 1.0}});
  };
  put_conditional(&EdgeProperties::protocol);
  put_conditional(&EdgeProperties::src_port);
  put_conditional(&EdgeProperties::dst_port);
  put_conditional(&EdgeProperties::duration_ms);
  put_conditional(&EdgeProperties::out_bytes);
  put_conditional(&EdgeProperties::out_pkts);
  put_conditional(&EdgeProperties::in_pkts);
  put_conditional(&EdgeProperties::state);
  std::istringstream in(bytes);
  const SeedProfile profile = SeedProfile::load(in);
  ASSERT_GT(profile.in_bytes().pmf(5000.0), 0.0);

  PropertyColumns rows;
  PropertySampler(profile).sample_chunk(
      5, ChunkRange{.begin = 0, .end = 1000, .chunk_index = 0}, rows);
  std::size_t unseen_rows = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const EdgeProperties row = rows.row(i);
    if (row.in_bytes == observed.in_bytes) {
      EXPECT_EQ(row, observed) << "row " << i;
    } else {
      EXPECT_EQ(row, unseen) << "row " << i;
      ++unseen_rows;
    }
  }
  EXPECT_GT(unseen_rows, 0u);
  EXPECT_LT(unseen_rows, rows.size());
}

// ----------------------------------------------------------------- PGPBA

TEST(PgpbaTest, ReachesDesiredSize) {
  const SeedBundle seed = small_seed();
  ClusterSim cluster(four_cores());
  PgpbaOptions options;
  options.desired_edges = 4 * seed.graph.num_edges();
  options.fraction = 0.5;
  const GenResult result =
      pgpba_generate(seed.graph, seed.profile, cluster, options);
  EXPECT_GE(result.graph.num_edges(), options.desired_edges);
  EXPECT_GT(result.graph.num_vertices(), seed.graph.num_vertices());
  EXPECT_GT(result.iterations, 0u);
  EXPECT_TRUE(result.graph.has_properties());
}

TEST(PgpbaTest, SparkParityGrowthFactorMatchesFraction) {
  const SeedBundle seed = small_seed();
  ClusterSim cluster(four_cores());
  PgpbaOptions options;
  options.desired_edges = seed.graph.num_edges() + 1;  // exactly 1 iteration
  options.fraction = 0.5;
  options.with_properties = false;
  const GenResult result =
      pgpba_generate(seed.graph, seed.profile, cluster, options);
  EXPECT_EQ(result.iterations, 1u);
  const double growth = static_cast<double>(result.graph.num_edges()) /
                        static_cast<double>(seed.graph.num_edges());
  // Spark-parity: one new edge per sampled edge -> growth = 1 + fraction.
  EXPECT_NEAR(growth, 1.5, 0.05);
}

TEST(PgpbaTest, FractionTwoDoublesPerIteration) {
  // The paper's Kronecker-parity configuration.
  const SeedBundle seed = small_seed();
  ClusterSim cluster(four_cores());
  PgpbaOptions options;
  options.desired_edges = seed.graph.num_edges() + 1;
  options.fraction = 2.0;
  options.with_properties = false;
  const GenResult result =
      pgpba_generate(seed.graph, seed.profile, cluster, options);
  const double growth = static_cast<double>(result.graph.num_edges()) /
                        static_cast<double>(seed.graph.num_edges());
  EXPECT_NEAR(growth, 3.0, 0.1);  // 1 + fraction
}

TEST(PgpbaTest, DeterministicPerSeedValue) {
  const SeedBundle seed = small_seed(300);
  PgpbaOptions options;
  options.desired_edges = 2 * seed.graph.num_edges();
  options.fraction = 0.4;
  ClusterSim c1(four_cores());
  ClusterSim c2(four_cores());
  const GenResult a = pgpba_generate(seed.graph, seed.profile, c1, options);
  const GenResult b = pgpba_generate(seed.graph, seed.profile, c2, options);
  EXPECT_EQ(a.graph, b.graph);
}

TEST(PgpbaTest, DegreeSamplingModeGrowsFaster) {
  const SeedBundle seed = small_seed(300);
  PgpbaOptions spark;
  spark.desired_edges = seed.graph.num_edges() + 1;
  spark.fraction = 0.2;
  spark.with_properties = false;
  PgpbaOptions degree = spark;
  degree.mode = PgpbaAttachMode::kDegreeSampling;
  ClusterSim c1(four_cores());
  ClusterSim c2(four_cores());
  const GenResult a = pgpba_generate(seed.graph, seed.profile, c1, spark);
  const GenResult b = pgpba_generate(seed.graph, seed.profile, c2, degree);
  // Degree mode adds sampled in+out fans per new vertex; with a mean total
  // degree > 2 it must beat the one-edge-per-vertex spark mode.
  EXPECT_GT(b.graph.num_edges(), a.graph.num_edges());
}

TEST(PgpbaTest, PreferentialAttachmentSkewsDegrees) {
  // The synthetic graph must contain vertices with far higher in-degree
  // than the mean (scale-free behavior).
  const SeedBundle seed = small_seed();
  ClusterSim cluster(four_cores());
  PgpbaOptions options;
  options.desired_edges = 8 * seed.graph.num_edges();
  options.fraction = 1.0;
  options.with_properties = false;
  const GenResult result =
      pgpba_generate(seed.graph, seed.profile, cluster, options);
  const auto degrees = in_degrees(result.graph);
  const double mean =
      static_cast<double>(result.graph.num_edges()) / degrees.size();
  const std::uint64_t max_degree =
      *std::max_element(degrees.begin(), degrees.end());
  EXPECT_GT(static_cast<double>(max_degree), 20.0 * mean);
}

TEST(PgpbaTest, StructureVsPropertyTimeSplit) {
  const SeedBundle seed = small_seed(300);
  ClusterSim cluster(four_cores());
  PgpbaOptions options;
  options.desired_edges = 3 * seed.graph.num_edges();
  const GenResult result =
      pgpba_generate(seed.graph, seed.profile, cluster, options);
  EXPECT_GT(result.structure_seconds, 0.0);
  EXPECT_GT(result.property_seconds, 0.0);
  EXPECT_GE(result.metrics.simulated_seconds,
            result.structure_seconds + result.property_seconds);
}

TEST(PgpbaTest, RejectsBadOptions) {
  const SeedBundle seed = small_seed(200);
  ClusterSim cluster(four_cores());
  PgpbaOptions options;
  options.desired_edges = 0;
  EXPECT_THROW(pgpba_generate(seed.graph, seed.profile, cluster, options),
               CsbError);
  options.desired_edges = 100;
  options.fraction = 0.0;
  EXPECT_THROW(pgpba_generate(seed.graph, seed.profile, cluster, options),
               CsbError);
}

// --------------------------------------------------------------- KronFit

TEST(KronFitTest, RecoversDenseCornerOnKroneckerGraph) {
  // Generate from a known initiator, then refit: the dense corner and the
  // overall edge budget must be recovered (loose tolerances — KronFit is a
  // stochastic optimizer).
  Initiator truth;
  truth.theta = {{{0.9, 0.6}, {0.4, 0.2}}};
  ClusterSim cluster(four_cores());
  constexpr std::uint32_t kOrder = 9;  // 512 vertices, ~(2.1)^9 ~ 800 edges
  const auto edges = stochastic_kronecker_distinct(
      cluster, truth, kOrder, expected_target(truth, kOrder), /*seed=*/5,
      /*parts=*/8, ExternalDistinctOptions{});
  PropertyGraph graph(1ULL << kOrder);
  for (const std::uint64_t key : scanned_keys(*edges)) {
    graph.add_edge(key >> 32, key & 0xffffffffULL);
  }

  KronFitOptions options;
  options.gradient_iterations = 30;
  options.swaps_per_iteration = 500;
  options.burn_in_swaps = 2000;
  const KronFitResult fit = kronfit(graph, options);
  EXPECT_EQ(fit.k, 9u);
  // theta00 is the densest corner by construction (canonicalized).
  EXPECT_GT(fit.initiator.theta[0][0], fit.initiator.theta[1][1]);
  // The fitted expected edge count should be within 2x of the truth.
  const double expected = fit.initiator.expected_edges(fit.k);
  const double actual = static_cast<double>(graph.num_edges());
  EXPECT_GT(expected, actual / 2.0);
  EXPECT_LT(expected, actual * 2.0);
}

TEST(KronFitTest, LikelihoodImprovesOverInit) {
  const SeedBundle seed = small_seed(400);
  const PropertyGraph simple = simplify(seed.graph);
  KronFitOptions fast;
  fast.gradient_iterations = 0;
  fast.burn_in_swaps = 100;
  const double ll_init = kronfit(simple, fast).log_likelihood;
  KronFitOptions tuned;
  tuned.gradient_iterations = 25;
  tuned.swaps_per_iteration = 300;
  tuned.burn_in_swaps = 2000;
  const double ll_fit = kronfit(simple, tuned).log_likelihood;
  EXPECT_GT(ll_fit, ll_init);
}

TEST(KronFitTest, IncrementalLikelihoodMatchesRecomputation) {
  // The fitter maintains per-edge cell counts and the likelihood term sum
  // incrementally across thousands of Metropolis swaps and theta refreshes.
  // Recomputing everything from sigma at the optimum must agree to
  // accumulation error: any stale cache entry or drifted sum shows up here.
  const SeedBundle seed = small_seed(400);
  const PropertyGraph simple = simplify(seed.graph);
  KronFitOptions options;
  options.gradient_iterations = 15;
  options.swaps_per_iteration = 400;
  options.burn_in_swaps = 2000;
  const KronFitLikelihoodCheck check =
      kronfit_likelihood_check(simple, options);
  EXPECT_NEAR(check.incremental, check.recomputed,
              1e-9 * std::max(1.0, std::abs(check.recomputed)));
}

TEST(KronFitTest, ChunkedPassesBitIdenticalAcrossThreadCounts) {
  // The refresh/gradient passes chunk at a fixed 4096-edge granularity and
  // reduce partial sums in chunk-index order, so the result is a function
  // of the chunking alone — never of how many workers ran the chunks.
  const SeedBundle seed = small_seed(400);
  const PropertyGraph simple = simplify(seed.graph);
  KronFitOptions options;
  options.gradient_iterations = 8;
  options.swaps_per_iteration = 200;
  options.burn_in_swaps = 1000;
  const KronFitResult serial = kronfit(simple, options);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    options.pool = &pool;
    const KronFitResult threaded = kronfit(simple, options);
    EXPECT_EQ(serial.initiator.theta, threaded.initiator.theta)
        << threads << " threads";
    EXPECT_EQ(serial.log_likelihood, threaded.log_likelihood)
        << threads << " threads";
  }
}

TEST(KronFitTest, ClusterAttachedRunMatchesStandalone) {
  // pgsk_generate hands kronfit its ClusterSim: the passes become stages
  // and the Metropolis chain books "kronfit:driver" serial segments, but
  // the fitted result must be the same bits as a standalone run.
  const SeedBundle seed = small_seed(400);
  const PropertyGraph simple = simplify(seed.graph);
  KronFitOptions options;
  options.gradient_iterations = 8;
  options.swaps_per_iteration = 200;
  options.burn_in_swaps = 1000;
  const KronFitResult standalone = kronfit(simple, options);
  ClusterSim cluster(four_cores());
  options.cluster = &cluster;
  const KronFitResult attached = kronfit(simple, options);
  EXPECT_EQ(standalone.initiator.theta, attached.initiator.theta);
  EXPECT_EQ(standalone.log_likelihood, attached.log_likelihood);
  // The decomposition books real driver-serial time and stage work.
  double driver_s = 0.0;
  for (const SerialSegment& segment : cluster.metrics().serial_segments) {
    if (segment.name == "kronfit:driver") driver_s += segment.seconds;
  }
  EXPECT_GT(driver_s, 0.0);
  EXPECT_GT(cluster.metrics().simulated_seconds, driver_s);
}

TEST(KronFitTest, ShardedBurnInKeepsIncrementalLikelihoodHonest) {
  // The sharded burn-in mutates sigma through per-shard chains whose cache
  // reconciliation (recount + refresh) must leave the incremental state
  // exactly consistent with a from-scratch recomputation.
  const SeedBundle seed = small_seed(400);
  const PropertyGraph simple = simplify(seed.graph);
  ThreadPool pool(4);
  KronFitOptions options;
  options.gradient_iterations = 15;
  options.swaps_per_iteration = 400;
  options.burn_in_swaps = 2000;
  options.burn_in_shards = 4;
  options.pool = &pool;
  const KronFitLikelihoodCheck check =
      kronfit_likelihood_check(simple, options);
  EXPECT_NEAR(check.incremental, check.recomputed,
              1e-9 * std::max(1.0, std::abs(check.recomputed)));
}

TEST(KronFitTest, DeterministicPerSeed) {
  const SeedBundle seed = small_seed(300);
  const PropertyGraph simple = simplify(seed.graph);
  KronFitOptions options;
  options.gradient_iterations = 5;
  options.swaps_per_iteration = 200;
  options.burn_in_swaps = 500;
  const KronFitResult a = kronfit(simple, options);
  const KronFitResult b = kronfit(simple, options);
  EXPECT_EQ(a.initiator.theta, b.initiator.theta);
  EXPECT_EQ(a.log_likelihood, b.log_likelihood);
  options.seed ^= 1;
  const KronFitResult c = kronfit(simple, options);
  EXPECT_NE(a.initiator.theta, c.initiator.theta);
}

TEST(KronFitTest, ThetaStaysInBounds) {
  const SeedBundle seed = small_seed(300);
  const KronFitResult fit = kronfit(simplify(seed.graph));
  for (const auto& row : fit.initiator.theta) {
    for (const double t : row) {
      EXPECT_GE(t, 0.02);
      EXPECT_LE(t, 0.98);
    }
  }
}

TEST(KronFitTest, RejectsDegenerateInput) {
  PropertyGraph empty(4);
  EXPECT_THROW(kronfit(empty), CsbError);
  PropertyGraph single(1);
  EXPECT_THROW(kronfit(single), CsbError);
}

// -------------------------------------------------------------- Kronecker

TEST(StochasticKroneckerTest, ReachesTargetDistinctEdges) {
  ClusterSim cluster(four_cores());
  Initiator initiator;
  initiator.theta = {{{0.9, 0.55}, {0.45, 0.25}}};
  const auto edges = stochastic_kronecker_distinct(
      cluster, initiator, /*k=*/10, /*target=*/1500, /*seed=*/1,
      /*parts=*/8, ExternalDistinctOptions{});
  EXPECT_GE(edges->unique_count(), 1500u);
  // All endpoints must fit in 2^k vertices, and the scanned stream must be
  // strictly ascending (so every edge is distinct).
  const std::vector<std::uint64_t> keys = scanned_keys(*edges);
  ASSERT_EQ(keys.size(), edges->unique_count());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_LT(keys[i] >> 32, 1ULL << 10);
    EXPECT_LT(keys[i] & 0xffffffffULL, 1ULL << 10);
    if (i > 0) {
      EXPECT_LT(keys[i - 1], keys[i]) << "duplicate edge";
    }
  }
}

TEST(StochasticKroneckerTest, DefaultTargetIsExpectedEdges) {
  // PGSK asks for the initiator's expected edge count (its plan's
  // kron_edges); the distinct count lands on it, plus the last round's
  // oversampling.
  ClusterSim cluster(four_cores());
  Initiator initiator;
  initiator.theta = {{{0.8, 0.5}, {0.5, 0.2}}};
  const auto edges = stochastic_kronecker_distinct(
      cluster, initiator, /*k=*/8, expected_target(initiator, 8),
      /*seed=*/1, /*parts=*/8, ExternalDistinctOptions{});
  const double expected = initiator.expected_edges(8);
  EXPECT_GE(static_cast<double>(edges->unique_count()), expected * 0.99);
  EXPECT_LE(static_cast<double>(edges->unique_count()), expected * 1.5);
}

TEST(StochasticKroneckerTest, RejectsImpossibleTargets) {
  ClusterSim cluster(four_cores());
  const Initiator initiator;
  const auto place = [&](std::uint32_t k, std::uint64_t target) {
    (void)stochastic_kronecker_distinct(cluster, initiator, k, target,
                                        /*seed=*/1, /*parts=*/8,
                                        ExternalDistinctOptions{});
  };
  EXPECT_THROW(place(2, 100), CsbError);  // only 16 possible distinct edges
  EXPECT_THROW(place(4, 0), CsbError);    // nothing to place
  EXPECT_THROW(place(0, 1), CsbError);    // order out of range
  EXPECT_THROW(place(33, 1), CsbError);   // endpoints overflow 32-bit keys
}

TEST(DeterministicKroneckerTest, AllOnesInitiatorGivesCompleteGraph) {
  const auto graph =
      deterministic_kronecker({{{true, true}, {true, true}}}, 2);
  EXPECT_EQ(graph.num_vertices(), 4u);
  EXPECT_EQ(graph.num_edges(), 16u);
}

TEST(DeterministicKroneckerTest, IdentityInitiatorGivesSelfLoops) {
  const auto graph =
      deterministic_kronecker({{{true, false}, {false, true}}}, 3);
  EXPECT_EQ(graph.num_vertices(), 8u);
  EXPECT_EQ(graph.num_edges(), 8u);  // exactly the diagonal
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    EXPECT_EQ(graph.edge_src(e), graph.edge_dst(e));
  }
}

TEST(DeterministicKroneckerTest, EdgeCountIsInitiatorPower) {
  // Initiator with 3 ones -> 3^k edges.
  const auto graph =
      deterministic_kronecker({{{true, true}, {true, false}}}, 4);
  EXPECT_EQ(graph.num_edges(), 81u);
}

// ------------------------------------------------------------------ PGSK

TEST(PgskPlanTest, SizingMath) {
  const PgskPlan plan = plan_pgsk(2.0, 4.0, 1024);
  // kron target = 1024/4 = 256 = 2^8 -> k = 8, edges = 2^8.
  EXPECT_EQ(plan.k, 8u);
  EXPECT_EQ(plan.kron_edges, 256u);
}

TEST(PgskPlanTest, DuplicationBelowOneClamped) {
  const PgskPlan a = plan_pgsk(2.0, 0.5, 1024);
  const PgskPlan b = plan_pgsk(2.0, 1.0, 1024);
  EXPECT_EQ(a.k, b.k);
}

TEST(PgskTest, GeneratesApproximatelyDesiredSize) {
  const SeedBundle seed = small_seed();
  ClusterSim cluster(four_cores());
  PgskOptions options;
  options.desired_edges = 3 * seed.graph.num_edges();
  options.fit.gradient_iterations = 10;
  options.fit.swaps_per_iteration = 200;
  options.fit.burn_in_swaps = 500;
  const GenResult result =
      pgsk_generate(seed.graph, seed.profile, cluster, options);
  const auto edges = result.graph.num_edges();
  // Probabilistic sizing: within a factor ~2 of the request.
  EXPECT_GT(edges, options.desired_edges / 2);
  EXPECT_LT(edges, options.desired_edges * 3);
  EXPECT_TRUE(result.graph.has_properties());
}

TEST(PgskTest, CanGenerateSmallerThanSeed) {
  // The paper's Fig. 6 PGSK curve starts at ~100 edges from a ~2M seed.
  const SeedBundle seed = small_seed();
  ClusterSim cluster(four_cores());
  PgskOptions options;
  options.desired_edges = 100;
  options.fit.gradient_iterations = 5;
  options.fit.swaps_per_iteration = 100;
  options.fit.burn_in_swaps = 200;
  const GenResult result =
      pgsk_generate(seed.graph, seed.profile, cluster, options);
  EXPECT_LT(result.graph.num_edges(), seed.graph.num_edges() / 2);
}

TEST(PgskTest, VertexCountIsPowerOfTwo) {
  const SeedBundle seed = small_seed(300);
  ClusterSim cluster(four_cores());
  PgskOptions options;
  options.desired_edges = 2000;
  options.fit.gradient_iterations = 5;
  options.fit.swaps_per_iteration = 100;
  options.fit.burn_in_swaps = 200;
  const GenResult result =
      pgsk_generate(seed.graph, seed.profile, cluster, options);
  const std::uint64_t n = result.graph.num_vertices();
  EXPECT_EQ(n & (n - 1), 0u);
}

TEST(PgskTest, MetricsIncludeShuffleStages) {
  const SeedBundle seed = small_seed(300);
  ClusterSim cluster(four_cores());
  PgskOptions options;
  options.desired_edges = 2000;
  options.fit.gradient_iterations = 5;
  options.fit.swaps_per_iteration = 100;
  options.fit.burn_in_swaps = 200;
  const GenResult result =
      pgsk_generate(seed.graph, seed.profile, cluster, options);
  EXPECT_GT(result.metrics.stages, 2u);
  EXPECT_GT(result.metrics.serial_seconds, 0.0);  // kronfit is driver-side
}

// -------------------------------------------------------------- baselines

TEST(ClassicBaTest, EdgeCountAndDegreeSkew) {
  const auto graph = classic_barabasi_albert(3000, 3, 9);
  EXPECT_EQ(graph.num_vertices(), 3000u);
  // m0 ring (4 edges) + 3 per added vertex.
  EXPECT_EQ(graph.num_edges(), 4u + 3u * (3000u - 4u));
  const auto degrees = total_degrees(graph);
  std::vector<double> samples(degrees.begin(), degrees.end());
  const double alpha = fit_power_law_alpha(samples, 6.0);
  // BA theory: alpha -> 3 for total degree.
  EXPECT_GT(alpha, 2.0);
  EXPECT_LT(alpha, 4.0);
}

TEST(ClassicBaTest, RejectsBadArguments) {
  EXPECT_THROW(classic_barabasi_albert(5, 0, 1), CsbError);
  EXPECT_THROW(classic_barabasi_albert(3, 3, 1), CsbError);
}

TEST(ErdosRenyiTest, ExactEdgeCountAndNoSkew) {
  const auto graph = erdos_renyi_gnm(1000, 5000, 4);
  EXPECT_EQ(graph.num_edges(), 5000u);
  const auto degrees = total_degrees(graph);
  const std::uint64_t max_degree =
      *std::max_element(degrees.begin(), degrees.end());
  // Poisson(10) tail: max degree stays modest, nothing scale-free.
  EXPECT_LT(max_degree, 40u);
}

// --------------------------------------------------------- determinism

TEST(DeterminismTest, PgskSameSeedSameGraph) {
  const SeedBundle seed = small_seed(300);
  PgskOptions options;
  options.desired_edges = 1500;
  options.fit.gradient_iterations = 5;
  options.fit.swaps_per_iteration = 100;
  options.fit.burn_in_swaps = 200;
  ClusterSim c1(four_cores());
  ClusterSim c2(four_cores());
  const GenResult a = pgsk_generate(seed.graph, seed.profile, c1, options);
  const GenResult b = pgsk_generate(seed.graph, seed.profile, c2, options);
  // The whole graph is byte-deterministic per seed; comparing the sorted
  // edge multisets keeps this check independent of the edge order.
  auto edges_of = [](const PropertyGraph& g) {
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      edges.emplace_back(g.edge_src(e), g.edge_dst(e));
    }
    std::sort(edges.begin(), edges.end());
    return edges;
  };
  EXPECT_EQ(edges_of(a.graph), edges_of(b.graph));
}

TEST(DeterminismTest, KroneckerEdgesDeterministicPerSeed) {
  // The scanned key stream is a function of (initiator, k, target, seed,
  // parts) alone: the cluster shape, the pool and the dedup budget change
  // how placements are scheduled, spilled and merged, never which keys
  // come out or in what order.
  const Initiator initiator;
  constexpr std::uint32_t kOrder = 18;
  constexpr std::uint64_t kTarget = 150'000;
  constexpr std::size_t kParts = 8;
  constexpr std::uint64_t kInRam = 256ULL << 20;
  constexpr std::uint64_t kSpills = 1ULL << 19;  // the minimum: one IO chunk
  const std::string spill = ::testing::TempDir() + "/csb_kron_determinism";
  std::size_t spilled = 0;
  const auto keys_at = [&](ClusterConfig shape, std::uint64_t budget,
                           std::uint64_t seed) {
    ClusterSim cluster(shape);
    const auto distinct = stochastic_kronecker_distinct(
        cluster, initiator, kOrder, kTarget, seed, kParts,
        ExternalDistinctOptions{.spill_directory = spill,
                                .memory_budget_bytes = budget,
                                .pool = &cluster.pool()});
    spilled = distinct->spilled_runs();
    return scanned_keys(*distinct);
  };

  const auto reference = keys_at({.nodes = 1, .cores_per_node = 1}, kInRam, 1);
  EXPECT_EQ(spilled, 0u);
  ASSERT_GE(reference.size(), kTarget);
  for (const ClusterConfig shape : {ClusterConfig{.nodes = 1, .cores_per_node = 1},
                                    ClusterConfig{.nodes = 1, .cores_per_node = 4},
                                    ClusterConfig{.nodes = 8, .cores_per_node = 4}}) {
    const std::string label = std::to_string(shape.nodes) + "x" +
                              std::to_string(shape.cores_per_node);
    EXPECT_EQ(keys_at(shape, kInRam, 1), reference) << label << " in RAM";
    EXPECT_EQ(spilled, 0u) << label;
    EXPECT_EQ(keys_at(shape, kSpills, 1), reference) << label << " spilled";
    EXPECT_GT(spilled, 0u) << label;
  }
  // A different seed places different edges.
  EXPECT_NE(keys_at({.nodes = 1, .cores_per_node = 4}, kInRam, 99), reference);
  std::filesystem::remove_all(spill);
}

TEST(DeterminismTest, InitiatorExpectedEdgesMath) {
  Initiator init;
  init.theta = {{{0.5, 0.5}, {0.5, 0.5}}};
  EXPECT_DOUBLE_EQ(init.sum(), 2.0);
  EXPECT_DOUBLE_EQ(init.sum_sq(), 1.0);
  EXPECT_DOUBLE_EQ(init.expected_edges(10), 1024.0);
}

TEST(PgskTest, WithoutPropertiesLeavesStructureOnly) {
  const SeedBundle seed = small_seed(300);
  ClusterSim cluster(four_cores());
  PgskOptions options;
  options.desired_edges = 1000;
  options.with_properties = false;
  options.fit.gradient_iterations = 5;
  options.fit.swaps_per_iteration = 100;
  options.fit.burn_in_swaps = 200;
  const GenResult result =
      pgsk_generate(seed.graph, seed.profile, cluster, options);
  EXPECT_FALSE(result.graph.has_properties());
}

TEST(DeterministicKroneckerTest, RejectsExcessiveOrder) {
  EXPECT_THROW(deterministic_kronecker({{{true, true}, {true, true}}}, 13),
               CsbError);
  EXPECT_THROW(deterministic_kronecker({{{true, true}, {true, true}}}, 0),
               CsbError);
}

TEST(SbmTest, CommunityStructureRespectsMixing) {
  // Two blocks with strong diagonal mixing: most edges stay inside blocks.
  const std::vector<std::uint64_t> sizes = {50, 50};
  const std::vector<double> mixing = {0.9, 0.1, 0.1, 0.9};
  const auto graph = stochastic_block_model(sizes, mixing, 20'000, 3);
  EXPECT_EQ(graph.num_vertices(), 100u);
  EXPECT_EQ(graph.num_edges(), 20'000u);
  std::uint64_t intra = 0;
  const auto src = graph.sources();
  const auto dst = graph.destinations();
  for (std::size_t e = 0; e < src.size(); ++e) {
    if ((src[e] < 50) == (dst[e] < 50)) ++intra;
  }
  EXPECT_NEAR(static_cast<double>(intra) / 20'000.0, 0.9, 0.02);
}

TEST(SbmTest, EndpointsStayInChosenBlocks) {
  // Off-diagonal-only mixing: every edge crosses blocks.
  const std::vector<std::uint64_t> sizes = {10, 30};
  const std::vector<double> mixing = {0.0, 1.0, 0.0, 0.0};
  const auto graph = stochastic_block_model(sizes, mixing, 2'000, 4);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    EXPECT_LT(graph.edge_src(e), 10u);
    EXPECT_GE(graph.edge_dst(e), 10u);
  }
}

TEST(SbmTest, RejectsBadConfig) {
  const std::vector<std::uint64_t> sizes = {10, 10};
  EXPECT_THROW(
      stochastic_block_model(sizes, std::vector<double>{1.0}, 10, 1),
      CsbError);
  EXPECT_THROW(stochastic_block_model(std::vector<std::uint64_t>{},
                                      std::vector<double>{}, 10, 1),
               CsbError);
}

TEST(RmatTest, ProducesSkewedDegrees) {
  const auto graph = rmat(12, 40'000, RmatParams{}, 5);
  EXPECT_EQ(graph.num_vertices(), 1ULL << 12);
  EXPECT_EQ(graph.num_edges(), 40'000u);
  const auto degrees = total_degrees(graph);
  const std::uint64_t max_degree =
      *std::max_element(degrees.begin(), degrees.end());
  const double mean = 2.0 * 40'000.0 / static_cast<double>(1ULL << 12);
  // Graph500 parameters concentrate mass at low ids: a real hub exists.
  EXPECT_GT(static_cast<double>(max_degree), 20.0 * mean);
  // The hub lives in the dense (low-id) corner.
  const auto argmax = std::distance(
      degrees.begin(), std::max_element(degrees.begin(), degrees.end()));
  EXPECT_LT(argmax, 64);
}

TEST(RmatTest, DeterministicPerSeed) {
  const auto a = rmat(8, 1'000, RmatParams{}, 6);
  const auto b = rmat(8, 1'000, RmatParams{}, 6);
  EXPECT_EQ(a, b);
  const auto c = rmat(8, 1'000, RmatParams{}, 7);
  EXPECT_NE(a, c);
}

TEST(RmatTest, RejectsBadParams) {
  RmatParams bad;
  bad.a = 0.9;  // no longer sums to 1
  EXPECT_THROW(rmat(8, 100, bad, 1), CsbError);
  RmatParams noisy;
  noisy.noise = 1.5;
  EXPECT_THROW(rmat(8, 100, noisy, 1), CsbError);
  EXPECT_THROW(rmat(0, 100, RmatParams{}, 1), CsbError);
}

TEST(ChungLuTest, DegreesFollowWeights) {
  std::vector<double> weights(100, 1.0);
  weights[0] = 50.0;  // one heavy vertex
  const auto graph = chung_lu(weights, 20000, 11);
  const auto degrees = total_degrees(graph);
  const double expected_share = 50.0 / (99.0 + 50.0);
  const double observed_share =
      static_cast<double>(degrees[0]) / (2.0 * graph.num_edges());
  EXPECT_NEAR(observed_share, expected_share, 0.05);
}

// ---------------------------------------------------------- fast samplers

TEST(BernoulliLanesTest, LaneMeanMatchesProbability) {
  Rng rng(7);
  const std::uint64_t threshold = bernoulli_threshold(0.3);
  std::uint64_t ones = 0;
  constexpr int kTrials = 4000;
  for (int t = 0; t < kTrials; ++t) {
    ones += static_cast<std::uint64_t>(
        std::popcount(bernoulli_lanes(rng, threshold)));
  }
  EXPECT_NEAR(static_cast<double>(ones) / (64.0 * kTrials), 0.3, 0.01);
  EXPECT_EQ(bernoulli_lanes(rng, bernoulli_threshold(0.0)), 0u);
  EXPECT_EQ(bernoulli_lanes(rng, bernoulli_threshold(1.0)), ~0ULL);
}

TEST(ChungLuLevelsTest, CleanModelIsLevelUniform) {
  const Initiator initiator;  // default theta
  const ChungLuLevels levels = chung_lu_levels(initiator, 8, 0.0, 42);
  ASSERT_EQ(levels.src_threshold.size(), 8u);
  for (std::size_t l = 1; l < 8; ++l) {
    EXPECT_EQ(levels.src_threshold[l], levels.src_threshold[0]);
    EXPECT_EQ(levels.dst_threshold[l], levels.dst_threshold[0]);
  }
  // Default initiator row share (c+d)/sum = 0.6/2.0.
  const double p =
      static_cast<double>(levels.src_threshold[0] >> 11) * 0x1.0p-53;
  EXPECT_NEAR(p, 0.3, 1e-12);
}

TEST(ChungLuLevelsTest, NoiseVariesLevelsDeterministically) {
  const Initiator initiator;
  const ChungLuLevels a = chung_lu_levels(initiator, 12, 0.2, 42);
  const ChungLuLevels b = chung_lu_levels(initiator, 12, 0.2, 42);
  EXPECT_EQ(a.src_threshold, b.src_threshold);
  EXPECT_EQ(a.dst_threshold, b.dst_threshold);
  // With noise the per-level probabilities must actually differ.
  bool varies = false;
  for (std::size_t l = 1; l < 12; ++l) {
    varies |= a.src_threshold[l] != a.src_threshold[0];
  }
  EXPECT_TRUE(varies);
  EXPECT_THROW(chung_lu_levels(initiator, 4, 0.5, 1), CsbError);
}

TEST(BallDropTest, ByteIdenticalAcrossPoolSizes) {
  const ChungLuLevels levels = chung_lu_levels(Initiator{}, 12, 0.1, 9);
  const auto serial = chung_lu_ball_drop(levels, 50'000, 9, 1024, nullptr);
  ASSERT_EQ(serial.size(), 50'000u);
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(chung_lu_ball_drop(levels, 50'000, 9, 1024, &pool), serial)
        << threads << " threads";
  }
}

TEST(PgskFastTest, GeneratesApproximatelyDesiredSize) {
  const SeedBundle seed = small_seed(400);
  ClusterSim cluster(four_cores());
  PgskFastOptions options;
  options.desired_edges = 4000;
  options.with_properties = false;
  options.fit.gradient_iterations = 5;
  options.fit.swaps_per_iteration = 100;
  options.fit.burn_in_swaps = 200;
  const GenResult result =
      pgsk_fast_generate(seed.graph, seed.profile, cluster, options);
  EXPECT_GT(result.graph.num_edges(), options.desired_edges / 3);
  EXPECT_LT(result.graph.num_edges(), options.desired_edges * 3);
  EXPECT_TRUE(std::has_single_bit(result.graph.num_vertices()));
}

TEST(PgskFastTest, ByteIdenticalAcrossPoolSizes) {
  const SeedBundle seed = small_seed(400);
  PgskFastOptions options;
  options.desired_edges = 3000;
  options.fit.gradient_iterations = 4;
  options.fit.swaps_per_iteration = 100;
  options.fit.burn_in_swaps = 200;
  ClusterSim baseline_cluster(four_cores());
  const GenResult baseline =
      pgsk_fast_generate(seed.graph, seed.profile, baseline_cluster, options);
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ClusterSim cluster(four_cores(), pool);
    const GenResult result =
        pgsk_fast_generate(seed.graph, seed.profile, cluster, options);
    EXPECT_EQ(result.graph, baseline.graph) << threads << " threads";
  }
}

TEST(PgskFastTest, NoisyVariantIsDeterministicAndDistinct) {
  const SeedBundle seed = small_seed(400);
  PgskFastOptions options;
  options.desired_edges = 3000;
  options.with_properties = false;
  options.fit.gradient_iterations = 4;
  options.fit.swaps_per_iteration = 100;
  options.fit.burn_in_swaps = 200;
  ClusterSim c1(four_cores());
  const GenResult clean =
      pgsk_fast_generate(seed.graph, seed.profile, c1, options);
  options.noise = 0.15;
  ClusterSim c2(four_cores());
  ClusterSim c3(four_cores());
  const GenResult noisy_a =
      pgsk_fast_generate(seed.graph, seed.profile, c2, options);
  const GenResult noisy_b =
      pgsk_fast_generate(seed.graph, seed.profile, c3, options);
  EXPECT_EQ(noisy_a.graph, noisy_b.graph);
  EXPECT_NE(noisy_a.graph, clean.graph);
}

TEST(SkipAheadTest, DestinationsResolveToSeedDestinations) {
  const std::vector<VertexId> destinations = {1, 2};
  SkipAheadLayout layout;
  layout.seed_destinations = destinations;
  layout.seed_edges = 2;
  layout.first_new_vertex = 3;
  layout.edges_per_vertex = 1;
  for (std::uint64_t i = 2; i < 400; ++i) {
    const VertexId dst = skip_ahead_destination(layout, 5, i);
    // Every chain terminates in the seed destination table — the exact
    // PGPBA invariant that a new edge inherits an earlier edge's
    // destination, which is by induction a seed destination.
    EXPECT_TRUE(dst == 1 || dst == 2) << "edge " << i;
    // And twice more: the resolution is a pure function of (seed, index).
    EXPECT_EQ(skip_ahead_destination(layout, 5, i), dst);
  }
}

TEST(SkipAheadTest, AttachByteIdenticalAcrossPoolSizes) {
  const std::vector<VertexId> destinations = {1, 2, 0};
  SkipAheadLayout layout;
  layout.seed_destinations = destinations;
  layout.seed_edges = 3;
  layout.first_new_vertex = 3;
  layout.edges_per_vertex = 2;
  const auto serial = skip_ahead_attach(layout, 40'000, 13, 1024, nullptr);
  ASSERT_EQ(serial.size(), 40'000u - 3u);
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(skip_ahead_attach(layout, 40'000, 13, 1024, &pool), serial)
        << threads << " threads";
  }
}

TEST(PgpbaFastTest, ReachesExactDesiredSize) {
  const SeedBundle seed = small_seed();
  ClusterSim cluster(four_cores());
  PgpbaFastOptions options;
  options.desired_edges = 4 * seed.graph.num_edges();
  options.with_properties = false;
  const GenResult result =
      pgpba_fast_generate(seed.graph, seed.profile, cluster, options);
  EXPECT_EQ(result.graph.num_edges(), options.desired_edges);
  EXPECT_EQ(result.graph.num_vertices(),
            seed.graph.num_vertices() + 3 * seed.graph.num_edges());
}

TEST(PgpbaFastTest, EdgesPerVertexControlsVertexGrowth) {
  const SeedBundle seed = small_seed();
  ClusterSim cluster(four_cores());
  PgpbaFastOptions options;
  options.desired_edges = 4 * seed.graph.num_edges();
  options.edges_per_vertex = 4;
  options.with_properties = false;
  const GenResult result =
      pgpba_fast_generate(seed.graph, seed.profile, cluster, options);
  const std::uint64_t grown = 3 * seed.graph.num_edges();
  EXPECT_EQ(result.graph.num_vertices(),
            seed.graph.num_vertices() + (grown + 3) / 4);
}

TEST(PgpbaFastTest, ByteIdenticalAcrossPoolSizes) {
  const SeedBundle seed = small_seed(400);
  PgpbaFastOptions options;
  options.desired_edges = 3 * seed.graph.num_edges();
  ClusterSim baseline_cluster(four_cores());
  const GenResult baseline = pgpba_fast_generate(seed.graph, seed.profile,
                                                 baseline_cluster, options);
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ClusterSim cluster(four_cores(), pool);
    const GenResult result =
        pgpba_fast_generate(seed.graph, seed.profile, cluster, options);
    EXPECT_EQ(result.graph, baseline.graph) << threads << " threads";
  }
}

TEST(PgpbaFastTest, PreferentialAttachmentSkewsDegrees) {
  const SeedBundle seed = small_seed();
  ClusterSim cluster(four_cores());
  PgpbaFastOptions options;
  options.desired_edges = 8 * seed.graph.num_edges();
  options.with_properties = false;
  const GenResult result =
      pgpba_fast_generate(seed.graph, seed.profile, cluster, options);
  const auto degrees = in_degrees(result.graph);
  const double mean =
      static_cast<double>(result.graph.num_edges()) / degrees.size();
  const std::uint64_t max_degree =
      *std::max_element(degrees.begin(), degrees.end());
  EXPECT_GT(static_cast<double>(max_degree), 20.0 * mean);
}

TEST(FastSamplerRegistryTest, BothGeneratorsRegistered) {
  const Generator* pgsk_fast = find_generator("pgsk-fast");
  ASSERT_NE(pgsk_fast, nullptr);
  const auto pgsk_specs = pgsk_fast->options();
  const auto has_option = [](const std::vector<OptionSpec>& specs,
                             std::string_view name) {
    return std::find_if(specs.begin(), specs.end(), [&](const OptionSpec& s) {
             return s.name == name;
           }) != specs.end();
  };
  EXPECT_TRUE(has_option(pgsk_specs, "noise"));
  EXPECT_TRUE(has_option(pgsk_specs, "dedup"));
  const Generator* pgpba_fast = find_generator("pgpba-fast");
  ASSERT_NE(pgpba_fast, nullptr);
  EXPECT_TRUE(has_option(pgpba_fast->options(), "edges-per-vertex"));
}

}  // namespace
}  // namespace csb
