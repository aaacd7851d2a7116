#include "gen/generator.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <functional>
#include <span>
#include <utility>

#include "gen/baselines.hpp"
#include "gen/fast_samplers.hpp"
#include "gen/pgpba.hpp"
#include "gen/pgsk.hpp"
#include "gen/sink_stages.hpp"
#include "graph/algorithms.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace csb {

namespace {

std::uint64_t parse_u64_strict(const std::string& key,
                               const std::string& text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  CSB_CHECK_MSG(ec == std::errc{} && ptr == text.data() + text.size(),
                "option '" << key << "': '" << text
                           << "' is not an unsigned integer");
  return value;
}

double parse_double_strict(const std::string& key, const std::string& text) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  CSB_CHECK_MSG(ec == std::errc{} && ptr == text.data() + text.size() &&
                    std::isfinite(value),
                "option '" << key << "': '" << text
                           << "' is not a finite number");
  return value;
}

}  // namespace

std::string GenConfig::get(const std::string& key,
                           const std::string& fallback) const {
  const auto it = extra.find(key);
  return it == extra.end() ? fallback : it->second;
}

std::uint64_t GenConfig::get_u64(const std::string& key,
                                 std::uint64_t fallback) const {
  const auto it = extra.find(key);
  return it == extra.end() ? fallback : parse_u64_strict(key, it->second);
}

double GenConfig::get_double(const std::string& key, double fallback) const {
  const auto it = extra.find(key);
  return it == extra.end() ? fallback : parse_double_strict(key, it->second);
}

bool GenConfig::get_flag(const std::string& key) const {
  const auto it = extra.find(key);
  return it != extra.end() && it->second != "false" && it->second != "0";
}

void check_option_value(const OptionSpec& spec, const std::string& value) {
  switch (spec.kind) {
    case OptionKind::kU64:
      (void)parse_u64_strict(spec.name, value);
      break;
    case OptionKind::kDouble:
      (void)parse_double_strict(spec.name, value);
      break;
    case OptionKind::kFlag:
    case OptionKind::kString:
      break;  // any text is meaningful
  }
}

void validate_extra_options(const std::vector<OptionSpec>& options,
                            const GenConfig& config) {
  for (const auto& [key, value] : config.extra) {
    const auto it =
        std::find_if(options.begin(), options.end(),
                     [&key](const OptionSpec& s) { return s.name == key; });
    if (it == options.end()) {
      std::string known;
      for (const OptionSpec& spec : options) {
        if (!known.empty()) known += ", ";
        known += spec.name;
      }
      throw CsbError("unknown option '" + key + "'" +
                     (known.empty() ? std::string(" (this generator takes none)")
                                    : " (known options: " + known + ")"));
    }
    check_option_value(*it, value);
  }
}

GenResult generate_in_memory(
    const std::function<StoreGenResult(GraphStore&)>& emit) {
  MemoryStore store;
  const StoreGenResult streamed = emit(store);
  GenResult result;
  result.graph = store.take_graph();
  result.metrics = streamed.metrics;
  result.structure_seconds = streamed.structure_seconds;
  result.property_seconds = streamed.property_seconds;
  result.iterations = streamed.iterations;
  return result;
}

GenResult Generator::generate(const PropertyGraph& seed,
                              const SeedProfile& profile, ClusterSim& cluster,
                              const GenConfig& config) const {
  return generate_in_memory([&](GraphStore& store) {
    return generate_into(seed, profile, cluster, config, store);
  });
}

namespace {

/// Target vertex count for baselines that size themselves from the seed:
/// keep the seed's edge/vertex density at the desired edge count.
std::uint64_t derived_vertices(const PropertyGraph& seed,
                               std::uint64_t desired_edges) {
  const double ratio =
      seed.num_edges() > 0 ? static_cast<double>(seed.num_vertices()) /
                                 static_cast<double>(seed.num_edges())
                           : 1.0;
  return std::max<std::uint64_t>(
      2, static_cast<std::uint64_t>(
             std::llround(ratio * static_cast<double>(desired_edges))));
}

/// Runs a driver-serial baseline under the cluster (so it books as one
/// "generate" serial segment), then streams the built edge columns into
/// the store and optionally samples properties — the shape shared by every
/// §II reference generator.
StoreGenResult run_serial_baseline(
    ClusterSim& cluster, const SeedProfile& profile, const GenConfig& config,
    GraphStore& store, const std::function<PropertyGraph()>& build) {
  cluster.reset_metrics();
  TraceRecorder* const trace = cluster.trace();
  PropertyGraph graph;
  {
    PhaseScope phase(trace, "generate");
    cluster.run_serial("generate", [&] { graph = build(); });
  }
  const std::uint64_t edges = graph.num_edges();
  {
    PhaseScope phase(trace, "store");
    cluster.run_serial("store:begin", [&] {
      store.begin(StoreHeader{.vertices = graph.num_vertices(),
                              .edges = edges,
                              .with_properties = config.with_properties,
                              .seed = config.seed});
    });
    emit_columns_into(graph.sources(), graph.destinations(), store, cluster);
  }
  StoreGenResult result;
  result.structure_seconds = cluster.metrics().simulated_seconds;
  if (config.with_properties) {
    PhaseScope phase(trace, "properties");
    run_property_stage(store, profile, cluster, config.seed ^ 0xfacadeULL,
                       edges);
    result.property_seconds =
        cluster.metrics().simulated_seconds - result.structure_seconds;
  }
  {
    PhaseScope phase(trace, "store");
    cluster.run_serial("store:finalize", [&] { store.finish(); });
  }
  result.metrics = cluster.metrics();
  result.vertices = graph.num_vertices();
  result.edges = edges;
  return result;
}

class PgpbaGenerator final : public Generator {
 public:
  [[nodiscard]] std::string_view name() const override { return "pgpba"; }
  [[nodiscard]] std::string_view description() const override {
    return "parallel Barabasi-Albert on the property graph (paper SIII-A)";
  }
  [[nodiscard]] std::vector<OptionSpec> options() const override {
    return {
        {"fraction", OptionKind::kDouble, "0.5",
         "new vertices per iteration as a ratio of current edges"},
        {"degree-mode", OptionKind::kFlag, "",
         "attach by degree sampling instead of Spark-parity edge copy"},
    };
  }
  [[nodiscard]] StoreGenResult generate_into(const PropertyGraph& seed,
                                             const SeedProfile& profile,
                                             ClusterSim& cluster,
                                             const GenConfig& config,
                                             GraphStore& store) const override {
    PgpbaOptions options;
    options.desired_edges = config.desired_edges;
    options.fraction = config.get_double("fraction", 0.5);
    options.partitions = config.partitions;
    options.seed = config.seed;
    options.with_properties = config.with_properties;
    if (config.get_flag("degree-mode")) {
      options.mode = PgpbaAttachMode::kDegreeSampling;
    }
    return pgpba_generate_into(seed, profile, cluster, options, store);
  }
};

/// The KronFit budget knobs shared by the exact and fast PGSK generators,
/// so benches can race them through the registry with identical fit work.
std::vector<OptionSpec> kronfit_option_specs() {
  const KronFitOptions defaults;
  return {
      {"fit-iters", OptionKind::kU64,
       std::to_string(defaults.gradient_iterations),
       "KronFit gradient iterations"},
      {"fit-swaps", OptionKind::kU64,
       std::to_string(defaults.swaps_per_iteration),
       "Metropolis node-swap proposals per gradient step"},
      {"fit-burnin", OptionKind::kU64,
       std::to_string(defaults.burn_in_swaps),
       "warm-up swaps before the first gradient step"},
  };
}

KronFitOptions kronfit_options_from(const GenConfig& config) {
  KronFitOptions fit;
  fit.gradient_iterations = static_cast<std::uint32_t>(
      config.get_u64("fit-iters", fit.gradient_iterations));
  fit.swaps_per_iteration = static_cast<std::uint32_t>(
      config.get_u64("fit-swaps", fit.swaps_per_iteration));
  fit.burn_in_swaps = static_cast<std::uint32_t>(
      config.get_u64("fit-burnin", fit.burn_in_swaps));
  return fit;
}

class PgskGenerator final : public Generator {
 public:
  [[nodiscard]] std::string_view name() const override { return "pgsk"; }
  [[nodiscard]] std::string_view description() const override {
    return "stochastic Kronecker with KronFit initiator (paper SIII-B)";
  }
  [[nodiscard]] std::vector<OptionSpec> options() const override {
    std::vector<OptionSpec> specs{
        {"force-k", OptionKind::kU64, "0",
         "force the Kronecker order (0 = derive from target size)"},
        {"no-rescale", OptionKind::kFlag, "",
         "skip rescaling the initiator to the target edge count"},
        {"dedup-budget-mb", OptionKind::kU64, "256",
         "in-RAM budget for the expand distinct before spilling runs"},
        {"dedup-spill-dir", OptionKind::kString, "",
         "directory for spilled distinct runs (needed above the budget)"},
    };
    const auto fit = kronfit_option_specs();
    specs.insert(specs.end(), fit.begin(), fit.end());
    return specs;
  }
  [[nodiscard]] StoreGenResult generate_into(const PropertyGraph& seed,
                                             const SeedProfile& profile,
                                             ClusterSim& cluster,
                                             const GenConfig& config,
                                             GraphStore& store) const override {
    PgskOptions options;
    options.desired_edges = config.desired_edges;
    options.force_k =
        static_cast<std::uint32_t>(config.get_u64("force-k", 0));
    options.partitions = config.partitions;
    options.seed = config.seed;
    options.with_properties = config.with_properties;
    options.rescale_to_target = !config.get_flag("no-rescale");
    options.fit = kronfit_options_from(config);
    options.dedup_budget_bytes = config.get_u64("dedup-budget-mb", 256) << 20;
    options.spill_directory = config.get("dedup-spill-dir", "");
    return pgsk_generate_into(seed, profile, cluster, options, store);
  }
};

class PgskFastGenerator final : public Generator {
 public:
  [[nodiscard]] std::string_view name() const override { return "pgsk-fast"; }
  [[nodiscard]] std::string_view description() const override {
    return "Chung-Lu ball-dropping approximation of PGSK (O(1) per edge)";
  }
  [[nodiscard]] std::vector<OptionSpec> options() const override {
    std::vector<OptionSpec> specs{
        {"force-k", OptionKind::kU64, "0",
         "force the Kronecker order (0 = derive from target size)"},
        {"no-rescale", OptionKind::kFlag, "",
         "skip rescaling the initiator to the target edge count"},
        {"noise", OptionKind::kDouble, "0",
         "noisy-SKG per-level amplitude in [0, 0.5)"},
        {"dedup", OptionKind::kFlag, "",
         "drop duplicate edges via external-sort distinct"},
        {"dedup-budget-mb", OptionKind::kU64, "256",
         "in-RAM budget for the dedup distinct before spilling runs"},
        {"dedup-spill-dir", OptionKind::kString, "",
         "directory for spilled dedup runs (needed above the budget)"},
    };
    const auto fit = kronfit_option_specs();
    specs.insert(specs.end(), fit.begin(), fit.end());
    return specs;
  }
  [[nodiscard]] StoreGenResult generate_into(const PropertyGraph& seed,
                                             const SeedProfile& profile,
                                             ClusterSim& cluster,
                                             const GenConfig& config,
                                             GraphStore& store) const override {
    PgskFastOptions options;
    options.desired_edges = config.desired_edges;
    options.force_k =
        static_cast<std::uint32_t>(config.get_u64("force-k", 0));
    options.partitions = config.partitions;
    options.seed = config.seed;
    options.with_properties = config.with_properties;
    options.rescale_to_target = !config.get_flag("no-rescale");
    options.noise = config.get_double("noise", 0.0);
    options.fit = kronfit_options_from(config);
    options.dedup = config.get_flag("dedup");
    options.dedup_budget_bytes = config.get_u64("dedup-budget-mb", 256) << 20;
    options.spill_directory = config.get("dedup-spill-dir", "");
    return pgsk_fast_generate_into(seed, profile, cluster, options, store);
  }
};

class PgpbaFastGenerator final : public Generator {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "pgpba-fast";
  }
  [[nodiscard]] std::string_view description() const override {
    return "skip-ahead preferential attachment (hash-resolved endpoints)";
  }
  [[nodiscard]] std::vector<OptionSpec> options() const override {
    return {
        {"edges-per-vertex", OptionKind::kU64, "1",
         "edges attached per grown vertex (Barabasi-Albert m)"},
    };
  }
  [[nodiscard]] StoreGenResult generate_into(const PropertyGraph& seed,
                                             const SeedProfile& profile,
                                             ClusterSim& cluster,
                                             const GenConfig& config,
                                             GraphStore& store) const override {
    PgpbaFastOptions options;
    options.desired_edges = config.desired_edges;
    options.edges_per_vertex = static_cast<std::uint32_t>(
        config.get_u64("edges-per-vertex", 1));
    options.partitions = config.partitions;
    options.seed = config.seed;
    options.with_properties = config.with_properties;
    return pgpba_fast_generate_into(seed, profile, cluster, options, store);
  }
};

class RmatGenerator final : public Generator {
 public:
  [[nodiscard]] std::string_view name() const override { return "rmat"; }
  [[nodiscard]] std::string_view description() const override {
    return "R-MAT recursive-matrix baseline (SII reference)";
  }
  [[nodiscard]] std::vector<OptionSpec> options() const override {
    const RmatParams defaults;
    return {
        {"scale", OptionKind::kU64, "",
         "log2 of the vertex count (default derived from the seed density)"},
        {"rmat-a", OptionKind::kDouble, std::to_string(defaults.a),
         "recursive-matrix quadrant probability a"},
        {"rmat-b", OptionKind::kDouble, std::to_string(defaults.b),
         "recursive-matrix quadrant probability b"},
        {"rmat-c", OptionKind::kDouble, std::to_string(defaults.c),
         "recursive-matrix quadrant probability c"},
        {"rmat-noise", OptionKind::kDouble, std::to_string(defaults.noise),
         "per-level multiplicative jitter on (a,b,c,d)"},
    };
  }
  [[nodiscard]] StoreGenResult generate_into(const PropertyGraph& seed,
                                             const SeedProfile& profile,
                                             ClusterSim& cluster,
                                             const GenConfig& config,
                                             GraphStore& store) const override {
    const std::uint64_t vertices =
        derived_vertices(seed, config.desired_edges);
    const auto scale = static_cast<std::uint32_t>(config.get_u64(
        "scale", std::max<std::uint64_t>(1, std::bit_width(vertices - 1))));
    RmatParams params;
    params.a = config.get_double("rmat-a", params.a);
    params.b = config.get_double("rmat-b", params.b);
    params.c = config.get_double("rmat-c", params.c);
    params.d = std::max(0.0, 1.0 - params.a - params.b - params.c);
    params.noise = config.get_double("rmat-noise", params.noise);
    return run_serial_baseline(
        cluster, profile, config, store, [&] {
          return rmat(scale, config.desired_edges, params, config.seed);
        });
  }
};

class ClassicBaGenerator final : public Generator {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "classic-ba";
  }
  [[nodiscard]] std::string_view description() const override {
    return "sequential Barabasi-Albert baseline (SII reference)";
  }
  [[nodiscard]] std::vector<OptionSpec> options() const override {
    return {
        {"attach-m", OptionKind::kU64, "",
         "edges per new vertex (default derived from the seed density)"},
    };
  }
  [[nodiscard]] StoreGenResult generate_into(const PropertyGraph& seed,
                                             const SeedProfile& profile,
                                             ClusterSim& cluster,
                                             const GenConfig& config,
                                             GraphStore& store) const override {
    // Edges per new vertex from the seed's density; vertices sized so
    // vertices x m reaches the desired edge count.
    const double density =
        seed.num_vertices() > 0 ? static_cast<double>(seed.num_edges()) /
                                      static_cast<double>(seed.num_vertices())
                                : 1.0;
    const auto m = static_cast<std::uint32_t>(config.get_u64(
        "attach-m",
        std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::llround(density)))));
    const std::uint64_t vertices =
        std::max<std::uint64_t>(m + 1, config.desired_edges / m);
    return run_serial_baseline(
        cluster, profile, config, store, [&] {
          return classic_barabasi_albert(vertices, m, config.seed);
        });
  }
};

class ErdosRenyiGenerator final : public Generator {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "erdos-renyi";
  }
  [[nodiscard]] std::string_view description() const override {
    return "Erdos-Renyi G(n, m) baseline (SII reference)";
  }
  [[nodiscard]] std::vector<OptionSpec> options() const override {
    return {
        {"vertices", OptionKind::kU64, "",
         "vertex count n of G(n, m) (default derived from the seed density)"},
    };
  }
  [[nodiscard]] StoreGenResult generate_into(const PropertyGraph& seed,
                                             const SeedProfile& profile,
                                             ClusterSim& cluster,
                                             const GenConfig& config,
                                             GraphStore& store) const override {
    const std::uint64_t vertices = config.get_u64(
        "vertices", derived_vertices(seed, config.desired_edges));
    return run_serial_baseline(
        cluster, profile, config, store, [&] {
          return erdos_renyi_gnm(vertices, config.desired_edges, config.seed);
        });
  }
};

class ChungLuGenerator final : public Generator {
 public:
  [[nodiscard]] std::string_view name() const override { return "chung-lu"; }
  [[nodiscard]] std::string_view description() const override {
    return "Chung-Lu expected-degree baseline seeded by the seed's degrees";
  }
  [[nodiscard]] StoreGenResult generate_into(const PropertyGraph& seed,
                                             const SeedProfile& profile,
                                             ClusterSim& cluster,
                                             const GenConfig& config,
                                             GraphStore& store) const override {
    const auto degrees = total_degrees(seed);
    std::vector<double> weights(degrees.begin(), degrees.end());
    return run_serial_baseline(
        cluster, profile, config, store, [&] {
          return chung_lu(weights, config.desired_edges, config.seed);
        });
  }
};

class SbmGenerator final : public Generator {
 public:
  [[nodiscard]] std::string_view name() const override { return "sbm"; }
  [[nodiscard]] std::string_view description() const override {
    return "stochastic block model baseline (SII community reference)";
  }
  [[nodiscard]] std::vector<OptionSpec> options() const override {
    return {
        {"blocks", OptionKind::kU64, "4", "number of communities"},
        {"intra", OptionKind::kDouble, "0.8",
         "relative edge propensity within a community"},
        {"inter", OptionKind::kDouble, "0.05",
         "relative edge propensity across communities"},
    };
  }
  [[nodiscard]] StoreGenResult generate_into(const PropertyGraph& seed,
                                             const SeedProfile& profile,
                                             ClusterSim& cluster,
                                             const GenConfig& config,
                                             GraphStore& store) const override {
    const std::uint64_t blocks =
        std::max<std::uint64_t>(1, config.get_u64("blocks", 4));
    const double intra = config.get_double("intra", 0.8);
    const double inter = config.get_double("inter", 0.05);
    const std::uint64_t vertices = std::max(
        blocks, derived_vertices(seed, config.desired_edges));
    std::vector<std::uint64_t> sizes(blocks, vertices / blocks);
    sizes[0] += vertices % blocks;
    std::vector<double> mixing(blocks * blocks, inter);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      mixing[b * blocks + b] = intra;
    }
    return run_serial_baseline(
        cluster, profile, config, store, [&] {
          return stochastic_block_model(sizes, mixing, config.desired_edges,
                                        config.seed);
        });
  }
};

/// The builtins in lookup order. Function-local statics are built on first
/// use, so no static-init order question arises, and the table never
/// changes after that.
std::span<const Generator* const> builtin_generators() {
  static const PgpbaGenerator pgpba;
  static const PgskGenerator pgsk;
  static const PgpbaFastGenerator pgpba_fast;
  static const PgskFastGenerator pgsk_fast;
  static const RmatGenerator rmat;
  static const ClassicBaGenerator classic_ba;
  static const ErdosRenyiGenerator erdos_renyi;
  static const ChungLuGenerator chung_lu;
  static const SbmGenerator sbm;
  static const Generator* const table[] = {
      &pgpba, &pgsk, &pgpba_fast, &pgsk_fast, &rmat,
      &classic_ba, &erdos_renyi, &chung_lu, &sbm};
  return table;
}

}  // namespace

const Generator* find_generator(std::string_view name) {
  for (const Generator* generator : builtin_generators()) {
    if (generator->name() == name) return generator;
  }
  return nullptr;
}

const Generator& require_generator(std::string_view name) {
  if (const Generator* generator = find_generator(name)) return *generator;
  std::string available;
  for (const Generator* generator : all_generators()) {
    if (!available.empty()) available += ", ";
    available += generator->name();
  }
  throw CsbError("unknown generator '" + std::string(name) +
                 "' (registered: " + available + ")");
}

std::vector<const Generator*> all_generators() {
  const auto table = builtin_generators();
  return {table.begin(), table.end()};
}

}  // namespace csb
