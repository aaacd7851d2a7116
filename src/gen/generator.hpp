// Common types of the synthetic-data generators, and the name-keyed
// Generator registry every front end dispatches through (`csbgen generate
// --algo=NAME`, the registry tests, future bench sweeps).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/edge.hpp"
#include "graph/property_graph.hpp"
#include "mr/cluster.hpp"
#include "seed/seed.hpp"
#include "store/graph_store.hpp"

namespace csb {

/// Outcome of one generator run: the synthetic property-graph plus the
/// virtual-cluster cost breakdown the performance benches consume.
struct GenResult {
  PropertyGraph graph;
  JobMetrics metrics;             ///< whole job (structure + properties)
  double structure_seconds = 0.0;  ///< simulated time of the structure phase
  double property_seconds = 0.0;   ///< simulated time of the property phase
  std::uint64_t iterations = 0;    ///< growth iterations executed
};

/// Configuration shared by every registered generator, plus a string-keyed
/// extension map for per-algorithm knobs (the keys a generator understands
/// are published by Generator::options, which is what lets the CLI reject
/// unknown flags instead of silently ignoring them). The typed getters
/// parse strictly: a malformed value throws CsbError naming the key and
/// the offending text.
struct GenConfig {
  std::uint64_t desired_edges = 0;
  std::size_t partitions = 0;  ///< 0 = auto (2x the virtual cores)
  std::uint64_t seed = 1;
  bool with_properties = true;
  std::map<std::string, std::string> extra;

  [[nodiscard]] bool has(const std::string& key) const {
    return extra.contains(key);
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// True when the key is present with any value except "false"/"0".
  [[nodiscard]] bool get_flag(const std::string& key) const;
};

/// Value kinds a per-algorithm option can take; the CLI validates raw text
/// against the kind via check_option_value before any work runs.
enum class OptionKind {
  kU64,     ///< unsigned integer (GenConfig::get_u64)
  kDouble,  ///< finite floating point (GenConfig::get_double)
  kFlag,    ///< presence/boolean (GenConfig::get_flag)
  kString,  ///< free text (GenConfig::get)
};

/// Typed descriptor of one GenConfig::extra key: what `csbgen generators`
/// prints as per-algorithm help, and what the CLI validates values against.
struct OptionSpec {
  std::string name;
  OptionKind kind = OptionKind::kString;
  /// Display-only default ("" when derived at runtime / unset).
  std::string default_value;
  std::string help;  ///< one line
};

/// Validates `value` against the spec's kind with the same strict parse the
/// GenConfig getters use; throws CsbError naming the key on mismatch.
void check_option_value(const OptionSpec& spec, const std::string& value);

/// Checks every GenConfig::extra entry against `options`: unknown keys and
/// kind-mismatched values throw CsbError before any generation work runs.
void validate_extra_options(const std::vector<OptionSpec>& options,
                            const GenConfig& config);

/// Stats of a Generator::generate_into run: the graph itself went to the
/// GraphStore, so only dimensions and cost booking remain.
struct StoreGenResult {
  JobMetrics metrics;
  double structure_seconds = 0.0;
  double property_seconds = 0.0;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t iterations = 0;
};

/// Polymorphic generator interface: one implementation per algorithm
/// (PGPBA, PGSK, the §II baselines). Implementations must be deterministic
/// for a fixed (seed graph, profile, config) — asserted by the registry
/// test — and run all booked work through the supplied ClusterSim so
/// metrics and trace spans attribute correctly.
class Generator {
 public:
  virtual ~Generator() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::string_view description() const = 0;

  /// Typed descriptors of the GenConfig::extra keys this generator
  /// understands, in display order.
  [[nodiscard]] virtual std::vector<OptionSpec> options() const { return {}; }

  /// The one generation path: emits the graph into `store` (begin, then
  /// offset-addressed put_edges / put_properties chunks, then finish). The
  /// stored bytes depend only on (seed graph, profile, config), never on
  /// the store backend, its shard count or the pool size.
  [[nodiscard]] virtual StoreGenResult generate_into(
      const PropertyGraph& seed, const SeedProfile& profile,
      ClusterSim& cluster, const GenConfig& config,
      GraphStore& store) const = 0;

  /// In-RAM run: generate_into captured by a MemoryStore.
  [[nodiscard]] GenResult generate(const PropertyGraph& seed,
                                   const SeedProfile& profile,
                                   ClusterSim& cluster,
                                   const GenConfig& config) const;
};

/// Runs `emit` (a generate_into body) against a MemoryStore and returns
/// the captured graph with the run's cost booking. The only in-RAM
/// producer: Generator::generate and the per-algorithm *_generate free
/// functions are this over their streaming pipelines.
[[nodiscard]] GenResult generate_in_memory(
    const std::function<StoreGenResult(GraphStore&)>& emit);

/// Adds a generator to the process-wide registry; replaces an existing
/// entry with the same name. Builtins are registered on first lookup.
void register_generator(std::unique_ptr<Generator> generator);

/// Name lookup; nullptr when absent.
[[nodiscard]] const Generator* find_generator(std::string_view name);

/// Name lookup that throws CsbError listing the registered names.
[[nodiscard]] const Generator& require_generator(std::string_view name);

/// Every registered generator, in registration order.
[[nodiscard]] std::vector<const Generator*> all_generators();

}  // namespace csb
