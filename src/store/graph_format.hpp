// GraphFormat — the name-keyed output/input format registry, mirroring the
// Generator registry (src/gen/generator.hpp). csbgen reads and writes
// graphs only through it: --out-format=NAME resolves through
// require_graph_format, so an unknown name fails up front listing what is
// registered, and graph inputs through graph_format_for_path. Builtins:
// binary, csv, graphml, shards.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "graph/property_graph.hpp"

namespace csb {

class GraphFormat {
 public:
  virtual ~GraphFormat() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::string_view description() const = 0;
  /// True when `path` names a directory (shards), false for a single file.
  [[nodiscard]] virtual bool is_directory_format() const { return false; }

  /// Throws CsbError("cannot write <kind> <path>: ...") on a failed write.
  virtual void save(const PropertyGraph& graph,
                    const std::string& path) const = 0;
  /// Malformed input throws CsbError naming the file.
  [[nodiscard]] virtual PropertyGraph load(const std::string& path) const = 0;
};

/// Name lookup; nullptr when absent.
[[nodiscard]] const GraphFormat* find_graph_format(std::string_view name);

/// Name lookup that throws CsbError listing the registered names.
[[nodiscard]] const GraphFormat& require_graph_format(std::string_view name);

/// The format of the graph at `path`: shards for a directory, else the
/// format its extension names (".csv", ".graphml"), else binary.
[[nodiscard]] const GraphFormat& graph_format_for_path(const std::string& path);

/// Every builtin format, in lookup order.
[[nodiscard]] std::span<const GraphFormat* const> all_graph_formats();

}  // namespace csb
