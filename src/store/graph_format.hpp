// GraphFormat — the name-keyed output/input format registry, mirroring the
// Generator registry (src/gen/generator.hpp): `csbgen generate
// --out-format=NAME` dispatches through require_graph_format, so an unknown
// name fails up front listing what is registered instead of silently
// defaulting. Builtins: binary, csv, graphml, shards.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "graph/property_graph.hpp"

namespace csb {

class GraphFormat {
 public:
  virtual ~GraphFormat() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::string_view description() const = 0;
  /// True when `path` names a directory (shards), false for a single file.
  [[nodiscard]] virtual bool is_directory_format() const { return false; }

  virtual void save(const PropertyGraph& graph,
                    const std::string& path) const = 0;
  /// Throws CsbError for export-only formats.
  [[nodiscard]] virtual PropertyGraph load(const std::string& path) const = 0;
};

/// Name lookup; nullptr when absent.
[[nodiscard]] const GraphFormat* find_graph_format(std::string_view name);

/// Name lookup that throws CsbError listing the registered names.
[[nodiscard]] const GraphFormat& require_graph_format(std::string_view name);

/// Every builtin format, in table order.
[[nodiscard]] std::vector<const GraphFormat*> all_graph_formats();

}  // namespace csb
