// Property-graph persistence.
//
// Three formats:
//   * binary  — compact column dump, round-trips everything; used to cache
//               seeds between benchmark runs.
//   * CSV     — "src,dst,<netflow columns>" rows, human-greppable.
//   * GraphML — loadable by Neo4j/Gephi/NetworkX; this is the hand-off
//               format for using generated datasets as an external IDS
//               benchmark input (the paper's motivating use case).
// The text formats walk the NetFlow column schema (zip_netflow_columns):
// its names are the CSV header and the GraphML keys. Each reader rejects
// malformed input with CsbError("bad <kind> <name>: byte|line <n>: ...").
#pragma once

#include <iosfwd>
#include <string>

#include "graph/property_graph.hpp"

namespace csb {

void save_binary(const PropertyGraph& graph, std::ostream& out);
/// Reads a graph save_binary wrote. `in` must be seekable: the header's
/// edge count is checked against the bytes that follow before any column
/// is allocated.
PropertyGraph load_binary(std::istream& in,
                          const std::string& name = "<stream>");
void save_binary_file(const PropertyGraph& graph, const std::string& path);
PropertyGraph load_binary_file(const std::string& path);

void save_csv(const PropertyGraph& graph, std::ostream& out);
/// Reads a graph save_csv wrote; a row's fields are all present, or all
/// empty after src,dst, in every row.
PropertyGraph load_csv(std::istream& in, const std::string& name = "<stream>");

void save_graphml(const PropertyGraph& graph, std::ostream& out);
/// Parses GraphML produced by save_graphml (and similarly-shaped exports:
/// one <node> per vertex with ids "n<k>", <edge source target> with
/// optional <data key=...> attribute elements; keys outside the schema are
/// ignored). Not a general XML parser — element-per-concept, attribute
/// order free, whitespace insensitive.
PropertyGraph load_graphml(std::istream& in,
                           const std::string& name = "<stream>");

}  // namespace csb
