// Property-graph persistence.
//
// Three formats:
//   * binary  — compact column dump, round-trips everything; used to cache
//               seeds between benchmark runs.
//   * CSV     — "src,dst,protocol,src_port,dst_port,duration_ms,out_bytes,
//               in_bytes,out_pkts,in_pkts,state" rows, human-greppable.
//   * GraphML — export-only, loadable by Neo4j/Gephi/NetworkX; this is the
//               hand-off format for using generated datasets as an external
//               IDS benchmark input (the paper's motivating use case).
#pragma once

#include <iosfwd>
#include <string>

#include "graph/property_graph.hpp"

namespace csb {

void save_binary(const PropertyGraph& graph, std::ostream& out);
/// Reads a graph save_binary wrote. `in` must be seekable: the header's
/// edge count is checked against the bytes that follow before any column
/// is allocated. Malformed input throws CsbError("bad binary graph <name>:
/// byte <offset>: <reason>"); load_binary_file names the file.
PropertyGraph load_binary(std::istream& in,
                          const std::string& name = "<stream>");
void save_binary_file(const PropertyGraph& graph, const std::string& path);
PropertyGraph load_binary_file(const std::string& path);

void save_csv(const PropertyGraph& graph, std::ostream& out);
/// Reads a graph save_csv wrote. Malformed input (an empty stream, a
/// missing header, a row without 11 fields, a field that is not a number
/// or out of its column's range, an unknown protocol or state, property
/// rows mixed with structure-only rows) throws CsbError("bad csv graph
/// <name>: line <n>: <reason>").
PropertyGraph load_csv(std::istream& in, const std::string& name = "<stream>");

void save_graphml(const PropertyGraph& graph, std::ostream& out);

/// Parses GraphML produced by save_graphml (and similarly-shaped exports:
/// one <node> per vertex with ids "n<k>", <edge source target> with
/// optional <data key=...> attribute elements). Not a general XML parser —
/// element-per-concept, attribute order free, whitespace insensitive.
PropertyGraph load_graphml(std::istream& in);

}  // namespace csb
