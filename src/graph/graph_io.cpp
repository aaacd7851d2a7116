#include "graph/graph_io.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <type_traits>
#include <vector>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/input_reader.hpp"

namespace csb {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'B', 'G'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename Column>
void write_column(std::ostream& out, const Column& column) {
  out.write(reinterpret_cast<const char*>(column.data()),
            static_cast<std::streamsize>(column.size() * sizeof(column[0])));
}

/// Fills every row of the pre-sized `column` straight from the stream.
template <typename Column>
void read_column(InputReader& in, Column& column) {
  using T = typename Column::value_type;
  in.read_bytes(column.data(), column.size() * sizeof(T));
}

/// Fails at the byte of the first value in `column` (read from byte `at`)
/// that `valid` rejects, naming the value after `what`.
template <typename Column, typename Valid>
void check_column(const InputReader& in, const Column& column,
                  std::uint64_t at, Valid valid, const std::string& what) {
  const auto bad = std::find_if_not(column.begin(), column.end(), valid);
  if (bad != column.end()) {
    in.fail(at + sizeof(*bad) * static_cast<std::uint64_t>(
                                    bad - column.begin()),
            what + ": " + std::to_string(static_cast<std::uint64_t>(*bad)));
  }
}

bool known_protocol(Protocol p) {
  return p == Protocol::kIcmp || p == Protocol::kTcp || p == Protocol::kUdp;
}

bool known_state(ConnState s) {
  return static_cast<std::uint8_t>(s) <=
         static_cast<std::uint8_t>(ConnState::kOth);
}

}  // namespace

void save_binary(const PropertyGraph& graph, std::ostream& out) {
  out.write(kMagic, sizeof kMagic);
  write_pod(out, kVersion);
  write_pod(out, graph.num_vertices());
  write_pod(out, graph.num_edges());
  const std::uint8_t has_props = graph.has_properties() ? 1 : 0;
  write_pod(out, has_props);
  write_column(out, graph.sources());
  write_column(out, graph.destinations());
  graph.properties().for_each_column(
      [&out](const auto& column) { write_column(out, column); });
  CSB_CHECK_MSG(out.good(), "failed writing binary graph stream");
}

PropertyGraph load_binary(std::istream& stream, const std::string& name) {
  InputReader in(stream, "binary graph", name);
  const auto magic = in.read_pod<std::array<char, 4>>();
  if (!std::equal(magic.begin(), magic.end(), kMagic)) {
    in.fail(0, "not a csb binary graph (bad magic)");
  }
  const auto version = in.read_pod<std::uint32_t>();
  if (version != kVersion) {
    in.fail(4, "unsupported version " + std::to_string(version));
  }
  const auto vertices = in.read_pod<std::uint64_t>();
  const auto edges = in.read_pod<std::uint64_t>();
  const auto has_props = in.read_pod<std::uint8_t>();
  if (vertices > (1ULL << 44)) {
    in.fail(8, "implausible vertex count " + std::to_string(vertices));
  }
  if (has_props > 1) {
    in.fail(24, "property flag " + std::to_string(has_props) +
                    " is neither 0 nor 1");
  }
  // The columns must fill the rest of the input exactly. Checking this
  // before allocating keeps one corrupted edge count from zero-filling
  // gigabytes of columns that the first read would then reject.
  const std::uint64_t row = PropertyGraph::bytes_per_edge(has_props != 0);
  const std::uint64_t columns_at = in.offset();
  const std::uint64_t remaining = in.remaining();
  if (remaining % row != 0 || remaining / row != edges) {
    const bool truncated = edges > remaining / row;
    in.fail(columns_at + (truncated ? remaining : edges * row),
            std::string(truncated ? "truncated" : "trailing bytes") +
                ": the header's " + std::to_string(edges) + " edges need " +
                std::to_string(row) + " bytes each, but " +
                std::to_string(remaining) + " bytes follow the header");
  }

  std::vector<VertexId> src(edges);
  std::vector<VertexId> dst(edges);
  read_column(in, src);
  read_column(in, dst);
  const auto vertex = [vertices](VertexId v) { return v < vertices; };
  const std::string outside =
      " outside the " + std::to_string(vertices) + " vertices";
  check_column(in, src, columns_at, vertex, "edge source" + outside);
  check_column(in, dst, columns_at + sizeof(VertexId) * edges, vertex,
               "edge destination" + outside);
  PropertyColumns props;
  if (has_props) {
    props.resize_for_overwrite(edges);
    props.for_each_column([&in](auto& column) {
      const std::uint64_t at = in.offset();
      read_column(in, column);
      // The enums' byte values, like the CSV reader's names, must be known.
      using T = typename std::decay_t<decltype(column)>::value_type;
      if constexpr (std::is_same_v<T, Protocol>) {
        check_column(in, column, at, known_protocol, "unknown protocol byte");
      } else if constexpr (std::is_same_v<T, ConnState>) {
        check_column(in, column, at, known_state, "unknown conn state byte");
      }
    });
  }
  PropertyGraph graph = PropertyGraph::from_columns_unchecked(
      vertices, std::move(src), std::move(dst));
  if (has_props) graph.attach_properties(std::move(props));
  return graph;
}

void save_binary_file(const PropertyGraph& graph, const std::string& path) {
  std::ofstream out = open_output("binary graph", path);
  save_binary(graph, out);
  close_output(out, "binary graph", path);
}

PropertyGraph load_binary_file(const std::string& path) {
  std::ifstream in = open_input("binary graph", path);
  return load_binary(in, path);
}

namespace {

/// A column value as the text formats write it: enums by name, integers in
/// decimal.
template <typename T>
auto text_of(T value) {
  if constexpr (std::is_enum_v<T>) {
    return to_string(value);
  } else {
    return value;
  }
}

/// The inverse of text_of for the column `field`: a name of its enum,
/// or a decimal no larger than its type's maximum. Anything else throws
/// CsbError naming the value (and the column, for integers).
template <typename T>
T parse_text(NetflowField<T> field, const std::string& text) {
  if constexpr (std::is_same_v<T, Protocol>) {
    return protocol_from_string(text);
  } else if constexpr (std::is_same_v<T, ConnState>) {
    return state_from_string(text);
  } else {
    return parse_decimal<T>(text, field.name);
  }
}

constexpr std::size_t kCsvFields = 2 + kNetflowAttributeCount;

}  // namespace

void save_csv(const PropertyGraph& graph, std::ostream& out) {
  out << "src,dst";
  zip_netflow_columns([&out](auto field) { out << ',' << field.name; });
  out << '\n';
  const bool props = graph.has_properties();
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    out << graph.edge_src(e) << ',' << graph.edge_dst(e);
    if (props) {
      zip_netflow_columns(
          [&out, e](auto, const auto& column) {
            out << ',' << text_of(column[e]);
          },
          graph.properties());
    } else {
      zip_netflow_columns([&out](auto) { out << ','; });
    }
    out << '\n';
  }
}

PropertyGraph load_csv(std::istream& stream, const std::string& name) {
  LineReader in(stream, "csv graph", name);
  in.expect_header("src,dst");

  // Columns are buffered so the vertex count is known before the graph is
  // built; typical CSV graphs are small (the binary format is the scale
  // path).
  std::vector<VertexId> src;
  std::vector<VertexId> dst;
  PropertyColumns props;
  VertexId max_vertex = 0;
  std::optional<bool> with_props;
  in.for_each_line([&](const std::string& line) {
    const std::vector<std::string> fields = split_csv_fields(line);
    if (fields.size() != kCsvFields) {
      throw CsbError("expected " + std::to_string(kCsvFields) +
                     " fields, found " + std::to_string(fields.size()));
    }
    // The largest id must leave room for the vertex count.
    const VertexId s = parse_decimal(fields[0], "src", ~VertexId{0} - 1);
    const VertexId d = parse_decimal(fields[1], "dst", ~VertexId{0} - 1);
    const bool has_props = !fields[2].empty();
    if (with_props.value_or(has_props) != has_props) {
      throw CsbError("mixes property and structure-only rows");
    }
    with_props = has_props;
    auto text = fields.begin() + 2;
    if (has_props) {
      zip_netflow_columns(
          [&text](auto field, auto& column) {
            column.push_back(parse_text(field, *text++));
          },
          props);
    } else if (std::any_of(text, fields.end(),
                           [](const std::string& f) { return !f.empty(); })) {
      throw CsbError("property fields on a row without a protocol");
    }
    src.push_back(s);
    dst.push_back(d);
    max_vertex = std::max({max_vertex, s, d});
  });

  const std::uint64_t vertices = src.empty() ? 0 : max_vertex + 1;
  PropertyGraph graph = PropertyGraph::from_columns_unchecked(
      vertices, std::move(src), std::move(dst));
  if (with_props.value_or(false)) graph.attach_properties(std::move(props));
  return graph;
}

void save_graphml(const PropertyGraph& graph, std::ostream& out) {
  out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      << "<graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\">\n";
  zip_netflow_columns([&out]<typename T>(NetflowField<T> field) {
    // Enums are written as names; an integer fits GraphML's 32-bit signed
    // int only when narrower than it.
    const char* type =
        std::is_enum_v<T> ? "string" : sizeof(T) < 4 ? "int" : "long";
    out << "  <key id=\"" << field.name << "\" for=\"edge\" attr.name=\""
        << field.name << "\" attr.type=\"" << type << "\"/>\n";
  });
  out << "  <graph id=\"G\" edgedefault=\"directed\">\n";
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    out << "    <node id=\"n" << v << "\"/>\n";
  }
  const bool props = graph.has_properties();
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    out << "    <edge source=\"n" << graph.edge_src(e) << "\" target=\"n"
        << graph.edge_dst(e) << "\">";
    if (props) {
      zip_netflow_columns(
          [&out, e](auto field, const auto& column) {
            out << "\n      <data key=\"" << field.name << "\">"
                << text_of(column[e]) << "</data>";
          },
          graph.properties());
      out << "\n    ";
    }
    out << "</edge>\n";
  }
  out << "  </graph>\n</graphml>\n";
}

namespace {

/// Value of `attr="..."` inside an XML tag body, or empty if absent.
std::string xml_attribute(const std::string& tag, const std::string& attr) {
  const std::string needle = attr + "=\"";
  const auto at = tag.find(needle);
  if (at == std::string::npos) return {};
  const auto begin = at + needle.size();
  const auto end = tag.find('"', begin);
  if (end == std::string::npos) return {};
  return tag.substr(begin, end - begin);
}

/// Vertex index of a "n<k>" GraphML node id; anything else throws
/// CsbError.
VertexId graphml_vertex(const std::string& id) {
  if (id.empty() || id.front() != 'n') {
    throw CsbError("unsupported GraphML node id: '" + id + "'");
  }
  // The largest id must leave room for the vertex count.
  return parse_decimal(id.substr(1), "node id", ~VertexId{0} - 1);
}

}  // namespace

PropertyGraph load_graphml(std::istream& in, const std::string& name) {
  const auto bad = [&name](std::size_t at, const std::string& reason) {
    return bad_input("GraphML", name, InputUnit::kByte, at, reason);
  };
  // Read the whole document and walk <...> elements; text between a
  // <data ...> tag and its </data> is the attribute value.
  const std::string xml((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  if (xml.find("<graphml") == std::string::npos) {
    throw bad(0, "not a GraphML document (no <graphml> element)");
  }

  std::vector<VertexId> src;
  std::vector<VertexId> dst;
  PropertyColumns props;  // defaults where an edge has no data
  bool with_props = false;
  VertexId vertices = 0;
  bool edge_open = false;
  for (std::size_t at = 0; (at = xml.find('<', at)) != std::string::npos;) {
    const auto end = xml.find('>', at);
    if (end == std::string::npos) throw bad(at, "unterminated GraphML tag");
    const std::string tag = xml.substr(at + 1, end - at - 1);
    std::size_t problem_at = at;  // where a CsbError below is reported
    try {
      if (tag.starts_with("node")) {
        vertices = std::max(vertices,
                            graphml_vertex(xml_attribute(tag, "id")) + 1);
      } else if (tag.starts_with("edge")) {
        src.push_back(graphml_vertex(xml_attribute(tag, "source")));
        dst.push_back(graphml_vertex(xml_attribute(tag, "target")));
        vertices = std::max({vertices, src.back() + 1, dst.back() + 1});
        props.push_back({});
        // Self-closing edges carry no data elements.
        edge_open = tag.back() != '/';
      } else if (tag == "/edge") {
        edge_open = false;
      } else if (tag.starts_with("data") && tag.back() != '/' && edge_open) {
        const auto value_end = xml.find('<', end + 1);
        if (value_end == std::string::npos ||
            xml.compare(value_end, 7, "</data>") != 0) {
          throw CsbError("unterminated GraphML data element");
        }
        const std::string key = xml_attribute(tag, "key");
        const std::string value = xml.substr(end + 1, value_end - end - 1);
        problem_at = end + 1;
        with_props = true;
        // Keys outside the schema are ignored (foreign exports).
        zip_netflow_columns(
            [&](auto field, auto& column) {
              if (key == field.name) column.back() = parse_text(field, value);
            },
            props);
      }
    } catch (const CsbError& error) {
      throw bad(problem_at, error.what());
    }
    at = end + 1;
  }

  PropertyGraph graph = PropertyGraph::from_columns_unchecked(
      vertices, std::move(src), std::move(dst));
  if (with_props) graph.attach_properties(std::move(props));
  return graph;
}

}  // namespace csb
