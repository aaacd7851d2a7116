#include "graph/graph_io.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
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

Protocol protocol_from_string(const std::string& s) {
  if (s == "TCP") return Protocol::kTcp;
  if (s == "UDP") return Protocol::kUdp;
  if (s == "ICMP") return Protocol::kIcmp;
  throw CsbError("unknown protocol: " + s);
}

ConnState state_from_string(const std::string& s) {
  if (s == "-") return ConnState::kNone;
  if (s == "S0") return ConnState::kS0;
  if (s == "S1") return ConnState::kS1;
  if (s == "SF") return ConnState::kSF;
  if (s == "REJ") return ConnState::kRej;
  if (s == "RSTO") return ConnState::kRsto;
  if (s == "RSTR") return ConnState::kRstr;
  if (s == "OTH") return ConnState::kOth;
  throw CsbError("unknown conn state: " + s);
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
  std::ofstream out(path, std::ios::binary);
  CSB_CHECK_MSG(out.is_open(), "cannot open for writing: " << path);
  save_binary(graph, out);
}

PropertyGraph load_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw CsbError("bad binary graph " + path + ": cannot open for reading");
  }
  return load_binary(in, path);
}

void save_csv(const PropertyGraph& graph, std::ostream& out) {
  out << "src,dst,protocol,src_port,dst_port,duration_ms,out_bytes,in_bytes,"
         "out_pkts,in_pkts,state\n";
  const bool props = graph.has_properties();
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    out << graph.edge_src(e) << ',' << graph.edge_dst(e);
    if (props) {
      const EdgeProperties p = graph.edge_properties(e);
      out << ',' << to_string(p.protocol) << ',' << p.src_port << ','
          << p.dst_port << ',' << p.duration_ms << ',' << p.out_bytes << ','
          << p.in_bytes << ',' << p.out_pkts << ',' << p.in_pkts << ','
          << to_string(p.state);
    } else {
      out << ",,,,,,,,,";
    }
    out << '\n';
  }
  CSB_CHECK_MSG(out.good(), "failed writing CSV graph stream");
}

namespace {

constexpr std::size_t kCsvFields = 11;

/// The comma-separated fields of `line`, a trailing empty field included.
std::vector<std::string> split_csv_fields(const std::string& line) {
  std::vector<std::string> fields;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = line.find(',', begin);
    fields.push_back(line.substr(begin, comma - begin));  // npos: the rest
    if (comma == std::string::npos) return fields;
    begin = comma + 1;
  }
}

/// A CSV column of integer type T.
template <typename T>
T csv_field(const std::string& text, const char* column) {
  return static_cast<T>(
      parse_decimal(text, column, std::numeric_limits<T>::max()));
}

}  // namespace

PropertyGraph load_csv(std::istream& in, const std::string& name) {
  const auto bad = [&name](std::size_t line_number, const std::string& why) {
    return CsbError("bad csv graph " + name + ": line " +
                    std::to_string(line_number) + ": " + why);
  };
  std::string line;
  if (!std::getline(in, line)) throw bad(1, "empty file, no header");
  if (line.rfind("src,dst", 0) != 0) {
    throw bad(1, "missing header (a line starting 'src,dst')");
  }

  // Rows are buffered so the vertex count is known before the first edge;
  // typical CSV graphs are small (the binary format is the scale path).
  struct Row {
    VertexId src, dst;
    EdgeProperties props;
  };
  std::vector<Row> rows;
  VertexId max_vertex = 0;
  std::optional<bool> with_props;
  for (std::size_t line_number = 2; std::getline(in, line); ++line_number) {
    if (line.empty()) continue;
    try {
      const std::vector<std::string> fields = split_csv_fields(line);
      if (fields.size() != kCsvFields) {
        throw CsbError("expected " + std::to_string(kCsvFields) +
                       " fields, found " + std::to_string(fields.size()));
      }
      // The largest id must leave room for the vertex count.
      Row row{.src = parse_decimal(fields[0], "src", ~VertexId{0} - 1),
              .dst = parse_decimal(fields[1], "dst", ~VertexId{0} - 1),
              .props = {}};
      const bool has_props = !fields[2].empty();
      if (with_props.value_or(has_props) != has_props) {
        throw CsbError("mixes property and structure-only rows");
      }
      with_props = has_props;
      if (has_props) {
        EdgeProperties& p = row.props;
        p.protocol = protocol_from_string(fields[2]);
        p.src_port = csv_field<std::uint16_t>(fields[3], "src_port");
        p.dst_port = csv_field<std::uint16_t>(fields[4], "dst_port");
        p.duration_ms = csv_field<std::uint32_t>(fields[5], "duration_ms");
        p.out_bytes = csv_field<std::uint64_t>(fields[6], "out_bytes");
        p.in_bytes = csv_field<std::uint64_t>(fields[7], "in_bytes");
        p.out_pkts = csv_field<std::uint32_t>(fields[8], "out_pkts");
        p.in_pkts = csv_field<std::uint32_t>(fields[9], "in_pkts");
        p.state = state_from_string(fields[10]);
      } else if (std::any_of(fields.begin() + 3, fields.end(),
                             [](const std::string& f) { return !f.empty(); })) {
        throw CsbError("property fields on a row without a protocol");
      }
      max_vertex = std::max({max_vertex, row.src, row.dst});
      rows.push_back(row);
    } catch (const CsbError& error) {
      throw bad(line_number, error.what());
    }
  }

  PropertyGraph graph;
  if (!rows.empty()) graph.add_vertices(max_vertex + 1);
  for (const Row& row : rows) {
    if (*with_props) {
      graph.add_edge(row.src, row.dst, row.props);
    } else {
      graph.add_edge(row.src, row.dst);
    }
  }
  return graph;
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

/// Vertex index of a "n<k>" GraphML node id.
VertexId graphml_vertex(const std::string& id) {
  CSB_CHECK_MSG(!id.empty() && id.front() == 'n',
                "unsupported GraphML node id: " << id);
  try {
    return std::stoull(id.substr(1));
  } catch (const std::exception&) {
    throw CsbError("unsupported GraphML node id: " + id);
  }
}

}  // namespace

PropertyGraph load_graphml(std::istream& in) {
  // Read the whole document and walk <...> elements; text between a
  // <data ...> tag and its closing tag is the attribute value.
  std::string xml((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  CSB_CHECK_MSG(xml.find("<graphml") != std::string::npos,
                "not a GraphML document");

  struct EdgeRow {
    VertexId src;
    VertexId dst;
    bool has_props = false;
    EdgeProperties props;
  };
  std::vector<EdgeRow> edges;
  VertexId max_vertex = 0;
  bool saw_vertex = false;

  std::size_t at = 0;
  EdgeRow* open_edge = nullptr;
  while ((at = xml.find('<', at)) != std::string::npos) {
    const auto end = xml.find('>', at);
    CSB_CHECK_MSG(end != std::string::npos, "unterminated GraphML tag");
    const std::string tag = xml.substr(at + 1, end - at - 1);

    if (tag.rfind("node", 0) == 0) {
      max_vertex = std::max(max_vertex, graphml_vertex(xml_attribute(tag, "id")));
      saw_vertex = true;
    } else if (tag.rfind("edge", 0) == 0) {
      EdgeRow row{};
      row.src = graphml_vertex(xml_attribute(tag, "source"));
      row.dst = graphml_vertex(xml_attribute(tag, "target"));
      edges.push_back(row);
      // Self-closing edges carry no data elements.
      open_edge = tag.back() == '/' ? nullptr : &edges.back();
    } else if (tag == "/edge") {
      open_edge = nullptr;
    } else if (tag.rfind("data", 0) == 0 && open_edge != nullptr) {
      const std::string key = xml_attribute(tag, "key");
      const auto value_end = xml.find('<', end + 1);
      CSB_CHECK_MSG(value_end != std::string::npos,
                    "unterminated GraphML data element");
      const std::string value = xml.substr(end + 1, value_end - end - 1);
      open_edge->has_props = true;
      EdgeProperties& p = open_edge->props;
      try {
        if (key == "protocol") {
          p.protocol = protocol_from_string(value);
        } else if (key == "src_port") {
          p.src_port = static_cast<std::uint16_t>(std::stoul(value));
        } else if (key == "dst_port") {
          p.dst_port = static_cast<std::uint16_t>(std::stoul(value));
        } else if (key == "duration_ms") {
          p.duration_ms = static_cast<std::uint32_t>(std::stoul(value));
        } else if (key == "out_bytes") {
          p.out_bytes = std::stoull(value);
        } else if (key == "in_bytes") {
          p.in_bytes = std::stoull(value);
        } else if (key == "out_pkts") {
          p.out_pkts = static_cast<std::uint32_t>(std::stoul(value));
        } else if (key == "in_pkts") {
          p.in_pkts = static_cast<std::uint32_t>(std::stoul(value));
        } else if (key == "state") {
          p.state = state_from_string(value);
        }  // unknown keys are ignored (foreign exports)
      } catch (const CsbError&) {
        throw;
      } catch (const std::exception&) {
        throw CsbError("malformed GraphML data value for key " + key);
      }
    }
    at = end + 1;
  }

  VertexId vertices = saw_vertex ? max_vertex + 1 : 0;
  for (const EdgeRow& row : edges) {
    vertices = std::max({vertices, row.src + 1, row.dst + 1});
  }
  PropertyGraph graph(vertices);
  graph.reserve_edges(edges.size());
  const bool any_props =
      std::any_of(edges.begin(), edges.end(),
                  [](const EdgeRow& row) { return row.has_props; });
  for (const EdgeRow& row : edges) {
    if (any_props) {
      graph.add_edge(row.src, row.dst, row.props);
    } else {
      graph.add_edge(row.src, row.dst);
    }
  }
  return graph;
}

void save_graphml(const PropertyGraph& graph, std::ostream& out) {
  out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      << "<graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\">\n"
      << "  <key id=\"protocol\" for=\"edge\" attr.name=\"protocol\" "
         "attr.type=\"string\"/>\n"
      << "  <key id=\"src_port\" for=\"edge\" attr.name=\"src_port\" "
         "attr.type=\"int\"/>\n"
      << "  <key id=\"dst_port\" for=\"edge\" attr.name=\"dst_port\" "
         "attr.type=\"int\"/>\n"
      << "  <key id=\"duration_ms\" for=\"edge\" attr.name=\"duration_ms\" "
         "attr.type=\"long\"/>\n"
      << "  <key id=\"out_bytes\" for=\"edge\" attr.name=\"out_bytes\" "
         "attr.type=\"long\"/>\n"
      << "  <key id=\"in_bytes\" for=\"edge\" attr.name=\"in_bytes\" "
         "attr.type=\"long\"/>\n"
      << "  <key id=\"out_pkts\" for=\"edge\" attr.name=\"out_pkts\" "
         "attr.type=\"long\"/>\n"
      << "  <key id=\"in_pkts\" for=\"edge\" attr.name=\"in_pkts\" "
         "attr.type=\"long\"/>\n"
      << "  <key id=\"state\" for=\"edge\" attr.name=\"state\" "
         "attr.type=\"string\"/>\n"
      << "  <graph id=\"G\" edgedefault=\"directed\">\n";
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    out << "    <node id=\"n" << v << "\"/>\n";
  }
  const bool props = graph.has_properties();
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    out << "    <edge source=\"n" << graph.edge_src(e) << "\" target=\"n"
        << graph.edge_dst(e) << "\">";
    if (props) {
      const EdgeProperties p = graph.edge_properties(e);
      out << "\n      <data key=\"protocol\">" << to_string(p.protocol)
          << "</data>\n      <data key=\"src_port\">" << p.src_port
          << "</data>\n      <data key=\"dst_port\">" << p.dst_port
          << "</data>\n      <data key=\"duration_ms\">" << p.duration_ms
          << "</data>\n      <data key=\"out_bytes\">" << p.out_bytes
          << "</data>\n      <data key=\"in_bytes\">" << p.in_bytes
          << "</data>\n      <data key=\"out_pkts\">" << p.out_pkts
          << "</data>\n      <data key=\"in_pkts\">" << p.in_pkts
          << "</data>\n      <data key=\"state\">" << to_string(p.state)
          << "</data>\n    ";
    }
    out << "</edge>\n";
  }
  out << "  </graph>\n</graphml>\n";
  CSB_CHECK_MSG(out.good(), "failed writing GraphML stream");
}

}  // namespace csb
