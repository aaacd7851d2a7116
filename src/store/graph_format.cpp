#include "store/graph_format.hpp"

#include <filesystem>
#include <span>
#include <utility>

#include "graph/graph_io.hpp"
#include "store/shard_store.hpp"
#include "util/error.hpp"
#include "util/input_reader.hpp"
#include "util/thread_pool.hpp"

namespace csb {

namespace {

/// A single-file format: a graph_io stream writer and reader, and the kind
/// of file their errors name.
class FileFormat final : public GraphFormat {
 public:
  using Save = void (*)(const PropertyGraph&, std::ostream&);
  using Load = PropertyGraph (*)(std::istream&, const std::string&);

  FileFormat(std::string_view name, std::string_view kind,
             std::string_view description, Save save, Load load)
      : name_(name), kind_(kind), description_(description), save_(save),
        load_(load) {}

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::string_view description() const override {
    return description_;
  }
  void save(const PropertyGraph& graph, const std::string& path) const override {
    std::ofstream out = open_output(kind_, path);
    save_(graph, out);
    close_output(out, kind_, path);
  }
  [[nodiscard]] PropertyGraph load(const std::string& path) const override {
    std::ifstream in = open_input(kind_, path);
    return load_(in, path);
  }

 private:
  std::string_view name_;
  std::string_view kind_;
  std::string_view description_;
  Save save_;
  Load load_;
};

/// Chunked replay of an in-RAM graph through a ShardStore. The CLI path
/// for `--out-format=shards` on generators that stream directly is
/// Generator::generate_into; this covers everything else (and load).
class ShardsFormat final : public GraphFormat {
 public:
  [[nodiscard]] std::string_view name() const override { return "shards"; }
  [[nodiscard]] std::string_view description() const override {
    return "sharded on-disk store directory with mmap CSR index";
  }
  [[nodiscard]] bool is_directory_format() const override { return true; }
  void save(const PropertyGraph& graph, const std::string& path) const override {
    ShardStoreOptions options;
    options.directory = path;
    options.pool = &global_pool();
    ShardStore store(options);
    replay_graph_into(graph, store, /*seed=*/0);
  }
  [[nodiscard]] PropertyGraph load(const std::string& path) const override {
    return ShardStoreReader(path).to_property_graph();
  }
};

}  // namespace

void replay_graph_into(const PropertyGraph& graph, GraphStore& store,
                       std::uint64_t seed) {
  constexpr std::size_t kChunk = 1 << 16;
  const std::uint64_t edges = graph.num_edges();
  const bool with_props = graph.has_properties();
  store.begin(StoreHeader{
      .vertices = graph.num_vertices(),
      .edges = edges,
      .with_properties = with_props,
      .seed = seed,
  });
  const auto src = graph.sources();
  const auto dst = graph.destinations();
  for (std::uint64_t at = 0; at < edges; at += kChunk) {
    const std::size_t count =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, edges - at));
    store.put_edges(at, src.subspan(at, count), dst.subspan(at, count));
    if (with_props) {
      store.put_properties(at, graph.properties().view(at, count));
    }
  }
  store.finish();
}

/// The builtins in lookup order, built on first use like the Generator
/// table and never changed after that.
std::span<const GraphFormat* const> all_graph_formats() {
  static const FileFormat binary(
      "binary", "binary graph", "compact column dump (round-trips everything)",
      save_binary, load_binary);
  static const FileFormat csv("csv", "csv graph",
                              "one 'src,dst,<netflow columns>' row per edge",
                              save_csv, load_csv);
  static const FileFormat graphml(
      "graphml", "GraphML", "GraphML export for Neo4j/Gephi/NetworkX hand-off",
      save_graphml, load_graphml);
  static const ShardsFormat shards;
  static const GraphFormat* const table[] = {&binary, &csv, &graphml,
                                             &shards};
  return table;
}

const GraphFormat* find_graph_format(std::string_view name) {
  for (const GraphFormat* format : all_graph_formats()) {
    if (format->name() == name) return format;
  }
  return nullptr;
}

const GraphFormat& require_graph_format(std::string_view name) {
  if (const GraphFormat* format = find_graph_format(name)) return *format;
  std::string available;
  for (const GraphFormat* format : all_graph_formats()) {
    if (!available.empty()) available += ", ";
    available += format->name();
  }
  throw CsbError("unknown output format '" + std::string(name) +
                 "' (registered formats: " + available + ")");
}

const GraphFormat& graph_format_for_path(const std::string& path) {
  if (std::filesystem::is_directory(path)) {
    return require_graph_format("shards");
  }
  const std::string extension = std::filesystem::path(path).extension();
  if (!extension.empty()) {
    if (const GraphFormat* format = find_graph_format(extension.substr(1))) {
      return *format;
    }
  }
  return require_graph_format("binary");
}

}  // namespace csb
