#include "store/graph_format.hpp"

#include <fstream>
#include <span>
#include <utility>

#include "graph/graph_io.hpp"
#include "store/shard_store.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace csb {

namespace {

class BinaryFormat final : public GraphFormat {
 public:
  [[nodiscard]] std::string_view name() const override { return "binary"; }
  [[nodiscard]] std::string_view description() const override {
    return "compact column dump (round-trips everything)";
  }
  void save(const PropertyGraph& graph, const std::string& path) const override {
    save_binary_file(graph, path);
  }
  [[nodiscard]] PropertyGraph load(const std::string& path) const override {
    return load_binary_file(path);
  }
};

class CsvFormat final : public GraphFormat {
 public:
  [[nodiscard]] std::string_view name() const override { return "csv"; }
  [[nodiscard]] std::string_view description() const override {
    return "one 'src,dst,<netflow columns>' row per edge";
  }
  void save(const PropertyGraph& graph, const std::string& path) const override {
    std::ofstream out(path, std::ios::trunc);
    CSB_CHECK_MSG(out.is_open(), "cannot create output file: " << path);
    save_csv(graph, out);
    CSB_CHECK_MSG(out.good(), "failed writing output file: " << path);
  }
  [[nodiscard]] PropertyGraph load(const std::string& path) const override {
    std::ifstream in(path);
    if (!in.is_open()) {
      throw CsbError("bad csv graph " + path + ": cannot open for reading");
    }
    return load_csv(in, path);
  }
};

class GraphmlFormat final : public GraphFormat {
 public:
  [[nodiscard]] std::string_view name() const override { return "graphml"; }
  [[nodiscard]] std::string_view description() const override {
    return "GraphML export for Neo4j/Gephi/NetworkX hand-off";
  }
  void save(const PropertyGraph& graph, const std::string& path) const override {
    std::ofstream out(path, std::ios::trunc);
    CSB_CHECK_MSG(out.is_open(), "cannot create output file: " << path);
    save_graphml(graph, out);
    CSB_CHECK_MSG(out.good(), "failed writing output file: " << path);
  }
  [[nodiscard]] PropertyGraph load(const std::string& path) const override {
    std::ifstream in(path);
    CSB_CHECK_MSG(in.is_open(), "cannot open input file: " << path);
    return load_graphml(in);
  }
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

/// The builtins in lookup order, built on first use like the Generator
/// table and never changed after that.
std::span<const GraphFormat* const> builtin_formats() {
  static const BinaryFormat binary;
  static const CsvFormat csv;
  static const GraphmlFormat graphml;
  static const ShardsFormat shards;
  static const GraphFormat* const table[] = {&binary, &csv, &graphml,
                                             &shards};
  return table;
}

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

const GraphFormat* find_graph_format(std::string_view name) {
  for (const GraphFormat* format : builtin_formats()) {
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

std::vector<const GraphFormat*> all_graph_formats() {
  const auto table = builtin_formats();
  return {table.begin(), table.end()};
}

}  // namespace csb
