// Unit tests for src/store: the GraphStore sink contract (MemoryStore
// checks, generate() == generate_into into a MemoryStore, golden generator
// digests), the ShardStore on-disk round trip and its determinism
// across shard counts and pool sizes, the mmap CSR index, corrupt-store
// error paths, ExternalDistinct, the GraphFormat registry, and the typed
// generator option descriptors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gen/fast_samplers.hpp"
#include "gen/generator.hpp"
#include "gen/pgpba.hpp"
#include "gen/pgsk.hpp"
#include "gen/sink_stages.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "graph/graph_io.hpp"
#include "mr/dataset.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "seed/seed.hpp"
#include "store/external_sort.hpp"
#include "store/graph_format.hpp"
#include "store/graph_store.hpp"
#include "store/shard_store.hpp"
#include "trace/traffic_model.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "veracity/veracity.hpp"

namespace csb {
namespace {

namespace fs = std::filesystem;

SeedBundle small_seed(std::uint64_t sessions = 600) {
  TrafficModelConfig config;
  config.benign_sessions = sessions;
  config.client_hosts = 120;
  config.server_hosts = 30;
  return build_seed_from_netflow(
      sessions_to_netflow(TrafficModel(config).generate_benign()));
}

ClusterConfig four_cores() {
  return ClusterConfig{.nodes = 2, .cores_per_node = 2};
}

/// Fresh scratch directory under the system temp root, removed on scope
/// exit so repeated test runs never see stale stores.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("csb_store_test_" + tag + "_" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] fs::path path() const { return path_; }

 private:
  fs::path path_;
};

std::string read_file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

PgskFastOptions pgsk_options(const SeedBundle& seed) {
  PgskFastOptions options;
  options.desired_edges = 6 * seed.graph.num_edges();
  options.seed = 11;
  options.fit.gradient_iterations = 2;
  options.fit.swaps_per_iteration = 50;
  options.fit.burn_in_swaps = 50;
  return options;
}

PgpbaFastOptions pgpba_options(const SeedBundle& seed) {
  PgpbaFastOptions options;
  options.desired_edges = 6 * seed.graph.num_edges();
  options.seed = 11;
  return options;
}

// ------------------------------------------------------------ MemoryStore

TEST(MemoryStoreTest, RejectsChunkPastAnnouncedEdgeCount) {
  MemoryStore store;
  store.begin(StoreHeader{.vertices = 4, .edges = 3});
  const std::vector<VertexId> src{0, 1};
  const std::vector<VertexId> dst{1, 2};
  EXPECT_NO_THROW(store.put_edges(0, src, dst));
  EXPECT_THROW(store.put_edges(2, src, dst), CsbError);
}

// MaterializeTest: a generated edge stream drained into a MemoryStore, the
// one in-RAM graph producer.

TEST(MaterializeTest, RejectsOutOfRangeEndpoints) {
  ClusterSim cluster(four_cores());
  std::vector<std::vector<Edge>> parts = {{{0, 9}}};
  const Dataset<Edge> edges(cluster, std::move(parts));
  MemoryStore store;
  store.begin(StoreHeader{.vertices = 2, .edges = edges.count()});
  EXPECT_THROW(emit_dataset_into(edges, store, cluster), CsbError);
}

TEST(MaterializeTest, EmptyDatasetGivesEmptyGraph) {
  ClusterSim cluster(four_cores());
  std::vector<std::vector<Edge>> parts(3);
  const Dataset<Edge> edges(cluster, std::move(parts));
  MemoryStore store;
  store.begin(StoreHeader{.vertices = 5, .edges = edges.count()});
  emit_dataset_into(edges, store, cluster);
  store.finish();
  EXPECT_EQ(store.graph().num_vertices(), 5u);
  EXPECT_EQ(store.graph().num_edges(), 0u);
}

TEST(MaterializeTest, WithPropertiesAttachesColumns) {
  MemoryStore store;
  store.begin(StoreHeader{.vertices = 2, .edges = 1, .with_properties = true});
  const std::vector<VertexId> src{0};
  const std::vector<VertexId> dst{1};
  store.put_edges(0, src, dst);
  PropertyColumns rows;
  rows.push_back(EdgeProperties{.src_port = 7, .out_bytes = 99});
  store.put_properties(0, rows.view(0, rows.size()));
  store.finish();
  const PropertyGraph& graph = store.graph();
  ASSERT_TRUE(graph.has_properties());
  EXPECT_EQ(graph.protocols().size(), 1u);
  EXPECT_EQ(graph.edge_properties(0).src_port, 7u);
  EXPECT_EQ(graph.edge_properties(0).out_bytes, 99u);
}

// Chunks of every partition land at their offsets whatever order they
// arrive in, and the stream equals the partition concatenation.
TEST(MaterializeTest, CollectsAllPartitions) {
  ClusterSim cluster(four_cores());
  std::vector<std::vector<Edge>> parts = {
      {{0, 1}, {1, 2}}, {}, {{2, 3}}, {{3, 0}, {0, 2}}};
  const Dataset<Edge> edges(cluster, std::move(parts));
  MemoryStore store;
  store.begin(StoreHeader{.vertices = 4, .edges = edges.count()});
  emit_dataset_into(edges, store, cluster);
  store.finish();
  const PropertyGraph& graph = store.graph();
  EXPECT_EQ(graph.num_vertices(), 4u);
  EXPECT_FALSE(graph.has_properties());
  EXPECT_EQ(std::vector<VertexId>(graph.sources().begin(),
                                  graph.sources().end()),
            (std::vector<VertexId>{0, 1, 2, 3, 0}));
  EXPECT_EQ(std::vector<VertexId>(graph.destinations().begin(),
                                  graph.destinations().end()),
            (std::vector<VertexId>{1, 2, 3, 0, 2}));
}

// generate() is generate_into captured by a MemoryStore: the in-RAM API and
// a fresh sink run on a second cluster must agree exactly.
TEST(MemoryStoreTest, PgskFastSinkMatchesClassicByteForByte) {
  const SeedBundle seed = small_seed();
  const auto options = pgsk_options(seed);
  ClusterSim c1(four_cores());
  const GenResult in_ram =
      pgsk_fast_generate(seed.graph, seed.profile, c1, options);

  ClusterSim c2(four_cores());
  MemoryStore store;
  const StoreGenResult streamed = pgsk_fast_generate_into(
      seed.graph, seed.profile, c2, options, store);
  EXPECT_EQ(store.graph(), in_ram.graph);
  EXPECT_EQ(streamed.edges, in_ram.graph.num_edges());
  EXPECT_EQ(streamed.vertices, in_ram.graph.num_vertices());
}

TEST(MemoryStoreTest, PgpbaFastSinkMatchesClassicByteForByte) {
  const SeedBundle seed = small_seed();
  const auto options = pgpba_options(seed);
  ClusterSim c1(four_cores());
  const GenResult in_ram =
      pgpba_fast_generate(seed.graph, seed.profile, c1, options);

  ClusterSim c2(four_cores());
  MemoryStore store;
  const StoreGenResult streamed = pgpba_fast_generate_into(
      seed.graph, seed.profile, c2, options, store);
  EXPECT_EQ(store.graph(), in_ram.graph);
  EXPECT_EQ(streamed.edges, in_ram.graph.num_edges());
}

TEST(MemoryStoreTest, BaselineGenerateMatchesGenerateInto) {
  // A §II baseline (chung-lu) builds its graph serially, then streams it
  // through store:begin / store:emit / store:props like every generator.
  const SeedBundle seed = small_seed(300);
  const Generator& generator = require_generator("chung-lu");
  GenConfig config;
  config.desired_edges = 3 * seed.graph.num_edges();
  config.seed = 5;

  ClusterSim c1(four_cores());
  const GenResult in_ram =
      generator.generate(seed.graph, seed.profile, c1, config);
  ClusterSim c2(four_cores());
  MemoryStore store;
  const StoreGenResult streamed =
      generator.generate_into(seed.graph, seed.profile, c2, config, store);
  EXPECT_EQ(store.graph(), in_ram.graph);
  EXPECT_EQ(streamed.edges, in_ram.graph.num_edges());
}

// generate() must honour pgsk-fast's dedup flag exactly as generate_into
// does: no duplicate placement, and the same edge count and bytes.
TEST(MemoryStoreTest, PgskFastDedupHonouredByGenerate) {
  const SeedBundle seed = small_seed(300);
  const Generator& generator = require_generator("pgsk-fast");
  GenConfig config;
  config.desired_edges = 3 * seed.graph.num_edges();
  config.seed = 5;
  config.extra["dedup"] = "true";

  ClusterSim c1(four_cores());
  const PropertyGraph graph =
      generator.generate(seed.graph, seed.profile, c1, config).graph;
  ASSERT_GT(graph.num_edges(), 0u);
  // Re-multiply copies each distinct placement into a contiguous run, so
  // a deduplicated stream never revisits a (src, dst) pair after leaving it.
  std::set<std::pair<VertexId, VertexId>> finished;
  for (EdgeId e = 1; e < graph.num_edges(); ++e) {
    const std::pair<VertexId, VertexId> prev{graph.edge_src(e - 1),
                                             graph.edge_dst(e - 1)};
    const std::pair<VertexId, VertexId> cur{graph.edge_src(e),
                                            graph.edge_dst(e)};
    if (cur != prev) {
      finished.insert(prev);
      ASSERT_FALSE(finished.contains(cur)) << "edge " << e;
    }
  }

  ClusterSim c2(four_cores());
  MemoryStore store;
  const StoreGenResult streamed =
      generator.generate_into(seed.graph, seed.profile, c2, config, store);
  EXPECT_EQ(streamed.edges, graph.num_edges());
  EXPECT_EQ(store.graph(), graph);
}

// --------------------------------------------------- golden generator digests

/// Order-sensitive digest of a generated graph: the index-keyed checksum
/// sums the shard store seals its manifest with, plus the dimensions.
struct GraphDigest {
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t edge_sum = 0;
  std::uint64_t property_sum = 0;
  friend bool operator==(const GraphDigest&, const GraphDigest&) = default;
};

GraphDigest digest_of(const PropertyGraph& graph) {
  GraphDigest digest{.vertices = graph.num_vertices(),
                     .edges = graph.num_edges()};
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    digest.edge_sum += edge_checksum_term(e, graph.edge_src(e),
                                          graph.edge_dst(e));
    if (graph.has_properties()) {
      digest.property_sum +=
          property_checksum_term(e, graph.edge_properties(e));
    }
  }
  return digest;
}

struct GoldenRow {
  std::string generator;
  std::uint64_t seed = 0;
  bool with_properties = true;
  std::map<std::string, std::string> extra;
  GraphDigest digest;
};

/// The row in the table's own initializer syntax, so a mismatch report can
/// be read against (or pasted over) the recorded entry.
std::string format_row(const GoldenRow& row) {
  std::ostringstream out;
  out << "{\"" << row.generator << "\", " << row.seed << ", "
      << (row.with_properties ? "true" : "false") << ", {";
  const char* sep = "";
  for (const auto& [key, value] : row.extra) {
    out << sep << "{\"" << key << "\", \"" << value << "\"}";
    sep = ", ";
  }
  out << "}, {" << row.digest.vertices << "u, " << row.digest.edges
      << "u, 0x" << std::hex << row.digest.edge_sum << "ULL, 0x"
      << row.digest.property_sum << "ULL}}";
  return out.str();
}

// Every registered generator at its defaults x two seeds, one row per
// option that selects a different code branch, and one structure-only row,
// all on a fixed 2 x 2 virtual cluster. The digests pin the exact bytes
// Generator::generate produces, so a refactor of any generation path that
// changes output fails here with the row that moved.
TEST(GeneratorGoldenTest, GenerateMatchesRecordedDigests) {
  const std::vector<GoldenRow> golden = {
      {"pgpba", 3, true, {},
       {841u, 1023u, 0x707b9f54ed731df3ULL, 0x1b773d0038b63044ULL}},
      {"pgpba", 17, true, {},
       {878u, 1060u, 0x70b6a7e9c6685f86ULL, 0x67210b81e5c6d1cfULL}},
      {"pgsk", 3, true, {},
       {256u, 972u, 0x87d11fef70d1616bULL, 0x6c107cc2b63cafebULL}},
      {"pgsk", 17, true, {},
       {256u, 1022u, 0x4e33ea05ddf1669aULL, 0x244e525f26e367b4ULL}},
      {"pgpba-fast", 3, true, {},
       {718u, 900u, 0x3a8303be57b7f0f8ULL, 0xf6e7e5130ff44a8dULL}},
      {"pgpba-fast", 17, true, {},
       {718u, 900u, 0x16f093b838f4532ULL, 0x6911615dcce47a07ULL}},
      {"pgsk-fast", 3, true, {},
       {256u, 978u, 0x803322efb2b5a1aaULL, 0x99109f08357f08e0ULL}},
      {"pgsk-fast", 17, true, {},
       {256u, 909u, 0xa11e5c6d54c82733ULL, 0xb3ffad347ea84c79ULL}},
      {"rmat", 3, true, {},
       {512u, 900u, 0x435034f19ee41cb1ULL, 0xf6e7e5130ff44a8dULL}},
      {"rmat", 17, true, {},
       {512u, 900u, 0xea8f845f9b6ecee4ULL, 0x6911615dcce47a07ULL}},
      {"classic-ba", 3, true, {},
       {300u, 892u, 0xedb5564d06d748e5ULL, 0x8f0ac60c3affcaf1ULL}},
      {"classic-ba", 17, true, {},
       {300u, 892u, 0xe69fba04094192a9ULL, 0x550c31c53f200e55ULL}},
      {"erdos-renyi", 3, true, {},
       {354u, 900u, 0x22b0e1ddcc4e4c3bULL, 0xf6e7e5130ff44a8dULL}},
      {"erdos-renyi", 17, true, {},
       {354u, 900u, 0x5919e68c24c69eecULL, 0x6911615dcce47a07ULL}},
      {"chung-lu", 3, true, {},
       {118u, 900u, 0xf784da3ac91cb52aULL, 0xf6e7e5130ff44a8dULL}},
      {"chung-lu", 17, true, {},
       {118u, 900u, 0x8ac0e33baa89b55fULL, 0x6911615dcce47a07ULL}},
      {"sbm", 3, true, {},
       {354u, 900u, 0x1ad936e577b95c3bULL, 0xf6e7e5130ff44a8dULL}},
      {"sbm", 17, true, {},
       {354u, 900u, 0x58b2d5582e6715abULL, 0x6911615dcce47a07ULL}},
      {"pgpba", 3, true, {{"degree-mode", "true"}},
       {262u, 1054u, 0xf8ba9eda14a395a7ULL, 0x6bd6ae92b8eb2842ULL}},
      {"pgsk-fast", 3, true, {{"noise", "0.2"}},
       {256u, 954u, 0xd9d4247e08df19e0ULL, 0xdc70aefad8b9458aULL}},
      {"pgsk-fast", 3, true, {{"dedup", "true"}},
       {256u, 910u, 0xfe715d407ef12b57ULL, 0xbcf4d47a694a6205ULL}},
      {"pgpba-fast", 3, true, {{"edges-per-vertex", "2"}},
       {418u, 900u, 0xb29c694a9585a00dULL, 0xf6e7e5130ff44a8dULL}},
      {"pgpba", 3, false, {},
       {841u, 1023u, 0x707b9f54ed731df3ULL, 0x0ULL}},
  };
  const SeedBundle seed = small_seed(300);
  for (const GoldenRow& expected : golden) {
    const Generator& generator = require_generator(expected.generator);
    GenConfig config;
    config.desired_edges = 3 * seed.graph.num_edges();
    config.seed = expected.seed;
    config.with_properties = expected.with_properties;
    config.extra = expected.extra;
    ClusterSim cluster(four_cores());
    GoldenRow actual = expected;
    actual.digest = digest_of(
        generator.generate(seed.graph, seed.profile, cluster, config).graph);
    EXPECT_EQ(actual.digest, expected.digest)
        << "actual row: " << format_row(actual);
  }
}

// ------------------------------------------------------ golden on-disk bytes

/// FNV-1a over a file's bytes: pins layout, not just values, so a column
/// reorder made in a writer and its reader alike still fails.
std::uint64_t file_digest(const fs::path& path) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char byte : read_file_bytes(path)) {
    hash = (hash ^ static_cast<unsigned char>(byte)) * 0x100000001b3ULL;
  }
  return hash;
}

struct FileGolden {
  std::string file;  ///< "<case>/<writer>/<file name>"
  std::uint64_t bytes = 0;
  std::uint64_t digest = 0;
  friend bool operator==(const FileGolden&, const FileGolden&) = default;
};

std::string format_file_row(const FileGolden& row) {
  std::ostringstream out;
  out << "{\"" << row.file << "\", " << row.bytes << "u, 0x" << std::hex
      << row.digest << "ULL}";
  return out.str();
}

/// Every file one writer leaves in `dir`, in name order.
void collect_file_digests(const std::string& prefix, const fs::path& dir,
                          std::vector<FileGolden>& out) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    out.push_back({prefix + "/" + file.filename().string(),
                   fs::file_size(file), file_digest(file)});
  }
}

// The exact bytes of every file the graph formats and the shard store
// write, for one generated graph with properties and one structure-only
// graph: the binary dump, the CSV and GraphML files of the graph and of
// its structure alone, a 3-shard store streamed by generate_into, and the
// same graph replayed into a 3-shard store. The manifest checksums and
// GeneratorGoldenTest pin values; this pins file layout.
TEST(OnDiskGoldenTest, WrittenFilesMatchRecordedDigests) {
  const std::vector<FileGolden> golden = {
      {"props/binary/graph.bin", 51175u, 0x5a5209f273205860ULL},
      {"props/text/bare.csv", 15884u, 0x32eb71618f67ef9dULL},
      {"props/text/bare.graphml", 64661u, 0x52327a9d9026e4ffULL},
      {"props/text/graph.csv", 41395u, 0x6edf90496c090241ULL},
      {"props/text/graph.graphml", 417532u, 0x3de746be7fc54a2bULL},
      {"props/generate_into/csr.bin", 21672u, 0xc6dd7c779e1340faULL},
      {"props/generate_into/edges-0000.bin", 5456u, 0x129f136132e94dc3ULL},
      {"props/generate_into/edges-0001.bin", 5456u, 0x17d4767c01b63e5fULL},
      {"props/generate_into/edges-0002.bin", 5456u, 0x78bf08518bb0149ULL},
      {"props/generate_into/manifest.json", 656u, 0x5fe6d39e3af04d2fULL},
      {"props/generate_into/props-0000.bin", 11594u, 0x231232b9847ded7eULL},
      {"props/generate_into/props-0001.bin", 11594u, 0x62d5cb4f5634d563ULL},
      {"props/generate_into/props-0002.bin", 11594u, 0x196d39d3f1059700ULL},
      {"props/replay/csr.bin", 21672u, 0xc6dd7c779e1340faULL},
      {"props/replay/edges-0000.bin", 5456u, 0x129f136132e94dc3ULL},
      {"props/replay/edges-0001.bin", 5456u, 0x17d4767c01b63e5fULL},
      {"props/replay/edges-0002.bin", 5456u, 0x78bf08518bb0149ULL},
      {"props/replay/manifest.json", 656u, 0x5fe6d39e3af04d2fULL},
      {"props/replay/props-0000.bin", 11594u, 0x231232b9847ded7eULL},
      {"props/replay/props-0001.bin", 11594u, 0x62d5cb4f5634d563ULL},
      {"props/replay/props-0002.bin", 11594u, 0x196d39d3f1059700ULL},
      {"structure/binary/graph.bin", 14569u, 0x52af8089702d9f5aULL},
      {"structure/text/graph.csv", 14089u, 0xf89af74106a389fdULL},
      {"structure/text/graph.graphml", 46690u, 0xa97cf2a7caa1048cULL},
      {"structure/generate_into/csr.bin", 11400u, 0x733ffc66835fcbe9ULL},
      {"structure/generate_into/edges-0000.bin", 4848u, 0x1e973e3623abd86dULL},
      {"structure/generate_into/edges-0001.bin", 4848u, 0x8b7840f7e46ecbfdULL},
      {"structure/generate_into/edges-0002.bin", 4848u, 0xdb50ec98fe2b7db1ULL},
      {"structure/generate_into/manifest.json", 476u, 0xf5d7384959412df5ULL},
      {"structure/replay/csr.bin", 11400u, 0x733ffc66835fcbe9ULL},
      {"structure/replay/edges-0000.bin", 4848u, 0x1e973e3623abd86dULL},
      {"structure/replay/edges-0001.bin", 4848u, 0x8b7840f7e46ecbfdULL},
      {"structure/replay/edges-0002.bin", 4848u, 0xdb50ec98fe2b7db1ULL},
      {"structure/replay/manifest.json", 476u, 0xf5d7384959412df5ULL}
  };
  struct Case {
    std::string name;
    std::string generator;
    std::uint64_t seed;
    bool with_properties;
  };
  const std::vector<Case> cases = {{"props", "pgpba", 3, true},
                                   {"structure", "pgsk-fast", 17, false}};
  const SeedBundle seed = small_seed(300);
  std::vector<FileGolden> actual;
  for (const Case& c : cases) {
    const Generator& generator = require_generator(c.generator);
    GenConfig config;
    config.desired_edges = 3 * seed.graph.num_edges();
    config.seed = c.seed;
    config.with_properties = c.with_properties;

    ClusterSim c1(four_cores());
    const PropertyGraph graph =
        generator.generate(seed.graph, seed.profile, c1, config).graph;
    ScratchDir binary("golden_binary_" + c.name);
    save_binary_file(graph, (binary.path() / "graph.bin").string());
    collect_file_digests(c.name + "/binary", binary.path(), actual);

    // The text formats, of the graph and, when it has properties, of its
    // structure alone.
    const PropertyGraph bare = PropertyGraph::from_columns(
        graph.num_vertices(),
        {graph.sources().begin(), graph.sources().end()},
        {graph.destinations().begin(), graph.destinations().end()});
    ScratchDir text("golden_text_" + c.name);
    for (const std::string format : {"csv", "graphml"}) {
      const GraphFormat& writer = require_graph_format(format);
      writer.save(graph, (text.path() / ("graph." + format)).string());
      if (graph.has_properties()) {
        writer.save(bare, (text.path() / ("bare." + format)).string());
      }
    }
    collect_file_digests(c.name + "/text", text.path(), actual);

    ThreadPool pool(3);
    ShardStoreOptions options;
    options.shard_count = 3;
    options.pool = &pool;
    ScratchDir streamed("golden_streamed_" + c.name);
    options.directory = streamed.str();
    ShardStore streamed_store(options);
    ClusterSim c2(four_cores(), pool);
    (void)generator.generate_into(seed.graph, seed.profile, c2, config,
                                  streamed_store);
    collect_file_digests(c.name + "/generate_into", streamed.path(), actual);

    ScratchDir replayed("golden_replayed_" + c.name);
    options.directory = replayed.str();
    ShardStore replayed_store(options);
    replay_graph_into(graph, replayed_store, c.seed);
    collect_file_digests(c.name + "/replay", replayed.path(), actual);
  }
  if (actual.size() != golden.size()) {
    std::string rows;
    for (const FileGolden& row : actual) rows += format_file_row(row) + ",\n";
    FAIL() << actual.size() << " files written, " << golden.size()
           << " recorded; actual rows:\n" << rows;
  }
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], golden[i])
        << "actual row: " << format_file_row(actual[i]);
  }
}

// --------------------------------------------- exact generators, streamed

PgskOptions pgsk_exact_options(const SeedBundle& seed) {
  PgskOptions options;
  options.desired_edges = 4 * seed.graph.num_edges();
  options.seed = 11;
  options.fit.gradient_iterations = 2;
  options.fit.swaps_per_iteration = 50;
  options.fit.burn_in_swaps = 50;
  return options;
}

PgpbaOptions pgpba_exact_options(const SeedBundle& seed) {
  PgpbaOptions options;
  options.desired_edges = 4 * seed.graph.num_edges();
  options.seed = 11;
  return options;
}

// pgsk-fast --dedup re-multiplies its sealed distinct through the shared
// emission: store:count and store:emit run as stages over the scan
// segments, and no part of the emit is booked as a serial segment.
TEST(MemoryStoreTest, PgskFastDedupEmitsAsStages) {
  const SeedBundle seed = small_seed(300);
  ScratchDir spill("dedup_stages");
  PgskFastOptions options = pgsk_options(seed);
  options.desired_edges = 400'000;
  options.dedup = true;
  options.dedup_budget_bytes = 1ULL << 19;  // the minimum: forces a spill
  options.spill_directory = spill.str();

  ThreadPool pool(4);
  ClusterSim cluster(four_cores(), pool);
  TraceRecorder recorder;
  cluster.set_trace(&recorder);
  Counter& spilled =
      MetricsRegistry::instance().counter("store.distinct_spilled_runs");
  const std::uint64_t runs_before = spilled.value();
  MemoryStore store;
  (void)pgsk_fast_generate_into(seed.graph, seed.profile, cluster, options,
                                store);
  cluster.set_trace(nullptr);
  EXPECT_GT(spilled.value(), runs_before)
      << "budget did not force a spill — the test is vacuous";

  bool count_stage = false;
  bool emit_stage = false;
  for (const SpanRecord& span : recorder.spans()) {
    if (span.kind != "stage") continue;
    count_stage = count_stage || span.name == "store:count";
    emit_stage = emit_stage || span.name == "store:emit";
  }
  EXPECT_TRUE(count_stage);
  EXPECT_TRUE(emit_stage);
  bool sealed = false;
  for (const SerialSegment& segment : cluster.metrics().serial_segments) {
    EXPECT_NE(segment.name, "store:emit");
    sealed = sealed || segment.name == "store:distinct:seal";
  }
  EXPECT_TRUE(sealed);
}

// pgpba_generate is the MemoryStore capture of pgpba_generate_into; a fresh
// sink run on a second cluster must land the identical graph and stats.
TEST(MemoryStoreTest, PgpbaExactSinkMatchesClassicByteForByte) {
  const SeedBundle seed = small_seed(300);
  const auto options = pgpba_exact_options(seed);
  ClusterSim c1(four_cores());
  const GenResult in_ram =
      pgpba_generate(seed.graph, seed.profile, c1, options);

  ClusterSim c2(four_cores());
  MemoryStore store;
  const StoreGenResult streamed =
      pgpba_generate_into(seed.graph, seed.profile, c2, options, store);
  EXPECT_EQ(store.graph(), in_ram.graph);
  EXPECT_EQ(streamed.edges, in_ram.graph.num_edges());
  EXPECT_EQ(streamed.vertices, in_ram.graph.num_vertices());
  EXPECT_EQ(streamed.iterations, in_ram.iterations);
}

// pgsk_generate is the MemoryStore wrapper of pgsk_generate_into, so the
// in-RAM API and a fresh sink run must agree exactly (and with a second
// cluster, this also pins run-to-run determinism of the streamed pipeline).
TEST(MemoryStoreTest, PgskExactSinkMatchesClassicByteForByte) {
  const SeedBundle seed = small_seed(300);
  const auto options = pgsk_exact_options(seed);
  ClusterSim c1(four_cores());
  const GenResult in_ram =
      pgsk_generate(seed.graph, seed.profile, c1, options);
  EXPECT_GT(in_ram.graph.num_edges(), 0u);

  ClusterSim c2(four_cores());
  MemoryStore store;
  const StoreGenResult streamed =
      pgsk_generate_into(seed.graph, seed.profile, c2, options, store);
  EXPECT_EQ(store.graph(), in_ram.graph);
  EXPECT_EQ(streamed.edges, in_ram.graph.num_edges());
  EXPECT_EQ(streamed.vertices, in_ram.graph.num_vertices());
}

// Every generator, the exact ones and the serial baselines alike, streams
// its edges as store:emit chunks; none books a whole-graph store:replay.
TEST(MemoryStoreTest, ExactGeneratorsEmitNoReplaySpan) {
  const SeedBundle seed = small_seed(300);
  for (const Generator* registered : all_generators()) {
    const Generator& generator = *registered;
    const std::string name(generator.name());
    GenConfig config;
    config.desired_edges = 3 * seed.graph.num_edges();
    config.partitions = 4;
    config.seed = 7;
    ClusterSim cluster(four_cores());
    TraceRecorder recorder;
    cluster.set_trace(&recorder);
    MemoryStore store;
    const StoreGenResult streamed =
        generator.generate_into(seed.graph, seed.profile, cluster, config,
                                store);
    cluster.set_trace(nullptr);
    EXPECT_GT(streamed.edges, 0u) << name;

    bool saw_emit = false;
    for (const SpanRecord& span : recorder.spans()) {
      EXPECT_NE(span.name, "store:replay") << name;
      if (span.name == "store:emit") saw_emit = true;
    }
    EXPECT_TRUE(saw_emit) << name;
  }
}

TEST(ShardStoreTest, ExactPgskRoundTripAcrossShardAndPoolCounts) {
  const SeedBundle seed = small_seed(300);
  const auto options = pgsk_exact_options(seed);

  ClusterSim baseline_cluster(four_cores());
  MemoryStore baseline;
  (void)pgsk_generate_into(seed.graph, seed.profile, baseline_cluster,
                           options, baseline);

  for (const std::uint32_t shard_count : {1u, 4u, 16u}) {
    for (const std::size_t pool_size : {1u, 2u, 8u}) {
      ScratchDir dir("exact_pgsk_s" + std::to_string(shard_count) + "_p" +
                     std::to_string(pool_size));
      ThreadPool pool(pool_size);
      ClusterSim cluster(four_cores(), pool);
      ShardStoreOptions store_options;
      store_options.directory = dir.str();
      store_options.shard_count = shard_count;
      store_options.pool = &pool;
      ShardStore store(store_options);
      (void)pgsk_generate_into(seed.graph, seed.profile, cluster, options,
                               store);

      const ShardStoreReader reader(dir.str());
      EXPECT_EQ(reader.to_property_graph(), baseline.graph())
          << shard_count << " shards, pool " << pool_size;
    }
  }
}

TEST(ShardStoreTest, ExactPgpbaRoundTripAcrossShardAndPoolCounts) {
  const SeedBundle seed = small_seed(300);
  const auto options = pgpba_exact_options(seed);

  ClusterSim baseline_cluster(four_cores());
  MemoryStore baseline;
  (void)pgpba_generate_into(seed.graph, seed.profile, baseline_cluster,
                            options, baseline);

  for (const std::uint32_t shard_count : {1u, 4u, 16u}) {
    for (const std::size_t pool_size : {1u, 2u, 8u}) {
      ScratchDir dir("exact_pgpba_s" + std::to_string(shard_count) + "_p" +
                     std::to_string(pool_size));
      ThreadPool pool(pool_size);
      ClusterSim cluster(four_cores(), pool);
      ShardStoreOptions store_options;
      store_options.directory = dir.str();
      store_options.shard_count = shard_count;
      store_options.pool = &pool;
      ShardStore store(store_options);
      (void)pgpba_generate_into(seed.graph, seed.profile, cluster, options,
                                store);

      const ShardStoreReader reader(dir.str());
      EXPECT_EQ(reader.to_property_graph(), baseline.graph())
          << shard_count << " shards, pool " << pool_size;
    }
  }
}

// Forcing the expand distinct to spill (the minimum 512 KB budget — 64K
// keys — against a couple hundred thousand placements) must not change a
// single output byte: the dedup stream is sorted-unique regardless of how
// many runs it passed through.
TEST(ShardStoreTest, ExactPgskSpillEngagedOutputUnchanged) {
  const SeedBundle seed = small_seed(300);
  PgskOptions options = pgsk_exact_options(seed);
  options.desired_edges = 400'000;

  ClusterSim in_ram_cluster(four_cores());
  MemoryStore in_ram;
  (void)pgsk_generate_into(seed.graph, seed.profile, in_ram_cluster, options,
                           in_ram);
  ASSERT_GT(in_ram.graph().num_edges(), 100'000u);

  ScratchDir spill("exact_pgsk_spill");
  PgskOptions tiny = options;
  tiny.dedup_budget_bytes = 1ULL << 19;
  tiny.spill_directory = spill.str();
  ThreadPool pool(8);
  ClusterSim spilled_cluster(four_cores(), pool);
  MemoryStore spilled;
  const std::uint64_t runs_before = MetricsRegistry::instance()
                                        .counter("store.distinct_spilled_runs")
                                        .value();
  (void)pgsk_generate_into(seed.graph, seed.profile, spilled_cluster, tiny,
                           spilled);
  EXPECT_GT(MetricsRegistry::instance()
                .counter("store.distinct_spilled_runs")
                .value(),
            runs_before)
      << "budget did not force a spill — the test is vacuous";
  EXPECT_EQ(spilled.graph(), in_ram.graph());
}

// ------------------------------------------------------------ ShardStore

TEST(ShardStoreTest, RoundTripMatchesMemoryAcrossShardAndPoolCounts) {
  const SeedBundle seed = small_seed();
  const auto pg_options = pgsk_options(seed);

  ClusterSim baseline_cluster(four_cores());
  MemoryStore baseline;
  (void)pgsk_fast_generate_into(seed.graph, seed.profile, baseline_cluster,
                                pg_options, baseline);

  for (const std::uint32_t shard_count : {1u, 4u, 16u}) {
    for (const std::size_t pool_size : {1u, 2u, 8u}) {
      ScratchDir dir("roundtrip_s" + std::to_string(shard_count) + "_p" +
                     std::to_string(pool_size));
      ThreadPool pool(pool_size);
      ClusterSim cluster(four_cores(), pool);
      ShardStoreOptions store_options;
      store_options.directory = dir.str();
      store_options.shard_count = shard_count;
      store_options.pool = &pool;
      ShardStore store(store_options);
      (void)pgsk_fast_generate_into(seed.graph, seed.profile, cluster,
                                    pg_options, store);

      const ShardStoreReader reader(dir.str());
      EXPECT_EQ(reader.manifest().shard_count, shard_count);
      EXPECT_EQ(reader.to_property_graph(), baseline.graph())
          << shard_count << " shards, pool " << pool_size;
    }
  }
}

TEST(ShardStoreTest, ShardBytesInvariantToPoolSize) {
  const SeedBundle seed = small_seed();
  const auto pg_options = pgpba_options(seed);

  std::vector<std::string> reference_bytes;
  for (const std::size_t pool_size : {1u, 2u, 8u}) {
    ScratchDir dir("bytes_p" + std::to_string(pool_size));
    ThreadPool pool(pool_size);
    ClusterSim cluster(four_cores(), pool);
    ShardStoreOptions store_options;
    store_options.directory = dir.str();
    store_options.shard_count = 4;
    store_options.pool = &pool;
    ShardStore store(store_options);
    (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                   pg_options, store);

    std::vector<std::string> bytes;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      bytes.push_back(entry.path().filename().string() + ":" +
                      read_file_bytes(entry.path()));
    }
    std::sort(bytes.begin(), bytes.end());
    std::string all;
    for (const auto& b : bytes) all += b;
    reference_bytes.push_back(std::move(all));
  }
  ASSERT_EQ(reference_bytes.size(), 3u);
  EXPECT_EQ(reference_bytes[0], reference_bytes[1]);
  EXPECT_EQ(reference_bytes[0], reference_bytes[2]);
}

TEST(ShardStoreTest, ConcatenatedEdgeStreamInvariantToShardCount) {
  const SeedBundle seed = small_seed(300);
  const auto pg_options = pgpba_options(seed);

  std::vector<std::vector<VertexId>> streams;
  for (const std::uint32_t shard_count : {1u, 4u, 16u}) {
    ScratchDir dir("concat_s" + std::to_string(shard_count));
    ClusterSim cluster(four_cores());
    ShardStoreOptions store_options;
    store_options.directory = dir.str();
    store_options.shard_count = shard_count;
    ShardStore store(store_options);
    (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                   pg_options, store);

    const ShardStoreReader reader(dir.str());
    std::vector<VertexId> stream;
    reader.scan_edges([&](std::uint64_t first, std::span<const VertexId> src,
                          std::span<const VertexId> dst) {
      EXPECT_EQ(first, stream.size() / 2);
      for (std::size_t i = 0; i < src.size(); ++i) {
        stream.push_back(src[i]);
        stream.push_back(dst[i]);
      }
    });
    streams.push_back(std::move(stream));
  }
  ASSERT_EQ(streams.size(), 3u);
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(streams[0], streams[2]);
}

TEST(ShardStoreTest, CsrAndManifestByteIdenticalAcrossPoolsShardsBudgets) {
  // The tentpole contract: the parallel finish pipeline (counting, range
  // partition, budget-split scatter) must land byte-identical artifacts at
  // any pool size and any budget. csr.bin describes the whole graph, so it
  // must also be identical across shard counts; the manifest embeds the
  // shard layout, so its reference is per shard count.
  const SeedBundle seed = small_seed(300);
  const auto pg_options = pgpba_options(seed);

  std::string csr_reference;
  std::map<std::uint32_t, std::string> manifest_reference;
  for (const std::uint32_t shard_count : {1u, 4u, 16u}) {
    // 1 MiB is the budget floor: the scatter splits it across range tasks
    // and falls back to the per-task minimum, forcing many sub-buckets.
    for (const std::uint64_t budget : {1ULL << 20, 256ULL << 20}) {
      for (const std::size_t pool_size : {1u, 2u, 8u}) {
        const std::string tag = "matrix_s" + std::to_string(shard_count) +
                                "_b" + std::to_string(budget >> 20) + "_p" +
                                std::to_string(pool_size);
        ScratchDir dir(tag);
        ThreadPool pool(pool_size);
        ClusterSim cluster(four_cores(), pool);
        ShardStoreOptions store_options;
        store_options.directory = dir.str();
        store_options.shard_count = shard_count;
        store_options.memory_budget_bytes = budget;
        store_options.pool = &pool;
        ShardStore store(store_options);
        (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                       pg_options, store);

        const std::string csr = read_file_bytes(dir.path() / "csr.bin");
        const std::string manifest =
            read_file_bytes(dir.path() / "manifest.json");
        if (csr_reference.empty()) csr_reference = csr;
        EXPECT_EQ(csr, csr_reference) << tag;
        const auto [it, inserted] =
            manifest_reference.try_emplace(shard_count, manifest);
        EXPECT_EQ(manifest, it->second) << tag;
      }
    }
  }
}

TEST(ShardStoreTest, DedupStoreBytesInvariantToPoolSize) {
  // The dedup path routes every edge through ExternalDistinct, whose seal
  // now runs range-partitioned parallel merges on the cluster pool — the
  // stored bytes must not depend on the pool size or the merge partition
  // count at either budget extreme.
  const SeedBundle seed = small_seed(300);
  const auto pg_options = pgsk_options(seed);

  const auto run = [&](std::size_t pool_size, std::uint64_t budget,
                       const std::string& tag) {
    ScratchDir spill("dedup_spill_" + tag);
    ScratchDir dir("dedup_store_" + tag);
    ThreadPool pool(pool_size);
    ClusterSim cluster(four_cores(), pool);
    ShardStoreOptions store_options;
    store_options.directory = dir.str();
    store_options.shard_count = 4;
    store_options.pool = &pool;
    ShardStore store(store_options);
    PgskFastOptions dedup_options = pg_options;
    dedup_options.dedup = true;
    dedup_options.dedup_budget_bytes = budget;
    dedup_options.spill_directory = spill.str();
    (void)pgsk_fast_generate_into(seed.graph, seed.profile, cluster,
                                  dedup_options, store);

    std::vector<std::string> bytes;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      bytes.push_back(entry.path().filename().string() + ":" +
                      read_file_bytes(entry.path()));
    }
    std::sort(bytes.begin(), bytes.end());
    std::string all;
    for (const auto& b : bytes) all += b;
    return all;
  };

  for (const std::uint64_t budget : {1ULL << 19, 256ULL << 20}) {
    const std::string b = std::to_string(budget >> 19);
    const std::string reference = run(1, budget, "p1_b" + b);
    EXPECT_EQ(run(2, budget, "p2_b" + b), reference) << budget;
    EXPECT_EQ(run(8, budget, "p8_b" + b), reference) << budget;
  }
}

TEST(ShardStoreTest, CsrIndexMatchesInRamCsrView) {
  const SeedBundle seed = small_seed(300);
  const auto pg_options = pgsk_options(seed);

  ClusterSim c1(four_cores());
  MemoryStore memory;
  (void)pgsk_fast_generate_into(seed.graph, seed.profile, c1, pg_options, memory);

  ScratchDir dir("csr");
  ClusterSim c2(four_cores());
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  store_options.shard_count = 4;
  ShardStore store(store_options);
  (void)pgsk_fast_generate_into(seed.graph, seed.profile, c2, pg_options, store);

  const ShardStoreReader reader(dir.str());
  ASSERT_TRUE(reader.has_csr());
  const CsrIndexView& csr = reader.csr();
  const PropertyGraph& graph = memory.graph();
  const CsrView in_csr(graph, CsrDirection::kIn);
  const auto out_deg = out_degrees(graph);

  ASSERT_EQ(csr.num_vertices(), graph.num_vertices());
  ASSERT_EQ(csr.num_edges(), graph.num_edges());
  EXPECT_TRUE(std::equal(csr.out_degrees().begin(), csr.out_degrees().end(),
                         out_deg.begin(), out_deg.end()));
  EXPECT_TRUE(std::equal(csr.in_offsets().begin(), csr.in_offsets().end(),
                         in_csr.offsets().begin(), in_csr.offsets().end()));
  EXPECT_TRUE(std::equal(csr.in_neighbors().begin(), csr.in_neighbors().end(),
                         in_csr.all_neighbors().begin(),
                         in_csr.all_neighbors().end()));
}

TEST(ShardStoreTest, StreamedVeracityEqualsInRamVeracity) {
  const SeedBundle seed = small_seed(300);
  const auto pg_options = pgsk_options(seed);

  ClusterSim c1(four_cores());
  MemoryStore memory;
  (void)pgsk_fast_generate_into(seed.graph, seed.profile, c1, pg_options, memory);

  ScratchDir dir("veracity");
  ClusterSim c2(four_cores());
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  ShardStore store(store_options);
  (void)pgsk_fast_generate_into(seed.graph, seed.profile, c2, pg_options, store);

  const ShardStoreReader reader(dir.str());
  ThreadPool pool(4);
  // The CSR overloads share the exact degree / PageRank implementation with
  // the in-RAM ones, so the scores agree exactly, not approximately.
  const VeracityReport in_ram =
      evaluate_veracity(seed.graph, memory.graph(), pool);
  const VeracityReport streamed =
      evaluate_veracity(seed.graph, reader.csr(), pool);
  EXPECT_EQ(in_ram.degree_score, streamed.degree_score);
  EXPECT_EQ(in_ram.pagerank_score, streamed.pagerank_score);

  const StructuralKs ks =
      evaluate_structural_ks(memory.graph(), reader.csr(), pool);
  EXPECT_EQ(ks.degree_ks, 0.0);
  EXPECT_EQ(ks.pagerank_ks, 0.0);
}

TEST(ShardStoreTest, DedupPathDropsDuplicatesDeterministically) {
  const SeedBundle seed = small_seed(300);
  auto pg_options = pgsk_options(seed);

  const auto run = [&](std::uint64_t budget_bytes, const std::string& tag) {
    ScratchDir spill("spill_" + tag);
    ClusterSim cluster(four_cores());
    MemoryStore store;
    PgskFastOptions dedup_options = pg_options;
    dedup_options.dedup = true;
    dedup_options.dedup_budget_bytes = budget_bytes;
    dedup_options.spill_directory = spill.str();
    (void)pgsk_fast_generate_into(seed.graph, seed.profile, cluster,
                                  dedup_options, store);
    return store.take_graph();
  };

  const PropertyGraph roomy = run(256ULL << 20, "roomy");
  const PropertyGraph tight = run(1ULL << 19, "tight");  // the minimum budget
  EXPECT_EQ(roomy, tight);

  // The dedup stream is the ascending sorted-unique placement set, each
  // placement expanded into its re-multiply copies consecutively — so the
  // per-edge key sequence must be non-decreasing in emission order.
  std::vector<std::uint64_t> keys;
  keys.reserve(roomy.num_edges());
  const auto srcs = roomy.sources();
  const auto dsts = roomy.destinations();
  for (EdgeId e = 0; e < roomy.num_edges(); ++e) {
    keys.push_back((static_cast<std::uint64_t>(srcs[e]) << 32) | dsts[e]);
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

// ------------------------------------------------------------ error paths

TEST(ShardStoreErrorTest, CorruptManifestNamesTheFile) {
  ScratchDir dir("corrupt_manifest");
  std::ofstream(dir.path() / "manifest.json") << "{ not json";
  try {
    const ShardStoreReader reader(dir.str());
    FAIL() << "expected CsbError";
  } catch (const CsbError& error) {
    EXPECT_NE(std::string(error.what()).find("manifest"), std::string::npos)
        << error.what();
  }
}

TEST(ShardStoreErrorTest, TruncatedShardNamesTheFile) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("truncated");
  ClusterSim cluster(four_cores());
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  store_options.shard_count = 2;
  ShardStore store(store_options);
  (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                 pgpba_options(seed), store);

  const fs::path victim = dir.path() / "edges-0001.bin";
  fs::resize_file(victim, fs::file_size(victim) / 2);
  try {
    const ShardStoreReader reader(dir.str());
    FAIL() << "expected CsbError";
  } catch (const CsbError& error) {
    EXPECT_NE(std::string(error.what()).find("edges-0001.bin"),
              std::string::npos)
        << error.what();
  }
}

TEST(ShardStoreErrorTest, FlippedByteFailsChecksumNamingTheFile) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("flipped");
  ClusterSim cluster(four_cores());
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  store_options.shard_count = 2;
  ShardStore store(store_options);
  (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                 pgpba_options(seed), store);

  // Flip one byte in the middle of shard 0's edge columns: sizes still
  // match, so only the checksum can catch it.
  const fs::path victim = dir.path() / "edges-0000.bin";
  {
    std::fstream file(victim,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(fs::file_size(victim) / 2));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(fs::file_size(victim) / 2));
    file.write(&byte, 1);
  }
  const ShardStoreReader reader(dir.str());
  try {
    reader.verify();
    FAIL() << "expected CsbError";
  } catch (const CsbError& error) {
    EXPECT_NE(std::string(error.what()).find("edges-0000.bin"),
              std::string::npos)
        << error.what();
  }
}

TEST(ShardStoreErrorTest, ParallelVerifyFlippedShardByteNamesTheFile) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("par_flipped_shard");
  ClusterSim cluster(four_cores());
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  store_options.shard_count = 4;
  ShardStore store(store_options);
  (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                 pgpba_options(seed), store);

  const fs::path victim = dir.path() / "edges-0002.bin";
  {
    std::fstream file(victim,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(fs::file_size(victim) / 2));
    file.write("\x01", 1);
  }
  const ShardStoreReader reader(dir.str());
  ThreadPool pool(4);
  try {
    reader.verify(&pool);
    FAIL() << "expected CsbError";
  } catch (const CsbError& error) {
    // The fan-out rethrows the first failing shard's error, so the message
    // still names the offending file even under a pool.
    EXPECT_NE(std::string(error.what()).find("edges-0002.bin"),
              std::string::npos)
        << error.what();
  }
}

TEST(ShardStoreErrorTest, ParallelVerifyFlippedCsrByteNamesTheFile) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("par_flipped_csr");
  ClusterSim cluster(four_cores());
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  store_options.shard_count = 2;
  ShardStore store(store_options);
  (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                 pgpba_options(seed), store);

  // Flip a byte in the neighbor section of csr.bin: the size and the shard
  // files stay valid, so only the parallel CSR word-sum pass can catch it.
  const fs::path victim = dir.path() / "csr.bin";
  {
    std::fstream file(victim,
                      std::ios::binary | std::ios::in | std::ios::out);
    const auto offset =
        static_cast<std::streamoff>(fs::file_size(victim) - 16);
    file.seekg(offset);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(offset);
    file.write(&byte, 1);
  }
  const ShardStoreReader reader(dir.str());
  ThreadPool pool(4);
  try {
    reader.verify(&pool);
    FAIL() << "expected CsbError";
  } catch (const CsbError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("csr.bin"), std::string::npos) << what;
    EXPECT_NE(what.find("checksum"), std::string::npos) << what;
  }
}

TEST(ShardStoreErrorTest, ParallelVerifyMatchesSerialOnIntactStore) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("par_intact");
  ClusterSim cluster(four_cores());
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  store_options.shard_count = 4;
  ShardStore store(store_options);
  (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                 pgpba_options(seed), store);

  const ShardStoreReader reader(dir.str());
  EXPECT_NO_THROW(reader.verify());
  ThreadPool pool(8);
  EXPECT_NO_THROW(reader.verify(&pool));
}

// ------------------------------------------------------- ExternalDistinct

TEST(ExternalDistinctTest, MatchesSortUniqueAcrossBudgetsAndOrders) {
  std::mt19937_64 rng(99);
  std::vector<std::uint64_t> keys(300'000);
  for (auto& key : keys) key = rng() % 50'000;  // plenty of duplicates

  std::vector<std::uint64_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());

  // 1 << 19 is the minimum budget (one IO chunk): 300k keys spill ~4 runs.
  for (const std::uint64_t budget : {1ULL << 30, 1ULL << 19}) {
    for (const bool shuffled : {false, true}) {
      ScratchDir dir("distinct_" + std::to_string(budget) +
                     (shuffled ? "_s" : "_o"));
      std::vector<std::uint64_t> input = keys;
      if (shuffled) {
        std::mt19937_64 shuffle_rng(7);
        std::shuffle(input.begin(), input.end(), shuffle_rng);
      }
      ExternalDistinctOptions options;
      options.spill_directory = dir.str();
      options.memory_budget_bytes = budget;
      ExternalDistinct distinct(options);
      // Feed in uneven chunks to exercise boundary handling.
      for (std::size_t i = 0; i < input.size();) {
        const std::size_t take = std::min<std::size_t>(777, input.size() - i);
        distinct.add(std::span(input).subspan(i, take));
        i += take;
      }
      EXPECT_EQ(distinct.seal(), expected.size());
      if (budget == (1ULL << 19)) {
        EXPECT_GT(distinct.spilled_runs(), 0u);
      }

      std::vector<std::uint64_t> got;
      distinct.scan([&](std::span<const std::uint64_t> chunk) {
        got.insert(got.end(), chunk.begin(), chunk.end());
      });
      EXPECT_EQ(got, expected);
    }
  }
}

TEST(ExternalDistinctTest, RangePartitionedMergeMatchesSerialSortUnique) {
  // Full-width 64-bit keys so the R key-range partitions all carry load,
  // plus heavy duplication so every partition's merge actually drops keys.
  std::mt19937_64 rng(123);
  std::vector<std::uint64_t> keys;
  keys.reserve(300'000);
  for (std::size_t i = 0; i < 100'000; ++i) keys.push_back(rng());
  for (std::size_t i = 0; i < 200'000; ++i) {
    keys.push_back(keys[rng() % 100'000]);
  }

  std::vector<std::uint64_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());

  for (const std::size_t pool_size : {1u, 2u, 8u}) {
    ScratchDir dir("distinct_pool_" + std::to_string(pool_size));
    ThreadPool pool(pool_size);
    ExternalDistinctOptions options;
    options.spill_directory = dir.str();
    options.memory_budget_bytes = 1ULL << 19;  // minimum: forces ~5 runs
    options.pool = &pool;
    ExternalDistinct distinct(options);
    for (std::size_t i = 0; i < keys.size();) {
      const std::size_t take = std::min<std::size_t>(777, keys.size() - i);
      distinct.add(std::span(keys).subspan(i, take));
      i += take;
    }
    EXPECT_EQ(distinct.seal(), expected.size());
    EXPECT_GT(distinct.spilled_runs(), 0u);
    // One part file per key range; the range count follows the pool size.
    EXPECT_EQ(distinct.merge_partitions(), pool_size);

    std::vector<std::uint64_t> got;
    distinct.scan([&](std::span<const std::uint64_t> chunk) {
      got.insert(got.end(), chunk.begin(), chunk.end());
    });
    EXPECT_EQ(got, expected) << "pool " << pool_size;
  }
}

// Packed k = 18 edge keys lie below 2^50, so an even split of [0, 2^64)
// would put every key in the first range. The merge splits the keys'
// actual span instead: every range carries keys, and the segments still
// concatenate to the serial merge's stream.
TEST(ExternalDistinctTest, SealSplitsNarrowKeysAcrossRanges) {
  std::mt19937_64 rng(18);
  std::vector<std::uint64_t> keys(262'144);
  for (auto& key : keys) {
    key = ((rng() & ((1ULL << 18) - 1)) << 32) | (rng() & ((1ULL << 18) - 1));
  }
  ScratchDir serial_dir("distinct_narrow_serial");
  ScratchDir split_dir("distinct_narrow_pool4");
  ThreadPool pool(4);
  // The minimum budget (64K keys) spills four runs.
  ExternalDistinct serial(ExternalDistinctOptions{
      .spill_directory = serial_dir.str(), .memory_budget_bytes = 1ULL << 19});
  ExternalDistinct split(ExternalDistinctOptions{
      .spill_directory = split_dir.str(),
      .memory_budget_bytes = 1ULL << 19,
      .pool = &pool});
  for (std::size_t i = 0; i < keys.size(); i += 4096) {
    serial.add(std::span(keys).subspan(i, 4096));
    split.add(std::span(keys).subspan(i, 4096));
  }
  EXPECT_EQ(serial.seal(), split.seal());
  EXPECT_GT(split.spilled_runs(), 1u);

  std::vector<std::uint64_t> expected;
  serial.scan([&](std::span<const std::uint64_t> chunk) {
    expected.insert(expected.end(), chunk.begin(), chunk.end());
  });
  ASSERT_EQ(split.scan_segments(), 4u);
  std::vector<std::uint64_t> got;
  for (std::size_t s = 0; s < 4; ++s) {
    std::size_t segment_keys = 0;
    split.scan_segment(s, [&](std::span<const std::uint64_t> chunk) {
      segment_keys += chunk.size();
      got.insert(got.end(), chunk.begin(), chunk.end());
    });
    EXPECT_GT(segment_keys, 0u) << "segment " << s;
  }
  EXPECT_EQ(got, expected);
}

// ------------------------------------------------------- format registry

TEST(GraphFormatTest, RegistryFindsBuiltinsAndRejectsUnknown) {
  EXPECT_NE(find_graph_format("binary"), nullptr);
  EXPECT_NE(find_graph_format("csv"), nullptr);
  EXPECT_NE(find_graph_format("graphml"), nullptr);
  EXPECT_NE(find_graph_format("shards"), nullptr);
  EXPECT_EQ(find_graph_format("carrier-pigeon"), nullptr);
  EXPECT_TRUE(require_graph_format("shards").is_directory_format());
  EXPECT_FALSE(require_graph_format("binary").is_directory_format());
  try {
    (void)require_graph_format("carrier-pigeon");
    FAIL() << "expected CsbError";
  } catch (const CsbError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("carrier-pigeon"), std::string::npos) << what;
    EXPECT_NE(what.find("binary"), std::string::npos) << what;
    EXPECT_NE(what.find("shards"), std::string::npos) << what;
  }
}

TEST(GraphFormatTest, ShardsFormatRoundTripsAGraph) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("format_roundtrip");
  const std::string path = (dir.path() / "g.shards").string();
  const GraphFormat& format = require_graph_format("shards");
  format.save(seed.graph, path);
  EXPECT_EQ(format.load(path), seed.graph);
}

TEST(GraphFormatTest, FormatForPathPicksDirectoryThenExtension) {
  ScratchDir dir("format_for_path");
  EXPECT_EQ(graph_format_for_path(dir.str()).name(), "shards");
  EXPECT_EQ(graph_format_for_path("g.csv").name(), "csv");
  EXPECT_EQ(graph_format_for_path("out/g.graphml").name(), "graphml");
  EXPECT_EQ(graph_format_for_path("g.bin").name(), "binary");
  EXPECT_EQ(graph_format_for_path("graph").name(), "binary");
}

// Saving through any registered format into a directory that cannot exist
// (its parent is a regular file) names the path, never an internal check.
TEST(GraphFormatTest, SaveIntoMissingDirectoryNamesPath) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("format_missing_dir");
  const fs::path blocker = dir.path() / "not-a-directory";
  std::ofstream(blocker) << "x";
  for (const GraphFormat* format : all_graph_formats()) {
    SCOPED_TRACE(std::string(format->name()));
    const std::string path =
        (blocker / ("graph." + std::string(format->name()))).string();
    try {
      format->save(seed.graph, path);
      ADD_FAILURE() << "saved into " << path;
    } catch (const CsbError& error) {
      const std::string message = error.what();
      EXPECT_EQ(message.rfind("cannot write ", 0), 0u) << message;
      EXPECT_NE(message.find(path), std::string::npos) << message;
      EXPECT_EQ(message.find("CSB_CHECK failed"), std::string::npos)
          << message;
    }
  }
}

// ------------------------------------------------------- option descriptors

TEST(OptionSpecTest, CheckOptionValueValidatesByKind) {
  const OptionSpec u64_spec{"edges", OptionKind::kU64, "", ""};
  const OptionSpec dbl_spec{"noise", OptionKind::kDouble, "", ""};
  const OptionSpec flag_spec{"dedup", OptionKind::kFlag, "", ""};
  EXPECT_NO_THROW(check_option_value(u64_spec, "42"));
  EXPECT_NO_THROW(check_option_value(dbl_spec, "0.25"));
  EXPECT_NO_THROW(check_option_value(flag_spec, "whatever"));
  EXPECT_THROW(check_option_value(u64_spec, "4x2"), CsbError);
  EXPECT_THROW(check_option_value(dbl_spec, "fast"), CsbError);
}

TEST(OptionSpecTest, ValidateExtraOptionsNamesUnknownKey) {
  const Generator& generator = require_generator("pgsk-fast");
  GenConfig config;
  config.extra["nois"] = "0.1";  // typo
  try {
    validate_extra_options(generator.options(), config);
    FAIL() << "expected CsbError";
  } catch (const CsbError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("nois"), std::string::npos) << what;
    EXPECT_NE(what.find("noise"), std::string::npos) << what;
  }
}

TEST(OptionSpecTest, EveryRegisteredGeneratorPublishesWellFormedSpecs) {
  for (const Generator* generator : all_generators()) {
    for (const OptionSpec& spec : generator->options()) {
      EXPECT_FALSE(spec.name.empty()) << generator->name();
      EXPECT_FALSE(spec.help.empty())
          << generator->name() << " --" << spec.name;
      if (!spec.default_value.empty()) {
        EXPECT_NO_THROW(check_option_value(spec, spec.default_value))
            << generator->name() << " --" << spec.name;
      }
    }
  }
}

}  // namespace
}  // namespace csb
