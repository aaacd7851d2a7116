// Unit tests for src/graph: PropertyGraph storage, CSR views, structural
// algorithms, PageRank, and the three IO formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "graph/graph_io.hpp"
#include "graph/pagerank.hpp"
#include "graph/property_graph.hpp"
#include "input_sweep.hpp"
#include "util/error.hpp"
#include "util/input_reader.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace csb {
namespace {

EdgeProperties sample_props() {
  return EdgeProperties{
      .protocol = Protocol::kUdp,
      .src_port = 5353,
      .dst_port = 53,
      .duration_ms = 250,
      .out_bytes = 1200,
      .in_bytes = 4800,
      .out_pkts = 4,
      .in_pkts = 6,
      .state = ConnState::kNone,
  };
}

PropertyGraph random_graph(std::uint64_t vertices, std::uint64_t edges,
                           std::uint64_t seed) {
  Rng rng(seed);
  PropertyGraph g(vertices);
  for (std::uint64_t e = 0; e < edges; ++e) {
    g.add_edge(rng.uniform(vertices), rng.uniform(vertices));
  }
  return g;
}

// ---------------------------------------------------------- PropertyGraph

TEST(PropertyGraphTest, VerticesAndEdges) {
  PropertyGraph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.add_vertex(), 0u);
  EXPECT_EQ(g.add_vertices(3), 1u);
  EXPECT_EQ(g.num_vertices(), 4u);
  const EdgeId e = g.add_edge(0, 3);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge_src(e), 0u);
  EXPECT_EQ(g.edge_dst(e), 3u);
}

TEST(PropertyGraphTest, RejectsOutOfRangeEndpoints) {
  PropertyGraph g(2);
  EXPECT_THROW(g.add_edge(0, 2), CsbError);
  EXPECT_THROW(g.add_edge(5, 0), CsbError);
}

TEST(PropertyGraphTest, PropertyRoundTrip) {
  PropertyGraph g(2);
  const EdgeProperties props = sample_props();
  const EdgeId e = g.add_edge(0, 1, props);
  EXPECT_TRUE(g.has_properties());
  EXPECT_EQ(g.edge_properties(e), props);
}

TEST(PropertyGraphTest, MixingStructureAndPropertiesThrows) {
  PropertyGraph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(0, 1, EdgeProperties{}), CsbError);

  PropertyGraph h(2);
  h.add_edge(0, 1, EdgeProperties{});
  EXPECT_THROW(h.add_edge(1, 0), CsbError);
}

TEST(PropertyGraphTest, SelfLoopsAndMultiEdgesAllowed) {
  PropertyGraph g(2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(PropertyGraphTest, MemoryBytesScalesWithEdges) {
  PropertyGraph g(10);
  PropertyGraph h(10);
  for (int i = 0; i < 10; ++i) {
    g.add_edge(0, 1);
    h.add_edge(0, 1, sample_props());
  }
  EXPECT_EQ(g.memory_bytes(), 10 * PropertyGraph::bytes_per_edge(false));
  EXPECT_EQ(h.memory_bytes(), 10 * PropertyGraph::bytes_per_edge(true));
  EXPECT_EQ(PropertyGraph::bytes_per_edge(true),
            PropertyGraph::bytes_per_edge(false) + 34);
}

// ------------------------------------------------------- PropertyColumns

TEST(PropertyColumnsTest, SetRowOverwrites) {
  PropertyColumns columns;
  columns.push_back(EdgeProperties{});
  columns.push_back(EdgeProperties{});
  columns.set_row(1, sample_props());
  EXPECT_EQ(columns.row(0), EdgeProperties{});
  EXPECT_EQ(columns.row(1), sample_props());
}

TEST(PropertyColumnsTest, ViewWindowsEveryColumn) {
  PropertyColumns columns;
  for (std::uint16_t i = 0; i < 5; ++i) {
    EdgeProperties props = sample_props();
    props.src_port = i;
    props.in_pkts = 10u * i;
    columns.push_back(props);
  }
  const PropertyRowsView view = columns.view(1, 3);
  EXPECT_EQ(view.size(), 3u);
  std::size_t visited = 0;
  view.for_each_column([&](const auto& column) {
    EXPECT_EQ(column.size(), 3u);
    ++visited;
  });
  EXPECT_EQ(visited, 9u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(view.row(i), columns.row(1 + i));
}

// The visitor walks the columns in the layout order of the on-disk
// formats: PROTOCOL, SRC_PORT, ..., STATE (paper §III), 34 bytes a row.
TEST(PropertyColumnsTest, ColumnsVisitInSchemaOrder) {
  PropertyColumns columns;
  columns.push_back(sample_props());
  std::vector<std::size_t> widths;
  std::vector<const void*> data;
  columns.for_each_column([&](const auto& column) {
    widths.push_back(sizeof(column[0]));
    data.push_back(column.data());
  });
  EXPECT_EQ(widths, (std::vector<std::size_t>{1, 2, 2, 4, 8, 8, 4, 4, 1}));
  EXPECT_EQ(data.front(), columns.protocol.data());
  EXPECT_EQ(data[1], columns.src_port.data());
  EXPECT_EQ(data[3], columns.duration_ms.data());
  EXPECT_EQ(data[6], columns.out_pkts.data());
  EXPECT_EQ(data.back(), columns.state.data());
  EXPECT_EQ(PropertyColumns::kRowBytes, 34u);
}

TEST(PropertyGraphTest, EdgeIdOutOfRangeThrows) {
  PropertyGraph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW((void)g.edge_src(1), CsbError);
  EXPECT_THROW((void)g.edge_properties(0), CsbError);  // no columns
}

// ------------------------------------------------------------------ CSR

TEST(CsrTest, OutAdjacencyOnKnownGraph) {
  PropertyGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const CsrView csr(g, CsrDirection::kOut);
  EXPECT_EQ(csr.num_vertices(), 4u);
  EXPECT_EQ(csr.num_edges(), 4u);
  EXPECT_EQ(csr.degree(0), 2u);
  EXPECT_EQ(csr.degree(1), 0u);
  const auto n0 = csr.neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(n0.begin(), n0.end()),
            (std::vector<VertexId>{1, 2}));
}

TEST(CsrTest, InAdjacencyOnKnownGraph) {
  PropertyGraph g(3);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  const CsrView csr(g, CsrDirection::kIn);
  EXPECT_EQ(csr.degree(2), 2u);
  EXPECT_EQ(csr.degree(0), 0u);
  const auto n2 = csr.neighbors(2);
  EXPECT_EQ(std::vector<VertexId>(n2.begin(), n2.end()),
            (std::vector<VertexId>{0, 1}));
}

class CsrRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrRandomTest, DegreesMatchDegreeFunctions) {
  const PropertyGraph g = random_graph(50, 400, GetParam());
  const CsrView out_csr(g, CsrDirection::kOut);
  const CsrView in_csr(g, CsrDirection::kIn);
  const auto out_deg = out_degrees(g);
  const auto in_deg = in_degrees(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(out_csr.degree(v), out_deg[v]);
    EXPECT_EQ(in_csr.degree(v), in_deg[v]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------------ algorithms

TEST(DegreeTest, KnownGraph) {
  PropertyGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(out_degrees(g), (std::vector<std::uint64_t>{2, 1, 0}));
  EXPECT_EQ(in_degrees(g), (std::vector<std::uint64_t>{0, 2, 1}));
  EXPECT_EQ(total_degrees(g), (std::vector<std::uint64_t>{2, 3, 1}));
}

TEST(WccTest, TwoComponents) {
  PropertyGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const auto labels = weakly_connected_components(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_EQ(count_components(g), 2u);
}

TEST(WccTest, DirectionIgnored) {
  PropertyGraph g(3);
  g.add_edge(2, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(count_components(g), 1u);
}

TEST(WccTest, IsolatedVerticesAreComponents) {
  PropertyGraph g(4);
  g.add_edge(0, 1);
  EXPECT_EQ(count_components(g), 3u);
}

TEST(SimplifyTest, RemovesParallelEdgesKeepsLoops) {
  PropertyGraph g(3);
  g.add_edge(0, 1, sample_props());
  g.add_edge(0, 1, sample_props());
  g.add_edge(1, 0, sample_props());
  g.add_edge(2, 2, sample_props());
  const PropertyGraph s = simplify(g);
  EXPECT_EQ(s.num_edges(), 3u);  // 0->1, 1->0, 2->2
  EXPECT_EQ(s.num_vertices(), 3u);
  EXPECT_FALSE(s.has_properties());
}

// simplify_parallel promises byte-identical output to serial simplify():
// first-occurrence edge order, loops kept, parallel edges dropped —
// regardless of how the counted shuffle chunks the edge list.
TEST(SimplifyParallelTest, MatchesSerialOnMultigraphAtAnyPoolSize) {
  PropertyGraph g(4);
  g.add_edge(0, 1, sample_props());
  g.add_edge(0, 1, sample_props());
  g.add_edge(1, 0, sample_props());
  g.add_edge(2, 2, sample_props());
  g.add_edge(2, 2, sample_props());
  g.add_edge(3, 0, sample_props());
  const PropertyGraph serial = simplify(g);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(simplify_parallel(g, pool), serial) << threads << " threads";
  }
}

TEST(SimplifyParallelTest, MatchesSerialOnRandomMultigraph) {
  // Dense id range forces many duplicates across chunk boundaries, so
  // shards see interleaved slices from every chunk.
  const PropertyGraph g = random_graph(1 << 10, 50'000, 77);
  const PropertyGraph serial = simplify(g);
  ThreadPool pool(8);
  EXPECT_EQ(simplify_parallel(g, pool), serial);
}

TEST(SimplifyParallelTest, MatchesSerialBeyond32BitVertexIds) {
  // Vertex ids that do not fit the packed (src<<32|dst) key: both paths
  // must switch to the same hash_pair identity.
  const std::uint64_t big = (1ULL << 32) + 4;
  PropertyGraph g(big);
  Rng rng(9);
  for (int e = 0; e < 500; ++e) {
    const VertexId u = rng.uniform(4) + (rng.uniform(2) ? (1ULL << 32) : 0);
    const VertexId v = rng.uniform(4) + (rng.uniform(2) ? (1ULL << 32) : 0);
    g.add_edge(u, v);
  }
  const PropertyGraph serial = simplify(g);
  EXPECT_LT(serial.num_edges(), g.num_edges());
  ThreadPool pool(4);
  EXPECT_EQ(simplify_parallel(g, pool), serial);
}

TEST(TriangleTest, SingleTriangle) {
  PropertyGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_EQ(triangle_count(g), 1u);
}

TEST(TriangleTest, K4HasFourTriangles) {
  PropertyGraph g(4);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) g.add_edge(u, v);
  }
  EXPECT_EQ(triangle_count(g), 4u);
}

TEST(TriangleTest, MultiEdgesDoNotInflateCount) {
  PropertyGraph g(3);
  for (int i = 0; i < 5; ++i) {
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 0);
  }
  EXPECT_EQ(triangle_count(g), 1u);
}

TEST(ClusteringTest, TriangleIsFullyClustered) {
  PropertyGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(g), 1.0);
}

TEST(ClusteringTest, StarHasZeroClustering) {
  PropertyGraph g(5);
  for (VertexId v = 1; v < 5; ++v) g.add_edge(0, v);
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(g), 0.0);
}

TEST(ClusteringTest, PathGraphValue) {
  // 0-1-2: one wedge, no triangle.
  PropertyGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(g), 0.0);
}

// -------------------------------------------------------------- PageRank

TEST(PageRankTest, UniformOnCycle) {
  PropertyGraph g(4);
  for (VertexId v = 0; v < 4; ++v) g.add_edge(v, (v + 1) % 4);
  ThreadPool pool(2);
  const auto result = pagerank(g, pool);
  for (const double score : result.scores) EXPECT_NEAR(score, 0.25, 1e-6);
}

class PageRankSumTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageRankSumTest, ScoresSumToOne) {
  const PropertyGraph g = random_graph(200, 1500, GetParam());
  ThreadPool pool(2);
  const auto result = pagerank(g, pool);
  double sum = 0.0;
  for (const double s : result.scores) sum += s;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageRankSumTest,
                         ::testing::Values(10, 20, 30, 40));

TEST(PageRankTest, StarCenterDominates) {
  PropertyGraph g(6);
  for (VertexId v = 1; v < 6; ++v) g.add_edge(v, 0);
  ThreadPool pool(2);
  const auto result = pagerank(g, pool);
  for (VertexId v = 1; v < 6; ++v) {
    EXPECT_GT(result.scores[0], 3.0 * result.scores[v]);
  }
}

TEST(PageRankTest, HandlesAllDanglingGraph) {
  PropertyGraph g(3);  // no edges at all
  ThreadPool pool(1);
  const auto result = pagerank(g, pool);
  for (const double s : result.scores) EXPECT_NEAR(s, 1.0 / 3.0, 1e-9);
}

TEST(PageRankTest, EmptyGraph) {
  PropertyGraph g;
  ThreadPool pool(1);
  EXPECT_TRUE(pagerank(g, pool).scores.empty());
}

TEST(PageRankTest, ConvergesEarlyWithTolerance) {
  PropertyGraph g(4);
  for (VertexId v = 0; v < 4; ++v) g.add_edge(v, (v + 1) % 4);
  ThreadPool pool(1);
  PageRankOptions options;
  options.max_iterations = 100;
  options.tolerance = 1e-6;
  const auto result = pagerank(g, pool, options);
  EXPECT_LT(result.iterations, 10u);  // cycle is uniform from iteration 1
}

// PageRank's arithmetic contract, written out serially in two passes per
// iteration: contributions and the dangling mass, then the gather. Every
// in-sum is a left fold from 0.0 in CSR order; the dangling and delta sums
// run per 4096-vertex chunk in vertex order, and the chunk partials are
// merged in chunk order. pagerank() must match it bit for bit at any pool
// size, however it schedules the work.
constexpr std::size_t kPageRankChunk = 4096;

PageRankResult reference_pagerank(const PropertyGraph& graph,
                                  const PageRankOptions& options = {}) {
  const CsrView in(graph, CsrDirection::kIn);
  const auto out_deg = out_degrees(graph);
  const std::size_t n = graph.num_vertices();
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> rank(n, inv_n);
  std::vector<double> next(n);
  std::vector<double> contribution(n);
  PageRankResult result;
  for (std::uint32_t iter = 0; iter < options.max_iterations; ++iter) {
    double dangling = 0.0;
    for (std::size_t begin = 0; begin < n; begin += kPageRankChunk) {
      double partial = 0.0;
      for (std::size_t v = begin; v < std::min(n, begin + kPageRankChunk);
           ++v) {
        if (out_deg[v] == 0) {
          partial += rank[v];
          contribution[v] = 0.0;
        } else {
          contribution[v] = rank[v] / static_cast<double>(out_deg[v]);
        }
      }
      dangling += partial;
    }
    const double base = (1.0 - options.damping) * inv_n +
                        options.damping * dangling * inv_n;
    double delta = 0.0;
    for (std::size_t begin = 0; begin < n; begin += kPageRankChunk) {
      double partial = 0.0;
      for (std::size_t v = begin; v < std::min(n, begin + kPageRankChunk);
           ++v) {
        double sum = 0.0;
        for (const VertexId u : in.neighbors(v)) sum += contribution[u];
        next[v] = base + options.damping * sum;
        partial += std::abs(next[v] - rank[v]);
      }
      delta += partial;
    }
    rank.swap(next);
    result.iterations = iter + 1;
    result.final_delta = delta;
    if (delta < options.tolerance) break;
  }
  result.scores = std::move(rank);
  return result;
}

/// Chunks that pagerank_csr pre-gathers: more than 2^16 in-edges and more
/// than 8 times the mean per chunk.
std::size_t heavy_pagerank_chunks(const PropertyGraph& graph) {
  const auto in_deg = in_degrees(graph);
  const std::size_t chunks =
      (in_deg.size() + kPageRankChunk - 1) / kPageRankChunk;
  const double mean = static_cast<double>(graph.num_edges()) /
                      static_cast<double>(chunks);
  std::size_t heavy = 0;
  for (std::size_t begin = 0; begin < in_deg.size(); begin += kPageRankChunk) {
    std::uint64_t edges = 0;
    for (std::size_t v = begin;
         v < std::min(in_deg.size(), begin + kPageRankChunk); ++v) {
      edges += in_deg[v];
    }
    if (edges > (1u << 16) && static_cast<double>(edges) > 8.0 * mean) {
      ++heavy;
    }
  }
  return heavy;
}

void expect_pagerank_matches_reference(const PropertyGraph& graph) {
  const PageRankResult expected = reference_pagerank(graph);
  for (const std::size_t threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    const PageRankResult actual = pagerank(graph, pool);
    ASSERT_EQ(actual.iterations, expected.iterations) << threads << " threads";
    ASSERT_EQ(actual.final_delta, expected.final_delta)
        << threads << " threads";
    ASSERT_EQ(actual.scores.size(), expected.scores.size());
    for (std::size_t v = 0; v < expected.scores.size(); ++v) {
      ASSERT_EQ(actual.scores[v], expected.scores[v])
          << "vertex " << v << ", " << threads << " threads";
    }
  }
}

/// 200k vertices: hub in-edges on ids 0-9 (10k each) and 4100-4109 (one
/// 70k hub, larger than a pre-gather range, and nine of 3k), plus a tail
/// of `tail` edges spread over the whole id range. Hub edges come from
/// `hub_sources` random sources starting at `first_source`.
PropertyGraph hub_graph(std::uint64_t first_source, std::uint64_t hub_sources,
                        std::uint64_t tail) {
  constexpr std::uint64_t kVertices = 200000;
  Rng rng(71);
  PropertyGraph g(kVertices);
  const auto add_hub = [&](VertexId hub, std::uint64_t in_edges) {
    for (std::uint64_t i = 0; i < in_edges; ++i) {
      g.add_edge(first_source + rng.uniform(hub_sources), hub);
    }
  };
  for (VertexId hub = 0; hub < 10; ++hub) add_hub(hub, 10000);
  add_hub(4100, 70000);
  for (VertexId hub = 4101; hub < 4110; ++hub) add_hub(hub, 3000);
  for (std::uint64_t e = 0; e < tail; ++e) {
    g.add_edge(rng.uniform(kVertices), rng.uniform(kVertices));
  }
  return g;
}

TEST(PageRankOracleTest, HeavyChunksMatchSerialReferenceBitForBit) {
  const PropertyGraph g = hub_graph(0, 200000, 100000);
  ASSERT_EQ(heavy_pagerank_chunks(g), 2u);
  expect_pagerank_matches_reference(g);
}

TEST(PageRankOracleTest, DanglingHeavyChunksMatchSerialReference) {
  // Hub edges all leave ids 100000-109999, and the tail is small, so the
  // hubs and most other vertices have no out-edge: nearly all the mass
  // moves through the dangling sum.
  const PropertyGraph g = hub_graph(100000, 10000, 2000);
  ASSERT_EQ(heavy_pagerank_chunks(g), 2u);
  const auto out_deg = out_degrees(g);
  for (VertexId hub = 0; hub < 10; ++hub) ASSERT_EQ(out_deg[hub], 0u);
  expect_pagerank_matches_reference(g);
}

TEST(PageRankOracleTest, NoHeavyChunkMatchesSerialReference) {
  const PropertyGraph g = random_graph(200000, 300000, 5);
  ASSERT_EQ(heavy_pagerank_chunks(g), 0u);
  expect_pagerank_matches_reference(g);
}

// ------------------------------------------------------------------- IO

class BinaryIoTest : public ::testing::TestWithParam<bool> {};

TEST_P(BinaryIoTest, RoundTrips) {
  const bool with_props = GetParam();
  Rng rng(99);
  PropertyGraph g(20);
  for (int i = 0; i < 50; ++i) {
    const VertexId u = rng.uniform(20);
    const VertexId v = rng.uniform(20);
    if (with_props) {
      EdgeProperties p = sample_props();
      p.out_bytes = rng.uniform(100000);
      p.src_port = static_cast<std::uint16_t>(rng.uniform(65536));
      g.add_edge(u, v, p);
    } else {
      g.add_edge(u, v);
    }
  }
  std::stringstream buffer;
  save_binary(g, buffer);
  const PropertyGraph loaded = load_binary(buffer);
  EXPECT_EQ(loaded, g);
}

INSTANTIATE_TEST_SUITE_P(Props, BinaryIoTest, ::testing::Bool());

TEST(BinaryIoTest, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOTAGRAPH-------------------------";
  EXPECT_THROW(load_binary(buffer), CsbError);
}

TEST(BinaryIoTest, RejectsTruncatedStream) {
  PropertyGraph g(5);
  g.add_edge(0, 1);
  std::stringstream buffer;
  save_binary(g, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_binary(truncated), CsbError);
}

/// Serialized form of a 4-vertex, 3-edge graph with properties.
std::string small_binary_graph() {
  PropertyGraph g(4);
  g.add_edge(0, 1, sample_props());
  g.add_edge(1, 2, sample_props());
  g.add_edge(3, 0, sample_props());
  std::stringstream buffer;
  save_binary(g, buffer);
  return buffer.str();
}

// Header: magic, version, |V|, |E|, has_props (4 + 4 + 8 + 8 + 1 bytes),
// then src[3], dst[3], protocol[3], ..., state[3].
constexpr std::size_t kBinaryHeader = 25;
constexpr std::size_t kProtocolColumn = kBinaryHeader + 2 * 3 * 8;

/// The bytes must be rejected from a stream, and from a file with an error
/// that names the file.
void expect_binary_rejected(const std::string& bytes, const std::string& tag) {
  std::stringstream stream(bytes);
  EXPECT_THROW(load_binary(stream), CsbError);
  const std::string path = ::testing::TempDir() + "/csb_graph_bad_" + tag;
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  try {
    (void)load_binary_file(path);
    ADD_FAILURE() << tag << ": load_binary_file accepted the bytes";
  } catch (const CsbError& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
        << error.what();
  }
}

TEST(BinaryIoTest, RejectsUnknownEnumBytes) {
  std::string bytes = small_binary_graph();
  bytes[kProtocolColumn + 1] = 99;  // not ICMP, TCP or UDP
  expect_binary_rejected(bytes, "protocol");

  bytes = small_binary_graph();
  bytes[bytes.size() - 1] = 8;  // the state column is last; kOth is 7
  expect_binary_rejected(bytes, "state");
}

TEST(BinaryIoTest, RejectsTruncationInLastPropertyColumn) {
  const std::string bytes = small_binary_graph();
  expect_binary_rejected(bytes.substr(0, bytes.size() - 1), "truncated");
}

TEST(BinaryIoTest, RejectsOutOfRangeEndpoint) {
  std::string bytes = small_binary_graph();
  bytes[kBinaryHeader + 3 * 8] = 4;  // dst[0] = 4 on a 4-vertex graph
  expect_binary_rejected(bytes, "endpoint");
}

// Every truncation of a valid file and every single-byte flip (^0x01,
// ^0x80, ^0xff) either loads or is rejected as bad input naming the file
// and a byte offset — never as a failed internal check, and never after
// allocating the columns a corrupted header claims.
TEST(BinaryIoTest, InputSweepLoadsOrNamesFileAndOffset) {
  const std::string path = ::testing::TempDir() + "/csb_graph_sweep.bin";
  const InputLoader load = [](const std::string& file) {
    (void)load_binary_file(file);
  };
  const std::string prefix = "bad binary graph " + path + ": byte ";
  PropertyGraph structure_only(4);
  structure_only.add_edge(0, 1);
  structure_only.add_edge(3, 2);
  std::stringstream structure_bytes;
  save_binary(structure_only, structure_bytes);
  for (const auto& [form, bytes] :
       {std::pair{"with properties", small_binary_graph()},
        std::pair{"structure only", structure_bytes.str()}}) {
    SCOPED_TRACE(form);
    EXPECT_TRUE(sweep_input(path, bytes, load, prefix).empty());
    // Bit 32 of the edge count: 2^32 more edges than the file holds.
    std::string huge = bytes;
    huge[20] = static_cast<char>(huge[20] ^ 0x01);
    EXPECT_FALSE(loads_or_bad_input(path, huge, load, prefix, "edges + 2^32"));
  }
  std::remove(path.c_str());
}

/// The graphs every text-format sweep covers: 4 vertices and 3 edges, with
/// properties (a UDP and a TCP row) and as structure alone.
std::vector<std::pair<std::string, PropertyGraph>> sweep_graphs() {
  PropertyGraph props(4);
  EdgeProperties tcp = sample_props();
  tcp.protocol = Protocol::kTcp;
  tcp.state = ConnState::kSF;
  props.add_edge(0, 1, sample_props());
  props.add_edge(1, 2, tcp);
  props.add_edge(3, 0, sample_props());
  PropertyGraph structure(4);
  structure.add_edge(0, 1);
  structure.add_edge(3, 2);
  return {{"with properties", props}, {"structure only", structure}};
}

/// Runs the input sweep over sweep_graphs() written by `save`, reading each
/// variant as the format registry does: opened by path, then `load`.
void sweep_text_format(void (*save)(const PropertyGraph&, std::ostream&),
                       PropertyGraph (*load)(std::istream&,
                                             const std::string&),
                       const std::string& kind, const std::string& unit,
                       const std::string& path) {
  const InputLoader loader = [&](const std::string& file) {
    std::ifstream in = open_input(kind, file);
    (void)load(in, file);
  };
  for (const auto& [form, graph] : sweep_graphs()) {
    SCOPED_TRACE(form);
    std::stringstream text;
    save(graph, text);
    (void)sweep_input(path, text.str(), loader,
                      "bad " + kind + " " + path + ": " + unit + " ");
  }
}

TEST(CsvIoTest, RoundTripsWithProperties) {
  PropertyGraph g(3);
  g.add_edge(0, 1, sample_props());
  EdgeProperties p2 = sample_props();
  p2.protocol = Protocol::kTcp;
  p2.state = ConnState::kSF;
  g.add_edge(2, 0, p2);
  std::stringstream buffer;
  save_csv(g, buffer);
  const PropertyGraph loaded = load_csv(buffer);
  EXPECT_EQ(loaded, g);
}

TEST(CsvIoTest, RoundTripsStructureOnly) {
  PropertyGraph g(4);
  g.add_edge(0, 3);
  g.add_edge(3, 2);
  std::stringstream buffer;
  save_csv(g, buffer);
  const PropertyGraph loaded = load_csv(buffer);
  EXPECT_EQ(loaded.num_edges(), 2u);
  EXPECT_EQ(loaded.edge_src(0), 0u);
  EXPECT_EQ(loaded.edge_dst(0), 3u);
  EXPECT_FALSE(loaded.has_properties());
}

TEST(CsvIoTest, RejectsMissingHeader) {
  std::stringstream buffer("1,2,TCP\n");
  EXPECT_THROW(load_csv(buffer), CsbError);
}

struct BadCsvCase {
  const char* what;
  std::string text;
  int line;
  std::string reason;
};

// One malformed input per reason the CSV reader rejects; each must throw
// a CsbError naming the source and the line, never an assertion text.
TEST(CsvIoTest, MalformedInputNamesFileAndLine) {
  const std::string header =
      "src,dst,protocol,src_port,dst_port,duration_ms,out_bytes,in_bytes,"
      "out_pkts,in_pkts,state\n";
  const std::string good = "0,1,TCP,1000,80,5,300,400,3,4,SF\n";
  const std::vector<BadCsvCase> cases = {
      {"empty file", "", 1, "empty file, no header"},
      {"no header", good, 1, "missing header (a line starting 'src,dst')"},
      {"short row", header + "0,1,,,,,,,,\n", 2,
       "expected 11 fields, found 10"},
      {"long row", header + good + "0,1,TCP,1000,80,5,300,400,3,4,SF,x\n", 3,
       "expected 11 fields, found 12"},
      {"non-numeric vertex", header + "x,1,,,,,,,,,\n", 2,
       "src: not a number: 'x'"},
      {"signed vertex", header + "0,-1,,,,,,,,,\n", 2,
       "dst: not a number: '-1'"},
      {"vertex past the id range",
       header + "18446744073709551615,1,,,,,,,,,\n", 2,
       "src: 18446744073709551615 out of range (max 18446744073709551614)"},
      {"port out of range", header + "0,1,TCP,70000,80,5,300,400,3,4,SF\n", 2,
       "src_port: 70000 out of range (max 65535)"},
      {"u64 overflow",
       header + "0,1,TCP,1,80,5,99999999999999999999,400,3,4,SF\n", 2,
       "out_bytes: 99999999999999999999 out of range (max "
       "18446744073709551615)"},
      {"trailing junk", header + "0,1,TCP,1,80,5x,300,400,3,4,SF\n", 2,
       "duration_ms: not a number: '5x'"},
      {"unknown protocol", header + "\n0,1,XTP,1,80,5,300,400,3,4,SF\n", 3,
       "unknown protocol: XTP"},
      {"unknown state", header + "0,1,UDP,1,80,5,300,400,3,4,ZZ\n", 2,
       "unknown conn state: ZZ"},
      {"property fields without a protocol", header + "0,1,,1,,,,,,,\n", 2,
       "property fields on a row without a protocol"},
      {"mixed rows", header + good + "2,3,,,,,,,,,\n", 3,
       "mixes property and structure-only rows"},
  };
  for (const BadCsvCase& c : cases) {
    SCOPED_TRACE(c.what);
    std::stringstream buffer(c.text);
    try {
      (void)load_csv(buffer, "graph.csv");
      ADD_FAILURE() << "accepted";
    } catch (const CsbError& error) {
      EXPECT_EQ(std::string(error.what()),
                "bad csv graph graph.csv: line " + std::to_string(c.line) +
                    ": " + c.reason);
    }
  }
}

TEST(CsvIoTest, InputSweepLoadsOrNamesFileAndLine) {
  sweep_text_format(save_csv, load_csv, "csv graph", "line",
                    ::testing::TempDir() + "/csb_graph_sweep.csv");
}

TEST(GraphmlTest, InputSweepLoadsOrNamesFileAndOffset) {
  sweep_text_format(save_graphml, load_graphml, "GraphML", "byte",
                    ::testing::TempDir() + "/csb_graph_sweep.graphml");
}

// A src_port that does not fit its column, is negative or carries junk is
// bad input at the byte its value starts; a <data> element that runs into
// the next tag instead of its </data> is bad input at the element.
TEST(GraphmlTest, RejectsBadValuesAtTheirByteOffset) {
  PropertyGraph g(2);
  g.add_edge(0, 1, sample_props());  // src_port 5353
  std::stringstream xml;
  save_graphml(g, xml);
  const std::string doc = xml.str();
  const std::string tag = "<data key=\"src_port\">";
  const std::size_t tag_at = doc.find(tag);
  ASSERT_NE(tag_at, std::string::npos);
  const std::size_t value_at = tag_at + tag.size();
  ASSERT_EQ(doc.substr(value_at, 11), "5353</data>");
  const auto edited = [&](std::size_t length, const std::string& text) {
    return std::string(doc).replace(value_at, length, text);
  };
  const struct {
    std::string text;
    std::size_t at;
    std::string reason;
  } cases[] = {
      {edited(4, "70000"), value_at,
       "src_port: 70000 out of range (max 65535)"},
      {edited(4, "-1"), value_at, "src_port: not a number: '-1'"},
      {edited(4, "5x"), value_at, "src_port: not a number: '5x'"},
      {edited(11, "5353"), tag_at, "unterminated GraphML data element"},
  };
  const std::string path = ::testing::TempDir() + "/csb_graphml_bad.graphml";
  for (const auto& c : cases) {
    SCOPED_TRACE(c.reason);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << c.text;
    }
    try {
      std::ifstream in = open_input("GraphML", path);
      (void)load_graphml(in, path);
      ADD_FAILURE() << "loaded";
    } catch (const CsbError& error) {
      EXPECT_EQ(std::string(error.what()),
                "bad GraphML " + path + ": byte " + std::to_string(c.at) +
                    ": " + c.reason);
    }
  }
  std::remove(path.c_str());
}

TEST(GraphmlTest, ContainsNodesEdgesAndAttributes) {
  PropertyGraph g(2);
  g.add_edge(0, 1, sample_props());
  std::stringstream buffer;
  save_graphml(g, buffer);
  const std::string xml = buffer.str();
  EXPECT_NE(xml.find("<node id=\"n0\"/>"), std::string::npos);
  EXPECT_NE(xml.find("<node id=\"n1\"/>"), std::string::npos);
  EXPECT_NE(xml.find("source=\"n0\" target=\"n1\""), std::string::npos);
  EXPECT_NE(xml.find("<data key=\"protocol\">UDP</data>"), std::string::npos);
  EXPECT_NE(xml.find("<data key=\"in_bytes\">4800</data>"), std::string::npos);
  EXPECT_NE(xml.find("</graphml>"), std::string::npos);
}

TEST(BinaryFileTest, FileRoundTrip) {
  PropertyGraph g(3);
  g.add_edge(0, 1, sample_props());
  const std::string path = ::testing::TempDir() + "/csb_graph_test.bin";
  save_binary_file(g, path);
  EXPECT_EQ(load_binary_file(path), g);
}

TEST(GraphmlTest, RoundTripsWithProperties) {
  Rng rng(17);
  PropertyGraph g(12);
  for (int i = 0; i < 40; ++i) {
    EdgeProperties p = sample_props();
    p.out_bytes = rng.uniform(100000);
    p.dst_port = static_cast<std::uint16_t>(rng.uniform(65536));
    p.state = ConnState::kSF;
    p.protocol = Protocol::kTcp;
    g.add_edge(rng.uniform(12), rng.uniform(12), p);
  }
  std::stringstream xml;
  save_graphml(g, xml);
  const PropertyGraph loaded = load_graphml(xml);
  EXPECT_EQ(loaded, g);
}

TEST(GraphmlTest, RoundTripsStructureOnly) {
  PropertyGraph g(4);
  g.add_edge(0, 3);
  g.add_edge(3, 1);
  std::stringstream xml;
  save_graphml(g, xml);
  const PropertyGraph loaded = load_graphml(xml);
  EXPECT_EQ(loaded.num_vertices(), 4u);
  EXPECT_EQ(loaded.num_edges(), 2u);
  EXPECT_FALSE(loaded.has_properties());
  EXPECT_EQ(loaded.edge_dst(0), 3u);
}

TEST(GraphmlTest, PreservesIsolatedVertices) {
  PropertyGraph g(6);  // vertices 2..5 are isolated
  g.add_edge(0, 1);
  std::stringstream xml;
  save_graphml(g, xml);
  EXPECT_EQ(load_graphml(xml).num_vertices(), 6u);
}

TEST(GraphmlTest, RejectsGarbage) {
  std::stringstream not_xml("hello world");
  EXPECT_THROW(load_graphml(not_xml), CsbError);
  std::stringstream bad_id(
      "<graphml><graph><node id=\"xyz\"/></graph></graphml>");
  EXPECT_THROW(load_graphml(bad_id), CsbError);
}

// ---------------------------------------------------------------- SCC

TEST(SccTest, CycleIsOneComponent) {
  PropertyGraph g(4);
  for (VertexId v = 0; v < 4; ++v) g.add_edge(v, (v + 1) % 4);
  const auto labels = strongly_connected_components(g);
  for (const VertexId l : labels) EXPECT_EQ(l, 0u);
  EXPECT_EQ(count_strong_components(g), 1u);
}

TEST(SccTest, DagIsAllSingletons) {
  PropertyGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  const auto labels = strongly_connected_components(g);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(labels[v], v);
  EXPECT_EQ(count_strong_components(g), 4u);
}

TEST(SccTest, TwoCyclesJoinedByBridge) {
  // Cycle {0,1,2} -> bridge -> cycle {3,4}.
  PropertyGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 3);
  const auto labels = strongly_connected_components(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_EQ(count_strong_components(g), 2u);
}

TEST(SccTest, AgreesWithWccOnSymmetricGraphs) {
  // When every edge has its reverse, SCC == WCC.
  Rng rng(12);
  PropertyGraph g(60);
  for (int i = 0; i < 120; ++i) {
    const VertexId u = rng.uniform(60);
    const VertexId v = rng.uniform(60);
    g.add_edge(u, v);
    g.add_edge(v, u);
  }
  EXPECT_EQ(strongly_connected_components(g),
            weakly_connected_components(g));
}

TEST(SccTest, DeepPathDoesNotOverflowStack) {
  // 200k-vertex directed path: recursive Tarjan would crash.
  constexpr std::uint64_t kN = 200'000;
  PropertyGraph g(kN);
  for (VertexId v = 0; v + 1 < kN; ++v) g.add_edge(v, v + 1);
  EXPECT_EQ(count_strong_components(g), kN);
}

// --------------------------------------------------------------- k-core

TEST(KCoreTest, TriangleWithTail) {
  // Triangle {0,1,2} (core 2) with a pendant 3 (core 1) and isolated 4.
  PropertyGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  const auto core = core_numbers(g);
  EXPECT_EQ(core[0], 2u);
  EXPECT_EQ(core[1], 2u);
  EXPECT_EQ(core[2], 2u);
  EXPECT_EQ(core[3], 1u);
  EXPECT_EQ(core[4], 0u);
}

TEST(KCoreTest, CompleteGraphCore) {
  constexpr std::uint64_t kN = 6;
  PropertyGraph g(kN);
  for (VertexId u = 0; u < kN; ++u) {
    for (VertexId v = u + 1; v < kN; ++v) g.add_edge(u, v);
  }
  for (const auto c : core_numbers(g)) EXPECT_EQ(c, kN - 1);
}

TEST(KCoreTest, CoreNeverExceedsDegree) {
  const PropertyGraph g = random_graph(100, 600, 33);
  const auto core = core_numbers(g);
  const PropertyGraph simple = simplify(g);
  const auto degree = total_degrees(simple);
  for (VertexId v = 0; v < 100; ++v) {
    EXPECT_LE(core[v], degree[v]);
  }
}

// --------------------------------------------------------- assortativity

TEST(AssortativityTest, HubFanoutIsDisassortative) {
  // A high-out-degree hub feeding degree-1 leaves, plus one leaf-to-leaf
  // edge pointing at a well-fed target: high source degree pairs with low
  // target degree and vice versa -> negative correlation.
  PropertyGraph g(10);
  for (VertexId v = 1; v < 9; ++v) g.add_edge(0, v);  // hub out-degree 8
  g.add_edge(1, 2);  // source out-degree 1, target in-degree 2
  EXPECT_LT(degree_assortativity(g), 0.0);
}

TEST(AssortativityTest, DegenerateGraphsReturnZero) {
  PropertyGraph g(3);
  EXPECT_DOUBLE_EQ(degree_assortativity(g), 0.0);
  g.add_edge(0, 1);
  EXPECT_DOUBLE_EQ(degree_assortativity(g), 0.0);  // single edge
  // Regular cycle: all degrees equal -> zero variance -> 0.
  PropertyGraph cycle(4);
  for (VertexId v = 0; v < 4; ++v) cycle.add_edge(v, (v + 1) % 4);
  EXPECT_DOUBLE_EQ(degree_assortativity(cycle), 0.0);
}

TEST(AssortativityTest, BoundedByOne) {
  const PropertyGraph g = random_graph(80, 500, 44);
  const double r = degree_assortativity(g);
  EXPECT_GE(r, -1.0);
  EXPECT_LE(r, 1.0);
}

}  // namespace
}  // namespace csb
