// Unit tests for src/obs (the csb.trace.v1 observability layer) and the
// generator registry: NDJSON rendering is pinned byte-for-byte by a golden
// file, parsing round-trips the writer's output, ClusterSim span bookkeeping
// reconciles with JobMetrics to 1e-9, and registered generators stay
// deterministic per fixed seed.
//
// Regenerate the golden file after an intentional schema change with
//   CSB_REGEN_GOLDEN=1 ./tests/obs_test --gtest_filter='*Golden*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "gen/generator.hpp"
#include "mr/cluster.hpp"
#include "obs/json.hpp"
#include "obs/memwatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "seed/seed.hpp"
#include "trace/traffic_model.hpp"
#include "input_sweep.hpp"
#include "util/error.hpp"

namespace csb {
namespace {

// ------------------------------------------------------------------ json

TEST(JsonTest, ParsesScalarsArraysAndObjects) {
  const JsonValue value =
      parse_json(R"({"a": 1.5, "b": "x", "c": [1, 2], "d": {"e": true}})");
  ASSERT_TRUE(value.is_object());
  EXPECT_DOUBLE_EQ(value.at("a").as_number(), 1.5);
  EXPECT_EQ(value.at("b").as_string(), "x");
  ASSERT_TRUE(value.at("c").is_array());
  EXPECT_EQ(value.at("c").items().size(), 2u);
  EXPECT_TRUE(value.at("d").at("e").as_bool());
  EXPECT_EQ(value.find("missing"), nullptr);
  EXPECT_THROW((void)value.at("missing"), CsbError);
}

TEST(JsonTest, DumpParseDumpIsByteStable) {
  // Shortest-round-trip doubles: serialize -> parse -> serialize must be
  // identical bytes (the property the trace golden file relies on).
  JsonValue obj;
  obj.set("pi", JsonValue(3.141592653589793));
  obj.set("tiny", JsonValue(1e-300));
  obj.set("neg", JsonValue(-0.1));
  obj.set("text", JsonValue(std::string("quote \" slash \\ nl \n")));
  const std::string once = obj.dump();
  EXPECT_EQ(parse_json(once).dump(), once);
}

TEST(JsonTest, MalformedInputThrows) {
  EXPECT_THROW(parse_json("{"), CsbError);
  EXPECT_THROW(parse_json("{\"a\": }"), CsbError);
  EXPECT_THROW(parse_json("nope"), CsbError);
}

// ----------------------------------------------------------- trace lines

// Fixed records whose rendering the golden file pins down.
std::vector<std::string> golden_lines() {
  SpanRecord stage;
  stage.id = 2;
  stage.parent = 1;
  stage.name = "distinct:shuffle";
  stage.kind = "stage";
  stage.t0 = 0.001;
  stage.t1 = 0.015625;
  stage.seconds = 0.25;
  stage.tasks = 4;
  stage.task_seconds = 0.9;
  stage.node_busy = {0.5, 0.4};
  stage.task_hist = {0, 2, 2};

  SpanRecord phase;
  phase.id = 1;
  phase.parent = 0;
  phase.name = "expand";
  phase.kind = "phase";
  phase.t0 = 0.0005;
  phase.t1 = 0.125;
  phase.seconds = 0.1245;

  BenchRecord bench;
  bench.name = "BM_DistinctDedup";
  bench.fields.emplace_back("iterations", JsonValue(std::uint64_t{1000}));
  bench.fields.emplace_back("real_s_per_iter", JsonValue(0.0031537809660003406));
  bench.fields.emplace_back("label", JsonValue(std::string("re\"lease")));

  return {
      trace_lines::meta({{"tool", "obs_test"}, {"algo", "pgsk"}}),
      trace_lines::span(stage),
      trace_lines::span(phase),
      trace_lines::counter({"gen.edges_materialized", 20766}),
      trace_lines::mem({"end", 1.5, 104857600, 209715200}),
      trace_lines::bench(bench),
  };
}

std::string golden_path() {
  return std::string(CSB_TEST_DATA_DIR) + "/trace_golden.ndjson";
}

TEST(TraceLinesTest, GoldenFilePinsSerialization) {
  std::string rendered;
  for (const std::string& line : golden_lines()) {
    rendered += line;
    rendered += '\n';
  }
  if (std::getenv("CSB_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary | std::ios::trunc);
    out << rendered;
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.is_open()) << golden_path();
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(rendered, expected.str())
      << "csb.trace.v1 serialization changed; if intentional, regenerate "
         "with CSB_REGEN_GOLDEN=1 and bump consumers";
}

TEST(TraceLinesTest, ParseRoundTripsEveryRecordType) {
  std::string rendered;
  for (const std::string& line : golden_lines()) {
    rendered += line;
    rendered += '\n';
  }
  std::istringstream in(rendered);
  std::vector<std::string> errors;
  const ParsedTrace trace = parse_trace_ndjson(in, &errors);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  EXPECT_EQ(trace.records, 6u);
  EXPECT_EQ(trace.meta_value("tool"), "obs_test");
  EXPECT_EQ(trace.meta_value("algo"), "pgsk");
  EXPECT_EQ(trace.meta_value("absent", "fallback"), "fallback");

  ASSERT_EQ(trace.spans.size(), 2u);
  const SpanRecord& stage = trace.spans[0];
  EXPECT_EQ(stage.id, 2u);
  EXPECT_EQ(stage.parent, 1u);
  EXPECT_EQ(stage.name, "distinct:shuffle");
  EXPECT_EQ(stage.kind, "stage");
  EXPECT_DOUBLE_EQ(stage.seconds, 0.25);
  EXPECT_EQ(stage.tasks, 4u);
  EXPECT_DOUBLE_EQ(stage.task_seconds, 0.9);
  ASSERT_EQ(stage.node_busy.size(), 2u);
  EXPECT_DOUBLE_EQ(stage.node_busy[1], 0.4);
  EXPECT_EQ(stage.task_hist, (std::vector<std::uint64_t>{0, 2, 2}));

  ASSERT_EQ(trace.counters.size(), 1u);
  EXPECT_EQ(trace.counters[0].name, "gen.edges_materialized");
  EXPECT_EQ(trace.counters[0].value, 20766u);

  ASSERT_EQ(trace.mems.size(), 1u);
  EXPECT_EQ(trace.mems[0].label, "end");
  EXPECT_EQ(trace.mems[0].rss_bytes, 104857600u);
  EXPECT_EQ(trace.mems[0].hwm_bytes, 209715200u);

  ASSERT_EQ(trace.benches.size(), 1u);
  EXPECT_EQ(trace.benches[0].name, "BM_DistinctDedup");
  ASSERT_EQ(trace.benches[0].fields.size(), 3u);
  EXPECT_EQ(trace.benches[0].fields[2].second.as_string(), "re\"lease");

  // Re-rendering the parsed records reproduces the input byte-for-byte.
  std::string again = trace_lines::meta(trace.meta) + '\n';
  again += trace_lines::span(trace.spans[0]) + '\n';
  again += trace_lines::span(trace.spans[1]) + '\n';
  again += trace_lines::counter(trace.counters[0]) + '\n';
  again += trace_lines::mem(trace.mems[0]) + '\n';
  again += trace_lines::bench(trace.benches[0]) + '\n';
  EXPECT_EQ(again, rendered);
}

TEST(TraceParseTest, CollectsSchemaViolations) {
  const std::string input =
      "{\"v\":\"csb.trace.v0\",\"type\":\"meta\",\"attrs\":{}}\n"
      "{\"v\":\"csb.trace.v1\",\"type\":\"wat\"}\n"
      "not json at all\n"
      "{\"v\":\"csb.trace.v1\",\"type\":\"counter\",\"name\":\"x\"}\n";
  std::istringstream in(input);
  std::vector<std::string> errors;
  const ParsedTrace trace = parse_trace_ndjson(in, &errors);
  EXPECT_GE(errors.size(), 4u);
  // The bad-version and malformed lines don't count as records; the lines
  // that carried a valid version tag do (their problems are reported).
  EXPECT_EQ(trace.records, 2u);
  EXPECT_TRUE(trace.counters.empty());

  // Without an error sink the first violation throws.
  std::istringstream strict(input);
  EXPECT_THROW(parse_trace_ndjson(strict), CsbError);
}

TEST(TraceParseTest, FlagsNonMonotoneSpansAndDanglingParents) {
  SpanRecord a;
  a.id = 1;
  a.name = "a";
  a.kind = "serial";
  a.t0 = 0.0;
  a.t1 = 2.0;
  SpanRecord b;
  b.id = 2;
  b.parent = 99;  // no such span
  b.name = "b";
  b.kind = "serial";
  b.t0 = 0.0;
  b.t1 = 1.0;  // completes before a -> non-monotone file order
  std::istringstream in(trace_lines::meta({{"tool", "obs_test"}}) + '\n' +
                        trace_lines::span(a) + '\n' + trace_lines::span(b) +
                        '\n');
  std::vector<std::string> errors;
  parse_trace_ndjson(in, &errors);
  EXPECT_EQ(errors.size(), 2u);
}

// A trace file cut mid-record names the file and the line, both when the
// first problem throws and when `csbgen report --check` collects them; a
// path that cannot be opened is named too.
TEST(TraceParseTest, TruncatedLineNamesFileAndLine) {
  SpanRecord span;
  span.id = 1;
  span.name = "a";
  span.kind = "serial";
  span.t1 = 1.0;
  const std::string whole = trace_lines::span(span);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("csb_obs_test_truncated_" + std::to_string(::getpid()) + ".ndjson"))
          .string();
  std::ofstream(path) << trace_lines::meta({{"tool", "obs_test"}}) << '\n'
                      << whole.substr(0, whole.size() / 2) << '\n';

  try {
    (void)parse_trace_file(path);
    ADD_FAILURE() << "expected CsbError";
  } catch (const CsbError& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind("bad trace " + path + ": line 2: ", 0), 0u) << what;
  }
  std::vector<std::string> errors;
  (void)parse_trace_file(path, &errors);
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors[0].rfind("line 2: ", 0), 0u) << errors[0];
  std::filesystem::remove(path);

  try {
    (void)parse_trace_file(path);
    ADD_FAILURE() << "expected CsbError";
  } catch (const CsbError& error) {
    EXPECT_EQ(std::string(error.what()), "bad trace " + path + ": cannot open");
  }
}

// Array items and counter values of the wrong type or sign are schema
// violations at their line, not failed internal checks.
TEST(TraceParseTest, WrongTypedValuesAreReportedAtTheirLine) {
  const std::string meta = trace_lines::meta({{"tool", "obs_test"}}) + '\n';
  const std::string span_head =
      "{\"v\":\"csb.trace.v1\",\"type\":\"span\",\"id\":1,\"parent\":0,"
      "\"name\":\"a\",\"kind\":\"serial\",\"t0\":0,\"t1\":1,\"seconds\":1,";
  for (const std::string& line :
       {span_head + "\"task_hist\":[\"x\"]}", span_head + "\"task_hist\":[-1]}",
        span_head + "\"node_busy\":[true]}",
        std::string("{\"v\":\"csb.trace.v1\",\"type\":\"counter\","
                    "\"name\":\"c\",\"value\":-5}")}) {
    SCOPED_TRACE(line);
    std::istringstream in(meta + line + '\n');
    try {
      (void)parse_trace_ndjson(in, nullptr, "t.ndjson");
      ADD_FAILURE() << "parsed";
    } catch (const CsbError& error) {
      const std::string what = error.what();
      EXPECT_EQ(what.rfind("bad trace t.ndjson: line 2: ", 0), 0u) << what;
    }
  }
}

// Every cut and byte flip of the golden trace loads or is rejected naming
// the file and a line.
TEST(TraceParseTest, InputSweepLoadsOrNamesFileAndLine) {
  std::ifstream golden(golden_path(), std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(golden)),
                          std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes.empty());
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("csb_obs_test_sweep_" + std::to_string(::getpid()) + ".ndjson"))
          .string();
  (void)sweep_input(
      path, bytes,
      [](const std::string& file) { (void)parse_trace_file(file); },
      "bad trace " + path + ": line ");
}

// -------------------------------------------------------------- recorder

TEST(TraceRecorderTest, SpansReconcileWithJobMetrics) {
  ClusterSim cluster(ClusterConfig{.nodes = 2, .cores_per_node = 2});
  TraceRecorder recorder;
  recorder.set_meta("tool", "obs_test");
  cluster.set_trace(&recorder);

  {
    PhaseScope phase(&recorder, "grow");
    for (int round = 0; round < 2; ++round) {
      std::vector<std::function<void()>> tasks;
      for (int t = 0; t < 8; ++t) {
        tasks.emplace_back([] {
          volatile double x = 0;
          for (int i = 0; i < 20000; ++i) x = x + i;
        });
      }
      cluster.run_stage("work", std::move(tasks));
    }
    cluster.run_serial("fit", [] {
      volatile double x = 0;
      for (int i = 0; i < 50000; ++i) x = x + i;
    });
  }
  cluster.set_trace(nullptr);

  const JobMetrics& metrics = cluster.metrics();
  double stage_s = 0.0;
  double serial_s = 0.0;
  std::uint64_t tasks = 0;
  std::uint64_t phase_id = 0;
  for (const SpanRecord& span : recorder.spans()) {
    if (span.kind == "phase") phase_id = span.id;
  }
  ASSERT_NE(phase_id, 0u);
  for (const SpanRecord& span : recorder.spans()) {
    if (span.kind == "stage") {
      stage_s += span.seconds;
      tasks += span.tasks;
      EXPECT_EQ(span.parent, phase_id) << span.name;
      // Virtual placement: one busy entry per node, none exceeding the
      // booked makespan, all work accounted for.
      ASSERT_EQ(span.node_busy.size(), 2u);
      double busy = 0.0;
      for (const double node : span.node_busy) {
        EXPECT_LE(node, 2 * span.seconds * (1 + 1e-9));  // 2 cores/node
        busy += node;
      }
      EXPECT_NEAR(busy, span.task_seconds, 1e-9 * (1.0 + busy));
      std::uint64_t hist_total = 0;
      for (const std::uint64_t bucket : span.task_hist) hist_total += bucket;
      EXPECT_EQ(hist_total, span.tasks);
    } else if (span.kind == "serial") {
      serial_s += span.seconds;
      EXPECT_EQ(span.parent, phase_id);
      EXPECT_EQ(span.name, "fit");
    }
  }
  // The booked span seconds tile the simulated time exactly (phases are
  // wall-clock envelopes and excluded from the sum).
  EXPECT_NEAR(stage_s + serial_s, metrics.simulated_seconds,
              1e-9 * (1.0 + metrics.simulated_seconds));
  EXPECT_NEAR(serial_s, metrics.serial_seconds, 1e-12);
  EXPECT_EQ(tasks, metrics.tasks);

  // Spans serialize in completion order: t1 monotone non-decreasing.
  std::ostringstream out;
  recorder.write_ndjson(out);
  std::istringstream in(out.str());
  std::vector<std::string> errors;
  const ParsedTrace parsed = parse_trace_ndjson(in, &errors);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  EXPECT_EQ(parsed.spans.size(), recorder.spans().size());
}

TEST(TraceRecorderTest, NestedPhasesParentInnermost) {
  TraceRecorder recorder;
  const std::uint64_t outer = recorder.begin_phase("outer");
  const std::uint64_t inner = recorder.begin_phase("inner");
  EXPECT_EQ(recorder.open_parent(), inner);
  SpanRecord leaf;
  leaf.name = "leaf";
  leaf.kind = "serial";
  recorder.record_span(std::move(leaf));
  recorder.end_phase(inner);
  recorder.end_phase(outer);
  EXPECT_EQ(recorder.open_parent(), 0u);

  ASSERT_EQ(recorder.spans().size(), 3u);
  const SpanRecord& leaf_span = recorder.spans()[0];
  const SpanRecord& inner_span = recorder.spans()[1];
  const SpanRecord& outer_span = recorder.spans()[2];
  EXPECT_EQ(leaf_span.parent, inner);
  EXPECT_EQ(inner_span.parent, outer);
  EXPECT_EQ(outer_span.parent, 0u);
  EXPECT_LE(outer_span.t0, inner_span.t0);
  EXPECT_GE(outer_span.t1, inner_span.t1);
}

TEST(TraceRecorderTest, NullRecorderIsANoOp) {
  // The disabled path every instrumentation site takes: a null recorder
  // pointer must be safe to scope and cost nothing.
  { PhaseScope scope(nullptr, "ignored"); }
  EXPECT_EQ(TraceRecorder::current(), nullptr);
  TraceRecorder recorder;
  TraceRecorder::set_current(&recorder);
  EXPECT_EQ(TraceRecorder::current(), &recorder);
  TraceRecorder::set_current(nullptr);
  EXPECT_EQ(TraceRecorder::current(), nullptr);
}

// ------------------------------------------------------ metrics + memory

// --------------------------------------------------------- trace writing

/// The CsbError message `write` throws; empty if it throws none.
template <typename Write>
std::string write_error(Write&& write) {
  try {
    write();
  } catch (const CsbError& error) {
    return error.what();
  }
  return {};
}

TEST(TraceWriteTest, UnopenablePathNamesFile) {
  const std::string path =
      ::testing::TempDir() + "/csb-no-such-dir/run.ndjson";
  const std::string expected =
      "cannot open trace file " + path + " for writing: ";
  const TraceRecorder recorder;
  const std::string from_recorder =
      write_error([&] { recorder.write_ndjson_file(path); });
  EXPECT_EQ(from_recorder.rfind(expected, 0), 0u) << from_recorder;
  EXPECT_GT(from_recorder.size(), expected.size()) << "no reason given";
  const std::string from_writer =
      write_error([&] { const TraceFileWriter writer(path); });
  EXPECT_EQ(from_writer.rfind(expected, 0), 0u) << from_writer;
  for (const std::string& message : {from_recorder, from_writer}) {
    EXPECT_EQ(message.find("CSB_CHECK"), std::string::npos) << message;
  }
}

TEST(TraceWriteTest, FailedWriteNamesFile) {
  // /dev/full opens for writing and fails every write with ENOSPC.
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  const TraceRecorder recorder;
  const std::string message =
      write_error([&] { recorder.write_ndjson_file("/dev/full"); });
  EXPECT_EQ(message.rfind("cannot write trace file /dev/full: ", 0), 0u)
      << message;
}

TEST(MetricsRegistryTest, CountersGaugesAndSnapshot) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.reset_all();
  Counter& hits = registry.counter("obs_test.hits");
  EXPECT_EQ(&hits, &registry.counter("obs_test.hits"));  // stable reference
  hits.add(3);
  hits.increment();
  EXPECT_EQ(hits.value(), 4u);

  Gauge& peak = registry.gauge("obs_test.peak");
  peak.record_max(10);
  peak.record_max(7);  // watermark: lower samples do not regress it
  EXPECT_EQ(peak.value(), 10u);

  bool saw_counter = false;
  bool saw_gauge = false;
  for (const MetricSample& sample : registry.snapshot()) {
    if (sample.name == "obs_test.hits") {
      saw_counter = true;
      EXPECT_EQ(sample.value, 4u);
    }
    if (sample.name == "obs_test.peak") saw_gauge = true;
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);

  registry.reset_all();
  EXPECT_EQ(hits.value(), 0u);
  EXPECT_EQ(peak.value(), 0u);
}

TEST(MemWatchTest, SamplesProcessRss) {
  const MemorySample sample = sample_process_memory();
  EXPECT_GT(sample.rss_bytes, 0u);
  EXPECT_GE(sample.hwm_bytes, sample.rss_bytes);
}

TEST(DurationHistogramTest, BucketsAreLog2Microseconds) {
  // [2^i, 2^(i+1)) microseconds; sub-microsecond tasks land in bucket 0.
  const std::vector<std::uint64_t> hist = duration_histogram_log2us(
      {0.0, 0.5e-6, 1.5e-6, 3e-6, 5e-6, 1000e-6});
  // 0us, 0.5us, 1.5us -> bucket 0; 3us -> bucket 1; 5us -> bucket 2;
  // 1000us -> bucket 9.
  ASSERT_EQ(hist.size(), 10u);
  EXPECT_EQ(hist[0], 3u);
  EXPECT_EQ(hist[1], 1u);
  EXPECT_EQ(hist[2], 1u);
  EXPECT_EQ(hist[9], 1u);
}

// ---------------------------------------------------- generator registry

SeedBundle registry_seed() {
  TrafficModelConfig config;
  config.benign_sessions = 300;
  config.client_hosts = 60;
  config.server_hosts = 15;
  return build_seed_from_netflow(
      sessions_to_netflow(TrafficModel(config).generate_benign()));
}

TEST(GeneratorRegistryTest, BuiltinsAreRegistered) {
  for (const char* name :
       {"pgpba", "pgsk", "rmat", "classic-ba", "erdos-renyi", "chung-lu",
        "sbm"}) {
    const Generator* generator = find_generator(name);
    ASSERT_NE(generator, nullptr) << name;
    EXPECT_EQ(generator->name(), name);
    EXPECT_FALSE(generator->description().empty());
  }
  EXPECT_EQ(find_generator("no-such-algo"), nullptr);
  EXPECT_GE(all_generators().size(), 7u);
  try {
    (void)require_generator("no-such-algo");
    FAIL() << "require_generator should throw";
  } catch (const CsbError& error) {
    // The error names the registered generators so the CLI message is
    // actionable.
    EXPECT_NE(std::string(error.what()).find("pgpba"), std::string::npos);
  }
}

TEST(GeneratorRegistryTest, ConfigGettersParseStrictly) {
  GenConfig config;
  config.extra = {{"fraction", "0.5"}, {"scale", "12"}, {"bad", "12x"},
                  {"flag", "true"}, {"off", "false"}};
  EXPECT_DOUBLE_EQ(config.get_double("fraction", 1.0), 0.5);
  EXPECT_EQ(config.get_u64("scale", 1), 12u);
  EXPECT_EQ(config.get_u64("absent", 7), 7u);
  EXPECT_TRUE(config.get_flag("flag"));
  EXPECT_FALSE(config.get_flag("off"));
  EXPECT_FALSE(config.get_flag("absent"));
  EXPECT_THROW((void)config.get_u64("bad", 0), CsbError);
  EXPECT_THROW((void)config.get_double("bad", 0.0), CsbError);
}

TEST(GeneratorRegistryTest, FixedSeedRunsAreDeterministic) {
  const SeedBundle seed = registry_seed();
  for (const char* name : {"pgpba", "pgsk", "rmat", "erdos-renyi"}) {
    const Generator& generator = require_generator(name);
    GenConfig config;
    config.desired_edges = 3 * seed.graph.num_edges();
    config.partitions = 4;
    config.seed = 42;
    config.with_properties = false;
    ClusterSim c1(ClusterConfig{.nodes = 2, .cores_per_node = 2});
    ClusterSim c2(ClusterConfig{.nodes = 2, .cores_per_node = 2});
    const GenResult a = generator.generate(seed.graph, seed.profile, c1, config);
    const GenResult b = generator.generate(seed.graph, seed.profile, c2, config);
    EXPECT_EQ(a.graph, b.graph) << name;
    EXPECT_GT(a.graph.num_edges(), 0u) << name;
  }
}

TEST(GeneratorRegistryTest, TracedRunEmitsGeneratorPhases) {
  const SeedBundle seed = registry_seed();
  const Generator& generator = require_generator("pgsk");
  GenConfig config;
  config.desired_edges = 2 * seed.graph.num_edges();
  config.partitions = 4;
  config.seed = 7;
  ClusterSim cluster(ClusterConfig{.nodes = 2, .cores_per_node = 2});
  TraceRecorder recorder;
  cluster.set_trace(&recorder);
  const GenResult result =
      generator.generate(seed.graph, seed.profile, cluster, config);
  cluster.set_trace(nullptr);
  EXPECT_GT(result.graph.num_edges(), 0u);

  std::vector<std::string> phases;
  double booked = 0.0;
  for (const SpanRecord& span : recorder.spans()) {
    if (span.kind == "phase") phases.push_back(span.name);
    if (span.kind == "stage" || span.kind == "serial") booked += span.seconds;
  }
  // The exact PGSK streams expand/re-multiply through the store sink under
  // the "store" phase; no generator has a "materialize" phase
  // (docs/graph-store.md).
  for (const char* expected : {"collapse", "kronfit", "store", "properties"}) {
    EXPECT_NE(std::find(phases.begin(), phases.end(), expected), phases.end())
        << expected;
  }
  EXPECT_EQ(std::find(phases.begin(), phases.end(), "materialize"),
            phases.end());
  EXPECT_NEAR(booked, result.metrics.simulated_seconds,
              1e-9 * (1.0 + result.metrics.simulated_seconds));
}

}  // namespace
}  // namespace csb
