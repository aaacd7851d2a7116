// csbgen — command-line front end to the CSB benchmark suite.
//
// Subcommands (run `csbgen help` for full usage):
//   trace      synthesize a network capture (benign traffic +/- attacks)
//   seed       run the Fig. 1 pipeline: PCAP or NetFlow CSV -> seed graph
//   generate   grow a synthetic property-graph with any registered algorithm
//   generators list the registered generator algorithms
//   report     pretty-print / validate a csb.trace.v1 NDJSON trace
//   veracity   score a synthetic dataset against its seed
//   detect     run the Section IV anomaly detector over NetFlow data
//   info       print statistics of a csb graph file
//
// Captures are .pcap (libpcap) or NetFlow .csv. Graphs are read and written
// through the GraphFormat registry: csb binary, .csv, .graphml, or a shard
// store directory.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "flow/netflow_io.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "graph/algorithms.hpp"
#include "graph/betweenness.hpp"
#include "graph/pagerank.hpp"
#include "ids/calibrate.hpp"
#include "ids/detector.hpp"
#include "ids/streaming.hpp"
#include "pcap/pcap_file.hpp"
#include "seed/seed.hpp"
#include "stats/power_law.hpp"
#include "store/graph_format.hpp"
#include "store/shard_store.hpp"
#include "trace/attacks.hpp"
#include "trace/traffic_model.hpp"
#include "util/format.hpp"
#include "veracity/veracity.hpp"
#include "workload/query_engine.hpp"
#include "workload/workload_runner.hpp"

namespace {

using namespace csb;

/// Thrown on malformed command lines (unknown flag, bad value); main prints
/// the message and exits 2, distinct from runtime failures (exit 1).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// --key=value / --flag parser; positional args kept in order. Every
/// subcommand declares its known flags via require_known, and the numeric
/// getters parse strictly — both classes of error that the old parser let
/// through silently (`--egdes=1000` typos, `--edges=10k` suffixes) now fail
/// with a message naming the offending flag.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const auto eq = arg.find('=');
        if (eq == std::string::npos) {
          options_[arg.substr(2)] = "true";
        } else {
          options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        }
      } else {
        positional_.push_back(arg);
      }
    }
  }

  /// Rejects any flag outside `known` and any positional argument beyond
  /// `max_positional`, naming the offender and the accepted set.
  void require_known(const std::string& command,
                     const std::vector<std::string>& known,
                     std::size_t max_positional = 0) const {
    for (const auto& [key, value] : options_) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        std::string message =
            "unknown option --" + key + " for '" + command + "' (accepted:";
        for (const auto& k : known) message += " --" + k;
        throw UsageError(message + ")");
      }
    }
    if (positional_.size() > max_positional) {
      throw UsageError("unexpected argument '" +
                       positional_[max_positional] + "' for '" + command +
                       "'");
    }
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = options_.find(key);
    return it == options_.end() ? fallback : it->second;
  }
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    std::uint64_t value = 0;
    const std::string& text = it->second;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size()) {
      throw UsageError("--" + key + "=" + text +
                       ": expected an unsigned integer");
    }
    return value;
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    double value = 0.0;
    const std::string& text = it->second;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size() ||
        !std::isfinite(value)) {
      throw UsageError("--" + key + "=" + text +
                       ": expected a finite number");
    }
    return value;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return options_.contains(key);
  }
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

void print_usage() {
  std::cout <<
      R"(csbgen — property-graph synthetic data generators for IDS benchmarking
(reproduction of the CLUSTER 2017 CSB suite)

usage: csbgen <command> [options]

commands:
  trace --out=cap.pcap [--sessions=20000] [--clients=2000] [--servers=100]
        [--seed=42] [--netflow=flows.csv]
        [--syn-flood=VICTIM_IP] [--host-scan=TARGET_IP]
        [--network-scan=SUBNET_IP] [--udp-flood=VICTIM_IP]
        [--icmp-flood=VICTIM_IP] [--ddos=VICTIM_IP]
      Synthesize a capture; optional attacks target the given dotted-quad
      IPs. Writes a pcap and, with --netflow, the assembled flows as CSV.

  seed --in=cap.pcap|flows.csv --out=seed.bin [--profile=seed.profile]
       [--threads=0]
      Fig. 1 pipeline: capture -> NetFlow -> property graph. The output is
      a csb binary graph with NetFlow properties. --threads sizes the
      ingestion pool (0 = hardware concurrency, 1 = serial); the outputs
      are byte-identical at any thread count.

  generate --seed=seed.bin --out=synth.bin --edges=N
           [--profile=seed.profile] [--algo=NAME] [--no-properties]
           [--nodes=8] [--cores=4] [--partitions=0] [--rng=1]
           [--out-format=binary] [--shards=8] [--store-budget-mb=256]
           [--trace=run.ndjson]
      Grow a synthetic property-graph from a seed, via any registered
      generator (csbgen generators lists them with per-algorithm flags;
      --generator is accepted as an alias of --algo). --out-format picks a
      registered output format (binary, csv, graphml, shards);
      --out-format=shards streams the graph into a sharded on-disk store
      with bounded resident memory (--shards files, CSR build under
      --store-budget-mb). --trace records the run as csb.trace.v1 NDJSON
      (spans, counters, memory watermarks) for `csbgen report`.

  generators
      List the registered generator algorithms with their typed options,
      and the registered output formats.

  report FILE [--check]
      Pretty-print a csb.trace.v1 NDJSON trace: run metadata, the phase
      tree, per-stage totals, the serial-segment (Amdahl, Fig. 12)
      breakdown, counters and memory watermarks. --check validates the
      schema instead and exits non-zero on any violation.

  veracity --seed=seed.bin --synthetic=synth.bin|shards-dir/
      Degree and PageRank veracity scores (paper Section V-A; lower is
      more faithful). A shard-store directory is scored by streaming over
      its mmap'd CSR index without loading the edge list.

  Graph inputs (--seed, --synthetic, --in) may be any registered file
  format, picked by extension: .graphml, .csv, else csb binary.

  detect --in=flows.csv [--baseline=benign.csv] [--window-s=0]
      Run the Section IV detector. Thresholds are calibrated on
      --baseline when given, else Table-I-style defaults are used.
      --window-s > 0 switches to the streaming detector.

  info --in=graph.bin|shards-dir/ [--verify] [--threads=4]
      Vertex/edge counts, degree stats, components, memory footprint.
      For a shard-store directory, stats come from the manifest and the
      mmap'd CSR index; --verify recomputes every shard checksum,
      fanning the per-shard scans over --threads workers.

  analyze --in=graph.bin [--top=10] [--betweenness-samples=256]
      Full structural report: degree power-law fit, clustering, triangles,
      weak/strong components, k-core, assortativity, PageRank and
      betweenness top-k.

  workload --in=graph.bin [--queries=10000] [--threads=2] [--rng=1]
      Run the mixed cyber-security query stream (nodes/edges/paths/
      sub-graphs) and report per-class counts and throughput.
)";
}

/// The --trace output, opened before the run it records so an unwritable
/// path fails first; null without --trace.
std::unique_ptr<TraceFileWriter> open_trace(const Args& args) {
  if (!args.has("trace")) return nullptr;
  return std::make_unique<TraceFileWriter>(args.get("trace", ""));
}

int cmd_trace(const Args& args) {
  args.require_known("trace",
                     {"out", "sessions", "clients", "servers", "seed",
                      "netflow", "syn-flood", "host-scan", "network-scan",
                      "udp-flood", "icmp-flood", "ddos"});
  const std::string out = args.get("out", "capture.pcap");
  TrafficModelConfig config;
  config.benign_sessions = args.get_u64("sessions", 20'000);
  config.client_hosts = static_cast<std::uint32_t>(args.get_u64("clients", 2'000));
  config.server_hosts = static_cast<std::uint32_t>(args.get_u64("servers", 100));
  config.seed = args.get_u64("seed", 42);
  const TrafficModel model(config);
  auto sessions = model.generate_benign();

  Rng rng(config.seed ^ 0xa77acULL);
  const std::uint64_t t0 = config.start_time_us;
  const auto inject = [&](const char* flag, auto make) {
    if (!args.has(flag)) return;
    const auto injected = make(ip_from_string(args.get(flag, "")));
    sessions.insert(sessions.end(), injected.begin(), injected.end());
    std::cout << "injected " << injected.size() << " " << flag
              << " flows at " << args.get(flag, "") << "\n";
  };
  inject("syn-flood", [&](std::uint32_t ip) {
    SynFloodConfig c;
    c.victim_ip = ip;
    c.start_us = t0;
    return inject_syn_flood(c, rng);
  });
  inject("host-scan", [&](std::uint32_t ip) {
    HostScanConfig c;
    c.scanner_ip = 0xc6336401;
    c.target_ip = ip;
    c.start_us = t0;
    return inject_host_scan(c, rng);
  });
  inject("network-scan", [&](std::uint32_t ip) {
    NetworkScanConfig c;
    c.scanner_ip = 0xc6336402;
    c.subnet_base = ip;
    c.start_us = t0;
    return inject_network_scan(c, rng);
  });
  inject("udp-flood", [&](std::uint32_t ip) {
    UdpFloodConfig c;
    c.attacker_ip = 0xc6336403;
    c.victim_ip = ip;
    c.start_us = t0;
    return inject_udp_flood(c, rng);
  });
  inject("icmp-flood", [&](std::uint32_t ip) {
    IcmpFloodConfig c;
    c.attacker_ip = 0xc6336404;
    c.victim_ip = ip;
    c.start_us = t0;
    return inject_icmp_flood(c, rng);
  });
  inject("ddos", [&](std::uint32_t ip) {
    DdosConfig c;
    c.victim_ip = ip;
    c.start_us = t0;
    return inject_ddos(c, rng);
  });

  write_pcap_file(out, sessions_to_packets(sessions));
  std::cout << "wrote " << out << " (" << sessions.size() << " sessions)\n";
  if (args.has("netflow")) {
    const std::string csv = args.get("netflow", "flows.csv");
    save_netflow_csv_file(sessions_to_netflow(sessions), csv);
    std::cout << "wrote " << csv << "\n";
  }
  return 0;
}

int cmd_seed(const Args& args) {
  args.require_known("seed", {"in", "out", "profile", "trace", "threads"});
  const std::string in = args.get("in", "");
  const std::string out = args.get("out", "seed.bin");
  CSB_CHECK_MSG(!in.empty(), "seed requires --in=<capture.pcap|flows.csv>");

  // --threads=0 sizes the pool to the hardware; 1 keeps the historical
  // serial path. Outputs are byte-identical either way.
  std::uint64_t threads = args.get_u64("threads", 0);
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  MetricsRegistry::instance().reset_all();

  // --trace: the seed pipeline has no ClusterSim, so its phases attach via
  // the process-wide recorder slot (see flows_from_file). The file opens
  // first, so an unwritable path fails before any work.
  const std::unique_ptr<TraceFileWriter> trace_file = open_trace(args);
  std::unique_ptr<TraceRecorder> recorder;
  if (trace_file) {
    recorder = std::make_unique<TraceRecorder>();
    recorder->enable_memory_sampling(true);
    recorder->set_meta("tool", "csbgen seed");
    recorder->set_meta("input", in);
    TraceRecorder::set_current(recorder.get());
    recorder->record_memory("start");
  }

  std::vector<NetflowRecord> flows;
  {
    PhaseScope phase(recorder.get(), "seed:load");
    flows = flows_from_file(in, pool.get());
  }
  PropertyGraph graph;
  {
    PhaseScope phase(recorder.get(), "seed:build-graph");
    graph = graph_from_netflow(flows, pool.get());
  }
  require_graph_format("binary").save(graph, out);
  const std::uint64_t skipped =
      MetricsRegistry::instance().counter("seed.skipped_packets").value();
  std::cout << in << ": " << flows.size() << " flows -> " << out << " ("
            << graph.num_vertices() << " vertices, " << graph.num_edges()
            << " edges, " << skipped << " packets skipped)\n";
  if (args.has("profile")) {
    const std::string profile_path = args.get("profile", "seed.profile");
    {
      PhaseScope phase(recorder.get(), "seed:profile");
      SeedProfile::analyze(graph, pool.get()).save_file(profile_path);
    }
    std::cout << "wrote " << profile_path << " (fitted distributions)\n";
  }
  if (recorder) {
    recorder->record_memory("end");
    recorder->record_metrics_snapshot();
    trace_file->write_recorder(*recorder);
    TraceRecorder::set_current(nullptr);
    std::cout << "wrote " << args.get("trace", "") << " (csb.trace.v1)\n";
  }
  return 0;
}

int cmd_generate(const Args& args) {
  // --algo picks the registered generator (--generator kept as an alias);
  // the known-flag set is the base flags plus whatever options the selected
  // algorithm publishes, so `--algo=pgsk --fraction=2` is rejected.
  const std::string algo = args.get("algo", args.get("generator", "pgpba"));
  const Generator& generator = require_generator(algo);
  const auto specs = generator.options();
  std::vector<std::string> known = {
      "seed",  "out",        "edges",  "profile", "algo",
      "generator", "nodes",  "cores",  "partitions", "rng",
      "no-properties", "trace", "out-format", "shards", "store-budget-mb"};
  for (const auto& spec : specs) known.push_back(spec.name);
  args.require_known("generate", known);

  // --out-format resolves through the format registry up front, so an
  // unknown name fails before any generation work, listing what exists.
  const std::string format_name = args.get("out-format", "binary");
  const GraphFormat& format = require_graph_format(format_name);
  // So does an unwritable --trace, and no --out is left behind.
  const std::unique_ptr<TraceFileWriter> trace_file = open_trace(args);

  const std::string seed_path = args.get("seed", "");
  const std::string out =
      args.get("out", format.is_directory_format() ? "synthetic.shards"
                                                   : "synthetic.bin");
  CSB_CHECK_MSG(!seed_path.empty(), "generate requires --seed=<seed.bin>");
  const PropertyGraph seed_graph =
      graph_format_for_path(seed_path).load(seed_path);
  // A cached profile skips the Fig. 1 analysis step.
  const SeedProfile profile =
      args.has("profile") ? SeedProfile::load_file(args.get("profile", ""))
                          : SeedProfile::analyze(seed_graph);

  GenConfig config;
  config.desired_edges = args.get_u64("edges", 10 * seed_graph.num_edges());
  config.partitions = args.get_u64("partitions", 0);
  config.seed = args.get_u64("rng", 1);
  config.with_properties = !args.has("no-properties");
  for (const auto& spec : specs) {
    if (args.has(spec.name)) config.extra[spec.name] = args.get(spec.name, "");
  }
  // Malformed values fail here, naming the key, before any work runs.
  try {
    validate_extra_options(specs, config);
  } catch (const CsbError& error) {
    throw UsageError(error.what());
  }
  if (format_name == "shards" &&
      (generator.name() == "pgsk-fast" || generator.name() == "pgsk") &&
      !config.has("dedup-spill-dir")) {
    // Default external-sort spills next to the output shards: same
    // filesystem, cleaned up with the run.
    config.extra["dedup-spill-dir"] = out;
  }

  ClusterSim cluster(ClusterConfig{
      .nodes = args.get_u64("nodes", 8),
      .cores_per_node = args.get_u64("cores", 4),
  });

  std::unique_ptr<TraceRecorder> recorder;
  if (trace_file) {
    recorder = std::make_unique<TraceRecorder>();
    // Fresh counters so the trace snapshot is attributable to this run.
    MetricsRegistry::instance().reset_all();
    recorder->enable_memory_sampling(true);
    recorder->set_meta("tool", "csbgen generate");
    recorder->set_meta("algo", std::string(generator.name()));
    recorder->set_meta("seed_file", seed_path);
    recorder->set_meta("nodes", std::to_string(cluster.config().nodes));
    recorder->set_meta("cores",
                       std::to_string(cluster.config().cores_per_node));
    recorder->set_meta("edges", std::to_string(config.desired_edges));
    recorder->set_meta("rng", std::to_string(config.seed));
    TraceRecorder::set_current(recorder.get());
    cluster.set_trace(recorder.get());
    recorder->record_memory("start");
  }

  const auto finish_trace = [&] {
    if (!recorder) return;
    recorder->record_memory("end");
    recorder->record_metrics_snapshot();
    trace_file->write_recorder(*recorder);
    cluster.set_trace(nullptr);
    TraceRecorder::set_current(nullptr);
    std::cout << "wrote " << args.get("trace", "") << " (csb.trace.v1, "
              << recorder->spans().size() << " spans)\n";
  };

  if (format.is_directory_format()) {
    // Out-of-core path: the generator streams shard-sized chunks into the
    // store, so the full edge list never materializes in RAM.
    ShardStoreOptions store_options;
    store_options.directory = out;
    store_options.shard_count = args.get_u64("shards", 8);
    store_options.memory_budget_bytes =
        args.get_u64("store-budget-mb", 256) << 20;
    store_options.pool = &cluster.pool();
    ShardStore store(store_options);
    const StoreGenResult result =
        generator.generate_into(seed_graph, profile, cluster, config, store);
    finish_trace();
    std::cout << generator.name() << ": " << result.edges << " edges, "
              << result.vertices << " vertices ("
              << store_options.shard_count << " shards, "
              << result.iterations << " iterations, "
              << result.metrics.simulated_seconds << " simulated s on "
              << cluster.config().nodes << "x"
              << cluster.config().cores_per_node << " virtual cores) -> "
              << out << "\n";
    return 0;
  }

  GenResult result = generator.generate(seed_graph, profile, cluster, config);
  finish_trace();

  format.save(result.graph, out);
  std::cout << generator.name() << ": " << result.graph.num_edges()
            << " edges, "
            << result.graph.num_vertices() << " vertices ("
            << human_bytes(result.graph.memory_bytes()) << ", "
            << result.iterations << " iterations, "
            << result.metrics.simulated_seconds << " simulated s on "
            << cluster.config().nodes << "x"
            << cluster.config().cores_per_node << " virtual cores) -> "
            << out << "\n";
  return 0;
}

const char* option_kind_name(OptionKind kind) {
  switch (kind) {
    case OptionKind::kU64: return "uint";
    case OptionKind::kDouble: return "float";
    case OptionKind::kFlag: return "flag";
    case OptionKind::kString: return "string";
  }
  return "?";
}

int cmd_generators(const Args& args) {
  args.require_known("generators", {});
  for (const Generator* generator : all_generators()) {
    std::cout << "  " << std::left << std::setw(12) << generator->name()
              << generator->description() << "\n";
    for (const OptionSpec& spec : generator->options()) {
      std::cout << "      --" << std::left << std::setw(18) << spec.name
                << std::setw(8) << option_kind_name(spec.kind);
      if (!spec.default_value.empty()) {
        std::cout << "[" << spec.default_value << "]  ";
      }
      std::cout << spec.help << "\n";
    }
  }
  std::cout << "\noutput formats (generate --out-format=NAME):\n";
  for (const GraphFormat* format : all_graph_formats()) {
    std::cout << "  " << std::left << std::setw(12) << format->name()
              << format->description() << "\n";
  }
  return 0;
}

int cmd_report(const Args& args) {
  args.require_known("report", {"in", "check"}, 1);
  const std::string path = !args.positional().empty() ? args.positional()[0]
                                                      : args.get("in", "");
  if (path.empty()) throw UsageError("report requires a trace file argument");

  if (args.has("check")) {
    std::vector<std::string> errors;
    const ParsedTrace trace = parse_trace_file(path, &errors);
    for (const auto& error : errors) {
      std::cout << path << ": " << error << "\n";
    }
    std::cout << path << ": " << trace.records << " records, "
              << trace.spans.size() << " spans, " << errors.size()
              << " schema violations\n";
    return errors.empty() ? 0 : 1;
  }

  const ParsedTrace trace = parse_trace_file(path);
  std::cout << path << ": " << kTraceSchemaVersion << ", " << trace.records
            << " records\n";
  if (!trace.meta.empty()) {
    std::cout << "meta:";
    for (const auto& [key, value] : trace.meta) {
      std::cout << " " << key << "=" << value;
    }
    std::cout << "\n";
  }

  // Phase tree: phases nest via parent ids; each line shows the phase's
  // wall time (t1 - t0 on the host clock).
  std::vector<const SpanRecord*> phases;
  for (const SpanRecord& span : trace.spans) {
    if (span.kind == "phase") phases.push_back(&span);
  }
  if (!phases.empty()) {
    std::cout << "phases:\n";
    const std::function<void(std::uint64_t, int)> print_children =
        [&](std::uint64_t parent, int depth) {
          for (const SpanRecord* phase : phases) {
            if (phase->parent != parent) continue;
            std::cout << std::string(2 * (depth + 1), ' ') << std::left
                      << std::setw(std::max(2, 24 - 2 * depth))
                      << phase->name << std::setprecision(6) << std::fixed
                      << (phase->t1 - phase->t0) << " s\n";
            print_children(phase->id, depth + 1);
          }
        };
    print_children(0, 0);
  }

  // Stage table: aggregate by name, preserving first-seen order.
  struct StageAgg {
    std::string name;
    std::uint64_t spans = 0;
    std::uint64_t tasks = 0;
    double task_seconds = 0.0;
    double booked_seconds = 0.0;
  };
  std::vector<StageAgg> stages;
  double parallel_booked = 0.0;
  double serial_booked = 0.0;
  std::vector<StageAgg> serials;
  for (const SpanRecord& span : trace.spans) {
    auto& table = span.kind == "stage" ? stages : serials;
    if (span.kind == "stage") {
      parallel_booked += span.seconds;
    } else if (span.kind == "serial") {
      serial_booked += span.seconds;
    } else {
      continue;
    }
    const auto it =
        std::find_if(table.begin(), table.end(),
                     [&span](const StageAgg& a) { return a.name == span.name; });
    StageAgg& agg = it != table.end() ? *it : table.emplace_back();
    agg.name = span.name;
    agg.spans += 1;
    agg.tasks += span.tasks;
    agg.task_seconds += span.task_seconds;
    agg.booked_seconds += span.seconds;
  }
  const double simulated = parallel_booked + serial_booked;
  if (!stages.empty()) {
    std::cout << "stages:\n  " << std::left << std::setw(20) << "name"
              << std::right << std::setw(8) << "spans" << std::setw(10)
              << "tasks" << std::setw(14) << "task-s" << std::setw(14)
              << "booked-s\n";
    for (const StageAgg& agg : stages) {
      std::cout << "  " << std::left << std::setw(20) << agg.name
                << std::right << std::setw(8) << agg.spans << std::setw(10)
                << agg.tasks << std::setw(14) << std::setprecision(6)
                << std::fixed << agg.task_seconds << std::setw(14)
                << agg.booked_seconds << "\n";
    }
  }
  if (!serials.empty()) {
    std::cout << "serial segments (Amdahl breakdown, Fig. 12):\n";
    for (const StageAgg& agg : serials) {
      std::cout << "  " << std::left << std::setw(20) << agg.name
                << std::right << std::setw(14) << std::setprecision(6)
                << std::fixed << agg.booked_seconds << " s  "
                << std::setprecision(2)
                << (simulated > 0.0 ? 100.0 * agg.booked_seconds / simulated
                                    : 0.0)
                << "% of simulated\n";
    }
  }
  if (simulated > 0.0) {
    std::cout << "simulated: " << std::setprecision(6) << std::fixed
              << simulated << " s (parallel " << parallel_booked
              << " s + serial " << serial_booked << " s)\n";
  }

  if (!trace.benches.empty()) {
    std::cout << "bench records:\n";
    for (const BenchRecord& bench : trace.benches) {
      std::cout << "  " << bench.name << ":";
      for (const auto& [key, value] : bench.fields) {
        std::cout << " " << key << "=" << value.dump();
      }
      std::cout << "\n";
    }
  }
  if (!trace.counters.empty()) {
    std::cout << "counters:\n";
    for (const CounterRecord& counter : trace.counters) {
      std::cout << "  " << std::left << std::setw(28) << counter.name
                << with_commas(counter.value) << "\n";
    }
  }
  if (!trace.mems.empty()) {
    std::cout << "memory:\n";
    for (const MemRecord& mem : trace.mems) {
      std::cout << "  " << std::left << std::setw(20) << mem.label << "rss "
                << human_bytes(mem.rss_bytes) << ", peak "
                << human_bytes(mem.hwm_bytes) << "\n";
    }
  }
  return 0;
}

int cmd_veracity(const Args& args) {
  args.require_known("veracity", {"seed", "synthetic"});
  const std::string seed_path = args.get("seed", "");
  const std::string synth_path = args.get("synthetic", "");
  CSB_CHECK_MSG(!seed_path.empty() && !synth_path.empty(),
                "veracity requires --seed and --synthetic");
  const PropertyGraph seed = graph_format_for_path(seed_path).load(seed_path);
  ThreadPool pool(4);
  VeracityReport report;
  if (std::filesystem::is_directory(synth_path)) {
    // Shard-store synthetic side: stream degrees and PageRank off the
    // mmap'd CSR index — the edge list never materializes in RAM.
    const ShardStoreReader reader(synth_path);
    CSB_CHECK_MSG(reader.has_csr(),
                  "shard store has no CSR index: " << synth_path);
    report = evaluate_veracity(seed, reader.csr(), pool);
  } else {
    const PropertyGraph synth =
        graph_format_for_path(synth_path).load(synth_path);
    report = evaluate_veracity(seed, synth, pool);
  }
  std::cout << "degree veracity score:   " << sci(report.degree_score)
            << "\npagerank veracity score: " << sci(report.pagerank_score)
            << "\n(lower = more faithful to the seed)\n";
  return 0;
}

int cmd_detect(const Args& args) {
  args.require_known("detect", {"in", "baseline", "window-s"});
  const std::string in = args.get("in", "");
  CSB_CHECK_MSG(!in.empty(), "detect requires --in=<flows.csv|capture.pcap>");
  const auto flows = flows_from_file(in);

  DetectionThresholds thresholds;
  if (args.has("baseline")) {
    const auto baseline = flows_from_file(args.get("baseline", ""));
    thresholds = calibrate_thresholds(
        baseline, CalibrationOptions{.quantile = 0.995, .margin = 2.5});
    std::cout << "calibrated on " << baseline.size() << " baseline flows\n";
  } else {
    std::cout << "using default Table-I-style thresholds (pass --baseline "
                 "to calibrate)\n";
  }

  std::vector<Alarm> alarms;
  const std::uint64_t window_s = args.get_u64("window-s", 0);
  if (window_s > 0) {
    StreamingDetector detector(thresholds,
                               StreamingOptions{.window_us = window_s * 1'000'000});
    auto sorted = flows;
    std::sort(sorted.begin(), sorted.end(),
              [](const NetflowRecord& a, const NetflowRecord& b) {
                return a.first_us < b.first_us;
              });
    for (const auto& record : sorted) {
      for (const auto& raised : detector.ingest(record)) {
        alarms.push_back(raised.alarm);
      }
    }
    for (const auto& raised : detector.finish()) {
      alarms.push_back(raised.alarm);
    }
    std::cout << "streaming mode: " << detector.windows_closed()
              << " windows\n";
  } else {
    alarms = AnomalyDetector(thresholds).detect(flows);
  }

  std::cout << flows.size() << " flows analyzed, " << alarms.size()
            << " alarms\n";
  for (const Alarm& alarm : alarms) {
    std::cout << "  [" << to_string(alarm.type) << "] "
              << (alarm.destination_based ? "victim " : "source ")
              << ip_to_string(alarm.detection_ip) << " ("
              << to_string(alarm.protocol) << ")\n";
  }
  return 0;
}

int cmd_info(const Args& args) {
  args.require_known("info", {"in", "verify", "threads"});
  const std::string in = args.get("in", "");
  CSB_CHECK_MSG(!in.empty(), "info requires --in=<graph file>");
  if (std::filesystem::is_directory(in)) {
    // Shard-store directory: stats come off the manifest + mmap'd CSR —
    // nothing is loaded into RAM. --verify recomputes every checksum.
    const ShardStoreReader reader(in);
    const ShardManifest& manifest = reader.manifest();
    std::cout << in << ":\n  format:      shards ("
              << manifest.shard_count << " shards, "
              << with_commas(manifest.edges_per_shard)
              << " edges/shard)\n  vertices:    "
              << with_commas(manifest.vertices) << "\n  edges:       "
              << with_commas(manifest.edges) << "\n  properties:  "
              << (manifest.with_properties ? "yes" : "no")
              << "\n  csr index:   " << (reader.has_csr() ? "yes" : "no")
              << "\n";
    if (reader.has_csr()) {
      const CsrIndexView& csr = reader.csr();
      std::uint64_t max_degree = 0;
      for (VertexId v = 0; v < csr.num_vertices(); ++v) {
        max_degree = std::max(max_degree, csr.total_degree(v));
      }
      std::cout << "  max degree:  " << with_commas(max_degree)
                << "\n  mean degree: "
                << (csr.num_vertices()
                        ? 2.0 * static_cast<double>(csr.num_edges()) /
                              static_cast<double>(csr.num_vertices())
                        : 0.0)
                << "\n";
    }
    if (args.has("verify")) {
      // Per-shard scans + the CSR word sum fan out over the pool; the
      // commutative index-keyed checksums make the totals order-free.
      const std::uint64_t threads = args.get_u64("threads", 4);
      if (threads > 1) {
        ThreadPool pool(static_cast<std::size_t>(threads));
        reader.verify(&pool);
      } else {
        reader.verify();
      }
      std::cout << "  checksums:   all verified\n";
    }
    return 0;
  }
  const PropertyGraph graph = graph_format_for_path(in).load(in);
  const auto degrees = total_degrees(graph);
  std::uint64_t max_degree = 0;
  for (const auto d : degrees) max_degree = std::max(max_degree, d);
  std::cout << in << ":\n  vertices:    " << with_commas(graph.num_vertices())
            << "\n  edges:       " << with_commas(graph.num_edges())
            << "\n  properties:  " << (graph.has_properties() ? "yes" : "no")
            << "\n  components:  " << with_commas(count_components(graph))
            << "\n  max degree:  " << with_commas(max_degree)
            << "\n  mean degree: "
            << (graph.num_vertices()
                    ? 2.0 * static_cast<double>(graph.num_edges()) /
                          static_cast<double>(graph.num_vertices())
                    : 0.0)
            << "\n  memory:      " << human_bytes(graph.memory_bytes())
            << "\n";
  return 0;
}

int cmd_analyze(const Args& args) {
  args.require_known("analyze", {"in", "top", "betweenness-samples"});
  const std::string in = args.get("in", "");
  CSB_CHECK_MSG(!in.empty(), "analyze requires --in=<graph file>");
  const PropertyGraph graph = graph_format_for_path(in).load(in);
  CSB_CHECK_MSG(graph.num_vertices() > 0, "graph has no vertices");
  const std::size_t top = args.get_u64("top", 10);
  ThreadPool pool(4);

  std::cout << in << ": " << with_commas(graph.num_vertices())
            << " vertices, " << with_commas(graph.num_edges()) << " edges\n";

  // Degree structure.
  const auto degrees = total_degrees(graph);
  std::vector<double> degree_samples(degrees.begin(), degrees.end());
  try {
    const PowerLawFit fit = fit_power_law(degree_samples);
    std::cout << "degree power law: alpha=" << fit.alpha
              << " xmin=" << fit.xmin << " ks=" << fit.ks << " (tail "
              << fit.tail_n << " vertices)\n";
  } catch (const CsbError&) {
    std::cout << "degree power law: no viable fit (degenerate degrees)\n";
  }
  std::cout << "assortativity: " << degree_assortativity(graph) << "\n";

  // Cohesion.
  std::cout << "weak components:   " << with_commas(count_components(graph))
            << "\nstrong components: "
            << with_commas(count_strong_components(graph)) << "\n";
  std::cout << "triangles: " << with_commas(triangle_count(graph))
            << ", clustering coefficient: "
            << global_clustering_coefficient(graph) << "\n";
  const auto cores = core_numbers(graph);
  std::cout << "max k-core: "
            << *std::max_element(cores.begin(), cores.end()) << "\n";

  // Centrality top-k.
  const auto print_topk = [&](const char* name,
                              const std::vector<double>& scores) {
    std::vector<VertexId> order(scores.size());
    for (VertexId v = 0; v < order.size(); ++v) order[v] = v;
    const std::size_t k = std::min(top, order.size());
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [&scores](VertexId a, VertexId b) {
                        return scores[a] > scores[b];
                      });
    std::cout << name << " top-" << k << ":";
    for (std::size_t i = 0; i < k; ++i) {
      std::cout << " " << order[i] << "(" << sci(scores[order[i]], 3) << ")";
    }
    std::cout << "\n";
  };
  print_topk("pagerank", pagerank(graph, pool).scores);
  if (graph.has_properties()) {
    print_topk("pagerank (byte-weighted)",
               pagerank_by_traffic(graph, pool).scores);
  }
  BetweennessOptions bc_options;
  bc_options.sample_sources = args.get_u64("betweenness-samples", 256);
  print_topk("betweenness", betweenness_centrality(graph, pool, bc_options));
  return 0;
}

int cmd_workload(const Args& args) {
  args.require_known("workload", {"in", "queries", "threads", "rng"});
  const std::string in = args.get("in", "");
  CSB_CHECK_MSG(!in.empty(), "workload requires --in=<graph file>");
  const PropertyGraph graph = graph_format_for_path(in).load(in);
  const GraphQueryEngine engine(graph);
  WorkloadOptions options;
  options.queries = args.get_u64("queries", 10'000);
  options.threads = args.get_u64("threads", 2);
  options.seed = args.get_u64("rng", 1);
  const WorkloadResult result = run_workload(engine, options);
  std::cout << in << ": " << result.total_queries << " queries in "
            << result.wall_seconds << " s ("
            << static_cast<std::uint64_t>(result.queries_per_second())
            << " q/s), checksum " << result.checksum << "\n";
  for (std::size_t c = 0; c < kQueryClassCount; ++c) {
    std::cout << "  " << to_string(static_cast<QueryClass>(c)) << ": "
              << result.per_class[c] << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv);
  try {
    if (command == "trace") return cmd_trace(args);
    if (command == "seed") return cmd_seed(args);
    if (command == "generate") return cmd_generate(args);
    if (command == "generators") return cmd_generators(args);
    if (command == "report") return cmd_report(args);
    if (command == "veracity") return cmd_veracity(args);
    if (command == "detect") return cmd_detect(args);
    if (command == "info") return cmd_info(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "workload") return cmd_workload(args);
    if (command == "help" || command == "--help") {
      print_usage();
      return 0;
    }
  } catch (const UsageError& error) {
    std::cerr << "csbgen " << command << ": " << error.what()
              << "\nrun 'csbgen help' for usage\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "csbgen " << command << ": " << error.what() << "\n";
    return 1;
  }
  std::cerr << "unknown command: " << command << "\n";
  print_usage();
  return 2;
}
