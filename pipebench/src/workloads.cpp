#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "flow/assembler.hpp"
#include "gen/generator.hpp"
#include "ids/calibrate.hpp"
#include "ids/streaming.hpp"
#include "mr/cluster.hpp"
#include "obs/metrics.hpp"
#include "pcap/pcap_file.hpp"
#include "seed/seed.hpp"
#include "store/graph_format.hpp"
#include "store/shard_store.hpp"
#include "timing_store.hpp"
#include "trace/attacks.hpp"
#include "trace/traffic_model.hpp"
#include "util/hash.hpp"
#include "veracity/veracity.hpp"

namespace pipebench {

namespace fs = std::filesystem;

namespace {

/// Order-sensitive 64-bit digest over words and byte ranges.
class Digest {
 public:
  void add(std::uint64_t word) { h_ = csb::hash_combine(h_, word); }
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  template <typename T>
  void add(std::span<const T> values) {
    add_bytes(values.data(), values.size() * sizeof(T));
  }
  void add_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, p + i, 8);
      add(word);
    }
    std::uint64_t tail = 0;
    std::memcpy(&tail, p + i, size - i);
    add(tail ^ (static_cast<std::uint64_t>(size) << 56));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0x243f6a8885a308d3ULL;
};

std::uint64_t graph_digest(const csb::PropertyGraph& g) {
  Digest d;
  d.add(g.num_vertices());
  d.add(g.num_edges());
  d.add(g.sources());
  d.add(g.destinations());
  if (g.has_properties()) {
    d.add(g.protocols());
    d.add(g.src_ports());
    d.add(g.dst_ports());
    d.add(g.durations_ms());
    d.add(g.out_bytes());
    d.add(g.in_bytes());
    d.add(g.out_pkts());
    d.add(g.in_pkts());
    d.add(g.states());
  }
  return d.value();
}

std::uint64_t scaled(std::uint64_t base, double scale) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(static_cast<double>(base) * scale)));
}

std::uint64_t counter(std::string_view name) {
  return csb::MetricsRegistry::instance().counter(name).value();
}

double mb(std::uint64_t bytes) { return static_cast<double>(bytes) / 1048576.0; }

std::uint64_t directory_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

csb::ClusterSim cluster_for(csb::ThreadPool& pool, std::size_t virtual_cores) {
  // Nodes x cores = the benchmark's pool threads: no stage is split for
  // cores that do not exist.
  return csb::ClusterSim(
      csb::ClusterConfig{.nodes = 1,
                         .cores_per_node =
                             virtual_cores > 0 ? virtual_cores : pool.size()},
      pool);
}

/// Veracity ceiling. A score compares normalized values, which shrink as
/// 1/|V| with the synthetic graph, so the check is on score x |V|^2, a
/// shape error that does not depend on size. The largest the library
/// produced on the three generation workloads over seeds 1-10 was 2.8
/// (degree) and 1.6 (PageRank), both on pgpba-ram; the ceiling is ten times
/// that. Above it the output no longer resembles its seed.
constexpr double kShapeErrorCeiling = 30.0;

void check_scores(const csb::VeracityReport& report, std::uint64_t vertices,
                  std::vector<std::string>& failures) {
  const double v = static_cast<double>(vertices);
  for (const auto& [name, score] : {std::pair{"degree", report.degree_score},
                                    std::pair{"pagerank", report.pagerank_score}}) {
    const double shape_error = score * v * v;
    if (!std::isfinite(score) || !(shape_error < kShapeErrorCeiling)) {
      std::ostringstream message;
      message << name << " veracity score " << score << " (x |V|^2 = "
              << shape_error << ") is not finite or above its ceiling";
      failures.push_back(message.str());
    }
  }
}

// ---------------------------------------------------------------- ingest ---

/// An injected attack and the alarm classes that count as detecting it at
/// `ip`.
struct InjectedAttack {
  std::string name;
  std::uint32_t ip = 0;
  std::vector<csb::AttackClass> accepted;
};

class IngestWorkload final : public Workload {
 public:
  IngestWorkload(fs::path workdir, double scale)
      : workdir_(std::move(workdir)), scale_(scale) {}
  ~IngestWorkload() override {
    std::error_code ignored;
    fs::remove(pcap_path_, ignored);
  }
  IngestWorkload(const IngestWorkload&) = delete;
  IngestWorkload& operator=(const IngestWorkload&) = delete;

  [[nodiscard]] std::string_view name() const override { return "ingest"; }

  void setup(std::uint64_t seed, csb::ThreadPool& /*pool*/) override {
    csb::TrafficModelConfig config;
    config.benign_sessions = scaled(8'000, scale_);
    config.client_hosts = 2'000;
    config.server_hosts = 100;
    config.seed = seed;
    const csb::TrafficModel model(config);
    std::vector<csb::SessionSpec> sessions = model.generate_benign();
    // The streaming detector classifies one window at a time, so its
    // thresholds are learned from one window of benign traffic; learned from
    // the whole capture they would describe an hour, not a window.
    std::vector<csb::NetflowRecord> first_window = csb::sessions_to_netflow(sessions);
    std::erase_if(first_window, [&](const csb::NetflowRecord& r) {
      return r.first_us >= config.start_time_us + csb::StreamingOptions{}.window_us;
    });
    thresholds_ = csb::calibrate_thresholds(
        first_window, csb::CalibrationOptions{.quantile = 0.995, .margin = 2.5});

    csb::Rng rng(seed ^ 0x1d5ULL);
    const std::uint64_t t0 = config.start_time_us;
    attacks_.clear();
    const auto inject = [&](std::vector<csb::SessionSpec> more) {
      sessions.insert(sessions.end(), std::make_move_iterator(more.begin()),
                      std::make_move_iterator(more.end()));
    };

    csb::SynFloodConfig syn;
    syn.victim_ip = 0x0a0f0001;
    syn.flows = static_cast<std::uint32_t>(scaled(600'000, scale_));
    syn.start_us = t0 + 600'000'000;
    syn.duration_s = 600;
    inject(csb::inject_syn_flood(syn, rng));
    attacks_.push_back({"syn-flood", syn.victim_ip,
                        {csb::AttackClass::kSynFlood, csb::AttackClass::kDdos}});

    csb::HostScanConfig host_scan;
    host_scan.scanner_ip = 0xc6336401;
    host_scan.target_ip = 0x0a0f0002;
    host_scan.port_count = 16'000;
    host_scan.start_us = t0 + 1'500'000'000;
    inject(csb::inject_host_scan(host_scan, rng));
    attacks_.push_back(
        {"host-scan", host_scan.target_ip, {csb::AttackClass::kHostScan}});

    csb::NetworkScanConfig net_scan;
    net_scan.scanner_ip = 0xc6336402;
    net_scan.subnet_base = 0x0a300000;
    net_scan.host_count = 12'000;
    net_scan.start_us = t0 + 2'100'000'000;
    inject(csb::inject_network_scan(net_scan, rng));
    attacks_.push_back({"network-scan", net_scan.scanner_ip,
                        {csb::AttackClass::kNetworkScan}});

    csb::DdosConfig ddos;
    ddos.victim_ip = 0x0a0f0003;
    ddos.bot_count = 600;
    ddos.flows_per_bot = 20;
    ddos.duration_s = 20;
    ddos.start_us = t0 + 2'700'000'000;
    inject(csb::inject_ddos(ddos, rng));
    attacks_.push_back({"ddos", ddos.victim_ip,
                        {csb::AttackClass::kDdos, csb::AttackClass::kSynFlood,
                         csb::AttackClass::kFlooding}});

    const std::vector<csb::PcapPacket> packets =
        csb::sessions_to_packets(sessions);
    // Each set-up writes a new file and deletes the previous one: truncating
    // a file in place would wait for its pages still under write-back.
    const fs::path previous = pcap_path_;
    pcap_path_ = workdir_ / ("capture-" + std::to_string(++setups_) + ".pcap");
    csb::write_pcap_file(pcap_path_.string(), packets);
    packets_ = packets.size();
    if (!previous.empty()) fs::remove(previous);
  }

  void run(csb::ThreadPool& pool, const RunOptions& options) override {
    SpanRecorder* rec = options.recorder;
    csb::MetricsRegistry::instance().reset_all();
    // Each stage frees its input inside its own span, so the spans cover
    // the whole pass.
    csb::IndexedPcap capture = traced(rec, "pcap.index", [&] {
      return csb::index_pcap_file(pcap_path_.string());
    });
    captured_ = capture.records.size();
    std::vector<csb::DecodedPacket> decoded = traced(rec, "seed.decode", [&] {
      auto packets = csb::decode_packets(capture, &pool);
      capture = csb::IndexedPcap();
      return packets;
    });
    flows_ = traced(rec, "flow.assemble", [&] {
      auto flows = csb::assemble_flows_parallel(decoded, pool);
      decoded = std::vector<csb::DecodedPacket>();
      return flows;
    });
    graph_ = traced(rec, "seed.build_graph",
                    [&] { return csb::graph_from_netflow(flows_, &pool); });
    profile_ = traced(rec, "seed.profile", [&] {
      return csb::SeedProfile::analyze(graph_, &pool);
    });
    alarms_ = traced(rec, "ids.stream", [&] {
      csb::StreamingDetector detector(thresholds_, csb::StreamingOptions{});
      std::vector<csb::StreamingAlarm> alarms;
      for (const csb::NetflowRecord& record : flows_) {
        auto raised = detector.ingest(record);
        alarms.insert(alarms.end(), raised.begin(), raised.end());
      }
      auto last = detector.finish();
      alarms.insert(alarms.end(), last.begin(), last.end());
      return alarms;
    });
    skipped_ = counter("seed.skipped_packets");
  }

  PassResult check() override {
    PassResult r;
    r.edges = graph_.num_edges();
    if (captured_ != packets_) {
      r.failures.push_back("indexed " + std::to_string(captured_) +
                           " packets, wrote " + std::to_string(packets_));
    }
    if (graph_.num_edges() != flows_.size()) {
      r.failures.push_back("seed graph edges differ from assembled flows");
    }
    std::size_t detected = 0;
    for (const InjectedAttack& attack : attacks_) {
      const bool hit = std::any_of(
          alarms_.begin(), alarms_.end(), [&](const csb::StreamingAlarm& a) {
            return a.alarm.detection_ip == attack.ip &&
                   std::find(attack.accepted.begin(), attack.accepted.end(),
                             a.alarm.type) != attack.accepted.end();
          });
      if (hit) {
        ++detected;
      } else {
        r.failures.push_back("injected " + attack.name + " raised no alarm");
      }
    }
    Digest d;
    d.add(graph_digest(graph_));
    std::ostringstream profile_bytes;
    profile_.save(profile_bytes);
    const std::string bytes = profile_bytes.str();
    d.add_bytes(bytes.data(), bytes.size());
    for (const csb::StreamingAlarm& a : alarms_) {
      d.add(a.window_start_us);
      d.add(std::uint64_t{a.alarm.detection_ip});
      d.add(static_cast<std::uint64_t>(a.alarm.type));
      d.add(std::uint64_t{a.alarm.destination_based});
    }
    r.digest = d.value();
    r.layer = {
        {"pcap.packets", static_cast<double>(captured_)},
        {"seed.skipped_packets", static_cast<double>(skipped_)},
        {"flow.flows_per_packet",
         captured_ > 0 ? static_cast<double>(flows_.size()) /
                             static_cast<double>(captured_)
                       : 0.0},
        {"ids.alarms", static_cast<double>(alarms_.size())},
        {"ids.attack_recall", static_cast<double>(detected) /
                                  static_cast<double>(attacks_.size())},
    };
    // Assigning fresh objects releases the storage; `= {}` would keep a
    // vector's capacity resident into the next pass.
    flows_ = std::vector<csb::NetflowRecord>();
    graph_ = csb::PropertyGraph();
    alarms_ = std::vector<csb::StreamingAlarm>();
    return r;
  }

 private:
  fs::path workdir_;
  double scale_;
  fs::path pcap_path_;
  int setups_ = 0;
  std::uint64_t packets_ = 0;
  csb::DetectionThresholds thresholds_;
  std::vector<InjectedAttack> attacks_;
  // Outputs of the last pass.
  std::uint64_t captured_ = 0;
  std::uint64_t skipped_ = 0;
  std::vector<csb::NetflowRecord> flows_;
  csb::PropertyGraph graph_;
  csb::SeedProfile profile_;
  std::vector<csb::StreamingAlarm> alarms_;
};

// ------------------------------------------------------------ generation ---

/// Shared by the three generation workloads: the NetFlow seed built in
/// setup, the generator call through the registry, and the sink-call
/// accounting of the pass.
class GenerationWorkload : public Workload {
 public:
  GenerationWorkload(std::string name, fs::path workdir, std::string generator,
                     std::uint64_t edges, bool with_properties)
      : name_(std::move(name)),
        workdir_(std::move(workdir)),
        generator_(std::move(generator)),
        edges_(edges),
        with_properties_(with_properties) {}

  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] int variants() const override { return kVariants; }

  void setup(std::uint64_t seed, csb::ThreadPool& pool) override {
    inputs_.clear();
    for (int k = 0; k < kVariants; ++k) {
      const std::uint64_t variant_seed = seed * kVariants + static_cast<std::uint64_t>(k);
      csb::TrafficModelConfig config;
      config.benign_sessions = 20'000;
      // Mean degree ~5, as in an enterprise capture (bench/common.hpp's
      // seed).
      config.client_hosts = 4'000;
      config.server_hosts = 200;
      config.seed = variant_seed;
      inputs_.push_back(Input{
          csb::build_seed_from_netflow(
              csb::sessions_to_netflow(csb::TrafficModel(config).generate_benign()),
              csb::SeedOptions{.pool = &pool}),
          variant_seed});
    }
  }

 protected:
  /// Runs the generator into `sink` through the timing decorator and books
  /// the generator's and the sink's per-layer numbers.
  csb::StoreGenResult generate(csb::ThreadPool& pool, const RunOptions& options,
                               csb::GraphStore& sink,
                               std::map<std::string, std::string> extra) {
    csb::MetricsRegistry::instance().reset_all();
    input_ = &inputs_.at(static_cast<std::size_t>(options.variant));
    csb::ClusterSim cluster = cluster_for(pool, options.virtual_cores);
    csb::GenConfig config;
    config.desired_edges = edges_;
    // Fixed, so the output is the same at every pool size and on every host.
    config.partitions = 8;
    config.seed = input_->rng_seed;
    config.with_properties = with_properties_;
    config.extra = std::move(extra);
    const csb::Generator& generator = csb::require_generator(generator_);
    TimingStore timed(sink, options.recorder, options.put_edges_delay);
    const std::int64_t start = now_ns();
    const csb::StoreGenResult result =
        traced(options.recorder, "gen.generate_into", [&] {
          return generator.generate_into(input_->seed.graph, input_->seed.profile, cluster,
                                         config, timed);
        });
    const std::int64_t end = now_ns();
    const CallStats edges = timed.put_edges_stats();
    const CallStats props = timed.put_properties_stats();
    const std::uint64_t proposed = counter("kronfit.swaps_proposed");
    layer_ = {
        {"gen.self_s", static_cast<double>(end - start) * 1e-9 -
                           covered_seconds(timed.intervals(), {start, end})},
        {"gen.edges", static_cast<double>(result.edges)},
        {"gen.vertices", static_cast<double>(result.vertices)},
        {"store.put_edges.calls", static_cast<double>(edges.calls)},
        {"store.put_edges.busy_s", edges.busy_s},
        {"store.put_edges.mb", mb(edges.bytes)},
        {"store.put_properties.calls", static_cast<double>(props.calls)},
        {"store.put_properties.busy_s", props.busy_s},
        {"store.put_properties.mb", mb(props.bytes)},
        {"store.distinct_spilled_runs",
         static_cast<double>(counter("store.distinct_spilled_runs"))},
        {"kronfit.swap_accept_ratio",
         proposed > 0 ? static_cast<double>(counter("kronfit.swaps_accepted")) /
                            static_cast<double>(proposed)
                      : 0.0},
        {"mr.simulated_s", result.metrics.simulated_seconds},
        {"mr.serial_s", result.metrics.serial_seconds},
        {"mr.tasks", static_cast<double>(result.metrics.tasks)},
    };
    return result;
  }

  /// Veracity against the seed: one evaluate_veracity call untraced, its
  /// degree and PageRank halves as two spans when traced (the same calls).
  template <typename Synthetic>
  csb::VeracityReport veracity(const Synthetic& synthetic, csb::ThreadPool& pool,
                               SpanRecorder* rec) {
    if (rec == nullptr) {
      return csb::evaluate_veracity(input_->seed.graph, synthetic, pool);
    }
    csb::VeracityReport report;
    report.degree_score = rec->call("veracity.degree", [&] {
      if constexpr (std::is_same_v<Synthetic, csb::CsrIndexView>) {
        return csb::veracity_score(
            csb::normalized_degree_distribution(input_->seed.graph),
            csb::normalized_degree_distribution(synthetic, &pool));
      } else {
        return csb::veracity_score(
            csb::normalized_degree_distribution(input_->seed.graph),
            csb::normalized_degree_distribution(synthetic));
      }
    });
    report.pagerank_score = rec->call("veracity.pagerank", [&] {
      return csb::veracity_score(
          csb::normalized_pagerank_distribution(input_->seed.graph, pool),
          csb::normalized_pagerank_distribution(synthetic, pool));
    });
    return report;
  }

  std::string name_;
  fs::path workdir_;
  std::string generator_;
  std::uint64_t edges_;
  bool with_properties_;
  /// A seed graph and the generator RNG seed of one input variant.
  struct Input {
    csb::SeedBundle seed;
    std::uint64_t rng_seed = 1;
  };
  /// Input variants per run: the outputs' cost depends on the seed graph
  /// (PageRank's iteration count, the fitted initiator), so a run cycles its
  /// passes over several inputs drawn from --seed and its median describes
  /// the generator rather than one draw.
  static constexpr int kVariants = 4;
  std::vector<Input> inputs_;
  const Input* input_ = nullptr;  ///< the last pass's input
  std::map<std::string, double> layer_;
};

/// Generation into a ShardStore, then open -> verify -> veracity over the
/// mapped CSR (`pgsk-spill`, `fast-shards`).
class ShardWorkload final : public GenerationWorkload {
 public:
  ShardWorkload(std::string name, fs::path workdir, std::string generator,
                std::uint64_t edges, bool with_properties,
                std::optional<std::uint64_t> dedup_budget_mb)
      : GenerationWorkload(std::move(name), std::move(workdir),
                           std::move(generator), edges, with_properties),
        dedup_budget_mb_(dedup_budget_mb) {}

  void run(csb::ThreadPool& pool, const RunOptions& options) override {
    const fs::path store_dir = workdir_ / "store";
    std::map<std::string, std::string> extra;
    if (dedup_budget_mb_) {
      const fs::path spill_dir = workdir_ / "spill";
      fs::create_directories(spill_dir);
      extra["dedup-budget-mb"] = std::to_string(*dedup_budget_mb_);
      extra["dedup-spill-dir"] = spill_dir.string();
    }
    csb::ShardStore store(csb::ShardStoreOptions{
        .directory = store_dir.string(),
        .shard_count = 8,
        .memory_budget_bytes = 64ULL << 20,
        .build_csr = true,
        .pool = &pool});
    result_ = generate(pool, options, store, std::move(extra));
    SpanRecorder* rec = options.recorder;
    const csb::ShardStoreReader reader = traced(rec, "store.open", [&] {
      return csb::ShardStoreReader(store_dir.string());
    });
    verified_ = true;
    verify_error_.clear();
    traced(rec, "store.verify", [&] {
      try {
        reader.verify(&pool);
      } catch (const std::exception& e) {
        verified_ = false;
        verify_error_ = e.what();
      }
    });
    report_ = veracity(reader.csr(), pool, rec);
    manifest_ = reader.manifest();
  }

  PassResult check() override {
    PassResult r;
    r.edges = result_.edges;
    if (!verified_) r.failures.push_back("store verify failed: " + verify_error_);
    if (manifest_.edges != result_.edges) {
      r.failures.push_back("manifest holds " + std::to_string(manifest_.edges) +
                           " edges, generator reported " +
                           std::to_string(result_.edges));
    }
    if (dedup_budget_mb_ && layer_["store.distinct_spilled_runs"] <= 0.0) {
      r.failures.push_back("the distinct did not spill");
    }
    check_scores(report_, result_.vertices, r.failures);
    Digest d;
    d.add(manifest_.vertices);
    d.add(manifest_.edges);
    for (const csb::ShardInfo& s : manifest_.shards) {
      d.add(s.edge_checksum);
      d.add(s.prop_checksum);
    }
    d.add(manifest_.csr_checksum);
    d.add(report_.degree_score);
    d.add(report_.pagerank_score);
    r.digest = d.value();
    r.layer = layer_;
    r.layer["veracity.degree_score"] = report_.degree_score;
    r.layer["veracity.pagerank_score"] = report_.pagerank_score;
    r.layer["output.bytes_per_edge"] =
        static_cast<double>(directory_bytes(workdir_ / "store")) /
        static_cast<double>(std::max<std::uint64_t>(1, result_.edges));
    fs::remove_all(workdir_ / "store");
    fs::remove_all(workdir_ / "spill");
    return r;
  }

 private:
  std::optional<std::uint64_t> dedup_budget_mb_;
  csb::StoreGenResult result_;
  bool verified_ = false;
  std::string verify_error_;
  csb::VeracityReport report_;
  csb::ShardManifest manifest_;
};

/// Generation into a MemoryStore, then the binary GraphFormat save -> load
/// -> in-RAM veracity (`pgpba-ram`).
class RamWorkload final : public GenerationWorkload {
 public:
  using GenerationWorkload::GenerationWorkload;

  void run(csb::ThreadPool& pool, const RunOptions& options) override {
    SpanRecorder* rec = options.recorder;
    csb::MemoryStore store;
    result_ = generate(pool, options, store, {});
    generated_ = store.take_graph();
    const csb::GraphFormat& format = csb::require_graph_format("binary");
    const std::string path = (workdir_ / "graph.bin").string();
    traced(rec, "graph.save", [&] { format.save(generated_, path); });
    loaded_ = traced(rec, "graph.load", [&] { return format.load(path); });
    report_ = veracity(loaded_, pool, rec);
  }

  PassResult check() override {
    PassResult r;
    r.edges = result_.edges;
    if (!(loaded_ == generated_)) {
      r.failures.push_back("loaded graph differs from the generated graph");
    }
    if (generated_.num_edges() != result_.edges) {
      r.failures.push_back("memory store holds a different edge count");
    }
    check_scores(report_, result_.vertices, r.failures);
    const fs::path path = workdir_ / "graph.bin";
    Digest d;
    {
      std::ifstream in(path, std::ios::binary);
      std::vector<char> buffer(1 << 20);
      while (in.read(buffer.data(), static_cast<std::streamsize>(buffer.size())) ||
             in.gcount() > 0) {
        d.add_bytes(buffer.data(), static_cast<std::size_t>(in.gcount()));
      }
    }
    d.add(report_.degree_score);
    d.add(report_.pagerank_score);
    r.digest = d.value();
    r.layer = layer_;
    r.layer["veracity.degree_score"] = report_.degree_score;
    r.layer["veracity.pagerank_score"] = report_.pagerank_score;
    r.layer["output.bytes_per_edge"] =
        static_cast<double>(fs::file_size(path)) /
        static_cast<double>(std::max<std::uint64_t>(1, result_.edges));
    fs::remove(path);
    generated_ = {};
    loaded_ = {};
    return r;
  }

 private:
  csb::StoreGenResult result_;
  csb::PropertyGraph generated_;
  csb::PropertyGraph loaded_;
  csb::VeracityReport report_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"ingest", "pgsk-spill", "pgpba-ram", "fast-shards"};
}

std::vector<std::string> call_names() {
  return {"pcap.index",        "seed.decode",      "flow.assemble",
          "seed.build_graph",  "seed.profile",     "ids.stream",
          "gen.generate_into", "store.finish",     "store.open",
          "store.verify",      "graph.save",       "graph.load",
          "veracity.degree",   "veracity.pagerank"};
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const fs::path& workdir, double scale) {
  if (name == "ingest") return std::make_unique<IngestWorkload>(workdir, scale);
  if (name == "pgsk-spill") {
    return std::make_unique<ShardWorkload>(
        "pgsk-spill", workdir, "pgsk", scaled(16'000'000, scale), true,
        std::max<std::uint64_t>(1, scaled(16, scale)));
  }
  if (name == "pgpba-ram") {
    return std::make_unique<RamWorkload>("pgpba-ram", workdir, "pgpba",
                                         scaled(5'000'000, scale), true);
  }
  if (name == "fast-shards") {
    return std::make_unique<ShardWorkload>("fast-shards", workdir, "pgsk-fast",
                                           scaled(32'000'000, scale), false,
                                           std::nullopt);
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace pipebench
