#include "harness.hpp"

#include <malloc.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cstdio>

#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace pipebench {

namespace {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Calls with a peak-RSS or an I/O metric (the rest report time only).
const std::vector<std::string> kPeakRssCalls = {
    "pcap.index", "flow.assemble", "gen.generate_into",
    "store.finish", "graph.load", "veracity.pagerank"};
const std::vector<std::string> kIoCalls = {
    "pcap.index", "store.finish", "store.verify", "graph.save", "graph.load"};

/// Names of the per-pass values the workloads report (PassResult::layer).
const std::vector<MetricDef> kPassMetrics = {
    {"store.put_edges.calls", "count", "lower"},
    {"store.put_edges.busy_s", "s", "lower"},
    {"store.put_edges.mb", "MB", "lower"},
    {"store.put_properties.calls", "count", "lower"},
    {"store.put_properties.busy_s", "s", "lower"},
    {"store.put_properties.mb", "MB", "lower"},
    {"gen.self_s", "s", "lower"},
    {"pcap.packets", "count", "higher"},
    {"seed.skipped_packets", "count", "lower"},
    {"flow.flows_per_packet", "ratio", "lower"},
    {"ids.alarms", "count", "lower"},
    {"ids.attack_recall", "ratio", "higher"},
    {"gen.edges", "count", "higher"},
    {"gen.vertices", "count", "higher"},
    {"store.distinct_spilled_runs", "count", "lower"},
    {"kronfit.swap_accept_ratio", "ratio", "higher"},
    {"veracity.degree_score", "score", "lower"},
    {"veracity.pagerank_score", "score", "lower"},
    {"output.bytes_per_edge", "B/edge", "lower"},
    {"mr.simulated_s", "s", "lower"},
    {"mr.serial_s", "s", "lower"},
    {"mr.tasks", "count", "lower"},
};

std::string filesystem_type(const std::filesystem::path& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794c7630UL: return "overlayfs";
    default: return "other";
  }
}

/// Per-call totals of one traced pass.
struct CallTotals {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_mb = 0.0;
  double read_mb = 0.0;
  double write_mb = 0.0;
};

struct TracedPass {
  std::map<std::string, CallTotals> calls;
  double top_level_s = 0.0;
};

TracedPass summarize(const std::vector<Span>& spans) {
  TracedPass pass;
  for (const Span& s : spans) {
    CallTotals& t = pass.calls[s.name];
    t.wall_s += s.wall_s();
    t.cpu_s += s.cpu_s;
    if (s.peak_rss) {
      t.peak_mb = std::max(t.peak_mb, static_cast<double>(*s.peak_rss) / 1048576.0);
    }
    t.read_mb += static_cast<double>(s.read_bytes) / 1048576.0;
    t.write_mb += static_cast<double>(s.write_bytes) / 1048576.0;
    if (s.parent < 0) pass.top_level_s += s.wall_s();
  }
  return pass;
}

struct PassRecord {
  int variant = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::optional<std::uint64_t> peak_rss;
  PassResult result;
};

}  // namespace

std::vector<MetricDef> end_to_end_metrics() {
  return {
      {"wall_s", "s", "lower"},
      {"edges_per_s", "1/s", "higher"},
      {"peak_rss_mb", "MB", "lower"},
      {"setup_s", "s", "lower"},
  };
}

std::vector<MetricDef> per_layer_metrics() {
  std::vector<MetricDef> defs;
  for (const std::string& call : call_names()) {
    defs.push_back({call + ".wall_s", "s", "lower"});
    defs.push_back({call + ".cpu_s", "s", "lower"});
    defs.push_back({call + ".serial_wall_s", "s", "lower"});
    defs.push_back({call + ".speedup", "ratio", "higher"});
    if (std::count(kPeakRssCalls.begin(), kPeakRssCalls.end(), call) > 0) {
      defs.push_back({call + ".peak_rss_mb", "MB", "lower"});
    }
    if (std::count(kIoCalls.begin(), kIoCalls.end(), call) > 0) {
      defs.push_back({call + ".read_mb", "MB", "lower"});
      defs.push_back({call + ".write_mb", "MB", "lower"});
    }
  }
  defs.insert(defs.end(), kPassMetrics.begin(), kPassMetrics.end());
  defs.push_back({"pcap.packets_per_s", "1/s", "higher"});
  defs.push_back({"pipeline.cpu_s", "s", "lower"});
  defs.push_back({"trace.untraced_wall_s", "s", "lower"});
  defs.push_back({"trace.traced_wall_s", "s", "lower"});
  defs.push_back({"trace.top_level_sum_s", "s", "lower"});
  defs.push_back({"trace.overhead_s", "s", "lower"});
  return defs;
}

Measurement measure(const HarnessOptions& options) {
  Measurement m;
  m.filesystem = filesystem_type(options.workdir);
  csb::ThreadPool pool(options.threads);
  const std::unique_ptr<Workload> workload =
      make_workload(options.workload, options.workdir, options.scale);

  // Set-up runs at least min_setups times and until setup_seconds have
  // passed (a cheap set-up is timed often enough for a steady median).
  std::vector<double> setup_s;
  const std::int64_t setup_start = now_ns();
  while (static_cast<int>(setup_s.size()) < std::max(1, options.min_setups) ||
         (static_cast<double>(now_ns() - setup_start) * 1e-9 < options.setup_seconds &&
          setup_s.size() < 50)) {
    const std::int64_t start = now_ns();
    workload->setup(options.seed, pool);
    // Set-up frees most of what it built; returning it to the kernel keeps
    // it out of the resident set every pass's peak starts from.
    malloc_trim(0);
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }

  std::map<int, std::uint64_t> reference_digests;  // by input variant
  const auto one_pass = [&](csb::ThreadPool& on, SpanRecorder* recorder,
                            int variant) {
    PassRecord record;
    record.variant = variant;
    ResourceWindow window;
    window.start();
    workload->run(on, RunOptions{recorder, options.put_edges_delay, variant,
                                 pool.size()});
    window.stop();
    record.wall_s = window.wall_s();
    record.cpu_s = window.cpu_s();
    record.peak_rss = window.peak_rss();
    record.result = workload->check();
    malloc_trim(0);
    std::fprintf(stderr, "pass %llu: pool %zu%s wall %.4f s cpu %.3f s peak %.1f MB\n",
                 static_cast<unsigned long long>(m.attempted), on.size(),
                 recorder != nullptr ? " traced" : "", record.wall_s, record.cpu_s,
                 static_cast<double>(record.peak_rss.value_or(0)) / 1048576.0);
    const auto [reference, first] =
        reference_digests.emplace(variant, record.result.digest);
    if (!first && record.result.digest != reference->second) {
      record.result.failures.push_back(
          "output digest of input " + std::to_string(variant) +
          " differs from its first pass (pool " + std::to_string(on.size()) + ")");
    }
    ++m.attempted;
    if (!record.result.failures.empty()) {
      ++m.failed;
      m.failures.insert(m.failures.end(), record.result.failures.begin(),
                        record.result.failures.end());
    }
    return record;
  };

  // Warm-up pass: fills the allocator and the page cache, checked but not
  // timed.
  (void)one_pass(pool, nullptr, 0);

  std::vector<PassRecord> untraced;
  std::vector<PassRecord> traced_passes;
  std::vector<TracedPass> traced_spans;
  std::string spans_json = "[";
  const auto append_spans = [&](const SpanRecorder& rec, const std::string& tag) {
    if (spans_json.size() > 1) spans_json += ",";
    spans_json += "\n{\"pass\": \"" + tag + "\", \"spans\": " + rec.to_json() + "}";
  };
  const std::int64_t start = now_ns();
  const auto elapsed = [&] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };
  // Traced runs stay on input 0, the input of the serial baseline. Untraced
  // runs cycle over every input and stop only after a whole round.
  const int variants = options.trace ? 1 : workload->variants();
  while (elapsed() < options.seconds ||
         static_cast<int>(untraced.size()) < options.min_passes ||
         untraced.size() % static_cast<std::size_t>(variants) != 0) {
    const int variant = static_cast<int>(untraced.size()) % variants;
    untraced.push_back(one_pass(pool, nullptr, variant));
    if (options.trace) {
      SpanRecorder rec;
      traced_passes.push_back(one_pass(pool, &rec, 0));
      traced_spans.push_back(summarize(rec.spans()));
      append_spans(rec, "pool-" + std::to_string(pool.size()));
    }
  }

  // The median over each input's passes, averaged over the inputs: every
  // input weighs the same however its passes fell, so a heavier input cannot
  // move the figure by getting one pass more.
  const auto med = [](const std::vector<PassRecord>& passes, auto field) {
    std::map<int, std::vector<double>> by_variant;
    for (const PassRecord& p : passes) by_variant[p.variant].push_back(field(p));
    double sum = 0.0;
    for (const auto& [variant, values] : by_variant) sum += median(values);
    return by_variant.empty() ? 0.0 : sum / static_cast<double>(by_variant.size());
  };
  const double wall = med(untraced, [](const PassRecord& p) { return p.wall_s; });
  m.end_to_end["wall_s"] = wall;
  m.end_to_end["edges_per_s"] = med(untraced, [](const PassRecord& p) {
    return static_cast<double>(p.result.edges) / p.wall_s;
  });
  if (std::all_of(untraced.begin(), untraced.end(),
                  [](const PassRecord& p) { return p.peak_rss.has_value(); })) {
    m.end_to_end["peak_rss_mb"] = med(untraced, [](const PassRecord& p) {
      return static_cast<double>(*p.peak_rss) / 1048576.0;
    });
  } else {
    m.failures.push_back(
        "peak RSS unavailable: /proc/self/clear_refs could not reset VmHWM");
  }
  m.end_to_end["setup_s"] = median(setup_s);

  if (!options.trace) return m;

  // Serial baseline: the same traced pass on a one-thread pool.
  csb::ThreadPool serial_pool(1);
  SpanRecorder serial_rec;
  (void)one_pass(serial_pool, &serial_rec, 0);
  const TracedPass serial = summarize(serial_rec.spans());
  append_spans(serial_rec, "pool-1");
  m.spans_json = spans_json + "\n]\n";

  for (const MetricDef& def : per_layer_metrics()) m.per_layer[def.name] = 0.0;
  for (const std::string& call : call_names()) {
    std::vector<double> wall_s, cpu_s, peak, read, write;
    bool called = false;
    for (const TracedPass& p : traced_spans) {
      const auto it = p.calls.find(call);
      if (it == p.calls.end()) continue;
      called = true;
      wall_s.push_back(it->second.wall_s);
      cpu_s.push_back(it->second.cpu_s);
      peak.push_back(it->second.peak_mb);
      read.push_back(it->second.read_mb);
      write.push_back(it->second.write_mb);
    }
    if (!called) continue;
    m.per_layer[call + ".wall_s"] = median(wall_s);
    m.per_layer[call + ".cpu_s"] = median(cpu_s);
    const auto s = serial.calls.find(call);
    if (s != serial.calls.end()) {
      m.per_layer[call + ".serial_wall_s"] = s->second.wall_s;
      m.per_layer[call + ".speedup"] = s->second.wall_s / median(wall_s);
    }
    if (m.per_layer.contains(call + ".peak_rss_mb")) {
      m.per_layer[call + ".peak_rss_mb"] = median(peak);
    }
    if (m.per_layer.contains(call + ".read_mb")) {
      m.per_layer[call + ".read_mb"] = median(read);
      m.per_layer[call + ".write_mb"] = median(write);
    }
  }
  for (const MetricDef& def : kPassMetrics) {
    std::vector<double> values;
    for (const PassRecord& p : traced_passes) {
      const auto it = p.result.layer.find(def.name);
      if (it != p.result.layer.end()) values.push_back(it->second);
    }
    if (!values.empty()) m.per_layer[def.name] = median(values);
  }
  if (m.per_layer["pcap.packets"] > 0) {
    m.per_layer["pcap.packets_per_s"] = m.per_layer["pcap.packets"] / wall;
  }
  std::vector<double> top;
  for (const TracedPass& p : traced_spans) top.push_back(p.top_level_s);
  const double traced_wall =
      med(traced_passes, [](const PassRecord& p) { return p.wall_s; });
  m.per_layer["pipeline.cpu_s"] =
      med(untraced, [](const PassRecord& p) { return p.cpu_s; });
  m.per_layer["trace.untraced_wall_s"] = wall;
  m.per_layer["trace.traced_wall_s"] = traced_wall;
  m.per_layer["trace.top_level_sum_s"] = median(top);
  m.per_layer["trace.overhead_s"] = traced_wall - wall;
  return m;
}

std::vector<LayerChange> rank_layer_changes(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  std::vector<std::pair<std::string, std::string>> layers;
  for (const std::string& call : call_names()) {
    layers.emplace_back(call, call == "gen.generate_into" ? "gen.self_s"
                                                          : call + ".wall_s");
  }
  layers.emplace_back("store.put_edges", "store.put_edges.busy_s");
  layers.emplace_back("store.put_properties", "store.put_properties.busy_s");
  const auto value = [](const std::map<std::string, double>& m,
                        const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  std::vector<LayerChange> rows;
  for (const auto& [layer, metric] : layers) {
    rows.push_back({layer, metric, value(before, metric), value(after, metric)});
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const LayerChange& a, const LayerChange& b) {
                     return a.after - a.before > b.after - b.before;
                   });
  return rows;
}

}  // namespace pipebench
