// Store-throughput gate bench: pgsk-fast streamed into the sharded
// out-of-core store vs the in-RAM MemoryStore at the same configuration,
// with the shard path split into its generate / finish / verify phases.
//
// Three claims are checked, one here and two by the regression gate:
//   * bounded residency — the shard path's peak-RSS growth must stay under
//     the CSR memory budget plus fixed slack (asserted in-process via
//     sample_process_memory; the in-RAM graph for the same edge count is
//     several times larger). A leak of the full edge list into RAM fails
//     the bench itself, on every host.
//   * throughput — edges/second of both paths goes into the `--json`
//     record; scripts/check_bench_regress.sh pins the shard path's
//     throughput to a relative floor against BENCH_observability.json, so
//     an accidental serialization (or fsync-per-chunk-style regression) of
//     the store fails the gate without rerunning any sweep.
//   * finish/verify parallelism — the finish (CSR build) and verify
//     (checksum scan) phases run once serially and once on the pool;
//     `finish_verify_speedup` is their ratio. The gate floors it against
//     the committed baseline, so the check is host-relative and still
//     works on single-core machines where the speedup is ~1.
//
// A fourth race covers the exact generator: exact PGSK streamed through its
// out-of-core store pipeline vs the retired store:replay shape (in-RAM
// generate, then replay into the same store). The streamed path's
// peak-RSS growth is asserted against its dedup + CSR budgets in-process,
// and its edges/second is floored by the regression gate.
//
// All gated numbers are kRepeats-medians (bench/common.hpp): the gate
// compares medians, so a single outlier rep cannot move it.
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support/report.hpp"
#include "common.hpp"
#include "gen/fast_samplers.hpp"
#include "gen/pgsk.hpp"
#include "obs/memwatch.hpp"
#include "store/graph_store.hpp"
#include "store/shard_store.hpp"
#include "util/format.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace csb;

/// Forwards every sink call to the wrapped store and records how long
/// finish() takes, so the bench can split generate time from CSR-build
/// time without changing the generator's call sequence.
class FinishTimingStore final : public GraphStore {
 public:
  explicit FinishTimingStore(GraphStore& inner) : inner_(inner) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  void begin(const StoreHeader& header) override { inner_.begin(header); }
  void put_edges(std::uint64_t first_edge, std::span<const VertexId> src,
                 std::span<const VertexId> dst) override {
    inner_.put_edges(first_edge, src, dst);
  }
  void put_properties(std::uint64_t first_edge,
                      const PropertyRowsView& rows) override {
    inner_.put_properties(first_edge, rows);
  }
  void finish() override {
    finish_seconds_ = bench::wall_seconds([&] { inner_.finish(); });
  }
  [[nodiscard]] double finish_seconds() const { return finish_seconds_; }

 private:
  GraphStore& inner_;
  double finish_seconds_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  print_experiment_header(
      "store throughput — sharded out-of-core vs in-RAM sink",
      "pgsk-fast streams shard-sized chunks into each GraphStore backend; "
      "the shard path must hold peak RSS near the CSR budget while staying "
      "within a constant factor of the in-RAM sink's throughput. The "
      "finish (CSR build) and verify phases also run serially for the "
      "parallel-speedup gate.");

  constexpr std::uint64_t kBudgetBytes = 64ULL << 20;
  constexpr std::uint64_t kSlackBytes = 128ULL << 20;
  constexpr int kRepeats = 3;
  constexpr std::size_t kPoolThreads = 4;
  const SeedBundle seed = bench::default_seed(bench::scaled(15'000));
  const std::uint64_t target = bench::scaled(8'000'000);

  PgskFastOptions options;
  options.desired_edges = target;
  options.seed = 11;
  options.with_properties = false;
  options.fit.gradient_iterations = 2;
  options.fit.swaps_per_iteration = 100;
  options.fit.burn_in_swaps = 200;

  ThreadPool pool(kPoolThreads);
  const fs::path scratch =
      fs::temp_directory_path() /
      ("csb_store_throughput_" + std::to_string(::getpid()));
  fs::remove_all(scratch);

  std::uint64_t edges = 0;
  // One shard-path rep: generate + finish with the given finish pool, then
  // verify with the given verify pool; appends one sample per phase.
  const auto shard_rep = [&](ThreadPool* finish_pool, ThreadPool* verify_pool,
                             std::vector<double>& total_samples,
                             std::vector<double>& finish_samples,
                             std::vector<double>& verify_samples) {
    fs::remove_all(scratch);
    ClusterSim cluster(
        ClusterConfig{
            .nodes = 8, .cores_per_node = 2, .smooth_task_durations = true},
        pool);
    ShardStoreOptions store_options;
    store_options.directory = scratch.string();
    store_options.shard_count = 8;
    store_options.memory_budget_bytes = kBudgetBytes;
    store_options.pool = finish_pool;
    ShardStore store(store_options);
    FinishTimingStore timed(store);
    total_samples.push_back(bench::wall_seconds([&] {
      const StoreGenResult result = pgsk_fast_generate_into(
          seed.graph, seed.profile, cluster, options, timed);
      edges = result.edges;
    }));
    finish_samples.push_back(timed.finish_seconds());
    const ShardStoreReader reader(scratch.string());
    verify_samples.push_back(
        bench::wall_seconds([&] { reader.verify(verify_pool); }));
  };

  // Shard paths first, so their peak-RSS delta is measured against a clean
  // high-water mark (VmHWM only ever rises).
  const MemorySample before = sample_process_memory();
  std::vector<double> shards_samples, finish_samples, verify_samples;
  std::vector<double> finish_serial_samples, verify_serial_samples;
  for (int r = 0; r < kRepeats; ++r) {
    shard_rep(&pool, &pool, shards_samples, finish_samples, verify_samples);
  }
  {
    std::vector<double> serial_totals;
    for (int r = 0; r < kRepeats; ++r) {
      shard_rep(nullptr, nullptr, serial_totals, finish_serial_samples,
                verify_serial_samples);
    }
  }
  const MemorySample after_shards = sample_process_memory();
  const std::uint64_t shards_rss_growth =
      after_shards.hwm_bytes - before.hwm_bytes;
  fs::remove_all(scratch);

  // Exact PGSK: the streamed store pipeline (expand → external distinct →
  // re-multiply → emit, all into the shard store) raced against the retired
  // store:replay shape (in-RAM generate, then replay into the same store). The streamed path runs first, against the current high-water
  // mark, so its peak-RSS growth can be asserted before the replay path
  // materializes the full graph in RAM and raises VmHWM for good.
  const fs::path spill =
      fs::temp_directory_path() /
      ("csb_store_throughput_spill_" + std::to_string(::getpid()));
  PgskOptions exact_options;
  exact_options.desired_edges = target;
  exact_options.seed = 11;
  exact_options.with_properties = false;
  exact_options.fit = options.fit;
  exact_options.dedup_budget_bytes = kBudgetBytes;
  exact_options.spill_directory = spill.string();

  const auto exact_shard_store = [&] {
    ShardStoreOptions store_options;
    store_options.directory = scratch.string();
    store_options.shard_count = 8;
    store_options.memory_budget_bytes = kBudgetBytes;
    store_options.pool = &pool;
    return store_options;
  };

  std::uint64_t exact_edges = 0;
  const MemorySample before_exact = sample_process_memory();
  std::vector<double> exact_streamed_samples;
  for (int r = 0; r < kRepeats; ++r) {
    fs::remove_all(scratch);
    fs::remove_all(spill);
    ClusterSim cluster(
        ClusterConfig{
            .nodes = 8, .cores_per_node = 2, .smooth_task_durations = true},
        pool);
    ShardStore store(exact_shard_store());
    exact_streamed_samples.push_back(bench::wall_seconds([&] {
      const StoreGenResult result = pgsk_generate_into(
          seed.graph, seed.profile, cluster, exact_options, store);
      exact_edges = result.edges;
    }));
  }
  const MemorySample after_exact = sample_process_memory();
  const std::uint64_t exact_rss_growth =
      after_exact.hwm_bytes - before_exact.hwm_bytes;

  std::vector<double> exact_replay_samples;
  for (int r = 0; r < kRepeats; ++r) {
    fs::remove_all(scratch);
    ClusterSim cluster(
        ClusterConfig{
            .nodes = 8, .cores_per_node = 2, .smooth_task_durations = true},
        pool);
    ShardStore store(exact_shard_store());
    exact_replay_samples.push_back(bench::wall_seconds([&] {
      const GenResult in_ram =
          pgsk_generate(seed.graph, seed.profile, cluster, exact_options);
      replay_graph_into(in_ram.graph, store, exact_options.seed);
    }));
  }
  fs::remove_all(scratch);
  fs::remove_all(spill);

  std::vector<double> memory_samples;
  for (int r = 0; r < kRepeats; ++r) {
    ClusterSim cluster(
        ClusterConfig{
            .nodes = 8, .cores_per_node = 2, .smooth_task_durations = true},
        pool);
    MemoryStore store;
    memory_samples.push_back(bench::wall_seconds([&] {
      (void)pgsk_fast_generate_into(seed.graph, seed.profile, cluster,
                                    options, store);
    }));
  }

  const double memory_s = bench::median(memory_samples);
  const double shards_s = bench::median(shards_samples);
  const double finish_s = bench::median(finish_samples);
  const double verify_s = bench::median(verify_samples);
  const double finish_serial_s = bench::median(finish_serial_samples);
  const double verify_serial_s = bench::median(verify_serial_samples);
  const double generate_s = shards_s - finish_s;
  const double finish_verify_speedup =
      (finish_serial_s + verify_serial_s) / (finish_s + verify_s);
  const double shards_eps = static_cast<double>(edges) / shards_s;
  const double memory_eps = static_cast<double>(edges) / memory_s;
  const double exact_streamed_s = bench::median(exact_streamed_samples);
  const double exact_replay_s = bench::median(exact_replay_samples);
  const double exact_streamed_eps =
      static_cast<double>(exact_edges) / exact_streamed_s;
  const double exact_replay_eps =
      static_cast<double>(exact_edges) / exact_replay_s;

  ReportTable table("store sink race (median of " + std::to_string(kRepeats) +
                        " repeats, " + with_commas(edges) + " edges)",
                    {"phase", "wall_s", "edges_per_s", "rss_growth"});
  table.add_row({"memory total", cell_fixed(memory_s, 3),
                 cell_fixed(memory_eps / 1e6, 2) + "M", "-"});
  table.add_row({"shards total", cell_fixed(shards_s, 3),
                 cell_fixed(shards_eps / 1e6, 2) + "M",
                 human_bytes(shards_rss_growth)});
  table.add_row({"  generate", cell_fixed(generate_s, 3), "-", "-"});
  table.add_row({"  finish (pool " + std::to_string(kPoolThreads) + ")",
                 cell_fixed(finish_s, 3), "-", "-"});
  table.add_row({"  verify (pool " + std::to_string(kPoolThreads) + ")",
                 cell_fixed(verify_s, 3), "-", "-"});
  table.add_row(
      {"  finish (serial)", cell_fixed(finish_serial_s, 3), "-", "-"});
  table.add_row(
      {"  verify (serial)", cell_fixed(verify_serial_s, 3), "-", "-"});
  table.add_row({"exact streamed (" + with_commas(exact_edges) + " edges)",
                 cell_fixed(exact_streamed_s, 3),
                 cell_fixed(exact_streamed_eps / 1e6, 2) + "M",
                 human_bytes(exact_rss_growth)});
  table.add_row({"exact replay", cell_fixed(exact_replay_s, 3),
                 cell_fixed(exact_replay_eps / 1e6, 2) + "M", "-"});
  table.print();
  std::cout << "\n(shard path: 8 shards, " << human_bytes(kBudgetBytes)
            << " CSR budget; RSS growth = VmHWM delta over the shard runs; "
               "finish+verify parallel speedup "
            << cell_fixed(finish_verify_speedup, 2) << "x)\n";

  if (shards_rss_growth > kBudgetBytes + kSlackBytes) {
    std::cerr << "FAIL: shard-path peak RSS growth "
              << human_bytes(shards_rss_growth) << " exceeds budget "
              << human_bytes(kBudgetBytes) << " + slack "
              << human_bytes(kSlackBytes) << "\n";
    return 1;
  }

  // The streamed exact path's residency is bounded by its two explicit
  // budgets (the expand distinct and the store CSR build) plus slack; the
  // replay shape it replaces holds the whole edge list in RAM and would
  // blow straight through this.
  if (exact_rss_growth > exact_options.dedup_budget_bytes + kBudgetBytes +
                             kSlackBytes) {
    std::cerr << "FAIL: exact streamed peak RSS growth "
              << human_bytes(exact_rss_growth) << " exceeds dedup budget "
              << human_bytes(exact_options.dedup_budget_bytes)
              << " + CSR budget " << human_bytes(kBudgetBytes) << " + slack "
              << human_bytes(kSlackBytes) << "\n";
    return 1;
  }

  if (const std::string json = json_output_path(argc, argv); !json.empty()) {
    TraceFileWriter writer(json);
    writer.write_meta({{"tool", "store_throughput"}});
    BenchRecord record;
    record.name = "store_throughput";
    record.fields.emplace_back("edges", JsonValue(edges));
    record.fields.emplace_back("reps", JsonValue(std::uint64_t{kRepeats}));
    record.fields.emplace_back("memory_s", JsonValue(memory_s));
    record.fields.emplace_back("shards_s", JsonValue(shards_s));
    record.fields.emplace_back("generate_s", JsonValue(generate_s));
    record.fields.emplace_back("finish_s", JsonValue(finish_s));
    record.fields.emplace_back("verify_s", JsonValue(verify_s));
    record.fields.emplace_back("finish_serial_s", JsonValue(finish_serial_s));
    record.fields.emplace_back("verify_serial_s", JsonValue(verify_serial_s));
    record.fields.emplace_back("finish_verify_speedup",
                               JsonValue(finish_verify_speedup));
    record.fields.emplace_back("memory_edges_per_s", JsonValue(memory_eps));
    record.fields.emplace_back("shards_edges_per_s", JsonValue(shards_eps));
    record.fields.emplace_back("shards_rss_growth_bytes",
                               JsonValue(shards_rss_growth));
    record.fields.emplace_back("budget_bytes", JsonValue(kBudgetBytes));
    record.fields.emplace_back("exact_edges", JsonValue(exact_edges));
    record.fields.emplace_back("exact_streamed_s",
                               JsonValue(exact_streamed_s));
    record.fields.emplace_back("exact_replay_s", JsonValue(exact_replay_s));
    record.fields.emplace_back("exact_streamed_edges_per_s",
                               JsonValue(exact_streamed_eps));
    record.fields.emplace_back("exact_replay_edges_per_s",
                               JsonValue(exact_replay_eps));
    record.fields.emplace_back("exact_rss_growth_bytes",
                               JsonValue(exact_rss_growth));
    writer.write_bench(record);
    std::cout << "wrote " << json << " (csb.trace.v1)\n";
  }
  return 0;
}
