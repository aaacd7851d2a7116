#!/usr/bin/env bash
# Gate sequence: static analysis (scripts/check_lint.sh — csblint plus the
# optional clang-tidy pass), then the sanitizer trees (ASan+UBSan,
# UBSan-only over the full deterministic-module suites, TSan), then the
# perf-regression check.
#
# Configures a dedicated ASan+UBSan build tree (build-asan/) and runs the
# concurrency- and allocation-heavy test subset under the sanitizers: the
# ClusterSim stage runner, Dataset kernels (distinct/shuffle/concat), the
# thread pool, the flat hash set, the list scheduler, and the observability
# layer (trace recorder, metrics registry, NDJSON parser, generator
# registry), and the pcap parser's malformed-input tests (the truncation/flip
# sweep and the garbage fuzz). Meant as a quick local gate after touching the mr/, util/ or
# obs/ hot paths; pass a gtest-style filter regex as $1 to widen or narrow
# the selection. Finishes with the trace-overhead micro bench under the
# sanitizers (mutex + atomic paths of the recorder, assert mode relaxed —
# sanitized timings are not representative), then a ThreadSanitizer pass
# (build-tsan/) over the seed-ingestion and flow-assembly test binaries —
# TSan cannot coexist with ASan, so it gets its own tree.
set -euo pipefail
cd "$(dirname "$0")/.."

# Static analysis first: csblint (determinism/concurrency contract) plus the
# optional clang-tidy pass. Cheapest gate, so it fails fastest.
./scripts/check_lint.sh

FILTER="${1:-ClusterSim|Dataset|ThreadPool|FlatSet|ListSchedule|Operations|Trace|Metrics|Json|MemWatch|GeneratorRegistry|SimplifyParallel|KronFit|ParallelFor|ForkJoin|ShardStore|ExternalDistinct|PcapFile|FuzzSeed}"

cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCSB_SANITIZE=ON \
  -DCSB_BUILD_BENCHMARKS=ON \
  -DCSB_BUILD_EXAMPLES=OFF
cmake --build build-asan -j "$(nproc)"

export ASAN_OPTIONS="detect_leaks=1:abort_on_error=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
ctest --test-dir build-asan -R "$FILTER" --output-on-failure -j "$(nproc)"

# Recorder attach/detach under sanitizers; no timing assertion (ASan skews
# per-kernel cost), the run itself is the memory/UB gate.
./build-asan/bench/trace_overhead --reps=2

# Pure-UBSan pass (build-ubsan/) over the deterministic modules' FULL test
# suites — gen, graph, stats, util — and the input parsers' (pcap,
# robustness: every reader fed truncated, flipped and random bytes). UBSan without ASan is cheap enough to
# run everything, and it is the gate that matters for byte-identical
# output: shift overflow, signed wrap and misaligned loads are exactly the
# UB classes that silently change emitted bytes between optimization
# levels. The binaries run directly (not via ctest) so no filter can
# accidentally drop a suite.
cmake -B build-ubsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCSB_SANITIZE=UNDEFINED \
  -DCSB_BUILD_BENCHMARKS=OFF \
  -DCSB_BUILD_EXAMPLES=OFF
cmake --build build-ubsan -j "$(nproc)" \
  --target util_test stats_test graph_test gen_test pcap_test robustness_test

export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
for suite in util_test stats_test graph_test gen_test pcap_test \
  robustness_test; do
  "./build-ubsan/tests/${suite}" --gtest_brief=1
done

# ThreadSanitizer pass over the parallel seed-ingestion pipeline (pool
# decode, sharded flow assembly, two-pass graph build, pool-dispatched
# profile fits, chunked stats sorts) and the parallel store pipeline
# (per-shard CSR counting over shared atomics, range-partitioned scatter
# with write-behind, fanned-out verify, parallel external-sort merges), and
# the MemoryStore, whose put_edges validates chunks on pool workers under
# every in-RAM generate() (the golden generator digests run through it),
# and PageRank, whose heavy-chunk pre-gather writes side sums on pool
# workers that the fused pass then reads (graph_test's oracle cases and
# veracity_test's pool-invariance case), and the one fork-join every pooled
# loop runs through: its contract tests (util_test's ForkJoin/ParallelFor/
# ThreadPool cases), ClusterSim's stage runner on top of it, betweenness's
# chunk-order merge of per-chunk partials, and the multi-threaded workload
# runner.
# Only the relevant test binaries are built; the uppercase suite filter
# skips the lowercase *_NOT_BUILT placeholders gtest_discover_tests
# registers for unbuilt targets.
TSAN_FILTER="${2:-ThreadPool|ParallelFor|ForkJoin|MakeChunks|ClusterSim|Betweenness|WorkloadRunner|ParallelAssembly|FlowAssembler|SeedPipeline|SeedDeterminism|SeedProfile|GraphFromNetflow|Conditional|Empirical|PcapFile|ShardStore|ExternalDistinct|MemoryStore|GeneratorGolden|PageRank|NormalizedDistribution}"

cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCSB_SANITIZE=THREAD \
  -DCSB_BUILD_BENCHMARKS=OFF \
  -DCSB_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j "$(nproc)" \
  --target util_test stats_test pcap_test flow_test seed_test store_test \
  graph_test veracity_test mr_test extensions_test workload_test

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
ctest --test-dir build-tsan -R "$TSAN_FILTER" --output-on-failure -j "$(nproc)"

# Perf gate runs against the regular (non-sanitized) tree: serial-fraction,
# kernel medians and seed-ingestion timings vs the committed
# BENCH_observability.json baseline.
./scripts/check_bench_regress.sh
