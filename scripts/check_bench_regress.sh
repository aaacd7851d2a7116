#!/usr/bin/env bash
# Perf-regression gate: reruns the two cheap observability benches and diffs
# their csb.trace.v1 output against the committed BENCH_observability.json
# baseline.
#   - bench/serial_fraction  — PGSK's Amdahl decomposition at 8 virtual
#     nodes. A change that moves collapse or KronFit work back onto the
#     driver raises serial_fraction and fails here long before anyone reruns
#     the full fig12 node sweep.
#   - bench/trace_overhead   — the detached-recorder medians for the two hot
#     kernels; catches gross slowdowns of PGSK's ExternalDistinct dedup and
#     of KronFit themselves.
#   - bench/seed_ingest      — end-to-end seed ingestion (decode -> flows ->
#     graph -> profile) serial and on an 8-thread pool. Catches a stage that
#     quietly falls back to serial (speedup collapses vs baseline) and gross
#     serial-path slowdowns. Both checks are relative to the committed
#     baseline, so the gate works on single-core hosts where speedup ~= 1.
#   - bench/fast_samplers    — the exact-vs-fast generator races. The
#     pgsk-fast core speedup has a relative floor against the baseline, and
#     both samplers' degree/PageRank KS distances have absolute ceilings
#     mirroring the tests/veracity_test.cpp bounds: an eroded speedup or a
#     veracity drift fails here without rerunning the fig09 sweep.
#   - bench/store_throughput — pgsk-fast streamed into the sharded
#     out-of-core store vs the in-RAM MemoryStore, with the shard path
#     split into generate / finish / verify phases. The bench itself
#     asserts the shard path's peak-RSS growth stays near the CSR budget;
#     the gate adds a relative floor on shard-path edges/second (an
#     accidental serialization of the write path), a relative floor on the
#     finish+verify parallel speedup (a finish/verify stage that quietly
#     falls back to serial — relative to baseline, so single-core hosts
#     where speedup ~= 1 still work), and a relative ceiling on the serial
#     finish time (a regression of the CSR build itself). The exact-PGSK
#     streamed path (which retired store:replay) gets its own relative
#     edges/second floor; its peak-RSS bound is asserted inside the bench.
# Thresholds are deliberately generous (shared CI hosts are noisy): the gate
# exists to catch structural regressions — a serial fraction that doubles, a
# kernel that gets 3x slower — not single-digit-percent drift. Gated bench
# fields are N-rep medians where the bench supports repeats (bench/common.hpp
# median()), so one outlier rep cannot trip the gate. Refresh the
# baseline in the same PR as any intentional perf change:
#   ./build/bench/micro_generators --benchmark_out=... (see docs/observability.md)
#
# BUILD_DIR overrides the build tree (default: build).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${BUILD_DIR:-build}"
BASELINE="BENCH_observability.json"
[[ -f "$BASELINE" ]] || { echo "SKIP: no $BASELINE baseline committed"; exit 0; }

cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target serial_fraction trace_overhead \
  seed_ingest fast_samplers store_throughput

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BUILD/bench/serial_fraction" --json="$TMP/serial_fraction.ndjson"
"$BUILD/bench/trace_overhead" --reps=5 --json="$TMP/trace_overhead.ndjson"
"$BUILD/bench/seed_ingest" --json="$TMP/seed_ingest.ndjson"
"$BUILD/bench/fast_samplers" --json="$TMP/fast_samplers.ndjson"
"$BUILD/bench/store_throughput" --json="$TMP/store_throughput.ndjson"

python3 - "$BASELINE" "$TMP/serial_fraction.ndjson" "$TMP/trace_overhead.ndjson" "$TMP/seed_ingest.ndjson" "$TMP/fast_samplers.ndjson" "$TMP/store_throughput.ndjson" <<'EOF'
import json
import sys

def load(path):
    records = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("type") == "bench":
                records[rec["name"]] = rec["fields"]
    return records

baseline = load(sys.argv[1])
fresh = {}
for path in sys.argv[2:]:
    fresh.update(load(path))

failures = []

# Serial fraction: fail when the fresh fraction exceeds the committed one
# beyond noise. Absolute slack covers the tiny-denominator case, the ratio
# covers everything else.
name = "pgsk_serial_fraction_8nodes"
if name not in baseline:
    print(f"SKIP serial-fraction check: no '{name}' record in baseline")
elif name not in fresh:
    failures.append(f"{name}: bench produced no record")
else:
    base = baseline[name]["serial_fraction"]
    now = fresh[name]["serial_fraction"]
    limit = max(base * 1.5, base + 0.05)
    status = "OK" if now <= limit else "FAIL"
    print(f"{status} {name}: serial_fraction {now:.4f} "
          f"(baseline {base:.4f}, limit {limit:.4f})")
    if now > limit:
        failures.append(f"{name}: serial_fraction {now:.4f} > limit {limit:.4f}")

# Micro kernels: detached medians (the recorder-off cost of the kernels
# themselves). 3x covers CI-host variance; structural slowdowns are larger.
for name in ("distinct_dedup_100k", "kronfit_serial_segment"):
    if name not in baseline or name not in fresh:
        print(f"SKIP {name}: missing from baseline or fresh run")
        continue
    base = baseline[name]["detached_ms"]
    now = fresh[name]["detached_ms"]
    limit = base * 3.0
    status = "OK" if now <= limit else "FAIL"
    print(f"{status} {name}: detached {now:.3f} ms "
          f"(baseline {base:.3f} ms, limit {limit:.3f} ms)")
    if now > limit:
        failures.append(f"{name}: detached {now:.3f} ms > limit {limit:.3f} ms")

# Seed ingestion: both checks relative to the committed baseline so the
# gate is host-independent. Speedup halving means a pipeline stage fell
# back to serial; serial time tripling means the serial path itself
# regressed (same 3x slack as the micro kernels).
name = "seed_ingest_e2e"
if name not in baseline:
    print(f"SKIP seed-ingest check: no '{name}' record in baseline")
elif name not in fresh:
    failures.append(f"{name}: bench produced no record")
else:
    base_speedup = baseline[name]["speedup"]
    now_speedup = fresh[name]["speedup"]
    floor = base_speedup * 0.5
    status = "OK" if now_speedup >= floor else "FAIL"
    print(f"{status} {name}: speedup {now_speedup:.2f} "
          f"(baseline {base_speedup:.2f}, floor {floor:.2f})")
    if now_speedup < floor:
        failures.append(f"{name}: speedup {now_speedup:.2f} < floor {floor:.2f}")
    base_serial = baseline[name]["serial_s"]
    now_serial = fresh[name]["serial_s"]
    limit = base_serial * 3.0
    status = "OK" if now_serial <= limit else "FAIL"
    print(f"{status} {name}: serial {now_serial:.3f} s "
          f"(baseline {base_serial:.3f} s, limit {limit:.3f} s)")
    if now_serial > limit:
        failures.append(f"{name}: serial {now_serial:.3f} s > limit {limit:.3f} s")

# Fast samplers: the pgsk-fast core speedup gets a relative floor (half the
# committed baseline — host noise moves the core timings, the ~5x structural
# gap doesn't), and the KS veracity distances get absolute ceilings matching
# the tests/veracity_test.cpp bounds (the graphs are deterministic per seed,
# so KS is noise-free and any drift is a code change).
name = "fast_samplers"
if name not in baseline:
    print(f"SKIP fast-samplers check: no '{name}' record in baseline")
elif name not in fresh:
    failures.append(f"{name}: bench produced no record")
else:
    base_speedup = baseline[name]["pgsk_speedup"]
    now_speedup = fresh[name]["pgsk_speedup"]
    floor = base_speedup * 0.5
    status = "OK" if now_speedup >= floor else "FAIL"
    print(f"{status} {name}: pgsk_speedup {now_speedup:.2f} "
          f"(baseline {base_speedup:.2f}, floor {floor:.2f})")
    if now_speedup < floor:
        failures.append(
            f"{name}: pgsk_speedup {now_speedup:.2f} < floor {floor:.2f}")
    for field, ceiling in (("pgsk_degree_ks", 0.15), ("pgsk_pagerank_ks", 0.15),
                           ("pgpba_degree_ks", 0.05),
                           ("pgpba_pagerank_ks", 0.05)):
        now_ks = fresh[name][field]
        status = "OK" if now_ks <= ceiling else "FAIL"
        print(f"{status} {name}: {field} {now_ks:.4f} (ceiling {ceiling})")
        if now_ks > ceiling:
            failures.append(f"{name}: {field} {now_ks:.4f} > ceiling {ceiling}")

# Store throughput: the shard path's edges/second gets a relative floor
# (half the committed baseline — disk and host noise move the absolute
# number, an accidental serialization or per-chunk fsync moves it far
# more). The finish phase gets two checks of its own: the finish+verify
# parallel speedup is floored at half the baseline's (catches a pipeline
# stage falling back to serial; relative, so ~1x single-core baselines
# gate fine), and the serial finish time gets the standard 3x ceiling
# (catches a CSR-build slowdown independent of parallelism). All three
# fields are kRepeats-medians. Peak-RSS residency is asserted inside the
# bench itself.
name = "store_throughput"
if name not in baseline:
    print(f"SKIP store-throughput check: no '{name}' record in baseline")
elif name not in fresh:
    failures.append(f"{name}: bench produced no record")
else:
    base_eps = baseline[name]["shards_edges_per_s"]
    now_eps = fresh[name]["shards_edges_per_s"]
    floor = base_eps * 0.5
    status = "OK" if now_eps >= floor else "FAIL"
    print(f"{status} {name}: shards {now_eps / 1e6:.2f}M edges/s "
          f"(baseline {base_eps / 1e6:.2f}M, floor {floor / 1e6:.2f}M)")
    if now_eps < floor:
        failures.append(
            f"{name}: shards_edges_per_s {now_eps:.0f} < floor {floor:.0f}")
    if "finish_verify_speedup" not in baseline[name]:
        print(f"SKIP {name} finish-phase checks: baseline predates the "
              "phase split")
    else:
        base_speedup = baseline[name]["finish_verify_speedup"]
        now_speedup = fresh[name]["finish_verify_speedup"]
        floor = base_speedup * 0.5
        status = "OK" if now_speedup >= floor else "FAIL"
        print(f"{status} {name}: finish_verify_speedup {now_speedup:.2f} "
              f"(baseline {base_speedup:.2f}, floor {floor:.2f})")
        if now_speedup < floor:
            failures.append(f"{name}: finish_verify_speedup "
                            f"{now_speedup:.2f} < floor {floor:.2f}")
        base_finish = baseline[name]["finish_serial_s"]
        now_finish = fresh[name]["finish_serial_s"]
        limit = base_finish * 3.0
        status = "OK" if now_finish <= limit else "FAIL"
        print(f"{status} {name}: serial finish {now_finish:.3f} s "
              f"(baseline {base_finish:.3f} s, limit {limit:.3f} s)")
        if now_finish > limit:
            failures.append(f"{name}: finish_serial_s {now_finish:.3f} s "
                            f"> limit {limit:.3f} s")
    if "exact_streamed_edges_per_s" not in baseline[name]:
        print(f"SKIP {name} exact-streamed check: baseline predates the "
              "streamed exact path")
    else:
        base_eps = baseline[name]["exact_streamed_edges_per_s"]
        now_eps = fresh[name]["exact_streamed_edges_per_s"]
        floor = base_eps * 0.5
        status = "OK" if now_eps >= floor else "FAIL"
        print(f"{status} {name}: exact streamed {now_eps / 1e6:.2f}M edges/s "
              f"(baseline {base_eps / 1e6:.2f}M, floor {floor / 1e6:.2f}M)")
        if now_eps < floor:
            failures.append(f"{name}: exact_streamed_edges_per_s "
                            f"{now_eps:.0f} < floor {floor:.0f}")

if failures:
    print("FAIL: bench regression vs committed baseline:", file=sys.stderr)
    for failure in failures:
        print(f"  - {failure}", file=sys.stderr)
    sys.exit(1)
print("OK: benches within baseline thresholds")
EOF
