#!/usr/bin/env bash
# Exercises every csb.trace.v1 producer and validates the output against the
# schema with `csbgen report --check`:
#   - csbgen seed --trace       (seed-pipeline phases + memory samples)
#   - csbgen generate --trace   (spans/counters/mem for a parallel generator
#                                and a registry baseline)
#   - bench/trace_overhead      (the shared bench emitter; also asserts the
#                                attached-recorder overhead stays bounded)
# Any schema drift — a missing version tag, an unknown record type, a
# non-monotone span stream, a dangling parent id — fails the gate, and so
# does a `generate --trace` into an unwritable path that runs anyway: it must
# fail before any generation work and leave no --out behind. Before
# producing anything, csblint's span-naming rule statically vets every span
# literal against the documented stage-name grammar.
#
# BUILD_DIR overrides the build tree (default: build).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${BUILD_DIR:-build}"
cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target csbgen trace_overhead csblint

# Span-name literals must match the documented stage-name grammar, and
# every begin_phase must be matched by an end_phase on every control path,
# before we bother producing traces: csblint's span-naming and span-balance
# rules are the static half of this gate (docs/static-analysis.md),
# `csbgen report --check` the dynamic.
echo "== linting span names and span balance =="
"$BUILD/tools/csblint" --root=. --rules=span-naming,span-balance \
  src tools bench

CSBGEN="$BUILD/tools/csbgen"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== producing traces =="
"$CSBGEN" trace --out="$TMP/cap.pcap" --netflow="$TMP/flows.csv" \
  --sessions=500 --clients=80 --servers=20 --seed=7
"$CSBGEN" seed --in="$TMP/flows.csv" --out="$TMP/seed.bin" \
  --profile="$TMP/seed.profile" --trace="$TMP/seed.ndjson"
"$CSBGEN" generate --seed="$TMP/seed.bin" --out="$TMP/pgpba.bin" \
  --profile="$TMP/seed.profile" --algo=pgpba --edges=40000 \
  --nodes=4 --cores=2 --trace="$TMP/pgpba.ndjson"
"$CSBGEN" generate --seed="$TMP/seed.bin" --out="$TMP/pgsk.bin" \
  --profile="$TMP/seed.profile" --algo=pgsk --edges=40000 \
  --nodes=4 --cores=2 --trace="$TMP/pgsk.ndjson"
# The fast samplers' traces (ball-drop:plan plus the store:* pipeline) must
# pass the same schema + stage-grammar validation as the exact generators'.
"$CSBGEN" generate --seed="$TMP/seed.bin" --out="$TMP/pgpba-fast.bin" \
  --profile="$TMP/seed.profile" --algo=pgpba-fast --edges=40000 \
  --nodes=4 --cores=2 --trace="$TMP/pgpba-fast.ndjson"
"$CSBGEN" generate --seed="$TMP/seed.bin" --out="$TMP/pgsk-fast.bin" \
  --profile="$TMP/seed.profile" --algo=pgsk-fast --edges=40000 \
  --noise=0.1 --nodes=4 --cores=2 --trace="$TMP/pgsk-fast.ndjson"
"$CSBGEN" generate --seed="$TMP/seed.bin" --out="$TMP/rmat.bin" \
  --profile="$TMP/seed.profile" --algo=rmat --edges=40000 \
  --no-properties --trace="$TMP/rmat.ndjson"
"$BUILD/bench/trace_overhead" --assert --reps=3 --json="$TMP/bench.ndjson"

echo "== unwritable --trace fails first =="
# Into a shard store, which a late failure would leave behind on disk.
if "$CSBGEN" generate --seed="$TMP/seed.bin" --out="$TMP/never.shards" \
    --out-format=shards --profile="$TMP/seed.profile" --edges=40000 \
    --trace="$TMP/no-such-dir/run.ndjson" 2>"$TMP/unwritable.err"; then
  echo "FAIL: generate with an unwritable --trace exited 0" >&2
  exit 1
fi
if ! grep -q "cannot open trace file $TMP/no-such-dir/run.ndjson for writing" \
    "$TMP/unwritable.err"; then
  echo "FAIL: unexpected message: $(cat "$TMP/unwritable.err")" >&2
  exit 1
fi
if [[ -e "$TMP/never.shards" ]]; then
  echo "FAIL: generate with an unwritable --trace left $TMP/never.shards" >&2
  exit 1
fi

echo "== validating =="
status=0
for trace in "$TMP"/*.ndjson; do
  if ! "$CSBGEN" report "$trace" --check; then
    status=1
  fi
done

# The committed perf baseline must stay parseable too.
if [[ -f BENCH_observability.json ]]; then
  "$CSBGEN" report BENCH_observability.json --check || status=1
fi

if [[ "$status" -ne 0 ]]; then
  echo "FAIL: csb.trace.v1 schema violations found" >&2
  exit 1
fi
echo "OK: all traces conform to csb.trace.v1"
