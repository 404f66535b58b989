#!/usr/bin/env bash
# Tier-1 verification plus lint gate. Run from anywhere in the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release

# Lint self-check first: if the analyzer's own fixtures fail, every later
# lint verdict is meaningless, so fail fast before the long gates. The
# success line must attest that the seeded cross-crate ABBA deadlock
# fixture was caught — that is the canary for the whole call-graph layer.
cargo run --release -q -p itrust-lint -- --self-check \
    | grep -q "seeded ABBA deadlock detected"

# Serial-equivalence gate, part 1: the full test suite must pass both
# single-threaded and multi-threaded. The suites contain byte-identity
# assertions, so this catches any path whose output depends on the
# thread count.
ITRUST_THREADS=1 cargo test -q
ITRUST_THREADS=4 cargo test -q

cargo clippy --workspace -- -D warnings

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

# Serial-equivalence gate, part 2: detcheck writes content digests of every
# parallelized hot path (sim output, conv tensors, store digests) with no
# timing or host info. The two runs must produce byte-identical JSON.
mkdir -p "$SCRATCH/t1" "$SCRATCH/t4"
ITRUST_THREADS=1 ITRUST_RESULTS_DIR="$SCRATCH/t1" \
    cargo run --release -q -p itrust-bench --bin detcheck
ITRUST_THREADS=4 ITRUST_RESULTS_DIR="$SCRATCH/t4" \
    cargo run --release -q -p itrust-bench --bin detcheck
diff -u "$SCRATCH/t1/detcheck.json" "$SCRATCH/t4/detcheck.json"

# Benchmark correctness smoke: a one-second accession run checks the
# SHA-256 FIPS 180-4 self-test, every ingest and every fixity sweep, and
# exits non-zero if any of them fails. Its timings are not gated here.
cargo run --offline --release -q -p itrust-bench --bin benchmark -- \
    --workload accession --seed 1 --seconds 1 --trace 0 > "$SCRATCH/benchmark-accession.txt"

# Invariant gate: itrust-lint enforces the workspace rules (handle-based
# telemetry, injected clocks, ordered iteration, ctx-first macros, pooled
# threads, config-only env reads) plus the three interprocedural passes —
# lock-order deadlock cycles, panic-reachability from public API, and
# transient/non-transient error discipline. --deny-all also rejects stale
# suppression comments, so every allow in the tree is still load-bearing.
cargo run --release -q -p itrust-lint -- --deny-all crates

# Lint determinism smoke: --json must validate and be byte-identical
# across runs — the call graph, SCC cycles and BFS witness chains are all
# computed over sorted structures, so two runs may not differ by a byte.
# Validation uses the linter's own --validate-json (no python needed).
cargo run --release -q -p itrust-lint -- --json crates > "$SCRATCH/lint1.json"
cargo run --release -q -p itrust-lint -- --json crates > "$SCRATCH/lint2.json"
diff "$SCRATCH/lint1.json" "$SCRATCH/lint2.json"
cargo run --release -q -p itrust-lint -- --validate-json "$SCRATCH/lint1.json" >/dev/null

# D9 partition smoke: a tiny deterministic partition storm must run clean
# end to end at both thread counts, and the reports must be byte-identical —
# availability, reconcile order, gossip rounds and merkle roots are all
# virtual-clock deterministic (scratch results dir so committed results/
# artifacts stay untouched).
D9_OBJECTS=60 D9_RATES=0.0,0.5 D9_SEED=42 ITRUST_THREADS=1 \
    ITRUST_RESULTS_DIR="$SCRATCH/d9" \
    cargo run --release -q -p itrust-bench --bin d9
D9_OBJECTS=60 D9_RATES=0.0,0.5 D9_SEED=42 ITRUST_THREADS=4 \
    ITRUST_RESULTS_DIR="$SCRATCH/d9t4" \
    cargo run --release -q -p itrust-bench --bin d9 > /dev/null
diff "$SCRATCH/d9/d9.txt" "$SCRATCH/d9t4/d9.txt"
test -s "$SCRATCH/d9/d9.json"
test -s "$SCRATCH/d9/d9.telemetry.json"

# D10 service smoke: a reduced closed-loop multi-tenant load test must run
# clean end to end at both thread counts with byte-identical reports — the
# sharded executor serializes per-shard work within a tick, so fixity
# roots, quota decisions and virtual latency percentiles are all
# thread-count independent. The knobs still exercise every admission path
# (rate-limit shedding and the photographic tenant's quota breach).
D10_CLIENTS=96 D10_SHARDS=4 D10_MS=400 D10_RATE=2 D10_QUEUE=24 D10_SEED=7 \
    ITRUST_THREADS=1 ITRUST_RESULTS_DIR="$SCRATCH/d10" \
    cargo run --release -q -p itrust-bench --bin d10
D10_CLIENTS=96 D10_SHARDS=4 D10_MS=400 D10_RATE=2 D10_QUEUE=24 D10_SEED=7 \
    ITRUST_THREADS=4 ITRUST_RESULTS_DIR="$SCRATCH/d10t4" \
    cargo run --release -q -p itrust-bench --bin d10 > /dev/null
diff "$SCRATCH/d10/d10.txt" "$SCRATCH/d10t4/d10.txt"
grep -q "quota" "$SCRATCH/d10/d10.txt"
test -s "$SCRATCH/d10/d10.json"
test -s "$SCRATCH/d10/d10.telemetry.json"

# D11 ledger smoke: a reduced custody-proof sweep must run clean at both
# thread counts with byte-identical reports — checkpoint roots, witness
# endorsements (including the deliberately severed second round) and
# merkle path lengths are hash- and virtual-time-derived, never wall
# time. The run also exercises the unified event API round trip (audit
# log + provenance chain + sharded store into one ledger).
D11_SIZES=500,2000 D11_PROOFS=16 D11_SEED=42 \
    ITRUST_THREADS=1 ITRUST_RESULTS_DIR="$SCRATCH/d11" \
    cargo run --release -q -p itrust-bench --bin d11
D11_SIZES=500,2000 D11_PROOFS=16 D11_SEED=42 \
    ITRUST_THREADS=4 ITRUST_RESULTS_DIR="$SCRATCH/d11t4" \
    cargo run --release -q -p itrust-bench --bin d11 > /dev/null
diff "$SCRATCH/d11/d11.txt" "$SCRATCH/d11t4/d11.txt"
grep -q "witness" "$SCRATCH/d11/d11.txt"
grep -q "audit + per-source proofs ok" "$SCRATCH/d11/d11.txt"
test -s "$SCRATCH/d11/d11.json"
test -s "$SCRATCH/d11/d11.telemetry.json"

OBSTOOL=(cargo run --release -q -p itrust-obs-analyze --bin obstool --)

# Trace smoke: the same run must have streamed a JSONL span trace that the
# profiler accepts — parse + schema + monotone end_ns are all enforced by
# `obstool profile` (replaces the old inline python validator).
"${OBSTOOL[@]}" profile "$SCRATCH/d9/d9.trace.jsonl" >/dev/null

# Profiler determinism: two runs over the committed d1 trace must be
# byte-identical, full report and collapsed stacks alike.
"${OBSTOOL[@]}" profile results/d1.trace.jsonl --collapsed > "$SCRATCH/prof1"
"${OBSTOOL[@]}" profile results/d1.trace.jsonl --collapsed > "$SCRATCH/prof2"
diff "$SCRATCH/prof1" "$SCRATCH/prof2"
"${OBSTOOL[@]}" profile results/d1.trace.jsonl > "$SCRATCH/prof3"
"${OBSTOOL[@]}" profile results/d1.trace.jsonl > "$SCRATCH/prof4"
diff "$SCRATCH/prof3" "$SCRATCH/prof4"

# Perf-regression gate: re-run the gated experiments into scratch and
# benchdiff against the committed baselines. Structural metrics (counters,
# gauges, hist counts) must match exactly — they are deterministic.
# Latency percentiles get a wide tolerance (3.5x slower fails) so the gate
# catches order-of-magnitude regressions without flaking on shared
# machines.
# d9, d10 and d11's spans are dominated by very short virtual-time (or
# sub-millisecond proof) operations, so their wall-clock percentiles are
# noisier than d1/fig1 — they get a wider band (their counters and gauges
# still must match exactly).
for exp in d1 fig1 d9 d10 d11; do
    case "$exp" in
        d9|d10|d11) threshold=4.0 ;;
        *) threshold=2.5 ;;
    esac
    ITRUST_RESULTS_DIR="$SCRATCH/bench" \
        cargo run --release -q -p itrust-bench --bin "$exp" > /dev/null
    "${OBSTOOL[@]}" benchdiff --check --threshold "$threshold" \
        "results/baselines/$exp.telemetry.json" \
        "$SCRATCH/bench/$exp.telemetry.json"
done

# Flight-recorder smoke: a forced panic in d9 must leave a parseable
# blackbox dump behind, and obstool must render it.
if D9_OBJECTS=60 D9_RATES=0.1 D9_SEED=42 D9_FORCE_PANIC=1 \
    ITRUST_RESULTS_DIR="$SCRATCH/d9" \
    cargo run --release -q -p itrust-bench --bin d9 >/dev/null 2>&1; then
    echo "d9 was expected to panic under D9_FORCE_PANIC=1" >&2
    exit 1
fi
test -s "$SCRATCH/d9/d9.blackbox.json"
"${OBSTOOL[@]}" blackbox "$SCRATCH/d9/d9.blackbox.json" | grep -q "D9_FORCE_PANIC"
