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

cargo clippy --workspace --all-targets -- -D warnings

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

OBSTOOL=(cargo run --release -q -p itrust-obs-analyze --bin obstool --)

# Golden-report gate (serial-equivalence gate, part 2): the behavioural
# contract is every committed report in results/ plus the detcheck content
# digests. Regenerate all of them into scratch at 1 and at 4 threads; each
# must be byte-identical to its committed file. Reports carry deterministic
# columns only — wall-clock rates live in <name>.json, which is not diffed.
# The structural half of each run's telemetry is part of the contract too:
# benchdiff with an infinite latency threshold ignores timing percentiles,
# and its default count threshold of 0 holds every counter, gauge and
# histogram count to the committed value.
for threads in 1 4; do
    golden="$SCRATCH/golden-t$threads"
    mkdir -p "$golden"
    for bin in d1 d2 d3 d4 d5 d6 d7 d8 d9 d10 d11 fig1 fig2 table1; do
        ITRUST_THREADS=$threads ITRUST_RESULTS_DIR="$golden" \
            cargo run --release -q -p itrust-bench --bin "$bin" > /dev/null
        diff -u "results/$bin.txt" "$golden/$bin.txt"
        "${OBSTOOL[@]}" benchdiff --check --threshold inf \
            "results/$bin.telemetry.json" "$golden/$bin.telemetry.json"
    done
    ITRUST_THREADS=$threads ITRUST_RESULTS_DIR="$golden" \
        cargo run --release -q -p itrust-bench --bin detcheck > /dev/null
    diff -u results/detcheck.json "$golden/detcheck.json"
done

# Benchmark correctness smoke: a one-second run of every workload, each
# exiting non-zero on any failed check. accession checks the SHA-256
# FIPS 180-4 self-test, every ingest and every fixity sweep; perganet its
# quality floors; service its requests, WAL replay and shard sweeps;
# custody its proofs, tamper detection and ledger verification. Timings
# are not gated here.
for workload in accession perganet service custody; do
    cargo run --offline --release -q -p itrust-bench --bin benchmark -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 \
        > "$SCRATCH/benchmark-$workload.txt"
done

# Traced accession smoke: the traced pass checks that its counts equal the
# untraced pass's and that the ingest probes run, on the hash-once write
# path (SIP validation hashes, the store persists). Traced service stays
# out until its span collector stops stalling on growth: that fails its
# coverage check in about one run in three to seven.
cargo run --offline --release -q -p itrust-bench --bin benchmark -- \
    --workload accession --seed 1 --seconds 1 --trace 1 \
    > "$SCRATCH/benchmark-accession-traced.txt"

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

# Trace smoke: the golden d9 run must have streamed a JSONL span trace that
# the profiler accepts — parse + schema + monotone end_ns are all enforced
# by `obstool profile`.
"${OBSTOOL[@]}" profile "$SCRATCH/golden-t1/d9.trace.jsonl" >/dev/null

# Profiler determinism: two runs over the committed d1 trace must be
# byte-identical, full report and collapsed stacks alike.
"${OBSTOOL[@]}" profile results/d1.trace.jsonl --collapsed > "$SCRATCH/prof1"
"${OBSTOOL[@]}" profile results/d1.trace.jsonl --collapsed > "$SCRATCH/prof2"
diff "$SCRATCH/prof1" "$SCRATCH/prof2"
"${OBSTOOL[@]}" profile results/d1.trace.jsonl > "$SCRATCH/prof3"
"${OBSTOOL[@]}" profile results/d1.trace.jsonl > "$SCRATCH/prof4"
diff "$SCRATCH/prof3" "$SCRATCH/prof4"

# Perf-regression gate: benchdiff the golden runs' telemetry against the
# committed baselines, each taken from the golden run at the thread count
# recorded in the baseline's meta (percentiles shift with it). Structural
# metrics (counters, gauges, hist counts) must match exactly — they are
# deterministic. Latency percentiles get a wide tolerance (3.5x slower
# fails) so the gate catches order-of-magnitude regressions without
# flaking on shared machines.
# d9, d10 and d11's spans are dominated by very short virtual-time (or
# sub-millisecond proof) operations, so their wall-clock percentiles are
# noisier than d1/fig1 — they get a wider band (their counters and gauges
# still must match exactly).
for exp in d1 fig1 d9 d10 d11; do
    case "$exp" in
        d9|d10|d11) threshold=4.0 ;;
        *) threshold=2.5 ;;
    esac
    baseline="results/baselines/$exp.telemetry.json"
    threads=$(sed -n 's/^ *"threads": "\([0-9]*\)".*/\1/p' "$baseline")
    "${OBSTOOL[@]}" benchdiff --check --threshold "$threshold" \
        "$baseline" "$SCRATCH/golden-t$threads/$exp.telemetry.json"
done

# Flight-recorder smoke: a forced panic in d9 must leave a parseable
# blackbox dump behind, and obstool must render it.
if D9_FORCE_PANIC=1 ITRUST_RESULTS_DIR="$SCRATCH/blackbox" \
    cargo run --release -q -p itrust-bench --bin d9 >/dev/null 2>&1; then
    echo "d9 was expected to panic under D9_FORCE_PANIC=1" >&2
    exit 1
fi
test -s "$SCRATCH/blackbox/d9.blackbox.json"
"${OBSTOOL[@]}" blackbox "$SCRATCH/blackbox/d9.blackbox.json" | grep -q "D9_FORCE_PANIC"
