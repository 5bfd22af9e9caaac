#!/usr/bin/env bash
# Tier-1 verify — fully hermetic: no network, no crates.io registry.
# The workspace has zero external dependencies (see crates/testkit), so
# everything below runs with --offline on a cold machine.
set -euo pipefail
cd "$(dirname "$0")/.."

build_log=$(mktemp)
trap 'rm -f "$build_log"' EXIT

cargo build --release --offline 2>&1 | tee "$build_log"
# Every workspace crate must stay warning-clean: the lower layers
# (testkit, obs, sim) are part of every verify path and the Table-2 TCB
# breakdown, and the rest sit inside the trust boundary.
for crate in $(sed -n 's/^name = "\(hix-[a-z-]*\)"$/\1/p' crates/*/Cargo.toml); do
    if grep -E "$crate.*generated [0-9]+ warning" "$build_log"; then
        echo "error: cargo build emitted warnings in $crate" >&2
        exit 1
    fi
done

cargo test -q --offline

# Benchmark self-checks. hixbench is a workspace of its own (path deps on
# the crates). Its package tests cover tape determinism, planted-byte
# rejection, span self time and the metric names BENCHMARK.json
# declares. One zero-second pass per workload then runs its plaintext
# mirror check (every DtoH byte) and replays the first pass on a second
# same-seed set-up; either failure makes the result line report
# "correct": false or a nonzero "failed" count.
cargo build --release --offline --manifest-path hixbench/Cargo.toml
cargo test --release --offline --manifest-path hixbench/Cargo.toml
for workload in bulk-transfer small-ops session-churn multiuser-model; do
    result=$(cargo run -q --release --offline --manifest-path hixbench/Cargo.toml -- \
        --workload "$workload" --seconds 0 --seed 501 --trace 0 | tail -n 1)
    if ! grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0,' <<<"$result"; then
        echo "error: hixbench $workload failed its checks: $result" >&2
        exit 1
    fi
done

# Exact ledger gate. Virtual time is deterministic, so the committed
# ledgers are their own schema: regenerate the full perf_report,
# scale_report and fabric_report sweeps into target/ and fail on any byte
# difference from BENCH_perf/scale/fabric.json. Each bin runs its
# self-checks (reconciliation, fairness, containment, double-run
# determinism, ...) before it writes. On a mismatch the diff names what
# moved: with zero context lines every hunk header is the perf profile
# the hunk sits in, and each perf stage or SLO row and each scale or
# fabric cell is one self-describing line. To change a ledger on
# purpose, rerun the bin with no arguments and commit the diff with the
# change that caused it.
ledger_drift=0
for report in perf scale fabric; do
    fresh="target/BENCH_$report.json"
    cargo run -q --release --offline -p hix-bench --bin "${report}_report" -- "$fresh" >/dev/null
    if ! cmp -s "BENCH_$report.json" "$fresh"; then
        echo "error: BENCH_$report.json differs from a fresh ${report}_report sweep:" >&2
        diff -U0 -F '"profile"' "BENCH_$report.json" "$fresh" >&2 || true
        ledger_drift=1
    fi
done
if [ "$ledger_drift" -ne 0 ]; then
    exit 1
fi

# Observability smoke test: trace_report exports a Perfetto trace from
# both stacks and exits non-zero on an empty trace, accounting drift, or
# a non-deterministic same-seed run.
cargo run -q --release --offline -p hix-bench --bin trace_report target/trace-report

# Fault-matrix smoke: 3 seeds x {none, light, heavy} fault profiles on
# the secure matrix workload. Exits non-zero if faulted GPU results are
# not byte-identical to the fault-free run, if a clean wire records any
# recovery work, or if a same-seed faulted rerun is not deterministic.
cargo run -q --release --offline -p hix-bench --bin fault_report

# Watchdog smoke: 3 seeds x {none, gpu-light, gpu-heavy} device-fault
# profiles plus the 4-user peer-interference matrix. Exits non-zero if
# faulted GPU results diverge from the fault-free run, a peer stalls
# past the quarantine bound, eviction fails to cap a repeat offender,
# or a same-seed rerun is not deterministic.
cargo run -q --release --offline -p hix-bench --bin tdr_report

# Crypto-plane smoke: run the wall-clock crypto bench once (emitting to
# target/, never overwriting the committed ledger — wall-clock numbers
# are host-specific, so unlike the virtual-time ledgers above they
# cannot be compared byte for byte) and schema-validate both the fresh
# emission and the committed BENCH_crypto.json through the shared
# hix_bench::json reader.
# The bench self-checks its own emission against the same schema, so a
# row rename or a broken writer fails here, not at review time.
# (cargo bench runs the binary with CWD at the package root, so paths
# must be absolute here.)
cargo bench --offline --bench crypto -- "$PWD/target/crypto-smoke.json"
cargo bench --offline --bench crypto -- --check "$PWD/target/crypto-smoke.json"
cargo bench --offline --bench crypto -- --check "$PWD/BENCH_crypto.json"

# Simulator micro-benches (MMIO read, DRAM write, channel sync round
# trip, functional 64 KiB secure HtoD and DtoH, full handshake), run
# once for information: the numbers are host-specific and gate nothing,
# but running the bench here keeps it building, so it cannot rot
# unnoticed.
cargo bench --offline --bench simulator

# Table 2 re-runs the attack-scenario suite and the per-crate TCB LoC
# accounting (non-fatal here: the test suite above already gates it).
cargo run -q --release --offline -p hix-bench --bin table2_tcb 2>/dev/null || true

echo "tier-1 verify: OK"
