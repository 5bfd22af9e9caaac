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
# ...and clippy-clean, tests, benches and examples included.
cargo clippy --offline --workspace --all-targets -- -D warnings
# The whole workspace is rustfmt-clean and stays so (hixbench is a
# workspace of its own and is not formatted here).
cargo fmt --all --check
# ...and rustdoc-clean: a doc link to a deleted or private item fails
# here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# The test suite includes the exact ledger gate
# (crates/bench/tests/ledgers.rs): it reruns perf_report, scale_report,
# fabric_report and fault_report, fails on any byte difference from the
# committed BENCH_*.json ledgers, and smoke-runs trace_report. Its
# wall-clock is printed so each change can record tier-1 turnaround.
SECONDS=0
cargo test -q --offline
echo "debug cargo test wall-clock: $((SECONDS / 60)) m $((SECONDS % 60)) s"

# The benchmark runs hix-crypto's arithmetic in release, where overflow
# checks and debug_assert! are off: its unit tests and the two crypto
# differential suites run there as well.
cargo test -q --release --offline -p hix-crypto
cargo test -q --release --offline -p xtests --test differential_bignum --test differential_crypto

# Benchmark self-checks. hixbench is a workspace of its own (path deps on
# the crates). --locked: its Cargo.lock lists those crates' dependencies,
# so a new dependency edge fails here instead of rewriting the lock. Its package tests cover tape determinism, planted-byte
# rejection, span self time and the metric names BENCHMARK.json
# declares. One zero-second pass per workload then runs its plaintext
# mirror check (every DtoH byte) and replays the first pass on a second
# same-seed set-up; either failure makes the result line report
# "correct": false or a nonzero "failed" count.
#
# Each run must also print its pinned seed-501 virt_digest. The digest
# hashes pass 0's virtual figures, its counters and the full
# Obs::snapshot() (the span.* accounting lines included), so any drift
# in virtual time, a count or the snapshot text fails here. A change
# that moves virtual time on purpose updates these pins in the same
# commit.
cargo build --release --offline --locked --manifest-path hixbench/Cargo.toml
cargo test --release --offline --locked --manifest-path hixbench/Cargo.toml
for pin in bulk-transfer:f2fcd2c36391f646 small-ops:0633099c1c33ff9d \
    session-churn:51e22cb6ee460589 multiuser-model:801b7e69c487b744; do
    workload=${pin%%:*}
    output=$(cargo run -q --release --offline --locked --manifest-path hixbench/Cargo.toml -- \
        --workload "$workload" --seconds 0 --seed 501 --trace 0)
    result=$(tail -n 1 <<<"$output")
    if ! grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0,' <<<"$result"; then
        echo "error: hixbench $workload failed its checks: $result" >&2
        exit 1
    fi
    if ! grep -qx "virt_digest=${pin#*:}" <<<"$output"; then
        echo "error: hixbench $workload virt_digest moved (want ${pin#*:}):" >&2
        grep '^virt_digest=' <<<"$output" >&2 || true
        exit 1
    fi
done

# Crypto-plane smoke: run the wall-clock crypto bench once (emitting to
# target/, never overwriting the committed ledger — wall-clock numbers
# are host-specific, so unlike the virtual-time ledgers they cannot be
# compared byte for byte) and schema-validate both the fresh emission
# and the committed BENCH_crypto.json through the shared hix_bench::json
# reader.
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
# The §4.4.2 ablations on the cost model (single-copy vs naive, the chunk
# sweep; DESIGN.md §5), run once for information in the same way.
cargo bench --offline --bench pipeline

# Table 2 re-runs the attack-scenario suite and prints the per-crate
# LoC accounting. It exits non-zero if a defense fails or a workspace
# crate is missing from its breakdown.
cargo run -q --release --offline -p hix-bench --bin table2_tcb

echo "tier-1 verify: OK"
