//! The exact ledger gate. Virtual time is deterministic, so the
//! committed `BENCH_*.json` ledgers are their own schema: each test
//! reruns one report bin (the build Cargo makes for this package's
//! tests) into a scratch path, requires it to exit 0 (every self-check
//! held: reconciliation, fairness, containment, the fault-matrix soak
//! contract, the quarantine bound, same-seed reruns, ...) and requires
//! its output to match the committed ledger byte for byte. On a
//! mismatch the failure lists every moved line under the perf profile
//! it sits in; each perf kind or SLO row, each scale, fabric or fault
//! cell and each peer-interference row is one self-describing line.
//! `trace_report` writes no ledger; its test requires its self-checks
//! only.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Where the committed ledgers live: the workspace root.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs a report bin with `out` as its one argument; panics with the
/// bin's stderr (`<bin>: FAILED: ...`) unless it exits 0.
fn run(bin: &str, exe: &str, out: &Path) {
    let done = Command::new(exe)
        .arg(out)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    assert!(
        done.status.success(),
        "{bin} exited with {}:\n{}",
        done.status,
        String::from_utf8_lossy(&done.stderr)
    );
}

/// Reruns `<ledger>_report` and compares its output with the committed
/// `BENCH_<ledger>.json`.
fn gate(ledger: &str, exe: &str) {
    let bin = format!("{ledger}_report");
    let file = format!("BENCH_{ledger}.json");
    let fresh = scratch(&file);
    run(&bin, exe, &fresh);
    let committed = Path::new(ROOT).join(&file);
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
    };
    if let Err(moved) = hix_bench::diff_lines(&read(&committed), &read(&fresh)) {
        panic!(
            "{file} differs from a fresh {bin} sweep: {moved}\n\
             To change the ledger on purpose, regenerate it with \
             `cargo run --release -p hix-bench --bin {bin}` and commit the \
             diff with the change that caused it."
        );
    }
}

#[test]
fn perf_ledger_is_reproduced_byte_for_byte() {
    gate("perf", env!("CARGO_BIN_EXE_perf_report"));
}

#[test]
fn scale_ledger_is_reproduced_byte_for_byte() {
    gate("scale", env!("CARGO_BIN_EXE_scale_report"));
}

#[test]
fn fabric_ledger_is_reproduced_byte_for_byte() {
    gate("fabric", env!("CARGO_BIN_EXE_fabric_report"));
}

#[test]
fn fault_ledger_is_reproduced_byte_for_byte() {
    gate("fault", env!("CARGO_BIN_EXE_fault_report"));
}

#[test]
fn trace_report_passes_its_self_checks() {
    let out = scratch("trace-report");
    run("trace_report", env!("CARGO_BIN_EXE_trace_report"), &out);
}
