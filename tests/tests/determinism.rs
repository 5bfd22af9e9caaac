//! Determinism regression: the paper's security argument (§4) and
//! evaluation (§5) rest on the claim that the full-system simulation is
//! deterministic — same seed, same enclave/PCIe/GPU interleaving, same
//! virtual-clock accounting, bit for bit. This test runs the
//! `e2e_stacks_agree` scenario twice with the same `hix-testkit` seed
//! and asserts the rendered `hix-sim` traces and stats are
//! byte-identical.

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF};
use hix_driver::Gdev;
use hix_platform::Machine;
use hix_testkit::Rng;
use hix_workloads::exec::{GdevExec, HixExec};
use hix_workloads::matrix::{MatrixAdd, MatrixMul};
use hix_workloads::{all_kernels, rodinia_suite, Workload};
use std::fmt::Write;

fn rig() -> Machine {
    let m = standard_rig(RigOptions {
        kernels: all_kernels(),
        ..RigOptions::default()
    });
    m.trace().set_recording(true);
    m
}

/// Renders everything observable about one machine run: the final
/// virtual clock, the per-kind accounting summary, and the exported
/// observability artifacts — every recorded span, charged and
/// structural, through the Perfetto JSON, plus the metrics snapshot.
/// The exports themselves must be bit-for-bit reproducible.
fn render(m: &Machine, tag: &str, out: &mut String) {
    writeln!(out, "=== {tag} @ {}", m.clock().now()).unwrap();
    out.push_str(&m.trace().summary());
    out.push_str(&hix_obs::chrome_trace_json(&m.trace().obs().spans(), tag));
    out.push('\n');
    out.push_str(&m.trace().obs().snapshot());
}

/// Runs both stacks (Gdev baseline + full HIX) over a workload, at a
/// problem size perturbed by the seeded RNG, and renders traces+stats.
fn run_both(w: &dyn Workload, rng: &mut Rng, out: &mut String) {
    // The seed drives the problem size, so the transcript covers
    // seed-dependent input generation, not just a fixed scenario.
    let n = w.test_size() + rng.gen_range_usize(0..8);

    let mut m = rig();
    let pid = m.create_process();
    let mut gdev = Gdev::open(&mut m, pid, GPU_BDF).expect("open");
    let stats = w
        .run(&mut m, &mut GdevExec::new(&mut gdev), n)
        .unwrap_or_else(|e| panic!("{} on gdev: {e}", w.name()));
    writeln!(out, "gdev {} n={n} stats={stats:?}", w.name()).unwrap();
    render(&m, "gdev", out);

    let mut m = rig();
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("enclave");
    let mut session = HixSession::connect(&mut m, &mut enclave).expect("session");
    let stats = w
        .run(&mut m, &mut HixExec::new(&mut session, &mut enclave), n)
        .unwrap_or_else(|e| panic!("{} on hix: {e}", w.name()));
    writeln!(out, "hix {} n={n} stats={stats:?}", w.name()).unwrap();
    render(&m, "hix", out);
}

/// One full transcript of the scenario for a given seed.
fn transcript(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut out = String::new();
    run_both(&MatrixAdd, &mut rng, &mut out);
    run_both(&MatrixMul, &mut rng, &mut out);
    for w in rodinia_suite() {
        run_both(w.as_ref(), &mut rng, &mut out);
    }
    out
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let a = transcript(0x4849_5821);
    let b = transcript(0x4849_5821);
    assert!(
        !a.is_empty() && a.contains("=== hix"),
        "transcript rendered"
    );
    if a != b {
        // Point at the first divergence instead of dumping megabytes.
        let line = a
            .lines()
            .zip(b.lines())
            .position(|(x, y)| x != y)
            .map(|i| {
                format!(
                    "first diverging line {}:\n  run1: {}\n  run2: {}",
                    i,
                    a.lines().nth(i).unwrap_or("<eof>"),
                    b.lines().nth(i).unwrap_or("<eof>"),
                )
            })
            .unwrap_or_else(|| "lengths differ".into());
        panic!("same-seed runs diverged — simulation is not deterministic.\n{line}");
    }
}

#[test]
fn different_seeds_change_the_transcript() {
    // Guard against the test trivially passing because the seed is
    // ignored: a different seed must perturb at least one problem size
    // and therefore the trace.
    let a = transcript(1);
    let b = transcript(2);
    assert_ne!(a, b, "seed must actually influence the scenario");
}
