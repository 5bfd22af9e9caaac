//! Differential fault-injection soak: the seeded matrix scenario of
//! `hix_bench::soak` runs fault-free and under seeded channel faults
//! (drops, duplicates, reorders, delays, corruption, DMA bit-flips,
//! config storms, enclave restarts) and device faults (hangs, wedged
//! contexts, lost completions, live-VRAM flips, spurious engine
//! faults), through the synchronous wrappers and through batched
//! submission. Every cell must meet `soak::check`: byte-identical GPU
//! results, `Fault` events tiling injected + detected, zero recovery
//! work on a clean wire, and an idle victim's secret that is readable
//! exactly when nothing scrubbed VRAM. Each suite below keeps its own
//! seeds; the sweep-level clauses come from `soak::check_sweep`.

use hix_bench::soak::{self, SoakRun};
use hix_core::multiuser::{
    run_scaled, Mode, SchedulerConfig, SessionFaults, SessionSpec, TaskSpec, EVICT_AFTER,
};
use hix_core::{CmdStatus, GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_crypto::sha256;
use hix_driver::rig::{standard_rig, RigOptions};
use hix_sim::{CostModel, Nanos};
use hix_workloads::all_kernels;

/// SHA-256 of `soak::run(seed, profile, batched).transcript` (every
/// span, the summary and the snapshot) for five cells: the three rerun
/// cells below, plus one gpu-heavy and one batched heavy cell so that
/// together the tapes inject every fault kind and raise a detected
/// fault. A change that only moves where a fault is decided or
/// recorded must keep every digest.
const PINNED: [(u64, &str, bool, &str); 5] = [
    (
        0xD1FF_5EED,
        "heavy",
        false,
        "548f9cdfcfc11fd4b932a5f74f8fd4fba46cdc43f4b5fb9c9bdeb9d001f2b5f1",
    ),
    (
        0xD1FF_5EED,
        "heavy",
        true,
        "53b1187813dcef18bd99b04d17a0cca93e15f3f863750eaa518efa97bf30f174",
    ),
    (
        0x7D2D_5EED,
        "gpu-heavy",
        false,
        "6ca4cd9e5737b50d1e73dbb18df57a6d678cf43924ec4a82fede0d91a1d2807e",
    ),
    (
        0x7D20_0001,
        "gpu-heavy",
        false,
        "f266362d726a574258eaf683acd9ec51c2212ead9835b5c5aad7e7320e669b4c",
    ),
    (
        0xA5E1_0001,
        "heavy",
        true,
        "e2816a1e441bf711eed6b4c02852f55355de4bf2c43fe8505fdc8fbebc7268cf",
    ),
];

/// Every `fault.injected.<kind>` the machine profiles inject.
const KINDS: [&str; 13] = [
    "drop",
    "duplicate",
    "reorder",
    "delay",
    "corrupt",
    "dma_flip",
    "cfg_storm",
    "restart",
    "gpu.hang",
    "gpu.wedge",
    "gpu.lost_completion",
    "gpu.vram_flip",
    "gpu.spurious",
];

fn assert_pinned(run: &SoakRun) {
    let cell = (run.seed, run.profile, run.batched);
    let want = PINNED
        .iter()
        .find(|p| (p.0, p.1, p.2) == cell)
        .unwrap_or_else(|| panic!("{cell:x?} has no pinned digest"))
        .3;
    let got: String = sha256::digest(run.transcript.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(got, want, "{cell:x?}: the soak transcript moved");
}

fn checked(cell: SoakRun, clean: &SoakRun) -> SoakRun {
    soak::check(&cell, clean).unwrap_or_else(|e| panic!("{e}"));
    cell
}

fn clean(seed: u64, batched: bool) -> SoakRun {
    let run = soak::run(seed, "none", batched);
    soak::check(&run, &run).unwrap_or_else(|e| panic!("{e}"));
    run
}

/// Channel faults, 3 seeds × {light, heavy}, sync engine.
#[test]
fn faulted_runs_are_byte_identical_to_clean() {
    for seed in [0x50A4_0001u64, 0x50A4_0002, 0x50A4_0003] {
        let clean = clean(seed, false);
        for profile in ["light", "heavy"] {
            let cell = checked(soak::run(seed, profile, false), &clean);
            let injected = cell.counter("fault.injected");
            assert!(injected > 0, "{profile} plan never fired (seed {seed:#x})");
            assert_eq!(
                cell.fault_events, injected,
                "every injection emits exactly one Fault event, nothing detected ({profile}, seed {seed:#x})"
            );
        }
    }
}

/// Device faults, 3 seeds × {gpu-light, gpu-heavy}, sync engine. The
/// clean runs are the probe's positive control.
#[test]
fn gpu_faulted_runs_are_byte_identical_to_clean() {
    let mut cells = Vec::new();
    for seed in [0x7D20_0001u64, 0x7D20_0002, 0x7D20_0003] {
        let clean = clean(seed, false);
        for profile in ["gpu-light", "gpu-heavy"] {
            let cell = checked(soak::run(seed, profile, false), &clean);
            assert!(
                cell.faults() > 0,
                "{profile} plan never fired (seed {seed:#x})"
            );
            cells.push(cell);
        }
    }
    soak::check_sweep(&cells).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        cells.iter().any(|c| c.counter("watchdog.resets") > 0),
        "the sweep never exercised a secure reset — the scrub clause is vacuous"
    );
}

/// Sync vs batched submission, 3 seeds × {none, light, heavy}.
#[test]
fn batched_submission_is_byte_identical_to_sync() {
    let mut cells = Vec::new();
    for seed in [0xA5E1_0001u64, 0xA5E1_0002, 0xA5E1_0003] {
        for batched in [false, true] {
            let clean = clean(seed, batched);
            for profile in ["light", "heavy"] {
                let cell = checked(soak::run(seed, profile, batched), &clean);
                assert!(
                    cell.faults() > 0,
                    "{profile} plan never fired ({seed:#x}, batched={batched})"
                );
                cells.push(cell);
            }
            cells.push(clean);
        }
    }
    for cell in cells.iter().filter(|c| c.batched) {
        assert!(
            cell.counter("cmdq.frames") > 0,
            "batched mode must actually use frames"
        );
    }
    soak::check_sweep(&cells).unwrap_or_else(|e| panic!("{e}"));
}

/// Runs one cell twice; `fired` picks the counter that shows the plan
/// did something, so an idle plan cannot pass as deterministic.
fn rerun_is_identical(seed: u64, profile: &'static str, batched: bool, fired: fn(&SoakRun) -> u64) {
    let a = soak::run(seed, profile, batched);
    let b = soak::run(seed, profile, batched);
    assert!(
        fired(&a) > 0,
        "the {profile} plan must fire ({seed:#x}, batched={batched})"
    );
    soak::check_rerun(&a, &b).unwrap_or_else(|e| panic!("{e}"));
    assert_pinned(&a);
}

/// The pinned cells keep their digests and together inject every kind
/// and raise at least one detected fault, so the pins cover every
/// writer of the `Fault` events.
#[test]
fn pinned_transcripts_cover_every_fault_kind() {
    let runs: Vec<SoakRun> = PINNED
        .iter()
        .map(|&(seed, profile, batched, _)| soak::run(seed, profile, batched))
        .collect();
    runs.iter().for_each(assert_pinned);
    for kind in KINDS {
        let name = format!("fault.injected.{kind}");
        assert!(
            runs.iter().any(|r| r.counter(&name) > 0),
            "no pinned cell injects {kind}"
        );
    }
    assert!(
        runs.iter().any(|r| r.counter("fault.detected") > 0),
        "no pinned cell detects a fault"
    );
}

/// Channel faults, sync engine: same seed, same transcript.
#[test]
fn same_seed_faulted_reruns_are_trace_identical() {
    rerun_is_identical(0xD1FF_5EED, "heavy", false, SoakRun::faults);
}

/// The batched engine's half of the per-engine rerun check; the sync
/// engine's half on the same seed is the test above.
#[test]
fn same_seed_reruns_have_identical_ledgers_per_mode() {
    rerun_is_identical(0xD1FF_5EED, "heavy", true, SoakRun::faults);
}

/// Device faults: watchdog kills, resets and scrubs replay exactly.
#[test]
fn same_seed_gpu_faulted_reruns_are_trace_identical() {
    rerun_is_identical(0x7D2D_5EED, "gpu-heavy", false, SoakRun::device_faults);
}

#[test]
fn heavier_profiles_inject_and_recover_more() {
    let light = soak::run(0xBEEF, "light", false);
    let heavy = soak::run(0xBEEF, "heavy", false);
    let (l, h) = (
        light.counter("fault.injected"),
        heavy.counter("fault.injected"),
    );
    assert!(h > l, "heavy ({h}) must out-inject light ({l})");
    assert!(
        heavy.recovery_actions() > 0,
        "heavy faults must exercise recovery"
    );
    assert!(
        heavy.transcript.contains("recovery.retries_per_op")
            || heavy.counter("recovery.retries") == 0,
        "retry histogram must appear once retries happened"
    );
}

/// The quarantine bound at the layer where peers exist: a permanently
/// wedging tenant costs each healthy peer at most `EVICT_AFTER` blocked
/// windows (plus scheduling slack), no matter how many more wedges it
/// would have caused — the repeat-offender eviction caps the damage.
#[test]
fn permanently_hung_context_never_stalls_peers_beyond_quarantine_bound() {
    let model = CostModel::paper();
    let config = SchedulerConfig::new(&model);
    let spec = TaskSpec {
        name: "soak-peer".into(),
        htod: 8 << 20,
        dtoh: 4 << 20,
        kernel_time: Nanos::from_millis(12),
        launches: 2,
    };
    let mut sessions = vec![SessionSpec::new(spec); 4];
    let plain = run_scaled(&model, &sessions, Mode::Hix, &config, None);
    // wedges forever, or would
    sessions[0].faults = SessionFaults {
        tdr_resets: u32::MAX,
        ..SessionFaults::default()
    };
    let degraded = run_scaled(&model, &sessions, Mode::Hix, &config, None);
    assert!(
        degraded.evicted[0],
        "a forever-wedging context must be evicted"
    );
    let per_offense = model.tdr_patience()
        + model.tdr_kill_grace() * 3
        + model.tdr_reset_penalty()
        + model.ctx_switch * 2;
    let bound = per_offense * u64::from(EVICT_AFTER);
    for peer in 1..4 {
        assert!(
            degraded.completions[peer] <= plain.completions[peer] + bound,
            "peer {peer} stalled past the quarantine bound: {:?} vs {:?} + {bound:?}",
            degraded.completions[peer],
            plain.completions[peer],
        );
        assert!(!degraded.evicted[peer]);
    }
}

/// An explicit mixed workflow: interleaving submits, barriers, and
/// late completion pickup. Barrier ops (malloc/dtoh) drain the ring
/// first, so every queued command's effect is visible to them.
#[test]
fn barriers_order_after_queued_commands() {
    let mut m = standard_rig(RigOptions {
        kernels: all_kernels(),
        ..RigOptions::default()
    });
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("launch");
    let mut s = HixSession::connect(&mut m, &mut enclave).expect("connect");
    let a = s.malloc(&mut m, &mut enclave, 4096).expect("malloc");
    let id0 = s
        .submit_memset(&mut m, &mut enclave, a, 4096, 0x5a)
        .unwrap();
    // The barrier read drains the pending memset before serving.
    let back = s.memcpy_dtoh(&mut m, &mut enclave, a, 4096).expect("dtoh");
    assert!(
        back.bytes().iter().all(|&x| x == 0x5a),
        "barrier saw stale bytes"
    );
    let comps = s.take_completions();
    assert_eq!(comps, vec![(id0, CmdStatus::Ok)]);
    // A failing queued command completes with Err, not a flush error.
    let bad = s
        .submit_launch(&mut m, &mut enclave, "no.such.kernel", &[])
        .unwrap();
    s.flush(&mut m, &mut enclave)
        .expect("flush survives command errors");
    let comps = s.take_completions();
    assert_eq!(comps.len(), 1);
    assert_eq!(comps[0].0, bad);
    assert!(
        matches!(&comps[0].1, CmdStatus::Err(_)),
        "unknown kernel must fail its own command only"
    );
    s.close(&mut m, &mut enclave).expect("close");
}
