//! Differential TDR soak: the same seeded matrix workload runs
//! fault-free and under seeded *device*-fault profiles (kernel hangs,
//! wedged contexts, lost completions, live-VRAM bit flips, spurious
//! engine faults). The watchdog + journal-replay runtime must deliver
//! **byte-identical GPU results** in every case, same-seed reruns must
//! be trace-identical, the fault ledger must reconcile exactly, and a
//! secret planted in an idle victim session's VRAM must be
//! unrecoverable after any secure reset — while remaining present when
//! no reset happened (the positive control for the probe).

use hix_core::multiuser::{
    run_multiuser_degraded, run_multiuser_mixed, Mode, SessionFaults, TaskSpec, EVICT_AFTER,
};
use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF};
use hix_gpu::regs::bar0;
use hix_pcie::config::BarIndex;
use hix_platform::Machine;
use hix_sim::fault::{FaultConfig, FaultPlan};
use hix_sim::{CostModel, EventKind, Nanos, Payload};
use hix_testkit::Rng;
use hix_workloads::all_kernels;
use std::fmt::Write;

/// Matrix-mul rounds per run (each its own session, so recovery state
/// never leaks across rounds).
const ROUNDS: u32 = 3;
/// Matrix dimension (24×24 i32: several sealed chunks per transfer).
const N: u64 = 24;
/// The secret an idle victim session plants in VRAM before the faults
/// start. Only a secure reset's scrub may remove it; nothing in the
/// soak legitimately re-uploads it.
const NEEDLE: &[u8] = b"TDR-SOAK-RESIDUE-SENTINEL";

struct SoakRun {
    results: Vec<Vec<u8>>,
    /// `fault.injected` + `fault.detected`: the event-count ledger.
    ledgered: u64,
    injected_gpu: u64,
    fault_events: u64,
    hangs: u64,
    kills: u64,
    resets: u64,
    recoveries: u64,
    secret_in_vram: bool,
    transcript: String,
    snapshot: String,
}

fn rig() -> Machine {
    let m = standard_rig(RigOptions {
        kernels: all_kernels(),
        ..RigOptions::default()
    });
    m.trace().set_recording(true);
    m
}

fn matrix_bytes(rng: &mut Rng, n: u64) -> Vec<u8> {
    (0..n * n)
        .flat_map(|_| ((rng.u32() % 64) as i32).to_le_bytes())
        .collect()
}

/// Scans the low 64 MiB of VRAM for `needle` by reading BAR1 directly
/// off the device model — the bus-analyzer probe that works regardless
/// of MMIO lockdown.
fn vram_probe(m: &mut Machine, needle: &[u8]) -> bool {
    let dev = m.device_mut(GPU_BDF).expect("gpu present");
    let mut saved_aperture = [0u8; 8];
    dev.mmio_read(BarIndex(0), bar0::APERTURE, &mut saved_aperture);
    dev.mmio_write(BarIndex(0), bar0::APERTURE, &0u64.to_le_bytes());
    let mut found = false;
    let overlap = needle.len() - 1;
    let mut tail = vec![0u8; overlap];
    for page in 0..16384u64 {
        let mut buf = vec![0u8; 4096];
        dev.mmio_read(BarIndex(1), page * 4096, &mut buf);
        let mut window = tail.clone();
        window.extend_from_slice(&buf);
        if window.windows(needle.len()).any(|w| w == needle) {
            found = true;
            break;
        }
        tail.copy_from_slice(&buf[buf.len() - overlap..]);
    }
    dev.mmio_write(BarIndex(0), bar0::APERTURE, &saved_aperture);
    found
}

/// One full soak run. The victim plants its secret *before* the fault
/// plan goes live (the plant itself must never need recovery), then
/// stays idle so no replay ever re-uploads it. Eviction is disabled:
/// transparent recovery is the subject here, the repeat-offender policy
/// has its own tests.
fn soak(seed: u64, profile: Option<FaultConfig>) -> SoakRun {
    let mut m = rig();
    let mut enclave = GpuEnclave::launch(
        &mut m,
        GpuEnclaveOptions {
            evict_after: u32::MAX,
            ..GpuEnclaveOptions::default()
        },
    )
    .expect("launch");
    let mut victim = HixSession::connect(&mut m, &mut enclave).expect("victim session");
    let plant = victim.malloc(&mut m, &mut enclave, 4096).expect("victim malloc");
    let secret: Vec<u8> = NEEDLE.iter().copied().cycle().take(4096).collect();
    victim
        .memcpy_htod(&mut m, &mut enclave, plant, &Payload::from_bytes(secret))
        .expect("victim plant");
    if let Some(cfg) = profile {
        m.set_fault_plan(FaultPlan::new(seed ^ 0x7D12, cfg));
    }
    let mut wl = Rng::new(seed);
    let mut results = Vec::new();
    for round in 0..ROUNDS {
        let mut s = HixSession::connect(&mut m, &mut enclave)
            .unwrap_or_else(|e| panic!("round {round}: connect: {e}"));
        s.load_module(&mut m, &mut enclave, "matrix.mul").expect("module");
        let bytes = N * N * 4;
        let a = s.malloc(&mut m, &mut enclave, bytes).expect("malloc a");
        let b = s.malloc(&mut m, &mut enclave, bytes).expect("malloc b");
        let c = s.malloc(&mut m, &mut enclave, bytes).expect("malloc c");
        let av = matrix_bytes(&mut wl, N);
        let bv = matrix_bytes(&mut wl, N);
        s.memcpy_htod(&mut m, &mut enclave, a, &Payload::from_bytes(av))
            .unwrap_or_else(|e| panic!("round {round}: htod a: {e}"));
        s.memcpy_htod(&mut m, &mut enclave, b, &Payload::from_bytes(bv))
            .unwrap_or_else(|e| panic!("round {round}: htod b: {e}"));
        s.launch(&mut m, &mut enclave, "matrix.mul", &[a.value(), b.value(), c.value(), N])
            .unwrap_or_else(|e| panic!("round {round}: launch: {e}"));
        s.sync(&mut m, &mut enclave)
            .unwrap_or_else(|e| panic!("round {round}: sync: {e}"));
        let out = s
            .memcpy_dtoh(&mut m, &mut enclave, c, bytes)
            .unwrap_or_else(|e| panic!("round {round}: dtoh: {e}"));
        results.push(out.bytes().to_vec());
        s.close(&mut m, &mut enclave)
            .unwrap_or_else(|e| panic!("round {round}: close: {e}"));
    }
    m.clear_fault_plan();
    let secret_in_vram = vram_probe(&mut m, NEEDLE);
    let mut transcript = String::new();
    writeln!(transcript, "=== tdr soak @ {}", m.clock().now()).unwrap();
    for span in m.trace().obs().spans() {
        writeln!(transcript, "{span:?}").unwrap();
    }
    transcript.push_str(&m.trace().summary());
    transcript.push_str(&m.trace().obs().snapshot());
    let mx = m.trace().metrics();
    let injected_gpu = mx.counter("fault.injected.gpu.hang")
        + mx.counter("fault.injected.gpu.wedge")
        + mx.counter("fault.injected.gpu.lost_completion")
        + mx.counter("fault.injected.gpu.vram_flip")
        + mx.counter("fault.injected.gpu.spurious");
    SoakRun {
        results,
        ledgered: mx.counter("fault.injected") + mx.counter("fault.detected"),
        injected_gpu,
        fault_events: m.trace().count(EventKind::Fault),
        hangs: mx.counter("watchdog.hangs_detected"),
        kills: mx.counter("watchdog.kills"),
        resets: mx.counter("watchdog.resets"),
        recoveries: mx.counter("watchdog.recoveries"),
        secret_in_vram,
        snapshot: m.trace().obs().snapshot(),
        transcript,
    }
}

/// The acceptance sweep: 3 seeds × {clean, gpu-light, gpu-heavy}.
#[test]
fn gpu_faulted_runs_are_byte_identical_to_clean() {
    let mut total_resets = 0u64;
    let mut total_gpu_injected = 0u64;
    for seed in [0x7D20_0001u64, 0x7D20_0002, 0x7D20_0003] {
        let clean = soak(seed, None);
        assert_eq!(clean.ledgered, 0, "no plan, no faults (seed {seed:#x})");
        for (counter, v) in [
            ("hangs", clean.hangs),
            ("kills", clean.kills),
            ("resets", clean.resets),
            ("recoveries", clean.recoveries),
        ] {
            assert_eq!(v, 0, "clean run recorded watchdog {counter} (seed {seed:#x})");
        }
        assert!(
            clean.secret_in_vram,
            "positive control: with no reset the idle victim's plant must be visible (seed {seed:#x})"
        );
        for (tag, cfg) in [
            ("gpu-light", FaultConfig::gpu_light()),
            ("gpu-heavy", FaultConfig::gpu_heavy()),
        ] {
            let faulted = soak(seed, Some(cfg));
            assert_eq!(
                faulted.results, clean.results,
                "{tag} faults changed GPU results (seed {seed:#x})"
            );
            assert!(faulted.ledgered > 0, "{tag} plan never fired (seed {seed:#x})");
            assert_eq!(
                faulted.fault_events, faulted.ledgered,
                "Fault events must reconcile with the injected+detected ledger ({tag}, seed {seed:#x})"
            );
            if faulted.resets > 0 {
                assert!(
                    !faulted.secret_in_vram,
                    "victim secret survived a secure reset ({tag}, seed {seed:#x})"
                );
            } else {
                assert!(
                    faulted.secret_in_vram,
                    "no reset happened, yet the plant vanished ({tag}, seed {seed:#x})"
                );
            }
            total_resets += faulted.resets;
            total_gpu_injected += faulted.injected_gpu;
        }
    }
    assert!(
        total_gpu_injected > 0,
        "the sweep never injected a device fault — the profiles are dead"
    );
    assert!(
        total_resets > 0,
        "the sweep never exercised a secure reset — the scrub assertion is vacuous"
    );
}

#[test]
fn same_seed_gpu_faulted_reruns_are_trace_identical() {
    let a = soak(0x7D2D_5EED, Some(FaultConfig::gpu_heavy()));
    let b = soak(0x7D2D_5EED, Some(FaultConfig::gpu_heavy()));
    assert!(a.injected_gpu > 0, "the heavy plan must inject device faults");
    if a.transcript != b.transcript {
        let line = a
            .transcript
            .lines()
            .zip(b.transcript.lines())
            .position(|(x, y)| x != y)
            .map(|i| {
                format!(
                    "first diverging line {}:\n  run1: {}\n  run2: {}",
                    i,
                    a.transcript.lines().nth(i).unwrap_or("<eof>"),
                    b.transcript.lines().nth(i).unwrap_or("<eof>"),
                )
            })
            .unwrap_or_else(|| "lengths differ".into());
        panic!("same-seed TDR reruns diverged — device-fault injection is not deterministic.\n{line}");
    }
    assert_eq!(a.snapshot, b.snapshot, "metrics snapshots must agree too");
}

/// The quarantine bound at the layer where peers exist: a permanently
/// wedging tenant costs each healthy peer at most `EVICT_AFTER` blocked
/// windows (plus scheduling slack), no matter how many more wedges it
/// would have caused — the repeat-offender eviction caps the damage.
#[test]
fn permanently_hung_context_never_stalls_peers_beyond_quarantine_bound() {
    let model = CostModel::paper();
    let spec = TaskSpec {
        name: "soak-peer".into(),
        htod: 8 << 20,
        dtoh: 4 << 20,
        kernel_time: Nanos::from_millis(12),
        launches: 2,
    };
    let specs = vec![spec; 4];
    let plain = run_multiuser_mixed(&model, &specs, Mode::Hix);
    let mut faults = vec![SessionFaults::default(); 4];
    faults[0].tdr_resets = u32::MAX; // wedges forever, or would
    let degraded = run_multiuser_degraded(&model, &specs, Mode::Hix, &faults);
    assert!(degraded.evicted[0], "a forever-wedging context must be evicted");
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
