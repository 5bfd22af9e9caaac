//! Differential fault-injection soak: the same seeded matrix workload
//! runs fault-free and under seeded fault plans of increasing severity
//! (message drops, duplicates, reorders, delays, corruption, DMA
//! bit-flips, PCIe config storms, GPU-enclave restarts). The recovering
//! runtime must deliver **byte-identical GPU results** in every case,
//! the fault accounting must reconcile exactly (one `Fault` event per
//! injection), same-seed faulted reruns must be trace-identical, and a
//! run with zero faults must record zero recovery work.

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_platform::Machine;
use hix_sim::fault::{FaultConfig, FaultPlan};
use hix_sim::{Counter, EventKind, Nanos, Payload};
use hix_testkit::Rng;
use hix_workloads::all_kernels;
use std::fmt::Write;

/// Matrix-mul rounds per run (each its own session, so the soak also
/// covers connect/close churn and enclave restarts between rounds).
const ROUNDS: u32 = 3;
/// Matrix dimension: 24×24 i32 inputs (2304-byte transfers — several
/// sealed messages and a multi-chunk-free bulk stream, fast enough to
/// sweep seeds × profiles).
const N: u64 = 24;

/// Everything the differential comparison needs from one run.
struct SoakRun {
    /// DtoH result bytes, one entry per round.
    results: Vec<Vec<u8>>,
    injected: u64,
    fault_events: u64,
    retries: u64,
    retransmits: u64,
    redma: u64,
    rekeys: u64,
    dup_served: u64,
    snapshot: String,
    transcript: String,
}

impl SoakRun {
    fn recovery_total(&self) -> u64 {
        self.retries + self.retransmits + self.redma + self.rekeys + self.dup_served
    }
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

/// One full soak run: `ROUNDS` sessions of HtoD → matrix.mul → DtoH,
/// with the fault plan (if any) live for the whole run. The workload
/// RNG stream is separate from the plan's, so clean and faulted runs
/// see identical inputs.
fn soak(seed: u64, profile: Option<FaultConfig>) -> SoakRun {
    let mut m = rig();
    if let Some(cfg) = profile {
        m.set_fault_plan(FaultPlan::new(seed ^ 0xF417, cfg));
    }
    let mut wl = Rng::new(seed);
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("launch");
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
        s.sync(&mut m, &mut enclave).expect("sync");
        let out = s
            .memcpy_dtoh(&mut m, &mut enclave, c, bytes)
            .unwrap_or_else(|e| panic!("round {round}: dtoh: {e}"));
        results.push(out.bytes().to_vec());
        s.close(&mut m, &mut enclave)
            .unwrap_or_else(|e| panic!("round {round}: close: {e}"));
        // Mid-stream GPU-enclave restart, when the plan rolls one: seal
        // the trust state, shut down gracefully, relaunch from the
        // sealed blob, and let the next round reconnect from scratch.
        if let Some(plan) = m.fault_plan() {
            if plan.sample_restart() {
                m.trace().metrics().inc(Counter::FaultInjected);
                m.trace().metrics().add_named("fault.injected.restart", 1);
                m.trace().emit(
                    m.clock().now(),
                    Nanos::ZERO,
                    EventKind::Fault,
                    "inject restart",
                );
                let blob = enclave.seal_trust_state(&mut m).expect("seal trust");
                enclave.shutdown(&mut m).expect("shutdown");
                enclave = GpuEnclave::launch(
                    &mut m,
                    GpuEnclaveOptions {
                        sealed_trust: Some(blob),
                        ..GpuEnclaveOptions::default()
                    },
                )
                .expect("relaunch from sealed trust");
            }
        }
    }
    let mut transcript = String::new();
    writeln!(transcript, "=== soak @ {}", m.clock().now()).unwrap();
    for ev in m.trace().events() {
        writeln!(transcript, "{ev:?}").unwrap();
    }
    transcript.push_str(&m.trace().summary());
    transcript.push_str(&m.trace().obs().snapshot());
    let mx = m.trace().metrics();
    SoakRun {
        results,
        injected: mx.counter("fault.injected"),
        fault_events: m.trace().count(EventKind::Fault),
        retries: mx.counter("recovery.retries"),
        retransmits: mx.counter("recovery.retransmits"),
        redma: mx.counter("recovery.redma"),
        rekeys: mx.counter("recovery.rekeys"),
        dup_served: mx.counter("recovery.dup_served"),
        snapshot: m.trace().obs().snapshot(),
        transcript,
    }
}

/// The acceptance sweep: 3 seeds × {clean, light, heavy}. Faulted runs
/// must be byte-identical to the clean run, the fault ledger must
/// reconcile, and the clean run must show zero faults and zero
/// recovery.
#[test]
fn faulted_runs_are_byte_identical_to_clean() {
    for seed in [0x50A4_0001u64, 0x50A4_0002, 0x50A4_0003] {
        let clean = soak(seed, None);
        assert_eq!(clean.injected, 0, "no plan, no faults (seed {seed:#x})");
        assert_eq!(clean.fault_events, 0, "no plan, no Fault events (seed {seed:#x})");
        assert_eq!(
            clean.recovery_total(),
            0,
            "zero faults injected must mean zero recovery recorded (seed {seed:#x})"
        );
        for (tag, cfg) in [("light", FaultConfig::light()), ("heavy", FaultConfig::heavy())] {
            let faulted = soak(seed, Some(cfg));
            assert_eq!(
                faulted.results, clean.results,
                "{tag} faults changed GPU results (seed {seed:#x})"
            );
            assert!(
                faulted.injected > 0,
                "{tag} plan never fired (seed {seed:#x})"
            );
            assert_eq!(
                faulted.fault_events, faulted.injected,
                "every injection must emit exactly one Fault event ({tag}, seed {seed:#x})"
            );
        }
    }
}

#[test]
fn same_seed_faulted_reruns_are_trace_identical() {
    let a = soak(0xD1FF_5EED, Some(FaultConfig::heavy()));
    let b = soak(0xD1FF_5EED, Some(FaultConfig::heavy()));
    assert!(a.injected > 0, "the heavy plan must fire");
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
        panic!("same-seed faulted reruns diverged — fault injection is not deterministic.\n{line}");
    }
    assert_eq!(a.snapshot, b.snapshot, "metrics snapshots must agree too");
}

#[test]
fn heavier_profiles_inject_and_recover_more() {
    let light = soak(0xBEEF, Some(FaultConfig::light()));
    let heavy = soak(0xBEEF, Some(FaultConfig::heavy()));
    assert!(
        heavy.injected > light.injected,
        "heavy ({}) must out-inject light ({})",
        heavy.injected,
        light.injected
    );
    assert!(heavy.recovery_total() > 0, "heavy faults must exercise recovery");
    assert!(
        heavy.snapshot.contains("recovery.retries_per_op")
            || heavy.retries == 0,
        "retry histogram must appear once retries happened"
    );
}
