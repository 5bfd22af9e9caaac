//! Recovery-overhead-vs-fault-rate report: runs the same seeded matrix
//! workload fault-free and under the `light`/`heavy` fault profiles,
//! prints the markdown table behind the EXPERIMENTS.md availability
//! section, and self-checks the recovery contract (byte-identical GPU
//! results under faults, zero recovery work on a clean wire, same-seed
//! determinism). Used by `scripts/ci.sh` as the fault-matrix smoke.
//!
//! Usage: `fault_report`.

use hix_bench::fail;
use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_sim::fault::{FaultConfig, FaultPlan};
use hix_sim::{EventKind, Nanos, Payload};
use hix_workloads::all_kernels;

/// Matrix dimension (24×24 i32: multi-message transfers, fast sweeps).
const N: u64 = 24;
/// Sessions per run — covers connect/close churn and enclave restarts.
const ROUNDS: u32 = 2;

struct RunStats {
    results: Vec<Vec<u8>>,
    makespan: Nanos,
    injected: u64,
    retransmits: u64,
    retries: u64,
    rekeys: u64,
    redma: u64,
    dup_served: u64,
    fault_events: u64,
    snapshot: String,
}

impl RunStats {
    fn recovery_total(&self) -> u64 {
        self.retransmits + self.retries + self.rekeys + self.redma + self.dup_served
    }
}

/// Deterministic input bytes — a fixed arithmetic texture, so clean and
/// faulted runs of the same seed see identical matrices without any
/// RNG stream shared with the fault plan.
fn matrix_bytes(seed: u64, round: u32, which: u64) -> Vec<u8> {
    (0..N * N)
        .flat_map(|i| {
            let v = (seed ^ (round as u64) << 7 ^ which << 3)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i.wrapping_mul(1442695040888963407));
            (((v >> 33) % 64) as i32).to_le_bytes()
        })
        .collect()
}

fn run(seed: u64, profile: Option<FaultConfig>) -> RunStats {
    let mut m = standard_rig(RigOptions {
        kernels: all_kernels(),
        ..RigOptions::default()
    });
    if let Some(cfg) = profile {
        m.set_fault_plan(FaultPlan::new(seed ^ 0xF417, cfg));
    }
    let mut enclave =
        GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("enclave launch");
    let mut results = Vec::new();
    for round in 0..ROUNDS {
        let mut s = HixSession::connect(&mut m, &mut enclave).expect("connect");
        s.load_module(&mut m, &mut enclave, "matrix.mul").expect("module");
        let bytes = N * N * 4;
        let a = s.malloc(&mut m, &mut enclave, bytes).expect("malloc");
        let b = s.malloc(&mut m, &mut enclave, bytes).expect("malloc");
        let c = s.malloc(&mut m, &mut enclave, bytes).expect("malloc");
        s.memcpy_htod(&mut m, &mut enclave, a, &Payload::from_bytes(matrix_bytes(seed, round, 0)))
            .expect("htod a");
        s.memcpy_htod(&mut m, &mut enclave, b, &Payload::from_bytes(matrix_bytes(seed, round, 1)))
            .expect("htod b");
        s.launch(&mut m, &mut enclave, "matrix.mul", &[a.value(), b.value(), c.value(), N])
            .expect("launch");
        s.sync(&mut m, &mut enclave).expect("sync");
        let out = s.memcpy_dtoh(&mut m, &mut enclave, c, bytes).expect("dtoh");
        results.push(out.bytes().to_vec());
        s.close(&mut m, &mut enclave).expect("close");
        // Mid-stream enclave restart when the plan rolls one: seal the
        // trust state, shut down, relaunch from the sealed blob.
        if let Some(plan) = m.fault_plan() {
            if plan.sample_restart() {
                m.trace().metrics().inc("fault.injected");
                m.trace().metrics().inc("fault.injected.restart");
                m.trace().emit(m.clock().now(), Nanos::ZERO, EventKind::Fault, "inject restart");
                let blob = enclave.seal_trust_state(&mut m).expect("seal trust");
                enclave.shutdown(&mut m).expect("shutdown");
                enclave = GpuEnclave::launch(
                    &mut m,
                    GpuEnclaveOptions { sealed_trust: Some(blob), ..GpuEnclaveOptions::default() },
                )
                .expect("relaunch");
            }
        }
    }
    let mx = m.trace().metrics();
    RunStats {
        results,
        makespan: m.clock().now(),
        injected: mx.counter("fault.injected"),
        retransmits: mx.counter("recovery.retransmits"),
        retries: mx.counter("recovery.retries"),
        rekeys: mx.counter("recovery.rekeys"),
        redma: mx.counter("recovery.redma"),
        dup_served: mx.counter("recovery.dup_served"),
        fault_events: m.trace().count(EventKind::Fault),
        snapshot: m.trace().obs().snapshot(),
    }
}

fn main() {
    let seeds = [0xFA01u64, 0xFA02, 0xFA03];
    let profiles: [(&str, Option<FaultConfig>); 3] =
        [("none", None), ("light", Some(FaultConfig::light())), ("heavy", Some(FaultConfig::heavy()))];

    println!("## Recovery overhead vs fault rate\n");
    println!("| seed | profile | injected | retries | retransmits | re-keys | re-DMA | makespan (us) | overhead |");
    println!("|------|---------|----------|---------|-------------|---------|--------|---------------|----------|");

    for seed in seeds {
        let mut clean_makespan = Nanos::ZERO;
        let mut clean_results = Vec::new();
        for (tag, cfg) in &profiles {
            let stats = run(seed, *cfg);

            // --- the recovery contract, checked on every cell ---
            if stats.fault_events != stats.injected {
                fail(&format!(
                    "{seed:#x}/{tag}: {} Fault events for {} injections",
                    stats.fault_events, stats.injected
                ));
            }
            match *cfg {
                None => {
                    if stats.injected != 0 || stats.recovery_total() != 0 {
                        fail(&format!(
                            "{seed:#x}/none: clean run recorded {} injections, {} recovery actions",
                            stats.injected,
                            stats.recovery_total()
                        ));
                    }
                    clean_makespan = stats.makespan;
                    clean_results = stats.results.clone();
                }
                Some(_) => {
                    if stats.injected == 0 {
                        fail(&format!("{seed:#x}/{tag}: fault plan never fired"));
                    }
                    if stats.results != clean_results {
                        fail(&format!(
                            "{seed:#x}/{tag}: GPU results diverged from the fault-free run"
                        ));
                    }
                }
            }

            let overhead = if *tag == "none" || clean_makespan == Nanos::ZERO {
                "—".to_string()
            } else {
                let clean = clean_makespan.as_nanos() as f64;
                format!("{:+.1}%", (stats.makespan.as_nanos() as f64 - clean) / clean * 100.0)
            };
            println!(
                "| {seed:#06x} | {tag} | {} | {} | {} | {} | {} | {:.1} | {overhead} |",
                stats.injected,
                stats.retries,
                stats.retransmits,
                stats.rekeys,
                stats.redma,
                stats.makespan.as_nanos() as f64 / 1000.0,
            );
        }
    }

    // Same-seed determinism: the heavy cell of the first seed must
    // replay byte-identically, snapshot included.
    let a = run(seeds[0], Some(FaultConfig::heavy()));
    let b = run(seeds[0], Some(FaultConfig::heavy()));
    if a.snapshot != b.snapshot || a.results != b.results || a.makespan != b.makespan {
        fail("same-seed heavy runs are not deterministic");
    }

    println!("\nfault_report: OK (byte-identical under faults, zero recovery when clean, deterministic)");
}
