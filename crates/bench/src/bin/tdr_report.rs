//! TDR watchdog report: hang-recovery latency under seeded device-fault
//! profiles and the peer-interference cost of a misbehaving tenant.
//! Prints the markdown tables behind the EXPERIMENTS.md watchdog
//! section and self-checks the watchdog contract on every cell
//! (byte-identical GPU results under device faults, per-incident
//! recovery latency within the closed-form ladder bound, bounded peer
//! cost with eviction capping a repeat offender). Used by
//! `scripts/ci.sh` as the watchdog smoke.
//!
//! Usage: `tdr_report`.

use hix_bench::fail;
use hix_core::multiuser::{
    run_multiuser_degraded, run_multiuser_mixed, Mode, SessionFaults, TaskSpec, EVICT_AFTER,
};
use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_obs::{fmt_ns, percentile_sorted};
use hix_sim::fault::{FaultConfig, FaultPlan};
use hix_sim::{CostModel, Nanos, Payload};
use hix_workloads::all_kernels;

/// Matrix dimension (24×24 i32: multi-message transfers, fast sweeps).
const N: u64 = 24;
/// Sessions per run — short journals keep heavy-profile replay cheap.
const ROUNDS: u32 = 3;

struct RunStats {
    results: Vec<Vec<u8>>,
    makespan: Nanos,
    injected_gpu: u64,
    hangs: u64,
    kills: u64,
    resets: u64,
    /// Per-incident recovery latencies (ns), from the watchdog spans.
    latencies: Vec<u64>,
    snapshot: String,
}

/// Deterministic input bytes — a fixed arithmetic texture, so clean and
/// faulted runs of the same seed see identical matrices without any RNG
/// stream shared with the fault plan.
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
    // Span retention (the per-incident latency source) is gated on
    // recording; virtual time is unaffected.
    m.trace().set_recording(true);
    if let Some(cfg) = profile {
        m.set_fault_plan(FaultPlan::new(seed ^ 0x7D12, cfg));
    }
    // Eviction is the multiuser table's subject; here every wedge must
    // recover transparently, so the offense budget is effectively off.
    let mut enclave = GpuEnclave::launch(
        &mut m,
        GpuEnclaveOptions {
            evict_after: u32::MAX,
            ..GpuEnclaveOptions::default()
        },
    )
    .expect("enclave launch");
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
    }
    let mx = m.trace().metrics();
    let injected_gpu = ["hang", "wedge", "lost_completion", "vram_flip", "spurious"]
        .iter()
        .map(|k| mx.counter(&format!("fault.injected.gpu.{k}")))
        .sum();
    let mut latencies: Vec<u64> = m
        .trace()
        .obs()
        .spans()
        .iter()
        .filter(|s| s.category == "watchdog" && s.name == "recover")
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    latencies.sort_unstable();
    RunStats {
        results,
        makespan: m.clock().now(),
        injected_gpu,
        hangs: mx.counter("watchdog.hangs_detected"),
        kills: mx.counter("watchdog.kills"),
        resets: mx.counter("watchdog.resets"),
        latencies,
        snapshot: m.trace().obs().snapshot(),
    }
}

fn recovery_latency_table() {
    let seeds = [0x7D01u64, 0x7D02, 0x7D03];
    let profiles: [(&str, Option<FaultConfig>); 3] = [
        ("none", None),
        ("gpu-light", Some(FaultConfig::gpu_light())),
        ("gpu-heavy", Some(FaultConfig::gpu_heavy())),
    ];

    println!("## Hang recovery latency vs device-fault profile\n");
    println!("| seed | profile | gpu faults | hangs | kills | resets | recovery p50 | recovery max | makespan (us) | overhead |");
    println!("|------|---------|------------|-------|-------|--------|--------------|--------------|---------------|----------|");

    let mut swept_gpu_faults = 0u64;
    for seed in seeds {
        let mut clean_makespan = Nanos::ZERO;
        let mut clean_results = Vec::new();
        for (tag, cfg) in &profiles {
            let stats = run(seed, cfg.clone());

            // --- the watchdog contract, checked on every cell ---
            match cfg {
                None => {
                    if stats.injected_gpu != 0 || stats.hangs != 0 || stats.resets != 0 {
                        fail(&format!(
                            "{seed:#x}/none: clean run saw {} device faults, {} hangs",
                            stats.injected_gpu, stats.hangs
                        ));
                    }
                    clean_makespan = stats.makespan;
                    clean_results = stats.results.clone();
                }
                Some(_) => {
                    if stats.results != clean_results {
                        fail(&format!(
                            "{seed:#x}/{tag}: GPU results diverged from the fault-free run"
                        ));
                    }
                    swept_gpu_faults += stats.injected_gpu;
                }
            }
            // A transient hang clears during backoff with no session
            // rebuild; only a kill or reset forces a recovery incident.
            if stats.kills + stats.resets > 0 && stats.latencies.is_empty() {
                fail(&format!("{seed:#x}/{tag}: kills/resets happened but no recovery spans"));
            }

            let p50 = percentile_sorted(&stats.latencies, 50)
                .map(fmt_ns)
                .unwrap_or_else(|| "—".into());
            let max = stats
                .latencies
                .last()
                .map(|&ns| fmt_ns(ns))
                .unwrap_or_else(|| "—".into());
            let overhead = if clean_makespan == Nanos::ZERO || cfg.is_none() {
                "—".to_string()
            } else {
                let clean = clean_makespan.as_nanos() as f64;
                format!("{:+.1}%", (stats.makespan.as_nanos() as f64 - clean) / clean * 100.0)
            };
            println!(
                "| {seed:#06x} | {tag} | {} | {} | {} | {} | {p50} | {max} | {:.1} | {overhead} |",
                stats.injected_gpu,
                stats.hangs,
                stats.kills,
                stats.resets,
                stats.makespan.as_nanos() as f64 / 1000.0,
            );
        }
    }
    if swept_gpu_faults == 0 {
        fail("the profile sweep never injected a device fault");
    }

    // Same-seed determinism: the heavy cell of the first seed must
    // replay byte-identically, snapshot included.
    let a = run(seeds[0], Some(FaultConfig::gpu_heavy()));
    let b = run(seeds[0], Some(FaultConfig::gpu_heavy()));
    if a.snapshot != b.snapshot || a.results != b.results || a.makespan != b.makespan {
        fail("same-seed gpu-heavy runs are not deterministic");
    }
}

fn peer_interference_table() {
    let model = CostModel::paper();
    let spec = TaskSpec {
        name: "tdr-peer".into(),
        htod: 8 << 20,
        dtoh: 4 << 20,
        kernel_time: Nanos::from_millis(12),
        launches: 2,
    };
    let specs = vec![spec; 4];
    let plain = run_multiuser_mixed(&model, &specs, Mode::Hix);
    let per_offense = model.tdr_patience()
        + model.tdr_kill_grace() * 3
        + model.tdr_reset_penalty()
        + model.ctx_switch * 2;
    let bound = per_offense * u64::from(EVICT_AFTER);

    println!("\n## Peer interference from a misbehaving tenant (4 users, HIX)\n");
    println!("| offender profile | offender (ms) | worst peer delta | quarantine bound | evicted |");
    println!("|------------------|---------------|------------------|------------------|---------|");

    let scenarios: [(&str, u32, u32); 4] =
        [("clean", 0, 0), ("2 kills", 2, 0), ("1 reset", 0, 1), ("wedged forever", 0, u32::MAX)];
    let mut capped_peer_completions = Vec::new();
    for (tag, kills, resets) in scenarios {
        let mut faults = vec![SessionFaults::default(); 4];
        faults[0].tdr_kills = kills;
        faults[0].tdr_resets = resets;
        let out = run_multiuser_degraded(&model, &specs, Mode::Hix, &faults);
        let worst_delta = (1..4)
            .map(|u| out.completions[u].saturating_sub(plain.completions[u]))
            .max()
            .unwrap();
        // --- the quarantine contract, checked on every row ---
        if Nanos::from_nanos(worst_delta.as_nanos()) > bound {
            fail(&format!("{tag}: peer stalled {worst_delta:?}, past the bound {bound:?}"));
        }
        let expect_evict = resets >= EVICT_AFTER;
        if out.evicted[0] != expect_evict || out.evicted[1..].iter().any(|e| *e) {
            fail(&format!("{tag}: eviction flags wrong: {:?}", out.evicted));
        }
        if expect_evict {
            capped_peer_completions.push((1..4).map(|u| out.completions[u]).collect::<Vec<_>>());
        }
        println!(
            "| {tag} | {:.2} | {} | {} | {} |",
            out.completions[0].as_nanos() as f64 / 1e6,
            fmt_ns(worst_delta.as_nanos()),
            fmt_ns(bound.as_nanos()),
            if out.evicted[0] { "yes" } else { "no" },
        );
    }

    // Eviction caps the damage: EVICT_AFTER resets and "infinite" resets
    // cost the peers exactly the same.
    let mut faults = vec![SessionFaults::default(); 4];
    faults[0].tdr_resets = EVICT_AFTER;
    let at_cap = run_multiuser_degraded(&model, &specs, Mode::Hix, &faults);
    if capped_peer_completions
        .iter()
        .any(|peers| peers != &(1..4).map(|u| at_cap.completions[u]).collect::<Vec<_>>())
    {
        fail("eviction failed to cap peer cost: more resets kept costing peers");
    }
}

fn main() {
    recovery_latency_table();
    peer_interference_table();
    println!(
        "\ntdr_report: OK (byte-identical under device faults, bounded peer cost, eviction caps repeat offenders, deterministic)"
    );
}
