//! The fault-matrix soak: the one seeded scenario behind the
//! availability claims of the channel-fault and GPU-watchdog extensions
//! (availability is outside the HIX threat model, §3). `fault_report`
//! sweeps it into `BENCH_fault.json`; `tests/tests/fault_soak.rs` drives
//! it on its own seeds.
//!
//! One [`run`]: a rig with span recording and request attribution on,
//! and a GPU enclave that never evicts (transparent recovery is the
//! subject; eviction has its own tests). An idle victim session plants
//! a secret in VRAM before the fault plan goes live. Then [`ROUNDS`]
//! sessions each run a 24×24 matrix-mul — three mallocs, two HtoD, a
//! seeded extra op (memset, DtoD or nothing), launch, sync, DtoH —
//! through either the synchronous wrappers or one flushed batch, and a
//! plan-rolled enclave restart can follow each round. At the end the
//! plan is cleared, a BAR1 probe looks for the victim's secret, and
//! attribution must reconcile ±0. [`check`], [`check_rerun`] and
//! [`check_sweep`] are the contract the run must meet.

use std::fmt::Write as _;

use hix_core::{CmdStatus, GpuEnclave, GpuEnclaveOptions, HixCoreError, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_obs::Metrics;
use hix_platform::Machine;
use hix_sim::fault::{self, FaultConfig, FaultPlan};
use hix_sim::{EventKind, Nanos, Payload};
use hix_testkit::Rng;
use hix_workloads::all_kernels;

/// The five machine fault profiles, clean first. `light` and `heavy`
/// fault the channel (heavy adds DMA flips, config storms and enclave
/// restarts); `gpu-light` and `gpu-heavy` add device faults to light
/// channel noise. `none` installs no plan at all.
pub fn profiles() -> [(&'static str, Option<FaultConfig>); 5] {
    [
        ("none", None),
        ("light", Some(FaultConfig::light())),
        ("heavy", Some(FaultConfig::heavy())),
        ("gpu-light", Some(FaultConfig::gpu_light())),
        ("gpu-heavy", Some(FaultConfig::gpu_heavy())),
    ]
}

/// Matrix-mul rounds per run, each its own session.
pub const ROUNDS: u32 = 3;
/// Matrix dimension: 24×24 i32 inputs, several sealed messages per
/// transfer.
const N: u64 = 24;
/// The secret the idle victim plants. Only a secure reset's or an
/// enclave restart's scrub may remove it; nothing re-uploads it.
const SECRET: &[u8] = b"TDR-SOAK-RESIDUE-SENTINEL";

/// Everything the contract and the ledger need from one run.
pub struct SoakRun {
    /// Workload seed (the plan's seed is derived from it).
    pub seed: u64,
    /// Name of the fault profile (see [`profiles`]).
    pub profile: &'static str,
    /// Whether the ops went through one flushed batch per round.
    pub batched: bool,
    /// DtoH result bytes, one entry per round.
    pub results: Vec<Vec<u8>>,
    /// Virtual time when the last round closed.
    pub makespan: Nanos,
    /// `Fault` events recorded.
    pub fault_events: u64,
    /// Per-incident watchdog recovery latencies (ns), sorted.
    pub recovery_ns: Vec<u64>,
    /// Whether the victim's secret was still readable through BAR1.
    pub secret_in_vram: bool,
    /// Every span, the summary and the metrics snapshot.
    pub transcript: String,
    metrics: Metrics,
}

impl SoakRun {
    /// A counter of the run's metrics registry.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name)
    }

    fn sum(&self, family: &str, kinds: &[&str]) -> u64 {
        kinds
            .iter()
            .map(|k| self.counter(&format!("{family}.{k}")))
            .sum()
    }

    /// `fault.injected` + `fault.detected`: what the `Fault` events
    /// must tile.
    pub fn faults(&self) -> u64 {
        self.sum("fault", &["injected", "detected"])
    }

    /// Device faults injected (every `fault.injected.gpu.*` kind).
    pub fn device_faults(&self) -> u64 {
        let kinds = ["hang", "wedge", "lost_completion", "vram_flip", "spurious"];
        self.sum("fault.injected.gpu", &kinds)
    }

    /// Channel recovery actions of every kind.
    pub fn recovery_actions(&self) -> u64 {
        self.sum(
            "recovery",
            &["retries", "retransmits", "redma", "rekeys", "dup_served"],
        )
    }

    /// Watchdog actions of every kind.
    pub fn watchdog_actions(&self) -> u64 {
        self.sum(
            "watchdog",
            &["hangs_detected", "kills", "resets", "recoveries"],
        )
    }

    /// `sync` or `batched`.
    pub fn engine(&self) -> &'static str {
        if self.batched {
            "batched"
        } else {
            "sync"
        }
    }

    fn label(&self) -> String {
        format!("{:#x}/{}/{}", self.seed, self.profile, self.engine())
    }
}

/// Runs the scenario once (see the module docs) under the named fault
/// profile. Panics if a round fails: recovery must be transparent.
pub fn run(seed: u64, profile: &'static str, batched: bool) -> SoakRun {
    let config = profiles()
        .into_iter()
        .find(|(name, _)| *name == profile)
        .unwrap_or_else(|| panic!("unknown fault profile {profile}"))
        .1;
    let mut m = standard_rig(RigOptions {
        kernels: all_kernels(),
        ..RigOptions::default()
    });
    m.trace().set_recording(true);
    m.trace().obs().set_attributing(true);
    let options = GpuEnclaveOptions {
        evict_after: u32::MAX,
        ..GpuEnclaveOptions::default()
    };
    let mut enclave = GpuEnclave::launch(&mut m, options.clone()).expect("enclave launch");
    // The victim plants before the plan goes live (the plant itself
    // never needs recovery) and stays idle, so no replay re-uploads it.
    let mut victim = HixSession::connect(&mut m, &mut enclave).expect("victim connect");
    let plant = victim
        .malloc(&mut m, &mut enclave, 4096)
        .expect("victim malloc");
    let secret: Vec<u8> = SECRET.iter().copied().cycle().take(4096).collect();
    victim
        .memcpy_htod(&mut m, &mut enclave, plant, &Payload::from_bytes(secret))
        .expect("victim plant");
    if let Some(cfg) = config {
        m.set_fault_plan(FaultPlan::new(seed ^ 0xF417, cfg));
    }
    // The workload stream is separate from the plan's, so every profile
    // and both engines see identical inputs.
    let mut wl = Rng::new(seed);
    let mut results = Vec::new();
    for r in 0..ROUNDS {
        let out = round(&mut m, &mut enclave, &mut wl, batched)
            .unwrap_or_else(|e| panic!("{seed:#x}/{profile} (batched: {batched}) round {r}: {e}"));
        results.push(out);
        if m.fault_plan().is_some_and(|plan| plan.sample_restart()) {
            enclave = restart(&mut m, enclave, &options);
        }
    }
    let makespan = m.clock().now();
    m.clear_fault_plan();
    let secret_in_vram = hix_attacks::vram_holds(&mut m, SECRET);
    if let Err(e) = m.trace().obs().check_attribution() {
        panic!("{seed:#x}/{profile}: attribution does not reconcile: {e}");
    }
    let obs = m.trace().obs();
    let mut recovery_ns: Vec<u64> = obs
        .spans()
        .iter()
        .filter(|s| s.category == "watchdog" && s.name == "recover")
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    recovery_ns.sort_unstable();
    let mut transcript = format!("=== soak @ {makespan}\n");
    for span in obs.spans() {
        writeln!(transcript, "{span:?}").unwrap();
    }
    transcript.push_str(&m.trace().summary());
    transcript.push_str(&obs.snapshot());
    SoakRun {
        seed,
        profile,
        batched,
        results,
        makespan,
        fault_events: m.trace().count(EventKind::Fault),
        recovery_ns,
        secret_in_vram,
        transcript,
        metrics: m.trace().metrics().clone(),
    }
}

/// One round: connect, the matrix mix, read back C, close.
fn round(
    m: &mut Machine,
    enclave: &mut GpuEnclave,
    wl: &mut Rng,
    batched: bool,
) -> Result<Vec<u8>, HixCoreError> {
    let mut s = HixSession::connect(m, enclave)?;
    let bytes = N * N * 4;
    let a = s.malloc(m, enclave, bytes)?;
    let b = s.malloc(m, enclave, bytes)?;
    let c = s.malloc(m, enclave, bytes)?;
    let av = Payload::from_bytes(matrix(wl));
    let bv = Payload::from_bytes(matrix(wl));
    // 0 = pre-clear the output, 1 = an extra on-GPU copy, 2 = nothing.
    let extra = wl.u32() % 3;
    let args = [a.value(), b.value(), c.value(), N];
    if batched {
        let mut ids = vec![
            s.submit_load_module(m, enclave, "matrix.mul")?,
            s.submit_htod(m, enclave, a, &av)?,
            s.submit_htod(m, enclave, b, &bv)?,
        ];
        match extra {
            0 => ids.push(s.submit_memset(m, enclave, c, bytes, 0)?),
            1 => ids.push(s.submit_dtod(m, enclave, a, c, bytes)?),
            _ => {}
        }
        ids.push(s.submit_launch(m, enclave, "matrix.mul", &args)?);
        ids.push(s.submit_sync(m, enclave)?);
        s.flush(m, enclave)?;
        assert_eq!(s.pending_cmds(), 0, "flush must drain the ring");
        let want: Vec<_> = ids.into_iter().map(|id| (id, CmdStatus::Ok)).collect();
        assert_eq!(
            s.take_completions(),
            want,
            "every command completes Ok, in FIFO order"
        );
    } else {
        s.load_module(m, enclave, "matrix.mul")?;
        s.memcpy_htod(m, enclave, a, &av)?;
        s.memcpy_htod(m, enclave, b, &bv)?;
        match extra {
            0 => s.memset(m, enclave, c, bytes, 0)?,
            1 => s.memcpy_dtod(m, enclave, a, c, bytes)?,
            _ => {}
        }
        s.launch(m, enclave, "matrix.mul", &args)?;
        s.sync(m, enclave)?;
    }
    let out = s.memcpy_dtoh(m, enclave, c, bytes)?;
    s.close(m, enclave)?;
    Ok(out.bytes().to_vec())
}

fn matrix(wl: &mut Rng) -> Vec<u8> {
    (0..N * N)
        .flat_map(|_| ((wl.u32() % 64) as i32).to_le_bytes())
        .collect()
}

/// The plan-rolled mid-stream restart: ledger it as an injection, seal
/// the trust state, shut down, relaunch from the sealed blob.
fn restart(m: &mut Machine, enclave: GpuEnclave, options: &GpuEnclaveOptions) -> GpuEnclave {
    fault::record(m.trace(), m.clock(), Some("restart"), "", &[]);
    let blob = enclave.seal_trust_state(m).expect("seal trust");
    enclave.shutdown(m).expect("shutdown");
    GpuEnclave::launch(
        m,
        GpuEnclaveOptions {
            sealed_trust: Some(blob),
            ..options.clone()
        },
    )
    .expect("relaunch from sealed trust")
}

/// The per-cell contract, against the clean run of the same seed in the
/// same engine. Returns the first broken clause.
pub fn check(cell: &SoakRun, clean: &SoakRun) -> Result<(), String> {
    assert!(
        clean.profile == "none" && clean.seed == cell.seed && clean.batched == cell.batched,
        "{} must be checked against its own seed and engine's clean run",
        cell.label()
    );
    let broken = |clause: String| Err(format!("{}: {clause}", cell.label()));
    if cell.results != clean.results {
        return broken("GPU results differ from the fault-free run".into());
    }
    if cell.fault_events != cell.faults() {
        return broken(format!(
            "{} Fault events for {} injected + {} detected",
            cell.fault_events,
            cell.counter("fault.injected"),
            cell.counter("fault.detected")
        ));
    }
    if cell.profile == "none"
        && cell.faults() + cell.recovery_actions() + cell.watchdog_actions() != 0
    {
        return broken(format!(
            "clean run recorded {} faults, {} recovery actions, {} watchdog actions",
            cell.faults(),
            cell.recovery_actions(),
            cell.watchdog_actions()
        ));
    }
    let scrubbed = cell.counter("watchdog.resets") + cell.counter("fault.injected.restart") > 0;
    if cell.secret_in_vram == scrubbed {
        return broken(if scrubbed {
            "the victim's secret survived a secure reset or restart".into()
        } else {
            "the victim's secret vanished with no secure reset or restart".into()
        });
    }
    if cell.counter("watchdog.kills") + cell.counter("watchdog.resets") > 0
        && cell.recovery_ns.is_empty()
    {
        return broken("kills or resets happened but no recovery span".into());
    }
    Ok(())
}

/// The rerun clause: a same-seed rerun reproduces the transcript (every
/// span, the summary and the snapshot). The error names the moved
/// lines, first diverging line first.
pub fn check_rerun(a: &SoakRun, b: &SoakRun) -> Result<(), String> {
    crate::diff_lines(&a.transcript, &b.transcript)
        .map_err(|d| format!("{}: same-seed rerun diverged: {d}", a.label()))
}

/// The sweep-level clauses over a set of cells: in each engine, every
/// faulted profile fires and the gpu profiles inject device faults on
/// some seed; on a clean wire the two engines return the same results
/// while batching takes fewer channel wakes and serves at least one
/// frame. Clauses without cells to judge hold trivially.
pub fn check_sweep(cells: &[SoakRun]) -> Result<(), String> {
    for (profile, cfg) in profiles() {
        for batched in [false, true] {
            let runs: Vec<&SoakRun> = cells
                .iter()
                .filter(|c| c.profile == profile && c.batched == batched)
                .collect();
            let Some(first) = runs.first() else { continue };
            if cfg.is_some() && runs.iter().all(|c| c.faults() == 0) {
                return Err(format!(
                    "{profile}/{}: the plan fired on no seed",
                    first.engine()
                ));
            }
            if profile.starts_with("gpu-") && runs.iter().all(|c| c.device_faults() == 0) {
                return Err(format!(
                    "{profile}/{}: no device fault injected",
                    first.engine()
                ));
            }
        }
    }
    for sync in cells.iter().filter(|c| c.profile == "none" && !c.batched) {
        let Some(batched) = cells
            .iter()
            .find(|c| c.profile == "none" && c.batched && c.seed == sync.seed)
        else {
            continue;
        };
        let (sync_wakes, batched_wakes) =
            (sync.counter("cmdq.wakes"), batched.counter("cmdq.wakes"));
        if batched.results != sync.results {
            return Err(format!(
                "{:#x}: the engines' clean results differ",
                sync.seed
            ));
        }
        if batched_wakes >= sync_wakes || batched.counter("cmdq.frames") == 0 {
            return Err(format!(
                "{:#x}: batching took {batched_wakes} wakes (sync {sync_wakes}) over {} frames",
                sync.seed,
                batched.counter("cmdq.frames")
            ));
        }
    }
    Ok(())
}
