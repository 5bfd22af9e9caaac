//! Multi-user execution model (§4.5, Figures 8 and 9) — scaled.
//!
//! The paper runs the same benchmark from several user processes at once:
//!
//! * **Gdev (pre-Volta MPS)**: all users' kernels are merged into a
//!   *single* GPU context with multiple streams — no context switches
//!   between users (and no isolation, which is the point HIX fixes).
//! * **HIX**: one GPU context per user enclave; the GPU switches context
//!   whenever consecutive work belongs to different users, and every
//!   transfer adds in-GPU crypto kernels.
//!
//! The model is an event-driven two-resource scheduler: per-user host
//! timelines (CPUs are plentiful — Table 3's i7 has 8 threads) and one
//! serialized GPU timeline. It uses the same [`CostModel`] as the
//! machine-level simulation; the machine itself is not driven here
//! because overlapping users require parallel timelines (see DESIGN.md).
//!
//! Beyond the figure harness, [`run_scaled`] is the 10,000-tenant
//! engine (ROADMAP item 1): an `O(log n)`-per-decision weighted-fair
//! scheduler ([`crate::sched::FairQueue`]) over arena-backed session
//! slots, admission control with a bounded resident set, and LRU
//! parking of idle sessions into sealed state (costed by
//! [`CostModel::park_seal`]/[`CostModel::park_unseal`], matching the
//! enclave's `park_session`/`unpark_session` path) with transparent
//! unseal-on-resume. Per-tenant QoS — service, wait, parks — flows into
//! a [`hix_obs::Metrics`] registry when one is supplied. It is the only
//! entry point: Figures 8/9 run it with equal weights, the model's
//! quantum and an unbounded resident set ([`SchedulerConfig::new`]),
//! so the figures and the scale sweep share one scheduler.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use hix_obs::{Counter, Metrics, LATENCY_BOUNDS_NS};
use hix_sim::cost::ExecMode;
use hix_sim::{splitmix64, CostModel, Nanos};

use crate::sched::FairQueue;

/// A user task, summarized by its transfer/compute profile (the figure
/// harness fills these from the Rodinia workload descriptors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Task name (diagnostics).
    pub name: String,
    /// Host-to-device bytes.
    pub htod: u64,
    /// Device-to-host bytes.
    pub dtoh: u64,
    /// Pure GPU compute time of all kernels.
    pub kernel_time: Nanos,
    /// Number of kernel launches.
    pub launches: u64,
}

/// One scheduled segment.
#[derive(Debug, Clone, Copy)]
enum Segment {
    /// Runs on the user's own CPU (enclave crypto, init).
    Host(Nanos),
    /// Runs on the GPU, in the given context.
    Gpu(Nanos, u32),
}

fn gdev_segments(model: &CostModel, spec: &TaskSpec, _user: u32) -> Vec<Segment> {
    // Pre-Volta MPS: every user shares context 0.
    vec![
        Segment::Host(model.task_init(ExecMode::Gdev)),
        Segment::Host(model.host_memcpy(spec.htod)),
        Segment::Gpu(model.pcie_transfer(spec.htod), 0),
        Segment::Gpu(
            model.kernel_launch * spec.launches.max(1) + spec.kernel_time,
            0,
        ),
        Segment::Gpu(model.pcie_transfer(spec.dtoh), 0),
        Segment::Host(model.host_memcpy(spec.dtoh)),
    ]
}

fn hix_segments(model: &CostModel, spec: &TaskSpec, user: u32) -> Vec<Segment> {
    let chunks_dtoh = spec.dtoh.div_ceil(model.pipeline_chunk).max(1);
    vec![
        Segment::Host(model.task_init(ExecMode::Hix) + model.ipc_roundtrip * 4),
        // Pipelined encrypt+DMA: the sealed chunks arrive at crypto pace,
        // so the DMA engine (a GPU-side resource) is occupied for the
        // whole crypto-bound duration — unlike Gdev's plain DMA. This is
        // the §5.4 "underutilization" effect under concurrency.
        Segment::Gpu(model.hix_htod(spec.htod), user),
        // Application kernels (each launch adds an IPC hop under HIX).
        Segment::Gpu(
            (model.kernel_launch + model.ipc_roundtrip) * spec.launches.max(1) + spec.kernel_time,
            user,
        ),
        // DtoH: per-chunk encrypt kernels, then the crypto-paced DMA out.
        Segment::Gpu(
            model.kernel_launch * chunks_dtoh + model.hix_dtoh(spec.dtoh),
            user,
        ),
    ]
}

/// Slices a GPU segment into engine quanta, never emitting a
/// zero-length slice: a zero-duration segment (a zero-byte transfer's
/// `pcie_transfer(0)`) contributes nothing, and a duration that is an
/// exact multiple of the quantum yields exactly `d / quantum` slices —
/// no degenerate trailing sliver that would occupy a scheduling turn
/// and charge context switches for zero work.
fn push_gpu_sliced(out: &mut Vec<Segment>, mut d: Nanos, ctx: u32, quantum: Nanos) {
    while d > quantum {
        out.push(Segment::Gpu(quantum, ctx));
        d = d.saturating_sub(quantum);
    }
    if d > Nanos::ZERO {
        out.push(Segment::Gpu(d, ctx));
    }
}

/// Which software stack the users run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Unprotected Gdev with MPS-style context merging.
    Gdev,
    /// HIX with per-user contexts and encrypted transfers.
    Hix,
}

/// Per-session fault burden: what the recovery machinery cost this
/// user, expressed in the same summary terms as [`TaskSpec`].
/// Degradation is strictly per-session: one user's recovery stalls (or
/// death) must never inflate another user's completion beyond ordinary
/// GPU queueing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionFaults {
    /// Extra host-side time this session lost to channel recovery
    /// (retransmission backoff, re-key round trips).
    pub recovery: Nanos,
    /// If set, the session aborts after this much of its GPU work (an
    /// integrity failure killed it): remaining GPU segments are dropped
    /// and the user's completion reflects only the work done.
    pub abort_after: Option<Nanos>,
    /// Non-wedged engine hangs this session causes. Each blocks the
    /// engine for the watchdog's patience window (every peer queues
    /// behind it), then the per-context kill frees the engine and the
    /// offender rebuilds host-side before resubmitting.
    pub tdr_kills: u32,
    /// Wedged hangs this session causes, each forcing a full secure TDR
    /// reset: the engine is blocked for patience plus the kill-grace
    /// re-polls plus the reset penalty (scrub, BIOS re-measurement,
    /// lockdown re-assertion). At [`EVICT_AFTER`] resets the session is
    /// permanently evicted and its remaining work dropped, which is what
    /// bounds the lifetime cost an offender can impose on peers.
    pub tdr_resets: u32,
}

/// Repeat-offender policy: a session that forces this many full secure
/// resets is permanently evicted (mirrors `GpuEnclaveOptions::evict_after`).
pub const EVICT_AFTER: u32 = 3;

/// One tenant of the scaled scheduler: a task, a fair-share weight, and
/// a fault burden.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// The tenant's workload.
    pub task: TaskSpec,
    /// Fair-share weight: a weight-2 tenant receives twice the GPU
    /// service rate of a weight-1 peer while both are backlogged.
    pub weight: u32,
    /// Fault burden (see [`SessionFaults`]).
    pub faults: SessionFaults,
}

impl SessionSpec {
    /// A weight-1, fault-free session around `task`.
    pub fn new(task: TaskSpec) -> Self {
        SessionSpec {
            task,
            weight: 1,
            faults: SessionFaults::default(),
        }
    }
}

/// Scheduler knobs for [`run_scaled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Engine time-slice: concurrent clients interleave at this quantum,
    /// which is what turns per-user contexts into context-switch traffic
    /// (Figures 8/9 use 5 ms).
    pub quantum: Nanos,
    /// Admission bound: at most this many sessions hold live GPU-enclave
    /// state (context + staging) at once. When a newcomer needs a slot,
    /// the least-recently-served resident is parked into sealed state
    /// (costing [`CostModel::park_seal`]) and transparently unsealed on
    /// its next turn ([`CostModel::park_unseal`]).
    pub max_resident: usize,
}

impl SchedulerConfig {
    /// The model's defaults: its `sched_quantum` and an unbounded
    /// resident set (no parking).
    pub fn new(model: &CostModel) -> Self {
        SchedulerConfig {
            quantum: model.sched_quantum,
            max_resident: usize::MAX,
        }
    }
}

/// Result of a [`run_scaled`] run: makespan, completions, context
/// switches and evictions, plus per-tenant QoS and parking telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleOutcome {
    /// Wall-clock makespan (last tenant's completion).
    pub makespan: Nanos,
    /// Per-tenant completion times.
    pub completions: Vec<Nanos>,
    /// Number of GPU context switches incurred.
    pub ctx_switches: u64,
    /// Per-tenant eviction flags (repeat-offender cap).
    pub evicted: Vec<bool>,
    /// Per-tenant GPU service actually delivered (slice durations; the
    /// engine-blocked windows a hang steals are charged to the hanging
    /// tenant here, which is what makes its fair share absorb them).
    pub service: Vec<Nanos>,
    /// Per-tenant cumulative queueing delay: time between a submission
    /// becoming ready and the engine starting it (includes context
    /// switches and park/unseal overheads the tenant had to wait out).
    pub gpu_wait: Vec<Nanos>,
    /// Sessions sealed into parking by the admission bound.
    pub parks: u64,
    /// Sealed sessions transparently unsealed on resume.
    pub unparks: u64,
    /// High-water mark of simultaneously resident sessions.
    pub peak_resident: usize,
}

/// Per-session slot in the scheduler arena. Dense, index-addressed —
/// the engine never scans sessions; every decision is the fair queue's
/// `O(log n)` pick plus `O(log n)` LRU maintenance.
struct Slot {
    segments: Vec<Segment>,
    next: usize,
    time: Nanos,
    evicted: bool,
    /// Holds live enclave state (context + staging) right now.
    resident: bool,
    /// Was sealed out of the resident set; pays the unseal on resume.
    parked: bool,
    /// Key into the LRU map while resident.
    lru: u64,
    service: Nanos,
    wait: Nanos,
}

/// Builds one session's segment list: mode segments, recovery stalls,
/// quantum slicing (never a zero-length slice), abort truncation, and
/// watchdog-offense insertion. Returns the segments and whether the
/// session ends evicted.
fn build_segments(
    model: &CostModel,
    spec: &TaskSpec,
    f: &SessionFaults,
    user: u32,
    mode: Mode,
    quantum: Nanos,
) -> (Vec<Segment>, bool) {
    let mut raw = match mode {
        Mode::Gdev => gdev_segments(model, spec, user),
        Mode::Hix => hix_segments(model, spec, user),
    };
    if f.recovery > Nanos::ZERO {
        // Recovery is host-side work (the user spinning on its
        // channel): it delays this user's GPU submissions but
        // holds no GPU resource.
        raw.insert(1, Segment::Host(f.recovery));
    }
    let mut segments = Vec::new();
    let mut gpu_done = Nanos::ZERO;
    let mut dead = false;
    for seg in raw {
        if dead {
            break;
        }
        match seg {
            Segment::Host(_) => segments.push(seg),
            Segment::Gpu(d, ctx) => {
                let before = segments.len();
                push_gpu_sliced(&mut segments, d, ctx, quantum);
                for slice in before..segments.len() {
                    let Segment::Gpu(s, _) = segments[slice] else {
                        unreachable!("push_gpu_sliced emits GPU slices only")
                    };
                    gpu_done += s;
                    if f.abort_after.is_some_and(|limit| gpu_done > limit) {
                        segments.truncate(slice + 1);
                        dead = true;
                        break;
                    }
                }
            }
        }
    }
    // Watchdog offenses. Each hang blocks the engine in the
    // offender's context — peers queue behind the blocked window
    // exactly as they queue behind legitimate work — and then
    // parks the offender host-side for a session rebuild before
    // it may resubmit (the quarantine). Offenses are spread
    // evenly through the session's GPU work. The peers' own
    // re-establishment after a full reset overlaps the blocked
    // window (they rebuild host-side while the engine scrubs),
    // so the engine blockage is the whole peer-visible price.
    let kill_block = model.tdr_patience();
    let reset_block = model.tdr_patience() + model.tdr_kill_grace() * 3 + model.tdr_reset_penalty();
    let rebuild = model.task_init(ExecMode::Hix) + model.ipc_roundtrip * 4;
    let resets = f.tdr_resets.min(EVICT_AFTER);
    let evicted = f.tdr_resets >= EVICT_AFTER;
    let gpu_positions: Vec<usize> = segments
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, Segment::Gpu(..)))
        .map(|(i, _)| i)
        .collect();
    let n_gpu = gpu_positions.len();
    let total = (f.tdr_kills + resets) as usize;
    if n_gpu > 0 && total > 0 {
        let mut events = Vec::new();
        events.extend((0..f.tdr_kills).map(|_| kill_block));
        events.extend((0..resets).map(|_| reset_block));
        if evicted {
            // The capping reset is this session's last act: the
            // watchdog evicts it, so nothing after that point —
            // not even the rebuild — ever runs.
            let last = gpu_positions[(total * n_gpu / (total + 1)).min(n_gpu - 1)];
            segments.truncate(last + 1);
        }
        // Insert back-to-front so earlier slots stay valid.
        for (k, block) in events.iter().enumerate().rev() {
            let slot = gpu_positions[((k + 1) * n_gpu / (total + 1)).min(n_gpu - 1)];
            if k + 1 == total && evicted {
                segments.push(Segment::Gpu(*block, user));
                continue;
            }
            segments.insert(slot + 1, Segment::Host(rebuild));
            segments.insert(slot + 1, Segment::Gpu(*block, user));
        }
    }
    (segments, evicted)
}

/// Runs a population of tenant sessions through the weighted-fair
/// scheduler and returns per-tenant QoS (see module docs).
///
/// When `obs` is supplied, aggregate counters (`sched.slices`,
/// `sched.parks`, `sched.unparks`, `sched.ctx_switches`,
/// `sched.evictions`, `sched.service_ns`), the `sched.wait_ns`
/// histogram, and the `sched.peak_resident` gauge are recorded. The
/// first [`PER_SESSION_METRICS_MAX`] sessions also get individual
/// service and wait counters (`sched.s<i>.service_ns`/`.wait_ns`);
/// sessions past that gate aggregate into `sched.overflow.sessions`/
/// `.service_ns`/`.wait_ns` — bounded cardinality (a 10k sweep must
/// not mint 10k counter names) without losing any totals.
pub fn run_scaled(
    model: &CostModel,
    sessions: &[SessionSpec],
    mode: Mode,
    config: &SchedulerConfig,
    obs: Option<&Metrics>,
) -> ScaleOutcome {
    assert!(config.max_resident >= 1, "at least one session must fit");
    assert!(
        config.quantum > Nanos::ZERO,
        "a zero quantum never advances"
    );

    let mut queue = FairQueue::new();
    let mut slots: Vec<Slot> = sessions
        .iter()
        .enumerate()
        .map(|(u, sess)| {
            let id = queue.insert(sess.weight);
            debug_assert_eq!(id, u, "slot ids are insertion-ordered");
            let (segments, evicted) = build_segments(
                model,
                &sess.task,
                &sess.faults,
                u as u32,
                mode,
                config.quantum,
            );
            Slot {
                segments,
                next: 0,
                time: Nanos::ZERO,
                evicted,
                resident: false,
                parked: false,
                lru: 0,
                service: Nanos::ZERO,
                wait: Nanos::ZERO,
            }
        })
        .collect();

    // Arrival heap for sessions whose next submission lies beyond the
    // engine's current horizon; the fair queue holds only sessions with
    // work ready *now*, which is what makes the activation clamp and
    // the LRU meaningful.
    let mut future: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (i, st) in slots.iter_mut().enumerate() {
        while let Some(Segment::Host(d)) = st.segments.get(st.next).copied() {
            st.time += d;
            st.next += 1;
        }
        if st.next < st.segments.len() {
            future.push(Reverse((st.time.as_nanos(), i)));
        }
    }

    // Resident set: LRU keyed by a monotone use sequence.
    let mut lru: BTreeMap<u64, usize> = BTreeMap::new();
    let mut use_seq = 0u64;
    let mut resident_count = 0usize;
    let mut peak_resident = 0usize;
    let mut parks = 0u64;
    let mut unparks = 0u64;

    let mut gpu_free = Nanos::ZERO;
    let mut gpu_ctx: Option<u32> = None;
    let mut ctx_switches = 0u64;
    let mut slices = 0u64;

    loop {
        // Everything that has arrived by the engine's horizon becomes
        // eligible for fair service.
        while let Some(&Reverse((t, i))) = future.peek() {
            if Nanos::from_nanos(t) <= gpu_free {
                future.pop();
                queue.activate(i);
            } else {
                break;
            }
        }
        let picked = if queue.active_len() > 0 {
            queue.pick()
        } else {
            // Idle engine: jump to the next arrival (work-conserving).
            let Some(Reverse((t, i))) = future.pop() else {
                break;
            };
            gpu_free = gpu_free.max(Nanos::from_nanos(t));
            queue.activate(i);
            continue;
        };
        let Some(i) = picked else { break };

        // Admission control: the picked session must be resident before
        // it can touch the engine; making room parks the coldest peer.
        if !slots[i].resident {
            if resident_count == config.max_resident {
                let (_, victim) = lru.pop_first().expect("bound hit implies residents");
                slots[victim].resident = false;
                slots[victim].parked = true;
                resident_count -= 1;
                parks += 1;
                // The enclave seals the victim's session record before
                // the newcomer's work may start; the engine wears it.
                gpu_free += model.park_seal();
                if let Some(m) = obs {
                    m.inc(Counter::SchedParks);
                }
            }
            if slots[i].parked {
                slots[i].parked = false;
                unparks += 1;
                gpu_free += model.park_unseal();
                if let Some(m) = obs {
                    m.inc(Counter::SchedUnparks);
                }
            }
            slots[i].resident = true;
            resident_count += 1;
            peak_resident = peak_resident.max(resident_count);
        }
        use_seq += 1;
        lru.remove(&slots[i].lru);
        slots[i].lru = use_seq;
        lru.insert(use_seq, i);

        let st = &mut slots[i];
        let Segment::Gpu(d, ctx) = st.segments[st.next] else {
            unreachable!("host segments were drained")
        };
        let mut start = st.time.max(gpu_free);
        if gpu_ctx.is_some() && gpu_ctx != Some(ctx) {
            start += model.ctx_switch;
            ctx_switches += 1;
        }
        gpu_ctx = Some(ctx);
        let slice_wait = start.saturating_sub(st.time);
        st.wait += slice_wait;
        st.service += d;
        let end = start + d;
        gpu_free = end;
        st.time = end;
        st.next += 1;
        slices += 1;
        queue.charge(i, d);
        if let Some(m) = obs {
            m.observe_with("sched.wait_ns", &LATENCY_BOUNDS_NS, slice_wait.as_nanos());
        }

        // Drain follow-on host work; then either resubmit or retire.
        while let Some(Segment::Host(h)) = st.segments.get(st.next).copied() {
            st.time += h;
            st.next += 1;
        }
        if st.next < st.segments.len() {
            if st.time <= gpu_free {
                queue.activate(i);
            } else {
                future.push(Reverse((st.time.as_nanos(), i)));
            }
        } else {
            // Session complete: its context and staging are released, so
            // it frees its residency without a park.
            lru.remove(&st.lru);
            st.resident = false;
            resident_count -= 1;
        }
    }

    let completions: Vec<Nanos> = slots.iter().map(|s| s.time).collect();
    let outcome = ScaleOutcome {
        makespan: completions.iter().copied().fold(Nanos::ZERO, Nanos::max),
        completions,
        ctx_switches,
        evicted: slots.iter().map(|s| s.evicted).collect(),
        service: slots.iter().map(|s| s.service).collect(),
        gpu_wait: slots.iter().map(|s| s.wait).collect(),
        parks,
        unparks,
        peak_resident,
    };
    if let Some(m) = obs {
        m.add(Counter::SchedSlices, slices);
        m.add(Counter::SchedCtxSwitches, ctx_switches);
        m.add(
            Counter::SchedEvictions,
            outcome.evicted.iter().filter(|e| **e).count() as u64,
        );
        m.add(
            Counter::SchedServiceNs,
            outcome.service.iter().map(|s| s.as_nanos()).sum(),
        );
        m.set_gauge("sched.peak_resident", peak_resident as u64);
        // Cardinality gate: the first PER_SESSION_METRICS_MAX sessions
        // keep individual counters; everyone past the gate aggregates
        // into one `sched.overflow.*` bucket (with a population count),
        // so a 10k sweep mints a bounded name set while
        // Σ sched.s<i>.* + sched.overflow.* == sched.service_ns and the
        // matching wait total — nothing is dropped, only coarsened.
        let mut overflow_sessions = 0u64;
        let mut overflow_service = 0u64;
        let mut overflow_wait = 0u64;
        for (i, (sv, w)) in outcome.service.iter().zip(&outcome.gpu_wait).enumerate() {
            if i < PER_SESSION_METRICS_MAX {
                m.add_named(&format!("sched.s{i}.service_ns"), sv.as_nanos());
                m.add_named(&format!("sched.s{i}.wait_ns"), w.as_nanos());
            } else {
                overflow_sessions += 1;
                overflow_service += sv.as_nanos();
                overflow_wait += w.as_nanos();
            }
        }
        if overflow_sessions > 0 {
            m.add(Counter::SchedOverflowSessions, overflow_sessions);
            m.add(Counter::SchedOverflowServiceNs, overflow_service);
            m.add(Counter::SchedOverflowWaitNs, overflow_wait);
        }
    }
    outcome
}

/// Cardinality bound for per-session metric names (see [`run_scaled`]).
pub const PER_SESSION_METRICS_MAX: usize = 64;

/// Deterministic fault-burden profiles for the scale sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// Every session healthy.
    None,
    /// Sparse channel-recovery stalls and the odd per-context kill.
    Light,
    /// Frequent recovery stalls, kills, wedged resets, aborts, and a
    /// sprinkling of repeat offenders that hit the eviction cap.
    Heavy,
}

impl FaultProfile {
    /// The spelling in tables and ledgers.
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::None => "none",
            FaultProfile::Light => "light",
            FaultProfile::Heavy => "heavy",
        }
    }
}

/// Generates one deterministic fault burden per session from `seed` —
/// the population model of the scale sweep and of hixbench's
/// multiuser-model workload. Same seed, same population.
pub fn seeded_session_faults(seed: u64, users: usize, profile: FaultProfile) -> Vec<SessionFaults> {
    let mut state = seed ^ 0xA5A5_5A5A_D00D_FEED;
    (0..users)
        .map(|_| {
            let roll = splitmix64(&mut state) % 1000;
            let magnitude = splitmix64(&mut state);
            let mut f = SessionFaults::default();
            match profile {
                FaultProfile::None => {}
                FaultProfile::Light => {
                    // ~3% recovery stalls (1–5 ms), ~1% single kills.
                    if roll < 30 {
                        f.recovery = Nanos::from_micros(1_000 + magnitude % 4_000);
                    } else if roll < 40 {
                        f.tdr_kills = 1;
                    }
                }
                FaultProfile::Heavy => {
                    // ~15% recovery stalls (1–20 ms), ~5% kills (1–2),
                    // ~2% sub-cap resets, ~0.3% repeat offenders who hit
                    // the eviction cap, ~1% integrity aborts.
                    if roll < 150 {
                        f.recovery = Nanos::from_micros(1_000 + magnitude % 19_000);
                    } else if roll < 200 {
                        f.tdr_kills = 1 + (magnitude % 2) as u32;
                    } else if roll < 220 {
                        f.tdr_resets = 1 + (magnitude % 2) as u32;
                    } else if roll < 223 {
                        f.tdr_resets = EVICT_AFTER;
                    } else if roll < 233 {
                        f.abort_after = Some(Nanos::from_micros(500 + magnitude % 10_000));
                    }
                }
            }
            f
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure configuration: equal weights, the model's quantum,
    /// an unbounded resident set, one fault burden per tenant.
    fn run_faulted(
        model: &CostModel,
        specs: &[TaskSpec],
        mode: Mode,
        faults: &[SessionFaults],
    ) -> ScaleOutcome {
        let sessions: Vec<SessionSpec> = specs
            .iter()
            .zip(faults)
            .map(|(task, &faults)| SessionSpec {
                task: task.clone(),
                weight: 1,
                faults,
            })
            .collect();
        run_scaled(model, &sessions, mode, &SchedulerConfig::new(model), None)
    }

    fn run(model: &CostModel, specs: &[TaskSpec], mode: Mode) -> ScaleOutcome {
        run_faulted(
            model,
            specs,
            mode,
            &vec![SessionFaults::default(); specs.len()],
        )
    }

    fn spec() -> TaskSpec {
        TaskSpec {
            name: "bp-like".into(),
            htod: 117 << 20,
            dtoh: 42 << 20,
            kernel_time: Nanos::from_millis(22),
            launches: 2,
        }
    }

    #[test]
    fn hix_single_user_slower_than_gdev() {
        let model = CostModel::paper();
        let g = run(&model, &[spec()], Mode::Gdev);
        let h = run(&model, &[spec()], Mode::Hix);
        assert!(h.makespan > g.makespan);
    }

    #[test]
    fn more_users_take_longer_but_sublinearly() {
        let model = CostModel::paper();
        let one = run(&model, &[spec()], Mode::Gdev).makespan;
        let two = run(&model, &vec![spec(); 2], Mode::Gdev).makespan;
        let four = run(&model, &vec![spec(); 4], Mode::Gdev).makespan;
        assert!(two > one);
        assert!(four > two);
        // Host overlap keeps scaling sublinear in GPU-light workloads.
        assert!(four < one * 8);
    }

    #[test]
    fn gdev_mps_has_no_cross_user_ctx_switches() {
        let model = CostModel::paper();
        let g = run(&model, &vec![spec(); 4], Mode::Gdev);
        assert_eq!(g.ctx_switches, 0, "MPS merges users into one context");
        let h = run(&model, &vec![spec(); 4], Mode::Hix);
        assert!(h.ctx_switches > 0, "HIX isolates users in contexts");
    }

    #[test]
    fn mixed_workloads_complete() {
        let model = CostModel::paper();
        let mut big = spec();
        big.kernel_time = Nanos::from_millis(200);
        let out = run(&model, &[spec(), big], Mode::Hix);
        assert_eq!(out.completions.len(), 2);
        assert!(out.completions[0] <= out.makespan);
    }

    #[test]
    fn poisoned_session_never_stalls_peers() {
        let model = CostModel::paper();
        let specs = vec![spec(); 3];
        // User 0 spends 10 s in channel recovery before submitting any
        // GPU work — by then the healthy users are long gone, so their
        // completions must match a run where user 0 doesn't exist.
        let mut faults = vec![SessionFaults::default(); 3];
        faults[0].recovery = Nanos::from_millis(10_000);
        let degraded = run_faulted(&model, &specs, Mode::Hix, &faults);
        let healthy_only = run(&model, &specs[..2], Mode::Hix);
        assert_eq!(
            &degraded.completions[1..],
            &healthy_only.completions[..],
            "a recovering session must not inflate healthy sessions"
        );
        assert!(degraded.completions[0] > healthy_only.makespan);
    }

    #[test]
    fn aborted_session_drops_its_remaining_gpu_work() {
        let model = CostModel::paper();
        let specs = vec![spec(); 2];
        let mut faults = vec![SessionFaults::default(); 2];
        faults[1].abort_after = Some(Nanos::from_millis(1));
        let degraded = run_faulted(&model, &specs, Mode::Hix, &faults);
        let plain = run(&model, &specs, Mode::Hix);
        assert!(
            degraded.completions[1] < plain.completions[1],
            "an aborted session finishes (dies) earlier than a healthy one"
        );
        assert!(
            degraded.completions[0] <= plain.completions[0],
            "the survivor can only benefit from the freed GPU"
        );
    }

    #[test]
    fn tdr_peer_cost_is_bounded_per_offense() {
        let model = CostModel::paper();
        let specs = vec![spec(); 3];
        let plain = run(&model, &specs, Mode::Hix);
        let mut faults = vec![SessionFaults::default(); 3];
        faults[0].tdr_resets = 2;
        let degraded = run_faulted(&model, &specs, Mode::Hix, &faults);
        // Each offense can cost a peer at most the engine-blocked window
        // plus the context switches around it.
        let per_offense = model.tdr_patience()
            + model.tdr_kill_grace() * 3
            + model.tdr_reset_penalty()
            + model.ctx_switch * 2;
        for user in 1..3 {
            assert!(
                degraded.completions[user] <= plain.completions[user] + per_offense * 2,
                "peer {user} paid more than the quarantine bound"
            );
        }
        assert_eq!(degraded.evicted, vec![false; 3], "2 resets < EVICT_AFTER");
    }

    #[test]
    fn repeat_offender_eviction_caps_peer_cost() {
        let model = CostModel::paper();
        let specs = vec![spec(); 3];
        // However many wedges the offender would cause, peers never pay
        // for more than EVICT_AFTER of them: the offender is gone after
        // the capping reset.
        let mut capped = vec![SessionFaults::default(); 3];
        capped[0].tdr_resets = EVICT_AFTER;
        let mut unbounded = vec![SessionFaults::default(); 3];
        unbounded[0].tdr_resets = 1000;
        let at_cap = run_faulted(&model, &specs, Mode::Hix, &capped);
        let beyond = run_faulted(&model, &specs, Mode::Hix, &unbounded);
        assert!(at_cap.evicted[0] && beyond.evicted[0]);
        assert_eq!(
            &at_cap.completions[1..],
            &beyond.completions[1..],
            "peer cost must be independent of offenses beyond the cap"
        );
        // The evicted session dies early: its remaining work is dropped.
        let plain = run(&model, &specs, Mode::Hix);
        assert_eq!(plain.evicted, vec![false; 3]);
        assert!(beyond.completions[0] < plain.completions[0]);
    }

    #[test]
    fn kills_are_cheaper_than_resets_for_peers() {
        let model = CostModel::paper();
        let specs = vec![spec(); 2];
        let mut kills = vec![SessionFaults::default(); 2];
        kills[0].tdr_kills = 2;
        let mut resets = vec![SessionFaults::default(); 2];
        resets[0].tdr_resets = 2;
        let k = run_faulted(&model, &specs, Mode::Hix, &kills);
        let r = run_faulted(&model, &specs, Mode::Hix, &resets);
        assert!(
            k.completions[1] <= r.completions[1],
            "a per-context kill must never cost peers more than a full reset"
        );
    }

    #[test]
    fn hix_overhead_in_expected_band() {
        // The paper reports HIX ~45% worse than Gdev at 2 users and ~40%
        // at 4 users (normalized to Gdev). Accept a generous band here;
        // the figure harness prints exact values.
        let model = CostModel::paper();
        let spec = spec();
        for users in [2, 4] {
            let g = run(&model, &vec![spec.clone(); users], Mode::Gdev).makespan;
            let h = run(&model, &vec![spec.clone(); users], Mode::Hix).makespan;
            let overhead = h.as_nanos() as f64 / g.as_nanos() as f64 - 1.0;
            assert!(
                overhead > 0.10 && overhead < 2.0,
                "{users} users: overhead {overhead}"
            );
        }
    }

    // ---- quantum slicing (the degenerate-slice fix) ----

    fn slice_durations(d: Nanos, quantum: Nanos) -> Vec<Nanos> {
        let mut out = Vec::new();
        push_gpu_sliced(&mut out, d, 7, quantum);
        out.iter()
            .map(|s| match s {
                Segment::Gpu(n, 7) => *n,
                other => panic!("unexpected segment {other:?}"),
            })
            .collect()
    }

    #[test]
    fn slicing_never_emits_zero_length_slices() {
        let q = Nanos::from_millis(5);
        // A segment exactly equal to the quantum is one slice, not a
        // slice plus a zero-length sliver.
        assert_eq!(slice_durations(q, q), vec![q]);
        // Exact multiples slice evenly.
        assert_eq!(slice_durations(q * 3, q), vec![q, q, q]);
        // A zero-duration segment (zero-byte transfer) contributes
        // nothing at all.
        assert_eq!(slice_durations(Nanos::ZERO, q), Vec::<Nanos>::new());
        // Remainders survive, and every slice is positive and ≤ quantum.
        let slices = slice_durations(q * 2 + Nanos::from_micros(1), q);
        assert_eq!(slices.len(), 3);
        assert!(slices.iter().all(|s| *s > Nanos::ZERO && *s <= q));
        assert_eq!(
            slices.iter().copied().fold(Nanos::ZERO, |a, b| a + b),
            q * 2 + Nanos::from_micros(1)
        );
    }

    #[test]
    fn zero_byte_transfer_charges_no_engine_turn() {
        // Under HIX a zero-byte HtoD produces a zero-duration crypto-DMA
        // segment; it must not occupy the engine or charge a context
        // switch against peers.
        let model = CostModel::paper();
        let t = TaskSpec {
            name: "kernel-only".into(),
            htod: 0,
            dtoh: 0,
            kernel_time: Nanos::from_millis(1),
            launches: 1,
        };
        let out = run(&model, &[t.clone(), t], Mode::Hix);
        // Each user has exactly two non-empty GPU submissions (kernel,
        // DtoH encrypt-launch); perfect alternation costs three context
        // switches — a zero-length HtoD sliver would add two more.
        assert_eq!(out.ctx_switches, 3, "zero-length slivers charged switches");
    }

    // ---- the scaled engine ----

    #[test]
    fn weights_shift_completion_order() {
        let model = CostModel::paper();
        let mut sessions = vec![SessionSpec::new(spec()); 3];
        sessions[2].weight = 8;
        let out = run_scaled(
            &model,
            &sessions,
            Mode::Hix,
            &SchedulerConfig::new(&model),
            None,
        );
        // The weight-8 tenant gets 8x the service rate while backlogged,
        // so it finishes first; equal service totals, earlier finish.
        assert!(out.completions[2] < out.completions[0]);
        assert!(out.completions[2] < out.completions[1]);
        assert_eq!(out.service[2], out.service[0], "same demand, same total");
    }

    #[test]
    fn fair_queue_keeps_completion_spread_tight() {
        let model = CostModel::paper();
        let sessions = vec![SessionSpec::new(spec()); 16];
        let out = run_scaled(
            &model,
            &sessions,
            Mode::Hix,
            &SchedulerConfig::new(&model),
            None,
        );
        // Under a fair scheduler every tenant finishes within about one
        // round of the last; a FIFO run-to-completion engine would
        // spread completions ≈ 16×.
        assert!(out.evicted.iter().all(|e| !e), "all 16 tenants healthy");
        let max = out.completions.iter().max().unwrap().as_nanos() as f64;
        let min = out.completions.iter().min().unwrap().as_nanos() as f64;
        assert!(
            max / min < 1.5,
            "equal tenants must finish within one round: {}",
            max / min
        );
    }

    #[test]
    fn bounded_residency_parks_and_recovers() {
        let model = CostModel::paper();
        let sessions = vec![SessionSpec::new(spec()); 6];
        let unbounded = run_scaled(
            &model,
            &sessions,
            Mode::Hix,
            &SchedulerConfig::new(&model),
            None,
        );
        let mut cfg = SchedulerConfig::new(&model);
        cfg.max_resident = 2;
        let bounded = run_scaled(&model, &sessions, Mode::Hix, &cfg, None);
        assert_eq!(unbounded.parks, 0, "unbounded residency never parks");
        assert_eq!(unbounded.peak_resident, 6);
        assert!(bounded.parks > 0, "six tenants through two slots must park");
        assert_eq!(
            bounded.unparks, bounded.parks,
            "every parked tenant resumes (none abandoned)"
        );
        assert!(bounded.peak_resident <= 2);
        assert!(
            bounded.makespan > unbounded.makespan,
            "seal/unseal churn has a price"
        );
        // Parking must never lose work: same service totals either way.
        assert_eq!(bounded.service, unbounded.service);
    }

    #[test]
    fn scaled_metrics_record_service_and_parks() {
        let model = CostModel::paper();
        let sessions = vec![SessionSpec::new(spec()); 3];
        let mut cfg = SchedulerConfig::new(&model);
        cfg.max_resident = 2;
        let m = Metrics::new();
        let out = run_scaled(&model, &sessions, Mode::Hix, &cfg, Some(&m));
        assert_eq!(m.counter("sched.parks"), out.parks);
        assert_eq!(m.counter("sched.unparks"), out.unparks);
        assert_eq!(
            m.counter("sched.service_ns"),
            out.service.iter().map(|s| s.as_nanos()).sum::<u64>()
        );
        assert_eq!(
            m.counter("sched.s0.service_ns"),
            out.service[0].as_nanos(),
            "small populations keep per-session counters"
        );
        assert!(m.hist("sched.wait_ns").is_some());
        assert_eq!(
            m.counter("sched.overflow.sessions"),
            0,
            "no overflow bucket below the gate"
        );
    }

    #[test]
    fn per_session_metrics_overflow_into_one_bucket_past_the_gate() {
        let model = CostModel::paper();
        let users = PER_SESSION_METRICS_MAX + 7;
        let sessions = vec![SessionSpec::new(spec()); users];
        let m = Metrics::new();
        let out = run_scaled(
            &model,
            &sessions,
            Mode::Hix,
            &SchedulerConfig::new(&model),
            Some(&m),
        );
        assert_eq!(m.counter("sched.overflow.sessions"), 7);
        let named: u64 = (0..PER_SESSION_METRICS_MAX)
            .map(|i| m.counter(&format!("sched.s{i}.service_ns")))
            .sum();
        assert_eq!(
            named + m.counter("sched.overflow.service_ns"),
            m.counter("sched.service_ns"),
            "named + overflow must tile the aggregate service total"
        );
        assert_eq!(
            m.counter("sched.overflow.service_ns"),
            out.service[PER_SESSION_METRICS_MAX..]
                .iter()
                .map(|s| s.as_nanos())
                .sum::<u64>()
        );
        assert_eq!(
            m.counter(&format!("sched.s{}.service_ns", PER_SESSION_METRICS_MAX)),
            0,
            "no individual counter minted past the gate"
        );
    }

    #[test]
    fn seeded_faults_are_deterministic_and_profiled() {
        let a = seeded_session_faults(42, 1000, FaultProfile::Heavy);
        let b = seeded_session_faults(42, 1000, FaultProfile::Heavy);
        assert_eq!(a, b, "same seed, same population");
        let c = seeded_session_faults(43, 1000, FaultProfile::Heavy);
        assert_ne!(a, c, "different seeds differ");
        assert!(
            seeded_session_faults(42, 1000, FaultProfile::None)
                .iter()
                .all(|f| *f == SessionFaults::default()),
            "the none profile is all-healthy"
        );
        let light = seeded_session_faults(42, 1000, FaultProfile::Light);
        let burden = |fs: &[SessionFaults]| {
            fs.iter()
                .filter(|f| **f != SessionFaults::default())
                .count()
        };
        assert!(burden(&light) > 0, "light is not none");
        assert!(burden(&a) > burden(&light), "heavy outweighs light");
        assert!(
            a.iter().any(|f| f.tdr_resets >= EVICT_AFTER),
            "heavy includes repeat offenders"
        );
    }
}
