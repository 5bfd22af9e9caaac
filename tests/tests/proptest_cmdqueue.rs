//! Property tests for the async command-queue runtime: seeded op
//! tapes drive explicit batched submission under randomized wire-fault
//! mixes (drop/dup/reorder) and randomized batch sizes, checking the
//! queue invariants the protocol promises:
//!
//! * **FIFO, exactly-once**: completions retire in submission-id order
//!   and every submitted command completes exactly once — never lost,
//!   never duplicated — no matter what the wire does.
//! * **Bounded occupancy**: the submission ring never holds more than
//!   [`HixSession::RING_CAPACITY`] commands; past that, backpressure
//!   flushes make room.
//! * **Wake accounting**: every channel wake is a frame, a retransmit,
//!   or a post-rekey resend — `cmdq.wakes` tiles exactly against
//!   `cmdq.frames` + `recovery.retries` + `recovery.rekeys`, and on a
//!   clean wire wakes equal frames.
//! * **Backoff closed form**: total retransmit backoff time is bounded
//!   by `f(n) = Σ_{i<n} min(base·2^i, cap)` for `n` total retries.
//!   Retries split across round-trips (and resets after a re-key) only
//!   shrink individual delays, so the aggregate bound holds because
//!   `f` is superadditive.
//! * **Amortization at scale**: over 1000 sessions, batching returns
//!   byte-identical results with 4× fewer wakes per op than sync.
//!
//! Runs on the in-tree `hix-testkit` harness; the seed corpus in
//! `proptest_cmdqueue.seeds` is replayed before every run.

use hix_core::runtime::shared_window_for;
use hix_core::{CmdId, CmdStatus, GpuEnclave, GpuEnclaveOptions, HixSession};
use hix_driver::rig::{standard_rig, RigOptions};
use hix_gpu::vram::DevAddr;
use hix_platform::Machine;
use hix_sim::fault::{FaultConfig, FaultPlan};
use hix_sim::Payload;
use hix_testkit::prop::{prop, Source};
use hix_testkit::Rng;
use hix_workloads::all_kernels;

const SEEDS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/proptest_cmdqueue.seeds");

fn rig() -> Machine {
    let m = standard_rig(RigOptions {
        kernels: all_kernels(),
        ..RigOptions::default()
    });
    m.trace().set_recording(true);
    m
}

/// One drawn queue operation against two pre-allocated buffers.
#[derive(Debug, Clone)]
enum QueueOp {
    Memset {
        which: bool,
        value: u8,
    },
    DtoD {
        forward: bool,
    },
    HtoD {
        which: bool,
        len: usize,
    },
    LoadModule,
    /// May complete `Err` if the module was never loaded — errors must
    /// still retire in order, exactly once.
    Launch,
    Sync,
    /// Harvest completions mid-run instead of only at the end.
    Harvest,
}

fn queue_op(s: &mut Source) -> QueueOp {
    match s.choice(7) {
        0 => QueueOp::Memset {
            which: s.bool(),
            value: s.u8(),
        },
        1 => QueueOp::DtoD { forward: s.bool() },
        2 => QueueOp::HtoD {
            which: s.bool(),
            len: s.usize_in(4..256),
        },
        3 => QueueOp::LoadModule,
        4 => QueueOp::Launch,
        5 => QueueOp::Sync,
        _ => QueueOp::Harvest,
    }
}

/// Drop/dup/reorder mix drawn from the tape — message faults only, so
/// recovery stays in the retransmit/re-key tier (no device resets).
fn wire_faults(s: &mut Source) -> FaultConfig {
    FaultConfig {
        drop_pm: s.in_range(0..60) as u32,
        dup_pm: s.in_range(0..60) as u32,
        reorder_pm: s.in_range(0..60) as u32,
        ..FaultConfig::none()
    }
}

/// Submits a drawn op, collecting its id; `Harvest` instead drains the
/// completion ring into `done`.
#[allow(clippy::too_many_arguments)]
fn apply_op(
    op: QueueOp,
    m: &mut Machine,
    enclave: &mut GpuEnclave,
    s: &mut HixSession,
    a: DevAddr,
    b: DevAddr,
    submitted: &mut Vec<CmdId>,
    done: &mut Vec<(CmdId, CmdStatus)>,
) {
    let buf = |which: bool| if which { a } else { b };
    let id = match op {
        QueueOp::Memset { which, value } => s
            .submit_memset(m, enclave, buf(which), 4096, value)
            .expect("submit memset"),
        QueueOp::DtoD { forward } => {
            let (src, dst) = if forward { (a, b) } else { (b, a) };
            s.submit_dtod(m, enclave, src, dst, 4096)
                .expect("submit dtod")
        }
        QueueOp::HtoD { which, len } => {
            let payload = Payload::from_bytes(vec![(len & 0xff) as u8; len]);
            s.submit_htod(m, enclave, buf(which), &payload)
                .expect("submit htod")
        }
        QueueOp::LoadModule => s
            .submit_load_module(m, enclave, "matrix.mul")
            .expect("submit module"),
        QueueOp::Launch => s
            .submit_launch(
                m,
                enclave,
                "matrix.mul",
                &[a.value(), b.value(), a.value(), 8],
            )
            .expect("submit launch"),
        QueueOp::Sync => s.submit_sync(m, enclave).expect("submit sync"),
        QueueOp::Harvest => {
            done.extend(s.take_completions());
            return;
        }
    };
    submitted.push(id);
}

/// FIFO order, exactly-once retirement, and bounded ring occupancy for
/// arbitrary op tapes under arbitrary drop/dup/reorder mixes. Op
/// counts exceed [`HixSession::RING_CAPACITY`] so backpressure flushes
/// are exercised, not just the explicit final drain.
#[test]
fn completions_are_fifo_exactly_once_under_wire_faults() {
    prop("completions_are_fifo_exactly_once_under_wire_faults")
        .corpus(SEEDS)
        .cases(12)
        .run(|src| {
            let cfg = wire_faults(src);
            let plan_seed = src.u64();
            let batch = 1 + src.usize_in(0..HixSession::DEFAULT_BATCH * 2);
            let ops = src.collect(1..96, queue_op);
            let mut m = rig();
            m.set_fault_plan(FaultPlan::new(plan_seed, cfg));
            let mut enclave =
                GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("launch");
            let mut s = HixSession::connect(&mut m, &mut enclave).expect("connect");
            s.set_batch_max(batch);
            let a = s.malloc(&mut m, &mut enclave, 4096).expect("malloc a");
            let b = s.malloc(&mut m, &mut enclave, 4096).expect("malloc b");
            let mut submitted = Vec::new();
            let mut done = Vec::new();
            for op in ops {
                apply_op(
                    op,
                    &mut m,
                    &mut enclave,
                    &mut s,
                    a,
                    b,
                    &mut submitted,
                    &mut done,
                );
                assert!(
                    s.pending_cmds() <= HixSession::RING_CAPACITY,
                    "ring occupancy {} exceeds capacity",
                    s.pending_cmds()
                );
            }
            s.flush(&mut m, &mut enclave).expect("flush");
            assert_eq!(s.pending_cmds(), 0, "flush must drain the ring");
            done.extend(s.take_completions());
            // Exactly-once, in submission order: the concatenation of
            // every harvest equals the submitted-id sequence.
            let retired: Vec<CmdId> = done.iter().map(|(id, _)| *id).collect();
            assert_eq!(
                retired, submitted,
                "completions lost, duplicated, or reordered"
            );
            s.close(&mut m, &mut enclave).expect("close");
        });
}

/// On a clean wire the wake ledger is exact: flushing `k` queued
/// commands rings the doorbell once per frame, frames carry between
/// `batch_max` and one command each, and `cmdq.frame_cmds` tiles the
/// submitted count.
#[test]
fn clean_wire_wakes_equal_frames() {
    prop("clean_wire_wakes_equal_frames")
        .corpus(SEEDS)
        .cases(16)
        .run(|src| {
            let batch = 1 + src.usize_in(0..HixSession::DEFAULT_BATCH * 2);
            let k = 1 + src.usize_in(0..80);
            let mut m = rig();
            let mut enclave =
                GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("launch");
            let mut s = HixSession::connect(&mut m, &mut enclave).expect("connect");
            s.set_batch_max(batch);
            let a = s.malloc(&mut m, &mut enclave, 4096).expect("malloc");
            let mx = m.trace().metrics();
            let (wakes0, frames0, cmds0) = (
                mx.counter("cmdq.wakes"),
                mx.counter("cmdq.frames"),
                mx.counter("cmdq.frame_cmds"),
            );
            for i in 0..k {
                s.submit_memset(&mut m, &mut enclave, a, 4096, (i & 0xff) as u8)
                    .expect("submit");
            }
            s.flush(&mut m, &mut enclave).expect("flush");
            let mx = m.trace().metrics();
            let wakes = mx.counter("cmdq.wakes") - wakes0;
            let frames = mx.counter("cmdq.frames") - frames0;
            let cmds = mx.counter("cmdq.frame_cmds") - cmds0;
            assert_eq!(
                cmds, k as u64,
                "every submitted command rides exactly one frame"
            );
            assert_eq!(wakes, frames, "clean wire: one doorbell ring per frame");
            assert!(
                frames >= k.div_ceil(batch) as u64,
                "frames carry at most batch_max"
            );
            assert!(frames <= k as u64, "frames carry at least one command");
        });
}

/// Under wire faults every channel wake is still accounted for:
/// `cmdq.wakes` tiles exactly against initial frame sends, retransmits,
/// and post-rekey resends — and the total backoff time spent between
/// retransmits is bounded by the `Backoff` closed form evaluated at
/// the total retry count.
#[test]
fn faulty_wire_wakes_and_backoff_are_bounded() {
    prop("faulty_wire_wakes_and_backoff_are_bounded")
        .corpus(SEEDS)
        .cases(12)
        .run(|src| {
            let cfg = FaultConfig {
                drop_pm: 40 + src.in_range(0..200) as u32,
                dup_pm: src.in_range(0..60) as u32,
                reorder_pm: src.in_range(0..60) as u32,
                ..FaultConfig::none()
            };
            let plan_seed = src.u64();
            let k = 1 + src.usize_in(0..48);
            let mut m = rig();
            m.set_fault_plan(FaultPlan::new(plan_seed, cfg));
            let mut enclave =
                GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("launch");
            let mut s = HixSession::connect(&mut m, &mut enclave).expect("connect");
            let a = s.malloc(&mut m, &mut enclave, 4096).expect("malloc");
            let mx = m.trace().metrics();
            let (wakes0, frames0, retries0, rekeys0) = (
                mx.counter("cmdq.wakes"),
                mx.counter("cmdq.frames"),
                mx.counter("recovery.retries"),
                mx.counter("recovery.rekeys"),
            );
            let backoff0 = mx.hist("recovery.backoff_ns").map(|h| h.sum()).unwrap_or(0);
            for i in 0..k {
                s.submit_memset(&mut m, &mut enclave, a, 4096, (i & 0xff) as u8)
                    .expect("submit");
            }
            s.flush(&mut m, &mut enclave).expect("flush");
            let mx = m.trace().metrics();
            let wakes = mx.counter("cmdq.wakes") - wakes0;
            let frames = mx.counter("cmdq.frames") - frames0;
            let retries = mx.counter("recovery.retries") - retries0;
            let rekeys = mx.counter("recovery.rekeys") - rekeys0;
            let backoff = mx.hist("recovery.backoff_ns").map(|h| h.sum()).unwrap_or(0) - backoff0;
            assert_eq!(
                wakes,
                frames + retries + rekeys,
                "every wake is a frame, a retransmit, or a post-rekey resend"
            );
            // Closed form: the retransmit schedule inside one
            // round-trip is min(base·2^i, cap); resets (new round-trip
            // or post-rekey) restart at base, which only shrinks
            // delays, so f(total retries) bounds the aggregate.
            let base = m.model().ipc_roundtrip.as_nanos();
            let cap = base * 64;
            let bound: u64 = (0..retries.min(64))
                .map(|i| (base << i.min(32)).min(cap))
                .sum::<u64>()
                + retries.saturating_sub(64) * cap;
            assert!(
                backoff <= bound,
                "total backoff {backoff}ns exceeds the closed-form bound {bound}ns \
                 for {retries} retries"
            );
        });
}

/// Batched submission over 1000 *real* enclave sessions (the full
/// attested stack, not the scheduler model): every session runs the
/// same 4-op mix once through the synchronous wrappers and once through
/// explicit batch-8 submission. Results must be byte-identical per
/// session, and — counter-checked via the `cmdq.wakes` ledger the
/// channel keeps — batching must cut channel wakes per op by the full
/// frame factor: the 4-op mix rides one frame, so exactly 4× fewer
/// doorbell rings than one-wake-per-op sync. Each session's shared
/// window is sized for its transfers, so a connect maps 1 MiB rather
/// than the default 64 MiB.
#[test]
fn batched_submission_reduces_wakes_per_op_at_scale() {
    const USERS: usize = 1000;
    const BYTES: u64 = 256;
    /// Per-session ops measured inside the wake window (htod, memset,
    /// dtod, sync).
    const OPS_PER_SESSION: u64 = 4;

    /// Runs the sweep in one mode; returns each session's result bytes
    /// plus the channel wakes accumulated inside the op-mix windows.
    fn sweep(batched: bool) -> (Vec<Vec<u8>>, u64) {
        let mut m = standard_rig(RigOptions::default());
        let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("launch");
        let window = shared_window_for(m.model(), BYTES);
        let mut wl = Rng::new(0x5CA1_E5CA);
        let mut results = Vec::with_capacity(USERS);
        let mut wakes = 0u64;
        for u in 0..USERS {
            let mut s = HixSession::connect_with(&mut m, &mut enclave, window, b"hix-user")
                .unwrap_or_else(|e| panic!("session {u}: connect: {e}"));
            let a = s.malloc(&mut m, &mut enclave, BYTES).expect("malloc a");
            let b = s.malloc(&mut m, &mut enclave, BYTES).expect("malloc b");
            let fill = (wl.u32() & 0xff) as u8;
            let payload: Vec<u8> = (0..BYTES).map(|_| (wl.u32() & 0xff) as u8).collect();
            let wakes0 = m.trace().metrics().counter("cmdq.wakes");
            if batched {
                s.submit_memset(&mut m, &mut enclave, b, BYTES, fill)
                    .expect("memset");
                s.submit_htod(&mut m, &mut enclave, a, &Payload::from_bytes(payload))
                    .expect("htod");
                s.submit_dtod(&mut m, &mut enclave, a, b, BYTES / 2)
                    .expect("dtod");
                s.submit_sync(&mut m, &mut enclave).expect("sync");
                s.flush(&mut m, &mut enclave).expect("flush");
                assert!(
                    s.take_completions()
                        .iter()
                        .all(|(_, st)| *st == CmdStatus::Ok),
                    "session {u}: a queued command failed"
                );
            } else {
                s.memset(&mut m, &mut enclave, b, BYTES, fill)
                    .expect("memset");
                s.memcpy_htod(&mut m, &mut enclave, a, &Payload::from_bytes(payload))
                    .expect("htod");
                s.memcpy_dtod(&mut m, &mut enclave, a, b, BYTES / 2)
                    .expect("dtod");
                s.sync(&mut m, &mut enclave).expect("sync");
            }
            wakes += m.trace().metrics().counter("cmdq.wakes") - wakes0;
            let out = s.memcpy_dtoh(&mut m, &mut enclave, b, BYTES).expect("dtoh");
            results.push(out.bytes().to_vec());
            s.close(&mut m, &mut enclave).expect("close");
        }
        (results, wakes)
    }

    let (sync_results, sync_wakes) = sweep(false);
    let (batched_results, batched_wakes) = sweep(true);
    assert_eq!(
        batched_results, sync_results,
        "batched engine changed per-session results at scale"
    );
    assert_eq!(
        sync_wakes,
        USERS as u64 * OPS_PER_SESSION,
        "sync mode must ring the doorbell once per op"
    );
    assert!(
        batched_wakes < sync_wakes,
        "batching must strictly reduce channel wakes ({batched_wakes} vs {sync_wakes})"
    );
    // The whole 4-op mix (one bulk transfer, three compute-plane ops)
    // fits a single batch-8 frame, so the per-op wake rate drops by
    // exactly the frame factor.
    assert!(
        batched_wakes * OPS_PER_SESSION <= sync_wakes,
        "batch-8 frames must amortize the doorbell 4x over this mix \
         ({batched_wakes} vs {sync_wakes})"
    );
}
