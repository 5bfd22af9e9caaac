//! One charged clock: the virtual clock moves by a duration only
//! through a charge, which records the span `[before, after]` it
//! advanced over. Outside the secure transfers' closed-form floors
//! (HtoD and DtoH), the nonzero charged spans of a run therefore tile
//! its timeline exactly: their union is `[start, end]` and no two of
//! them overlap.
//!
//! The property runs random tapes of every other `HixSession` op —
//! connect, module load, malloc, free, memset, DtoD, launch, sync,
//! flush and close — on a GPU enclave that keeps one session resident,
//! so each connect parks the resident session and the parked one's
//! next op unparks it. Each tape runs on both submission engines (the
//! synchronous wrappers, and `submit_*` rings drained by its flushes)
//! under every `hix_bench::soak` fault profile. `charged_clock.seeds` is
//! replayed before any new cases are generated.
//!
//! The park, unpark, export and adopt spans are checked on their own
//! too: each starts where the clock stood when its step began and
//! overlaps no other charged span.

use hix_bench::soak;
use hix_core::fabric::{Fabric, FabricOptions};
use hix_core::gpu_enclave::{GpuEnclave, GpuEnclaveOptions};
use hix_core::runtime::{shared_window_for, CmdStatus, HixSession};
use hix_driver::rig::{fabric_rig, standard_rig, RigOptions};
use hix_gpu::vram::DevAddr;
use hix_obs::Span;
use hix_platform::Machine;
use hix_sim::fault::FaultPlan;
use hix_testkit::prop::{prop, Source};

const SEEDS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/charged_clock.seeds");

/// Side of the `matrix.add` operands: every allocation is one page.
const N: u64 = 32;
const BUF: u64 = N * N * 4;
/// Most sessions open at once.
const MAX_OPEN: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Op {
    Connect,
    /// Closes an open session.
    Close(usize),
    /// An op on an open session.
    On(usize, Cmd),
}

#[derive(Debug, Clone, Copy)]
enum Cmd {
    Load,
    Malloc,
    /// Frees one of the session's allocations.
    Free(usize),
    Memset(usize, u8),
    DtoD(usize, usize),
    Launch(usize, usize, usize),
    Sync,
    Flush,
}

fn draw_op(s: &mut Source) -> Op {
    let session = s.index(MAX_OPEN);
    let (x, y, z) = (s.index(4), s.index(4), s.index(4));
    match s.choice(16) {
        0 | 1 => Op::Connect,
        2 => Op::Close(session),
        3 | 4 => Op::On(session, Cmd::Malloc),
        5 => Op::On(session, Cmd::Load),
        6 => Op::On(session, Cmd::Free(x)),
        7 | 8 => Op::On(session, Cmd::Memset(x, s.u8())),
        9 => Op::On(session, Cmd::DtoD(x, y)),
        10..=12 => Op::On(session, Cmd::Launch(x, y, z)),
        13 => Op::On(session, Cmd::Sync),
        _ => Op::On(session, Cmd::Flush),
    }
}

/// One open session and what the tape has made of it.
struct Open {
    session: HixSession,
    bufs: Vec<DevAddr>,
    loaded: bool,
}

/// Issues `cmd` on `open`: synchronously, or into its submission ring
/// when `batched` (malloc is a barrier either way). An op whose
/// operands do not exist yet is skipped.
fn issue(
    m: &mut Machine,
    enclave: &mut GpuEnclave,
    open: &mut Open,
    cmd: Cmd,
    batched: bool,
) -> Result<(), String> {
    let pick = |bufs: &[DevAddr], i: usize| bufs.get(i % bufs.len().max(1)).copied();
    let s = &mut open.session;
    // A launch loads its module first if the session has not.
    if matches!(cmd, Cmd::Load) || (matches!(cmd, Cmd::Launch(..)) && !open.loaded) {
        open.loaded = true;
        let done = if batched {
            s.submit_load_module(m, enclave, "matrix.add").map(drop)
        } else {
            s.load_module(m, enclave, "matrix.add")
        };
        done.map_err(|e| format!("{cmd:?}: load: {e}"))?;
    }
    let done = match cmd {
        Cmd::Load => Ok(()),
        Cmd::Malloc => s.malloc(m, enclave, BUF).map(|va| open.bufs.push(va)),
        Cmd::Free(i) => {
            if open.bufs.is_empty() {
                return Ok(());
            }
            let va = open.bufs.remove(i % open.bufs.len());
            if batched {
                s.submit_free(m, enclave, va).map(drop)
            } else {
                s.free(m, enclave, va)
            }
        }
        Cmd::Memset(i, value) => {
            let Some(va) = pick(&open.bufs, i) else {
                return Ok(());
            };
            if batched {
                s.submit_memset(m, enclave, va, BUF, value).map(drop)
            } else {
                s.memset(m, enclave, va, BUF, value)
            }
        }
        Cmd::DtoD(i, j) => {
            let (Some(src), Some(dst)) = (pick(&open.bufs, i), pick(&open.bufs, j)) else {
                return Ok(());
            };
            if src == dst {
                return Ok(());
            }
            if batched {
                s.submit_dtod(m, enclave, src, dst, BUF).map(drop)
            } else {
                s.memcpy_dtod(m, enclave, src, dst, BUF)
            }
        }
        Cmd::Launch(i, j, k) => {
            let (Some(a), Some(b), Some(c)) = (
                pick(&open.bufs, i),
                pick(&open.bufs, j),
                pick(&open.bufs, k),
            ) else {
                return Ok(());
            };
            let args = [a.value(), b.value(), c.value(), N];
            if batched {
                s.submit_launch(m, enclave, "matrix.add", &args).map(drop)
            } else {
                s.launch(m, enclave, "matrix.add", &args)
            }
        }
        Cmd::Sync => {
            if batched {
                s.submit_sync(m, enclave).map(drop)
            } else {
                s.sync(m, enclave)
            }
        }
        Cmd::Flush => s.flush(m, enclave),
    };
    done.map_err(|e| format!("{cmd:?}: {e}"))?;
    if let Some((id, status)) = s
        .take_completions()
        .into_iter()
        .find(|(_, st)| *st != CmdStatus::Ok)
    {
        return Err(format!("{cmd:?}: command {id} completed {status:?}"));
    }
    Ok(())
}

/// Runs `ops` from a fresh rig whose enclave keeps one session
/// resident, recording every span from the enclave's launch on.
/// Returns the machine, the clock when recording began, and the error
/// that ended the tape early, if one did.
fn run_tape(
    ops: &[Op],
    plan: Option<FaultPlan>,
    batched: bool,
) -> (Machine, u64, Result<(), String>) {
    let mut m = standard_rig(RigOptions {
        kernels: hix_workloads::all_kernels(),
        ..RigOptions::default()
    });
    m.trace().set_recording(true);
    let start = m.clock().now().as_nanos();
    let mut enclave = GpuEnclave::launch(
        &mut m,
        GpuEnclaveOptions {
            max_resident: 1,
            evict_after: u32::MAX,
            ..GpuEnclaveOptions::default()
        },
    )
    .expect("launch");
    if let Some(plan) = plan {
        m.set_fault_plan(plan);
    }
    let ended = drive(&mut m, &mut enclave, ops, batched);
    (m, start, ended)
}

fn drive(
    m: &mut Machine,
    enclave: &mut GpuEnclave,
    ops: &[Op],
    batched: bool,
) -> Result<(), String> {
    let window = shared_window_for(m.model(), BUF);
    let mut open: Vec<Open> = Vec::new();
    let mut connects = 0u32;
    for (at, &op) in ops.iter().enumerate() {
        let fail = |e: String| format!("op {at} ({op:?}): {e}");
        match op {
            Op::Connect if open.len() < MAX_OPEN => {
                connects += 1;
                let seed = format!("charged-clock-{connects}");
                let session = HixSession::connect_with(m, enclave, window, seed.as_bytes())
                    .map_err(|e| fail(e.to_string()))?;
                open.push(Open {
                    session,
                    bufs: Vec::new(),
                    loaded: false,
                });
            }
            Op::Close(i) if !open.is_empty() => {
                let closing = open.remove(i % open.len());
                closing
                    .session
                    .close(m, enclave)
                    .map_err(|e| fail(e.to_string()))?;
            }
            Op::On(i, cmd) if !open.is_empty() => {
                let len = open.len();
                issue(m, enclave, &mut open[i % len], cmd, batched).map_err(fail)?;
            }
            Op::Connect | Op::Close(_) | Op::On(..) => {}
        }
    }
    for closing in open {
        closing
            .session
            .close(m, enclave)
            .map_err(|e| format!("final close: {e}"))?;
    }
    Ok(())
}

/// The recorded charged spans that took time.
fn timed_charges(m: &Machine) -> Vec<Span> {
    m.trace()
        .obs()
        .spans()
        .into_iter()
        .filter(|s| s.kind.is_some() && s.dur_ns() > 0)
        .collect()
}

/// Checks that `spans` tile `[start, end]`: sorted by start, each one
/// begins exactly where the one before it ended.
fn tiles(mut spans: Vec<Span>, start: u64, end: u64) -> Result<(), String> {
    spans.sort_by_key(|s| (s.start_ns, s.end_ns));
    let mut cursor = start;
    let mut last: Option<&Span> = None;
    for span in &spans {
        if span.start_ns > cursor {
            return Err(format!(
                "[{cursor}, {}] lies in no charged span (next: {:?} {:?})",
                span.start_ns, span.kind, span.name
            ));
        }
        if span.start_ns < cursor {
            let prev = last.expect("the first span cannot start before the run");
            return Err(format!(
                "{:?} {:?} [{}, {}] overlaps {:?} {:?} [{}, {}]",
                span.kind,
                span.name,
                span.start_ns,
                span.end_ns,
                prev.kind,
                prev.name,
                prev.start_ns,
                prev.end_ns
            ));
        }
        cursor = span.end_ns;
        last = Some(span);
    }
    if cursor != end {
        return Err(format!("[{cursor}, {end}] lies in no charged span"));
    }
    Ok(())
}

#[test]
fn charged_spans_tile_the_clock_outside_transfers() {
    prop("charged_spans_tile_the_clock_outside_transfers")
        .corpus(SEEDS)
        .cases(128)
        .run(|s| {
            // Every tape opens a session; the rest is random.
            let mut ops = vec![Op::Connect];
            ops.extend(s.collect(0..32, draw_op));
            let plan_seed = u64::from(s.u16());
            for (profile, cfg) in soak::profiles() {
                for batched in [false, true] {
                    let plan = cfg.map(|cfg| FaultPlan::new(plan_seed ^ 0xC10C, cfg));
                    let (m, start, ended) = run_tape(&ops, plan, batched);
                    let run = format!("{profile} (batched: {batched})");
                    if let Err(e) = ended {
                        panic!("{run}: {e}");
                    }
                    let end = m.clock().now().as_nanos();
                    if let Err(e) = tiles(timed_charges(&m), start, end) {
                        panic!("{run}: {e}");
                    }
                }
            }
        });
}

/// Asserts that every nonzero charged span whose name `matches` starts
/// where the clock stood when its step began (the end of the charged
/// span recorded just before it) and overlaps no other charged span.
/// Returns how many such spans there were.
fn assert_charged_in_place(m: &Machine, what: &str, matches: impl Fn(&str) -> bool) -> usize {
    let spans: Vec<Span> = m
        .trace()
        .obs()
        .spans()
        .into_iter()
        .filter(|s| s.kind.is_some())
        .collect();
    let mut found = 0;
    for (i, span) in spans.iter().enumerate() {
        if !matches(&span.name) || span.dur_ns() == 0 {
            continue;
        }
        found += 1;
        let began = spans[..i].last().map_or(0, |prev| prev.end_ns);
        assert_eq!(
            span.start_ns, began,
            "{what} span {:?} does not start where its step began",
            span.name
        );
        let overlapped: Vec<_> = spans
            .iter()
            .enumerate()
            .filter(|&(j, other)| {
                j != i
                    && other.dur_ns() > 0
                    && other.start_ns < span.end_ns
                    && span.start_ns < other.end_ns
            })
            .map(|(_, other)| other.name.as_str())
            .collect();
        assert!(
            overlapped.is_empty(),
            "{what} span {:?} overlaps {} charged spans: {overlapped:?}",
            span.name,
            overlapped.len()
        );
    }
    found
}

#[test]
fn park_and_unpark_spans_are_charged_where_they_happen() {
    let mut m = standard_rig(RigOptions::default());
    m.trace().set_recording(true);
    let mut enclave = GpuEnclave::launch(
        &mut m,
        GpuEnclaveOptions {
            max_resident: 1,
            ..GpuEnclaveOptions::default()
        },
    )
    .expect("launch");
    let window = shared_window_for(m.model(), BUF);
    let mut first =
        HixSession::connect_with(&mut m, &mut enclave, window, b"first").expect("first");
    let buf = first.malloc(&mut m, &mut enclave, BUF).expect("malloc");
    first
        .memset(&mut m, &mut enclave, buf, BUF, 7)
        .expect("memset");
    // The second connect parks the first session (its context is
    // scrubbed), and the first session's next op unparks it, parking
    // the second.
    let second = HixSession::connect_with(&mut m, &mut enclave, window, b"second").expect("second");
    assert!(enclave.is_parked(first.id()));
    first.sync(&mut m, &mut enclave).expect("resume");
    assert!(enclave.is_parked(second.id()));
    first.close(&mut m, &mut enclave).expect("close");
    second.close(&mut m, &mut enclave).expect("close");

    assert_eq!(
        assert_charged_in_place(&m, "park", |n| n.contains(" parked: ")),
        2
    );
    assert!(assert_charged_in_place(&m, "unpark", |n| n.contains(" unparked: ")) >= 2);
}

#[test]
fn export_and_adopt_spans_are_charged_where_they_happen() {
    let (mut m, topo) = fabric_rig(RigOptions::default(), 2, 1);
    m.trace().set_recording(true);
    let mut fabric = Fabric::launch(&mut m, &topo, FabricOptions::default()).expect("fabric");
    let (sid, mut session) = fabric
        .connect(&mut m, 1 << 20, b"migrant")
        .expect("connect");
    let from = fabric.shard_of(sid).expect("placed");
    let enclave = fabric.enclave_for(sid).expect("placed");
    let buf = session.malloc(&mut m, enclave, BUF).expect("malloc");
    session
        .memset(&mut m, enclave, buf, BUF, 9)
        .expect("memset");

    let parked_at = m.clock().now().as_nanos();
    fabric.park(&mut m, sid).expect("park");
    let moved_at = m.clock().now().as_nanos();
    fabric
        .migrate_session(&mut m, sid, &mut session, 1 - from)
        .expect("migrate");
    assert!(session
        .resume(&mut m, fabric.shard_mut(1 - from))
        .expect("resume on the new shard"));

    let spans = timed_charges(&m);
    let named = |part: &str| {
        spans
            .iter()
            .find(|s| s.name.contains(part))
            .unwrap_or_else(|| panic!("no {part:?} span"))
            .clone()
    };
    assert_eq!(named(" parked: ").start_ns, parked_at);
    let export = named(" exported for cross-shard migration");
    assert_eq!(export.start_ns, moved_at);
    assert_eq!(
        named("migrated session adopted as ").start_ns,
        export.end_ns
    );
    for (what, part) in [
        ("park", " parked: "),
        ("export", " exported for cross-shard migration"),
        ("adopt", "migrated session adopted as "),
        ("unpark", " unparked: "),
    ] {
        assert_eq!(
            assert_charged_in_place(&m, what, |n| n.contains(part)),
            1,
            "{what}"
        );
    }
}
