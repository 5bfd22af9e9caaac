//! Robustness fuzzing: the GPU's MMIO surface is reachable by untrusted
//! software in the baseline world, so the device model must be
//! panic-free under arbitrary register traffic and malformed command
//! submissions — errors, never crashes.
//!
//! Runs on the in-tree `hix-testkit` harness; the seed corpus in
//! `proptest_robustness.seeds` (migrated from the retired
//! `.proptest-regressions` file) is replayed before every run.

use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF};
use hix_gpu::cmd::GpuCommand;
use hix_gpu::ctx::CtxId;
use hix_gpu::regs::{bar0, errcode};
use hix_gpu::vram::{DevAddr, GPU_PAGE_SIZE};
use hix_pcie::addr::{Bdf, PhysAddr};
use hix_pcie::config::BarIndex;
use hix_testkit::prop::{decode_tape, prop, Source};

const SEEDS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/proptest_robustness.seeds");

#[derive(Debug, Clone)]
enum MmioOp {
    Write { bar: u8, offset: u64, data: Vec<u8> },
    Read { bar: u8, offset: u64, len: usize },
    Doorbell { staged: Vec<u8> },
    ConfigWrite { offset: u16, value: u32 },
}

fn mmio_op(s: &mut Source) -> MmioOp {
    match s.choice(4) {
        0 => MmioOp::Write {
            bar: s.in_range(0..2) as u8,
            offset: s.in_range(0..0x3000),
            data: s.vec_u8(1..64),
        },
        1 => MmioOp::Read {
            bar: s.in_range(0..2) as u8,
            offset: s.in_range(0..0x3000),
            len: s.usize_in(1..64),
        },
        2 => MmioOp::Doorbell { staged: s.vec_u8(0..128) },
        _ => MmioOp::ConfigWrite {
            offset: s.in_range(0..0x40) as u16,
            value: s.u32(),
        },
    }
}

#[test]
fn device_survives_arbitrary_mmio() {
    prop("device_survives_arbitrary_mmio")
        .corpus(SEEDS)
        .run(|s| {
            let ops = s.collect(1..64, mmio_op);
            let mut machine = standard_rig(RigOptions::default());
            for op in ops {
                match op {
                    MmioOp::Write { bar, offset, data } => {
                        let device = machine.device_mut(GPU_BDF).expect("gpu present");
                        device.mmio_write(BarIndex(bar), offset, &data);
                    }
                    MmioOp::Read { bar, offset, len } => {
                        let device = machine.device_mut(GPU_BDF).expect("gpu present");
                        let mut buf = vec![0u8; len];
                        device.mmio_read(BarIndex(bar), offset, &mut buf);
                    }
                    MmioOp::Doorbell { staged } => {
                        let device = machine.device_mut(GPU_BDF).expect("gpu present");
                        device.mmio_write(BarIndex(0), bar0::CMD_WINDOW, &staged);
                        device.mmio_write(
                            BarIndex(0),
                            bar0::DOORBELL,
                            &(staged.len() as u64).to_le_bytes(),
                        );
                    }
                    MmioOp::ConfigWrite { offset, value } => {
                        let _ = machine.config_write(GPU_BDF, offset, value);
                    }
                }
                // Whatever happened, the device must still quiesce.
                machine.run_device(GPU_BDF);
            }
            // And still answer with its magic afterwards.
            let device = machine.device_mut(GPU_BDF).expect("gpu present");
            let mut id = [0u8; 8];
            device.mmio_read(BarIndex(0), bar0::ID, &mut id);
            assert_eq!(u64::from_le_bytes(id), hix_gpu::regs::GPU_MAGIC);
        });
}

/// An address within four pages of either end of a 64-bit space: the
/// low end (a zero tape) or the top, where a page walk's running
/// address would wrap. With the rig's IOMMU in passthrough, low bus
/// addresses are DRAM, so DMA from them really moves bytes.
fn edge_addr(s: &mut Source) -> u64 {
    let delta = s.in_range(0..4 * GPU_PAGE_SIZE);
    if s.bool() {
        u64::MAX - delta
    } else {
        delta
    }
}

fn edge_page(s: &mut Source) -> DevAddr {
    DevAddr(edge_addr(s) & !(GPU_PAGE_SIZE - 1))
}

/// A well-formed command on context 1 (which the property creates
/// first), aimed at the edges of the device and bus address spaces,
/// with lengths of up to three pages so transfers cross pages.
fn edge_command(s: &mut Source) -> GpuCommand {
    let ctx = CtxId(1);
    match s.choice(6) {
        0 => GpuCommand::MapRange {
            ctx,
            va: edge_page(s),
            pa: s.in_range(0..16) * GPU_PAGE_SIZE,
            pages: s.in_range(1..4),
        },
        1 => GpuCommand::UnmapRange { ctx, va: edge_page(s), pages: s.in_range(1..4) },
        2 => GpuCommand::DmaHtoD {
            ctx,
            bus: PhysAddr::new(edge_addr(s)),
            va: DevAddr(edge_addr(s)),
            len: s.in_range(0..3 * GPU_PAGE_SIZE),
        },
        3 => GpuCommand::DmaDtoH {
            ctx,
            va: DevAddr(edge_addr(s)),
            bus: PhysAddr::new(edge_addr(s)),
            len: s.in_range(0..3 * GPU_PAGE_SIZE),
        },
        4 => GpuCommand::Memset {
            ctx,
            va: DevAddr(edge_addr(s)),
            len: s.in_range(0..3 * GPU_PAGE_SIZE),
            value: s.u8(),
        },
        _ => GpuCommand::CopyDtoD {
            ctx,
            src: DevAddr(edge_addr(s)),
            dst: DevAddr(edge_addr(s)),
            len: s.in_range(0..3 * GPU_PAGE_SIZE),
        },
    }
}

/// Whether `len` bytes from `start` run past the top of the 64-bit
/// address space.
fn wraps(start: u64, len: u64) -> bool {
    len > 0 && start.checked_add(len - 1).is_none()
}

/// Whether the command's device or bus range wraps.
fn command_wraps(cmd: &GpuCommand) -> bool {
    match *cmd {
        GpuCommand::MapRange { va, pages, .. } | GpuCommand::UnmapRange { va, pages, .. } => {
            wraps(va.value(), pages * GPU_PAGE_SIZE)
        }
        GpuCommand::DmaHtoD { bus, va, len, .. } | GpuCommand::DmaDtoH { va, bus, len, .. } => {
            wraps(va.value(), len) || wraps(bus.value(), len)
        }
        GpuCommand::Memset { va, len, .. } => wraps(va.value(), len),
        GpuCommand::CopyDtoD { src, dst, len, .. } => {
            wraps(src.value(), len) || wraps(dst.value(), len)
        }
        _ => false,
    }
}

/// Well-formed commands on a live context must not crash the device
/// either: a range that wraps the device or bus address space latches
/// `FAULT` (checked once per command, before any byte moves), and every
/// other command runs exactly as before.
#[test]
fn wellformed_commands_at_address_space_edges_never_panic() {
    prop("wellformed_commands_at_address_space_edges_never_panic")
        .corpus(SEEDS)
        .run(|s| {
            let cmds = s.collect(1..24, edge_command);
            let mut machine = standard_rig(RigOptions::default());
            let submit = |machine: &mut hix_platform::Machine, cmd: &GpuCommand| {
                let bytes = cmd.encode();
                let device = machine.device_mut(GPU_BDF).expect("gpu present");
                device.mmio_write(BarIndex(0), bar0::ERROR, &[0]);
                device.mmio_write(BarIndex(0), bar0::CMD_WINDOW, &bytes);
                device.mmio_write(BarIndex(0), bar0::DOORBELL, &(bytes.len() as u64).to_le_bytes());
                machine.run_device(GPU_BDF);
                let device = machine.device_mut(GPU_BDF).expect("gpu present");
                let mut error = [0u8; 8];
                device.mmio_read(BarIndex(0), bar0::ERROR, &mut error);
                u64::from_le_bytes(error) as u32
            };
            assert_eq!(submit(&mut machine, &GpuCommand::CreateCtx { ctx: CtxId(1) }), errcode::NONE);
            for cmd in cmds {
                let error = submit(&mut machine, &cmd);
                if command_wraps(&cmd) {
                    assert_eq!(error, errcode::FAULT, "{cmd:?} wraps the address space");
                }
            }
        });
}

#[test]
fn fabric_survives_arbitrary_config_traffic() {
    prop("fabric_survives_arbitrary_config_traffic")
        .corpus(SEEDS)
        .run(|s| {
            let writes = s.collect(1..64, |s| {
                (
                    s.in_range(0..4) as u8,
                    s.in_range(0..2) as u8,
                    s.in_range(0..0x40) as u16,
                    s.u32(),
                )
            });
            let mut machine = standard_rig(RigOptions::default());
            for (bus, dev, offset, value) in writes {
                let bdf = Bdf::new(bus, dev, 0);
                let _ = machine.config_write(bdf, offset, value);
                let _ = machine.config_read(bdf, offset);
            }
            // The fabric still routes *something* deterministic (either the
            // GPU if decode survived, or nothing — never a panic).
            let _ = machine.fabric().route_mem(hix_pcie::addr::PhysAddr::new(0xc000_0000));
        });
}

#[test]
fn command_decoder_never_panics() {
    prop("command_decoder_never_panics")
        .corpus(SEEDS)
        .run(|s| {
            let bytes = s.vec_u8(0..256);
            let _ = hix_gpu::cmd::GpuCommand::decode(&bytes);
        });
}

#[test]
fn protocol_decoder_never_panics() {
    prop("protocol_decoder_never_panics")
        .corpus(SEEDS)
        .run(|s| {
            let bytes = s.vec_u8(0..256);
            let _ = hix_core::protocol::Request::decode(&bytes);
            let _ = hix_core::protocol::Response::decode(&bytes);
        });
}

#[test]
fn ocb_open_never_panics_on_garbage() {
    prop("ocb_open_never_panics_on_garbage")
        .corpus(SEEDS)
        .run(|s| {
            use hix_crypto::ocb::{Key, Nonce, Ocb};
            let bytes = s.vec_u8(0..256);
            let counter = s.u64();
            let ocb = Ocb::new(&Key::from_bytes([1u8; 16]));
            let _ = ocb.open(&Nonce::from_counter(counter), b"aad", &bytes);
        });
}

/// Draws for [`replay_window_matches_model`], shared with the
/// pinned-decode test so the corpus tape provably decodes to the
/// documented counterexample.
fn replay_window_case(s: &mut Source) -> (u64, Vec<u64>) {
    let window = 1 + s.in_range(0..128);
    let seqs = s.collect(0..64, |s| s.in_range(0..4096));
    (window, seqs)
}

/// The anti-replay window must agree with the obvious reference model:
/// a high-water mark `last`, where `seq <= last` is stale, `seq >
/// last + window` is too far ahead (desync), and anything in between
/// is fresh and advances the mark.
#[test]
fn replay_window_matches_model() {
    use hix_sim::fault::{ReplayWindow, SeqCheck};
    prop("replay_window_matches_model")
        .corpus(SEEDS)
        .run(|s| {
            let (window, seqs) = replay_window_case(s);
            let mut win = ReplayWindow::new(window);
            let mut model_last = 0u64;
            for seq in seqs {
                let expect = if seq <= model_last {
                    SeqCheck::Stale
                } else if seq > model_last + window {
                    SeqCheck::TooFar
                } else {
                    SeqCheck::Fresh
                };
                assert_eq!(win.check(seq), expect, "check({seq}) with last={model_last} window={window}");
                assert_eq!(win.accept(seq), expect, "accept must classify like check");
                if expect == SeqCheck::Fresh {
                    model_last = seq;
                }
                assert_eq!(win.last(), model_last, "only fresh sequences may advance");
            }
            win.reset();
            assert_eq!(win.last(), 0, "reset must reopen the epoch");
        });
}

/// The resequencer must release held items lowest-sequence-first and
/// refuse anything at or under the floor left by a previous release —
/// checked against a `BTreeSet` + floor reference model. Ops < 32 push
/// that sequence number; ops >= 32 pop.
#[test]
fn resequencer_matches_sorted_model() {
    use hix_sim::fault::Resequencer;
    use std::collections::BTreeSet;
    prop("resequencer_matches_sorted_model")
        .corpus(SEEDS)
        .run(|s| {
            let ops = s.collect(0..64, |s| s.in_range(0..40));
            let mut rs = Resequencer::new();
            let mut held: BTreeSet<u64> = BTreeSet::new();
            let mut floor: Option<u64> = None;
            for op in ops {
                if op < 32 {
                    let seq = op;
                    let fresh = floor.is_none_or(|f| seq > f) && !held.contains(&seq);
                    assert_eq!(rs.push(seq, seq), fresh, "push({seq}) with floor {floor:?}");
                    if fresh {
                        held.insert(seq);
                    }
                } else {
                    let expect = held.iter().next().copied();
                    assert_eq!(rs.peek().map(|(q, _)| q), expect, "peek must see the minimum");
                    assert_eq!(rs.pop().map(|(q, _)| q), expect, "pop must release the minimum");
                    if let Some(q) = expect {
                        held.remove(&q);
                        floor = Some(q);
                    }
                }
                assert_eq!(rs.len(), held.len());
                assert_eq!(rs.is_empty(), held.is_empty());
            }
        });
}

/// The retransmit backoff must follow the closed form `min(base * 2^i,
/// cap)` exactly: monotone non-decreasing, never under `base`, never
/// over `cap`, and `reset()` restarts the schedule at `base`.
#[test]
fn backoff_schedule_is_monotone_and_capped() {
    use hix_sim::fault::Backoff;
    use hix_sim::Nanos;
    prop("backoff_schedule_is_monotone_and_capped")
        .corpus(SEEDS)
        .run(|s| {
            let base_ns = 1 + s.in_range(0..1_000_000);
            let cap_ns = base_ns * (1 + s.in_range(0..256));
            let steps = s.in_range(1..64);
            let mut b = Backoff::new(Nanos::from_nanos(base_ns), Nanos::from_nanos(cap_ns));
            let mut prev = 0u128;
            for i in 0..steps {
                let d = b.next_delay().as_nanos() as u128;
                let expect = ((base_ns as u128) << i).min(cap_ns as u128);
                assert_eq!(d, expect, "delay {i} with base {base_ns} cap {cap_ns}");
                assert!(d >= prev, "schedule must be monotone");
                assert!(d >= base_ns as u128 && d <= cap_ns as u128);
                prev = d;
            }
            b.reset();
            assert_eq!(
                b.next_delay().as_nanos(),
                base_ns,
                "reset must restart the schedule at base"
            );
        });
}

/// The migrated corpus entry must keep decoding to the counterexample
/// the retired proptest regression file recorded: exactly one
/// `Doorbell` op with these 51 staged bytes. If the tape encoding ever
/// drifts, this fails loudly instead of silently replaying garbage.
#[test]
fn migrated_regression_seed_decodes_to_original_counterexample() {
    let text = std::fs::read_to_string(SEEDS).expect("seeds file present");
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("device_survives_arbitrary_mmio"))
        .expect("migrated entry present");
    let hex = line.split_whitespace().nth(1).unwrap();
    let tape = hix_testkit::prop::decode_hex(hex).unwrap();
    let ops = decode_tape(&tape, |s| s.collect(1..64, mmio_op));
    assert_eq!(ops.len(), 1);
    let MmioOp::Doorbell { staged } = &ops[0] else {
        panic!("expected a Doorbell op, got {:?}", ops[0]);
    };
    let original: &[u8] = &[
        12, 220, 192, 56, 123, 180, 193, 49, 130, 120, 16, 42, 233, 167, 207, 230, 216, 241,
        75, 189, 200, 74, 132, 153, 160, 129, 188, 145, 131, 73, 213, 243, 209, 9, 103, 89,
        62, 72, 20, 4, 2, 8, 105, 83, 219, 212, 11, 77, 137, 119, 238,
    ];
    assert_eq!(staged, original);
}

/// Same drift-guard for the fault-machinery corpus: the pinned
/// replay-window tape must decode to the documented case — a 64-deep
/// window probed with `[64, 129, 128]` (edge-of-window fresh, one past
/// the horizon, then the horizon itself).
#[test]
fn pinned_replay_window_seed_decodes_to_documented_case() {
    let text = std::fs::read_to_string(SEEDS).expect("seeds file present");
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("replay_window_matches_model"))
        .expect("pinned replay-window entry present");
    let hex = line.split_whitespace().nth(1).unwrap();
    let tape = hix_testkit::prop::decode_hex(hex).unwrap();
    let (window, seqs) = decode_tape(&tape, replay_window_case);
    assert_eq!(window, 64);
    assert_eq!(seqs, [64, 129, 128]);
}

/// Drift guard for the address-space-edge corpus: the pinned crash
/// tapes must keep decoding to the crashes they recorded — an
/// `UnmapRange` of the top device page with `pages: 2` (first entry) and
/// an 8 KiB `DmaHtoD` into the mapped top page (third entry).
#[test]
fn pinned_edge_seeds_decode_to_documented_cases() {
    let text = std::fs::read_to_string(SEEDS).expect("seeds file present");
    let decoded: Vec<Vec<GpuCommand>> = text
        .lines()
        .filter(|l| l.starts_with("wellformed_commands_at_address_space_edges_never_panic"))
        .map(|l| {
            let hex = l.split_whitespace().nth(1).unwrap();
            let tape = hix_testkit::prop::decode_hex(hex).unwrap();
            decode_tape(&tape, |s| s.collect(1..24, edge_command))
        })
        .collect();
    let ctx = CtxId(1);
    let top = DevAddr(u64::MAX - 0xfff);
    assert_eq!(decoded[0], [GpuCommand::UnmapRange { ctx, va: top, pages: 2 }]);
    assert_eq!(
        decoded[2],
        [
            GpuCommand::MapRange { ctx, va: top, pa: 0, pages: 1 },
            GpuCommand::DmaHtoD { ctx, bus: PhysAddr::new(0), va: top, len: 0x2000 },
        ]
    );
}
