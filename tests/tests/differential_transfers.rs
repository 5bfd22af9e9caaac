//! Differential suite for secure transfers over sub-ranges. One HIX
//! session runs a random tape of HtoD, DtoH, memset and DtoD commands
//! over random sub-ranges of two device allocations, and every DtoH must
//! read back exactly what a flat `Vec<u8>` model of each allocation
//! holds. After the tape, both allocations are read back whole, in
//! pieces the window admits, and compared too, so a write that lands
//! outside its range is caught even when no DtoH on the tape covers it.
//!
//! The rig's cost model pipelines at 4 KiB, so multi-chunk transfers,
//! chunks that start mid-page and partial last chunks stay cheap.
//! Lengths include 0, 1, chunk − 1, chunk, chunk + 1 and several
//! chunks. Each tape runs twice: on a window that holds the larger
//! allocation whole, and on one whose bulk area is a single page, so
//! the GPU enclave's window-sized staging buffer is smaller than a chunk
//! and its tag (HtoD and DtoH lengths are capped at what it admits).
//! This is the plaintext oracle for one session on a clean wire.
//! `differential_transfers.seeds` is replayed before any new cases are
//! generated.

use hix_core::channel::BULK_OFFSET;
use hix_core::gpu_enclave::{GpuEnclave, GpuEnclaveOptions};
use hix_core::runtime::{shared_window_for, HixSession};
use hix_crypto::ocb::TAG_LEN;
use hix_driver::rig::{standard_rig, RigOptions};
use hix_gpu::vram::DevAddr;
use hix_platform::MachineConfig;
use hix_sim::{CostModel, Payload};
use hix_testkit::prop::{prop, Source};

const SEEDS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/differential_transfers.seeds"
);

/// The rig's pipeline chunk.
const CHUNK: usize = 4096;
/// The two allocations' sizes: neither is a whole number of pages.
const SIZES: [usize; 2] = [6 * CHUNK + 1000, 3 * CHUNK + 1];

#[derive(Debug, Clone, Copy)]
enum Op {
    HtoD {
        buf: usize,
        off: usize,
        len: usize,
        salt: u8,
    },
    DtoH {
        buf: usize,
        off: usize,
        len: usize,
    },
    Memset {
        buf: usize,
        off: usize,
        len: usize,
        value: u8,
    },
    /// From one allocation into the other (never overlapping).
    DtoD {
        src: usize,
        src_off: usize,
        dst_off: usize,
        len: usize,
    },
}

/// A transfer length no larger than `size`: the chunk edges as often as
/// random spans.
fn draw_len(s: &mut Source, size: usize) -> usize {
    let len = match s.choice(7) {
        0 => 0,
        1 => 1,
        2 => CHUNK - 1,
        3 => CHUNK,
        4 => CHUNK + 1,
        5 => 2 * CHUNK + 1 + s.usize_in(0..2 * CHUNK),
        _ => s.usize_in(0..size + 1),
    };
    len.min(size)
}

/// A start offset that keeps `len` bytes inside an allocation of `size`.
fn draw_off(s: &mut Source, size: usize, len: usize) -> usize {
    s.usize_in(0..size - len + 1)
}

fn draw_op(s: &mut Source) -> Op {
    let kind = s.choice(4);
    let buf = s.index(2);
    if kind == 3 {
        let len = draw_len(s, SIZES[0].min(SIZES[1]));
        let src_off = draw_off(s, SIZES[buf], len);
        let dst_off = draw_off(s, SIZES[1 - buf], len);
        return Op::DtoD {
            src: buf,
            src_off,
            dst_off,
            len,
        };
    }
    let len = draw_len(s, SIZES[buf]);
    let off = draw_off(s, SIZES[buf], len);
    match kind {
        0 => Op::HtoD {
            buf,
            off,
            len,
            salt: s.u8(),
        },
        1 => Op::DtoH { buf, off, len },
        _ => Op::Memset {
            buf,
            off,
            len,
            value: s.u8(),
        },
    }
}

/// A deterministic payload, distinct per `salt`.
fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8 ^ salt)
        .collect()
}

/// Runs `ops` on one session whose shared window is `window` bytes,
/// with every HtoD and DtoH capped at `max` bytes (what the window's bulk
/// area admits), and checks each readback against the flat model.
fn run_tape(ops: &[Op], window: u64, max: usize) {
    let model = CostModel::builder().pipeline_chunk(CHUNK as u64).build();
    let machine = MachineConfig {
        model,
        ..MachineConfig::default()
    };
    let mut m = standard_rig(RigOptions {
        machine,
        ..RigOptions::default()
    });
    let mut enclave = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("launch");
    let mut session =
        HixSession::connect_with(&mut m, &mut enclave, window, b"differential").expect("connect");
    let mut dev = [DevAddr(0); 2];
    let mut flat: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
    for (i, &size) in SIZES.iter().enumerate() {
        dev[i] = session
            .malloc(&mut m, &mut enclave, size as u64)
            .expect("malloc");
        let fill = 0xa0 + i as u8;
        session
            .memset(&mut m, &mut enclave, dev[i], size as u64, fill)
            .expect("fill");
        flat[i] = vec![fill; size];
    }
    let at = |buf: usize, off: usize| dev[buf].offset(off as u64);

    for &op in ops {
        match op {
            Op::HtoD {
                buf,
                off,
                len,
                salt,
            } => {
                let data = pattern(len.min(max), salt);
                let payload = Payload::from_bytes(data.clone());
                session
                    .memcpy_htod(&mut m, &mut enclave, at(buf, off), &payload)
                    .expect("htod");
                flat[buf][off..off + data.len()].copy_from_slice(&data);
            }
            Op::DtoH { buf, off, len } => {
                let len = len.min(max);
                let back = session
                    .memcpy_dtoh(&mut m, &mut enclave, at(buf, off), len as u64)
                    .expect("dtoh");
                assert!(
                    back.bytes() == &flat[buf][off..off + len],
                    "{op:?} differs from the model"
                );
            }
            Op::Memset {
                buf,
                off,
                len,
                value,
            } => {
                session
                    .memset(&mut m, &mut enclave, at(buf, off), len as u64, value)
                    .expect("memset");
                flat[buf][off..off + len].fill(value);
            }
            Op::DtoD {
                src,
                src_off,
                dst_off,
                len,
            } => {
                let dst = 1 - src;
                session
                    .memcpy_dtod(
                        &mut m,
                        &mut enclave,
                        at(src, src_off),
                        at(dst, dst_off),
                        len as u64,
                    )
                    .expect("dtod");
                let bytes = flat[src][src_off..src_off + len].to_vec();
                flat[dst][dst_off..dst_off + len].copy_from_slice(&bytes);
            }
        }
    }
    for (buf, &size) in SIZES.iter().enumerate() {
        for off in (0..size).step_by(max) {
            let len = max.min(size - off);
            let back = session
                .memcpy_dtoh(&mut m, &mut enclave, at(buf, off), len as u64)
                .expect("dtoh");
            let first = back
                .bytes()
                .iter()
                .zip(&flat[buf][off..])
                .position(|(a, b)| a != b);
            assert!(
                first.is_none(),
                "allocation {buf} differs from the model at byte {off} + {first:?}"
            );
        }
    }
    session.close(&mut m, &mut enclave).expect("close");
}

#[test]
fn sub_range_transfers_match_plaintext_model() {
    let model = CostModel::builder().pipeline_chunk(CHUNK as u64).build();
    // The window the larger allocation needs, and one whose bulk area
    // is one page: less than a chunk and its tag, so the enclave's
    // staging buffer is smaller than a chunk and admits one chunk of at
    // most a page less a tag.
    let geometries = [
        (shared_window_for(&model, SIZES[0] as u64), SIZES[0]),
        (BULK_OFFSET + CHUNK as u64, CHUNK - TAG_LEN),
    ];
    prop("sub_range_transfers_match_plaintext_model")
        .corpus(SEEDS)
        .cases(24)
        .run(|s| {
            let ops = s.collect(1..12, draw_op);
            for (window, max) in geometries {
                run_tape(&ops, window, max);
            }
        });
}
