//! Differential suite for the GPU device's page walks. `DmaHtoD`,
//! `DmaDtoH`, `CopyDtoD` and `Memset` run on a bare `GpuDevice`, and
//! after every command both address windows are compared byte for byte
//! with a flat byte-array model of the same windows.
//!
//! The device window's pages map to scattered VRAM frames with gaps
//! between them, and the host bus window's pages map to host frames in
//! a shuffled order, so a walk that skipped a translation or crossed a
//! page with one copy would land on the wrong frame. Host and device
//! page offsets are drawn independently; lengths include 0, 1, 4095,
//! 4096, 4097 and multi-page spans; half the copies are drawn
//! overlapping. `differential_dma.seeds` is replayed before any new
//! cases are generated.

use hix_gpu::cmd::GpuCommand;
use hix_gpu::ctx::CtxId;
use hix_gpu::device::{GpuConfig, GpuDevice};
use hix_gpu::regs::{bar0, errcode};
use hix_gpu::vram::{DevAddr, GPU_PAGE_SIZE};
use hix_pcie::addr::PhysAddr;
use hix_pcie::config::BarIndex;
use hix_pcie::device::{DmaBus, DmaFault, PcieDevice};
use hix_sim::{Clock, CostModel, Trace};
use hix_testkit::prop::{prop, Source};

const SEEDS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/differential_dma.seeds");

const PAGE: usize = GPU_PAGE_SIZE as usize;
/// Pages in each window.
const PAGES: usize = 5;
const WINDOW: usize = PAGES * PAGE;
/// Base of the host bus window and of the device-virtual window (both
/// page-aligned, so an offset's page offset is the address's).
const BUS_BASE: u64 = 0x7_0000;
const VA_BASE: u64 = 0x20_0000;
const CTX: CtxId = CtxId(1);

/// Host memory behind the bus window: bus page `i` is `frames[frame_of[i]]`.
struct Host {
    frames: Vec<[u8; PAGE]>,
    frame_of: Vec<usize>,
}

impl Host {
    /// Frame index and in-page offset of a bus address in the window.
    fn locate(&self, addr: PhysAddr) -> Result<(usize, usize), DmaFault> {
        let rel = addr
            .value()
            .checked_sub(BUS_BASE)
            .filter(|&rel| rel < WINDOW as u64)
            .ok_or(DmaFault { addr })? as usize;
        Ok((self.frame_of[rel / PAGE], rel % PAGE))
    }

    /// The window in bus order.
    fn flat(&self) -> Vec<u8> {
        self.frame_of.iter().flat_map(|&f| self.frames[f]).collect()
    }

    fn fill(&mut self, bytes: &[u8]) {
        for (page, chunk) in bytes.chunks(PAGE).enumerate() {
            self.frames[self.frame_of[page]].copy_from_slice(chunk);
        }
    }
}

impl DmaBus for Host {
    fn dma_read(&mut self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), DmaFault> {
        let mut off = 0;
        while off < buf.len() {
            let (frame, po) = self.locate(addr.offset(off as u64))?;
            let take = (PAGE - po).min(buf.len() - off);
            buf[off..off + take].copy_from_slice(&self.frames[frame][po..po + take]);
            off += take;
        }
        Ok(())
    }

    fn dma_write(&mut self, addr: PhysAddr, data: &[u8]) -> Result<(), DmaFault> {
        let mut off = 0;
        while off < data.len() {
            let (frame, po) = self.locate(addr.offset(off as u64))?;
            let take = (PAGE - po).min(data.len() - off);
            self.frames[frame][po..po + take].copy_from_slice(&data[off..off + take]);
            off += take;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    HtoD { bus: usize, va: usize, len: usize },
    DtoH { va: usize, bus: usize, len: usize },
    Copy { src: usize, dst: usize, len: usize },
    Memset { va: usize, len: usize, value: u8 },
}

/// A transfer length: the page edges as often as random spans.
fn draw_len(s: &mut Source) -> usize {
    match s.choice(7) {
        0 => 0,
        1 => 1,
        2 => PAGE - 1,
        3 => PAGE,
        4 => PAGE + 1,
        5 => 3 * PAGE + 1 + s.usize_in(0..PAGE - 1),
        _ => s.usize_in(0..WINDOW + 1),
    }
}

/// A start offset that keeps `len` bytes inside the window.
fn draw_off(s: &mut Source, len: usize) -> usize {
    s.usize_in(0..WINDOW - len + 1)
}

fn draw_op(s: &mut Source) -> Op {
    let kind = s.choice(4);
    let len = draw_len(s);
    match kind {
        0 => Op::HtoD { bus: draw_off(s, len), va: draw_off(s, len), len },
        1 => Op::DtoH { va: draw_off(s, len), bus: draw_off(s, len), len },
        2 => {
            let src = draw_off(s, len);
            let dst = if s.bool() {
                draw_off(s, len)
            } else {
                // Within a page either side of the source: the ranges
                // overlap whenever the copy is longer than the shift.
                let shifted = (src + s.usize_in(0..2 * PAGE + 1)).saturating_sub(PAGE);
                shifted.min(WINDOW - len)
            };
            Op::Copy { src, dst, len }
        }
        _ => Op::Memset { va: draw_off(s, len), len, value: s.u8() },
    }
}

/// A permutation of `0..n` (Fisher–Yates over the draws).
fn draw_perm(s: &mut Source, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).rev().collect();
    for i in (1..n).rev() {
        let j = s.index(i + 1);
        perm.swap(i, j);
    }
    perm
}

/// The flat model of one command. A `CopyDtoD` walks in steps that end
/// at a source or destination page boundary, and each step reads all of
/// its bytes before writing any: within a step an overlapping copy acts
/// like `memmove`, across steps it is a forward copy.
fn model(op: Op, host: &mut [u8], dev: &mut [u8]) {
    match op {
        Op::HtoD { bus, va, len } => dev[va..va + len].copy_from_slice(&host[bus..bus + len]),
        Op::DtoH { va, bus, len } => host[bus..bus + len].copy_from_slice(&dev[va..va + len]),
        Op::Copy { src, dst, len } => {
            let mut off = 0;
            while off < len {
                let take = (PAGE - (src + off) % PAGE).min(PAGE - (dst + off) % PAGE).min(len - off);
                dev.copy_within(src + off..src + off + take, dst + off);
                off += take;
            }
        }
        Op::Memset { va, len, value } => dev[va..va + len].fill(value),
    }
}

fn command(op: Op) -> GpuCommand {
    let bus = |off: usize| PhysAddr::new(BUS_BASE + off as u64);
    let va = |off: usize| DevAddr(VA_BASE + off as u64);
    match op {
        Op::HtoD { bus: b, va: v, len } => {
            GpuCommand::DmaHtoD { ctx: CTX, bus: bus(b), va: va(v), len: len as u64 }
        }
        Op::DtoH { va: v, bus: b, len } => {
            GpuCommand::DmaDtoH { ctx: CTX, va: va(v), bus: bus(b), len: len as u64 }
        }
        Op::Copy { src, dst, len } => {
            GpuCommand::CopyDtoD { ctx: CTX, src: va(src), dst: va(dst), len: len as u64 }
        }
        Op::Memset { va: v, len, value } => {
            GpuCommand::Memset { ctx: CTX, va: va(v), len: len as u64, value }
        }
    }
}

/// Submits one command through the MMIO window and runs the device
/// until it is idle; returns the error register.
fn run(dev: &mut GpuDevice, host: &mut Host, cmd: &GpuCommand) -> u32 {
    let bytes = cmd.encode();
    dev.mmio_write(BarIndex(0), bar0::CMD_WINDOW, &bytes);
    dev.mmio_write(BarIndex(0), bar0::DOORBELL, &(bytes.len() as u64).to_le_bytes());
    while dev.tick(host) {}
    dev.error()
}

/// A deterministic fill pattern, distinct per `salt`.
fn pattern(salt: u32) -> Vec<u8> {
    (0..WINDOW as u32)
        .map(|i| (i.wrapping_add(salt << 20).wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect()
}

#[test]
fn page_walks_match_flat_model() {
    prop("page_walks_match_flat_model")
        .corpus(SEEDS)
        .run(|s| {
            let mut host = Host { frames: vec![[0; PAGE]; PAGES], frame_of: draw_perm(s, PAGES) };
            // Device page i sits at VRAM frame 2 * perm[i] + 1: scattered,
            // with an unmapped frame between any two.
            let vram_frame: Vec<u64> =
                draw_perm(s, PAGES).iter().map(|&f| (2 * f as u64 + 1) * GPU_PAGE_SIZE).collect();
            let ops = s.collect(1..12, draw_op);

            let mut dev = GpuDevice::new(
                GpuConfig { vram_size: 16 << 20, ..GpuConfig::default() },
                Clock::new(),
                CostModel::paper(),
                Trace::new(),
            );
            assert_eq!(run(&mut dev, &mut host, &GpuCommand::CreateCtx { ctx: CTX }), errcode::NONE);
            for (page, &pa) in vram_frame.iter().enumerate() {
                let va = DevAddr(VA_BASE + (page * PAGE) as u64);
                let map = GpuCommand::MapPage { ctx: CTX, va, pa };
                assert_eq!(run(&mut dev, &mut host, &map), errcode::NONE);
            }
            // Distinct starting contents on both sides.
            let mut flat_dev = pattern(1);
            host.fill(&flat_dev);
            let load = Op::HtoD { bus: 0, va: 0, len: WINDOW };
            assert_eq!(run(&mut dev, &mut host, &command(load)), errcode::NONE);
            let mut flat_host = pattern(2);
            host.fill(&flat_host);

            for op in ops {
                assert_eq!(run(&mut dev, &mut host, &command(op)), errcode::NONE, "{op:?}");
                model(op, &mut flat_host, &mut flat_dev);
                let mut got = vec![0u8; WINDOW];
                for (page, &pa) in vram_frame.iter().enumerate() {
                    dev.vram().read(pa, &mut got[page * PAGE..(page + 1) * PAGE]);
                }
                assert!(got == flat_dev, "device window differs from the model after {op:?}");
                assert!(host.flat() == flat_host, "host window differs from the model after {op:?}");
            }
            // The unmapped frames between and around them stay zero.
            for gap in (0..=2 * PAGES as u64).step_by(2) {
                let mut page = [0u8; PAGE];
                dev.vram().read(gap * GPU_PAGE_SIZE, &mut page);
                assert!(page == [0; PAGE], "unmapped frame {gap} was written");
            }
        });
}
