//! Property-based tests over the platform substrate: page tables + TLB
//! coherence, sparse RAM, VRAM, and the cost model's monotonicity — on
//! the in-tree `hix-testkit` harness.

use hix_pcie::addr::PhysAddr;
use hix_platform::mem::{Ram, PAGE_SIZE};
use hix_platform::mmu::{PageTable, Pte, Tlb};
use hix_platform::VirtAddr;
use hix_sim::{CostModel, Nanos};
use hix_testkit::prop::{prop, Source};

#[derive(Debug, Clone)]
enum MmuOp {
    Map { vpn: u64, ppn: u64, writable: bool },
    Unmap { vpn: u64, pages: u64 },
}

fn mmu_op(s: &mut Source) -> MmuOp {
    match s.choice(2) {
        0 => MmuOp::Map {
            vpn: s.in_range(0..32),
            ppn: s.in_range(0..64),
            writable: s.bool(),
        },
        _ => MmuOp::Unmap {
            vpn: s.in_range(0..32),
            pages: s.in_range(1..5),
        },
    }
}

#[test]
fn page_table_matches_reference_model() {
    prop("page_table_matches_reference_model").run(|s| {
        let ops = s.collect(0..64, mmu_op);
        let mut pt = PageTable::new();
        let mut reference = std::collections::BTreeMap::new();
        for op in ops {
            match op {
                MmuOp::Map { vpn, ppn, writable } => {
                    pt.map(
                        VirtAddr::new(vpn * PAGE_SIZE),
                        PhysAddr::new(ppn * PAGE_SIZE),
                        writable,
                    );
                    reference.insert(vpn, (ppn, writable));
                }
                MmuOp::Unmap { vpn, pages } => {
                    let had = reference.range(vpn..vpn + pages).next().is_some();
                    assert_eq!(pt.unmap_range(VirtAddr::new(vpn * PAGE_SIZE), pages), had);
                    reference.retain(|v, _| !(vpn..vpn + pages).contains(v));
                }
            }
        }
        for vpn in 0..32u64 {
            let got = pt.walk(VirtAddr::new(vpn * PAGE_SIZE + 123));
            let want = reference
                .get(&vpn)
                .map(|&(ppn, writable)| Pte { ppn, writable });
            assert_eq!(got, want, "vpn {vpn}");
        }
    });
}

#[test]
fn tlb_never_contradicts_inserts() {
    prop("tlb_never_contradicts_inserts").run(|s| {
        // Whatever the eviction pattern, a hit must return the most
        // recently inserted translation for that page.
        let inserts = s.collect(1..128, |s| (s.in_range(0..16), s.in_range(0..64)));
        let capacity = s.usize_in(1..16);
        let mut tlb = Tlb::new(capacity);
        let mut last = std::collections::BTreeMap::new();
        for (vpn, ppn) in inserts {
            tlb.insert(
                VirtAddr::new(vpn * PAGE_SIZE),
                Pte {
                    ppn,
                    writable: true,
                },
            );
            last.insert(vpn, ppn);
        }
        for (vpn, ppn) in last {
            if let Some(pte) = tlb.lookup(VirtAddr::new(vpn * PAGE_SIZE)) {
                assert_eq!(pte.ppn, ppn, "stale TLB entry for vpn {vpn}");
            }
        }
    });
}

#[test]
fn ram_rw_roundtrip() {
    prop("ram_rw_roundtrip").run(|s| {
        let offset = s.in_range(0..1 << 20);
        let data = s.vec_u8(1..256);
        let mut ram = Ram::new();
        let base = PhysAddr::new(0x50_0000 + offset);
        ram.write(base, &data);
        let mut back = vec![0u8; data.len()];
        ram.read(base, &mut back);
        assert_eq!(back, data);
    });
}

#[test]
fn vram_rw_roundtrip() {
    prop("vram_rw_roundtrip").run(|s| {
        let offset = s.in_range(0..1 << 18);
        let data = s.vec_u8(1..256);
        let mut vram = hix_gpu::vram::Vram::new(1 << 20);
        vram.write(offset.min((1 << 20) - 256), &data);
        let mut back = vec![0u8; data.len()];
        vram.read(offset.min((1 << 20) - 256), &mut back);
        assert_eq!(back, data);
    });
}

#[test]
fn pipelined_transfer_bounds() {
    prop("pipelined_transfer_bounds").run(|s| {
        // The pipelined duration is at least the slowest stage and at
        // most the serial sum.
        let bytes = s.in_range(1..512 << 20);
        let m = CostModel::paper();
        let t = m.pipelined_transfer(bytes, m.enclave_crypto_bw, m.pcie_bw, m.dma_setup);
        let crypto = m.enclave_crypt(bytes);
        let chunks = bytes.div_ceil(m.pipeline_chunk);
        let wire = Nanos::for_throughput(bytes, m.pcie_bw) + m.dma_setup * chunks;
        assert!(t >= crypto.max(wire));
        assert!(t <= crypto + wire);
    });
}

#[test]
fn transfer_costs_are_monotonic() {
    prop("transfer_costs_are_monotonic").run(|s| {
        let a = s.in_range(1..256 << 20);
        let b = s.in_range(1..256 << 20);
        let m = CostModel::paper();
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(m.hix_htod(lo) <= m.hix_htod(hi));
        assert!(m.hix_dtoh(lo) <= m.hix_dtoh(hi));
        assert!(m.pcie_transfer(lo) <= m.pcie_transfer(hi));
    });
}

#[test]
fn single_copy_beats_naive_everywhere() {
    prop("single_copy_beats_naive_everywhere").run(|s| {
        let bytes = s.in_range(1 << 12..512 << 20);
        let m = CostModel::paper();
        assert!(m.hix_htod(bytes) < m.naive_htod(bytes));
    });
}

#[test]
fn frame_allocator_never_hands_out_epc_or_duplicates() {
    let mut ram = Ram::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..10_000 {
        let f = ram.alloc_frames(1)[0];
        assert!(!Ram::is_epc(f), "EPC frame leaked into general pool: {f}");
        assert!(seen.insert(f.value()), "duplicate frame {f}");
    }
    // Freed frames may be reused — but only after being freed.
    let some: Vec<PhysAddr> = seen.iter().take(16).map(|&v| PhysAddr::new(v)).collect();
    ram.free_frames(&some);
    for _ in 0..16 {
        let f = ram.alloc_frames(1)[0];
        assert!(!Ram::is_epc(f));
    }
}
