//! Physical address map and sparse DRAM.
//!
//! Layout (constants in [`layout`]):
//!
//! ```text
//! 0x0000_0000 ┌───────────────────────┐
//!             │ DRAM (general)        │
//! 0x4000_0000 ├───────────────────────┤
//!             │ EPC (processor        │  SGX-protected; device DMA and
//!             │ reserved memory)      │  non-owner software denied
//! 0x4800_0000 ├───────────────────────┤
//!             │ DRAM (general)        │
//! 0x8000_0000 ├───────────────────────┤
//!             │ (unpopulated)         │
//! 0xc000_0000 ├───────────────────────┤
//!             │ MMIO hole (PCIe)      │  routed by the root complex
//! 0xe000_0000 └───────────────────────┘
//! ```
//!
//! DRAM is stored sparsely (per-page boxes) so paper-scale simulations do
//! not allocate gigabytes up front.

use std::collections::BTreeMap;
use std::fmt;

use hix_pcie::addr::{PhysAddr, PhysRange};

/// Page size (4 KiB, matching SGX EPC granularity).
pub const PAGE_SIZE: u64 = 4096;

/// Address-map constants.
pub mod layout {
    use super::*;

    /// All of DRAM (includes the EPC carve-out).
    pub const DRAM: PhysRange = PhysRange {
        base: PhysAddr::new(0),
        len: 0x8000_0000,
    };

    /// The EPC carve-out (128 MiB).
    pub const EPC: PhysRange = PhysRange {
        base: PhysAddr::new(0x4000_0000),
        len: 0x0800_0000,
    };

    /// The PCIe MMIO hole.
    pub const MMIO: PhysRange = PhysRange {
        base: PhysAddr::new(0xc000_0000),
        len: 0x2000_0000,
    };
}

/// A virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Wraps a raw address.
    pub const fn new(addr: u64) -> Self {
        VirtAddr(addr)
    }

    /// Raw value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Virtual page number.
    pub const fn vpn(self) -> u64 {
        self.0 / PAGE_SIZE
    }

    /// Offset within the page.
    pub const fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// This address offset by `delta` bytes.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    pub fn offset(self, delta: u64) -> Self {
        VirtAddr(self.0.checked_add(delta).expect("virtual address overflow"))
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#012x}", self.0)
    }
}

/// Sparse physical DRAM with a bump frame allocator.
pub struct Ram {
    pages: BTreeMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
    next_free: u64,
    epc_next_free: u64,
    free_list: Vec<u64>,
}

impl fmt::Debug for Ram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ram")
            .field("resident_pages", &self.pages.len())
            .finish()
    }
}

impl Default for Ram {
    fn default() -> Self {
        Ram::new()
    }
}

impl Ram {
    /// Creates empty DRAM.
    pub fn new() -> Self {
        Ram {
            pages: BTreeMap::new(),
            // Leave the first 16 MiB for "firmware/kernel" so tests using
            // tiny addresses don't collide with allocations.
            next_free: 0x0100_0000 / PAGE_SIZE,
            epc_next_free: layout::EPC.base.value() / PAGE_SIZE,
            free_list: Vec::new(),
        }
    }

    /// Whether `addr` is backed by DRAM (EPC included).
    pub fn contains(addr: PhysAddr) -> bool {
        layout::DRAM.contains(addr)
    }

    /// Whether `addr` lies in the EPC carve-out.
    pub fn is_epc(addr: PhysAddr) -> bool {
        layout::EPC.contains(addr)
    }

    /// Whether `addr` lies in the MMIO hole.
    pub fn is_mmio(addr: PhysAddr) -> bool {
        layout::MMIO.contains(addr)
    }

    /// Allocates `n` general DRAM frames, returning their base addresses.
    ///
    /// # Panics
    ///
    /// Panics when DRAM is exhausted (simulation bug, not a modeled
    /// condition).
    pub fn alloc_frames(&mut self, n: usize) -> Vec<PhysAddr> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            if let Some(ppn) = self.free_list.pop() {
                out.push(PhysAddr::new(ppn * PAGE_SIZE));
                continue;
            }
            // Skip the EPC range.
            let epc_first = layout::EPC.base.value() / PAGE_SIZE;
            let epc_last = (layout::EPC.end() - 1) / PAGE_SIZE;
            if (epc_first..=epc_last).contains(&self.next_free) {
                self.next_free = epc_last + 1;
            }
            let ppn = self.next_free;
            assert!(
                ppn * PAGE_SIZE < layout::DRAM.end(),
                "simulated DRAM exhausted"
            );
            self.next_free += 1;
            out.push(PhysAddr::new(ppn * PAGE_SIZE));
        }
        out
    }

    /// Returns general DRAM frames to the allocator. Contents are left in
    /// place (freed memory is not scrubbed — realistically).
    ///
    /// # Panics
    ///
    /// Panics for unaligned or EPC frames.
    pub fn free_frames(&mut self, frames: &[PhysAddr]) {
        for f in frames {
            assert_eq!(f.value() % PAGE_SIZE, 0, "frame must be page-aligned");
            assert!(!Ram::is_epc(*f), "EPC frames have their own lifecycle");
            self.free_list.push(f.value() / PAGE_SIZE);
        }
    }

    /// Allocates one EPC frame.
    ///
    /// # Panics
    ///
    /// Panics when the EPC is exhausted.
    pub fn alloc_epc_frame(&mut self) -> PhysAddr {
        let ppn = self.epc_next_free;
        assert!(ppn * PAGE_SIZE < layout::EPC.end(), "EPC exhausted");
        self.epc_next_free += 1;
        PhysAddr::new(ppn * PAGE_SIZE)
    }

    /// Reads raw physical memory (no protection checks — callers go
    /// through the MMU/DMA layers for that).
    ///
    /// # Panics
    ///
    /// Panics if the span leaves DRAM.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        assert!(
            layout::DRAM.contains_span(addr, buf.len() as u64),
            "physical read outside DRAM at {addr}"
        );
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr.offset(off as u64);
            let take = ((PAGE_SIZE - a.value() % PAGE_SIZE) as usize).min(buf.len() - off);
            buf[off..off + take].copy_from_slice(self.page_slice(a, take));
            off += take;
        }
    }

    /// Writes raw physical memory.
    ///
    /// # Panics
    ///
    /// Panics if the span leaves DRAM.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        assert!(
            layout::DRAM.contains_span(addr, data.len() as u64),
            "physical write outside DRAM at {addr}"
        );
        let mut off = 0usize;
        while off < data.len() {
            let a = addr.offset(off as u64);
            let take = ((PAGE_SIZE - a.value() % PAGE_SIZE) as usize).min(data.len() - off);
            self.page_slice_mut(a, take)
                .copy_from_slice(&data[off..off + take]);
            off += take;
        }
    }

    /// The `len` bytes at `addr`, which must lie in one page. An
    /// untouched page reads as zeros without being materialized.
    ///
    /// # Panics
    ///
    /// Panics if the span crosses a page or leaves DRAM.
    pub fn page_slice(&self, addr: PhysAddr, len: usize) -> &[u8] {
        static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];
        let (ppn, range) = Ram::page_span(addr, len);
        match self.pages.get(&ppn) {
            Some(page) => &page[range],
            None => &ZERO_PAGE[range],
        }
    }

    /// Mutable view of the `len` bytes at `addr`, which must lie in one
    /// page; the page is materialized (zero-filled) on first touch, as
    /// [`Ram::write`] does.
    ///
    /// # Panics
    ///
    /// Panics if the span crosses a page or leaves DRAM.
    pub fn page_slice_mut(&mut self, addr: PhysAddr, len: usize) -> &mut [u8] {
        let (ppn, range) = Ram::page_span(addr, len);
        let page = self
            .pages
            .entry(ppn)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]));
        &mut page[range]
    }

    /// Page number and in-page byte range of a one-page span.
    fn page_span(addr: PhysAddr, len: usize) -> (u64, std::ops::Range<usize>) {
        let po = (addr.value() % PAGE_SIZE) as usize;
        assert!(
            po + len <= PAGE_SIZE as usize && layout::DRAM.contains(addr),
            "DRAM page span out of range at {addr}"
        );
        (addr.value() / PAGE_SIZE, po..po + len)
    }

    /// Number of resident (materialized) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_consistent() {
        assert!(layout::DRAM.contains(layout::EPC.base));
        assert!(!layout::DRAM.contains(layout::MMIO.base));
        assert!(!layout::EPC.overlaps(&layout::MMIO));
    }

    #[test]
    fn virt_addr_decomposition() {
        let va = VirtAddr::new(0x12345);
        assert_eq!(va.vpn(), 0x12);
        assert_eq!(va.page_offset(), 0x345);
        assert_eq!(va.offset(0x10).value(), 0x12355);
    }

    #[test]
    fn rw_roundtrip_cross_page() {
        let mut ram = Ram::new();
        let addr = PhysAddr::new(PAGE_SIZE - 3);
        ram.write(addr, &[1, 2, 3, 4, 5, 6]);
        let mut buf = [0u8; 6];
        ram.read(addr, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6]);
        assert_eq!(ram.resident_pages(), 2);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let ram = Ram::new();
        let mut buf = [7u8; 16];
        ram.read(PhysAddr::new(0x5000), &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn alloc_skips_epc() {
        let mut ram = Ram::new();
        // Force the allocator close to the EPC boundary.
        ram.next_free = layout::EPC.base.value() / PAGE_SIZE - 1;
        let frames = ram.alloc_frames(3);
        assert_eq!(frames[0].value(), layout::EPC.base.value() - PAGE_SIZE);
        assert!(frames[1].value() >= layout::EPC.end());
        assert!(frames[2].value() >= layout::EPC.end());
        assert!(!Ram::is_epc(frames[1]));
    }

    #[test]
    fn epc_frames_come_from_epc() {
        let mut ram = Ram::new();
        let f = ram.alloc_epc_frame();
        assert!(Ram::is_epc(f));
        let g = ram.alloc_epc_frame();
        assert_ne!(f, g);
    }

    #[test]
    #[should_panic(expected = "outside DRAM")]
    fn mmio_hole_not_backed() {
        let mut ram = Ram::new();
        ram.write(layout::MMIO.base, &[1]);
    }

    #[test]
    fn classification() {
        assert!(Ram::is_mmio(PhysAddr::new(0xc000_1000)));
        assert!(!Ram::is_mmio(PhysAddr::new(0x1000)));
        assert!(Ram::is_epc(PhysAddr::new(0x4000_0000)));
        assert!(Ram::contains(PhysAddr::new(0x7fff_ffff)));
        assert!(!Ram::contains(PhysAddr::new(0x8000_0000)));
    }
}
