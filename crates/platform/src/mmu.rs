//! Page tables, TLB, and access-fault taxonomy.
//!
//! Page tables are *software* structures owned by the OS — in the HIX
//! threat model that means the adversary writes them freely (including
//! [`PageTable::map`] over existing translations, the §5.5 "modify the
//! page table entry related to the MMIO" attack). Security comes from the
//! hardware walker in [`crate::machine`], which validates every
//! translation against the EPCM and TGMR before it may enter the TLB.

use std::collections::BTreeMap;

use hix_pcie::addr::PhysAddr;

use crate::mem::{VirtAddr, PAGE_SIZE};

/// Why a memory access was denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessFault {
    /// No translation for the virtual page.
    NotMapped(VirtAddr),
    /// Write to a read-only mapping.
    ReadOnly(VirtAddr),
    /// SGX denied the access (EPC page not owned by the accessor, or an
    /// enclave mapping that disagrees with the EPCM).
    EpcDenied(VirtAddr),
    /// HIX denied the access (GPU MMIO touched by anyone but the GPU
    /// enclave, or a translation that disagrees with the TGMR).
    TgmrDenied(VirtAddr),
    /// The physical address is unpopulated (no DRAM, no device BAR).
    BusError(PhysAddr),
}

impl std::fmt::Display for AccessFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessFault::NotMapped(va) => write!(f, "page fault: {va} not mapped"),
            AccessFault::ReadOnly(va) => write!(f, "protection fault: {va} is read-only"),
            AccessFault::EpcDenied(va) => write!(f, "SGX abort: EPC access denied at {va}"),
            AccessFault::TgmrDenied(va) => write!(f, "HIX abort: MMIO access denied at {va}"),
            AccessFault::BusError(pa) => write!(f, "bus error at {pa}"),
        }
    }
}

impl std::error::Error for AccessFault {}

/// A page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Physical page number.
    pub ppn: u64,
    /// Whether writes are permitted.
    pub writable: bool,
}

impl Pte {
    /// Physical base address of the page.
    pub fn base(&self) -> PhysAddr {
        PhysAddr::new(self.ppn * PAGE_SIZE)
    }
}

/// A per-process page table (page-granular map; the multi-level radix of
/// real x86 is collapsed since only the final translation matters to the
/// security argument).
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    entries: BTreeMap<u64, Pte>,
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Installs (or silently replaces — the OS may do that maliciously) a
    /// translation from the page of `va` to the frame at `pa`.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not page-aligned.
    pub fn map(&mut self, va: VirtAddr, pa: PhysAddr, writable: bool) {
        assert_eq!(pa.value() % PAGE_SIZE, 0, "frame must be page-aligned");
        self.entries.insert(
            va.vpn(),
            Pte {
                ppn: pa.value() / PAGE_SIZE,
                writable,
            },
        );
    }

    /// Removes the translations of the `pages` pages starting at `va`'s
    /// page; returns whether any existed.
    pub fn unmap_range(&mut self, va: VirtAddr, pages: u64) -> bool {
        let first = va.vpn();
        let mapped: Vec<u64> =
            self.entries.range(first..first + pages).map(|(v, _)| *v).collect();
        for vpn in &mapped {
            self.entries.remove(vpn);
        }
        !mapped.is_empty()
    }

    /// Looks up the entry covering `va`.
    pub fn walk(&self, va: VirtAddr) -> Option<Pte> {
        self.entries.get(&va.vpn()).copied()
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A small fully-associative TLB with FIFO replacement.
///
/// Entries are inserted only after the hardware walker validates the
/// translation; lookups bypass validation (that is exactly the
/// architecture HIX extends — checks happen at fill time, §4.3.1).
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<(u64, Pte)>,
    capacity: usize,
    next_victim: usize,
    hits: u64,
    misses: u64,
}

impl Default for Tlb {
    fn default() -> Self {
        Tlb::new(64)
    }
}

impl Tlb {
    /// Creates a TLB with the given entry capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        Tlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            next_victim: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up the translation for `va`'s page.
    pub fn lookup(&mut self, va: VirtAddr) -> Option<Pte> {
        let vpn = va.vpn();
        match self.entries.iter().find(|(v, _)| *v == vpn) {
            Some((_, pte)) => {
                self.hits += 1;
                Some(*pte)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a validated translation, evicting FIFO if full.
    pub fn insert(&mut self, va: VirtAddr, pte: Pte) {
        let vpn = va.vpn();
        if let Some(slot) = self.entries.iter_mut().find(|(v, _)| *v == vpn) {
            slot.1 = pte;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((vpn, pte));
        } else {
            self.entries[self.next_victim] = (vpn, pte);
            self.next_victim = (self.next_victim + 1) % self.capacity;
        }
    }

    /// Drops every entry (context switch / shootdown).
    pub fn flush(&mut self) {
        self.entries.clear();
        self.next_victim = 0;
    }

    /// Drops the entry for one page.
    pub fn flush_page(&mut self, va: VirtAddr) {
        let vpn = va.vpn();
        self.entries.retain(|(v, _)| *v != vpn);
        self.next_victim = 0;
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(v: u64) -> PhysAddr {
        PhysAddr::new(v)
    }

    #[test]
    fn map_walk_unmap() {
        let mut pt = PageTable::new();
        assert!(pt.is_empty());
        pt.map(VirtAddr::new(0x7000_1234), pa(0x9000), true);
        let pte = pt.walk(VirtAddr::new(0x7000_1fff)).unwrap();
        assert_eq!(pte.base(), pa(0x9000));
        assert!(pte.writable);
        assert!(pt.unmap_range(VirtAddr::new(0x7000_1000), 1));
        assert!(pt.walk(VirtAddr::new(0x7000_1234)).is_none());
        assert!(!pt.unmap_range(VirtAddr::new(0x7000_0000), 1));
    }

    #[test]
    fn map_replaces_existing() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x1000), pa(0x2000), true);
        pt.map(VirtAddr::new(0x1000), pa(0x3000), false);
        let pte = pt.walk(VirtAddr::new(0x1000)).unwrap();
        assert_eq!(pte.base(), pa(0x3000));
        assert!(!pte.writable);
        assert_eq!(pt.len(), 1);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_frame_rejected() {
        PageTable::new().map(VirtAddr::new(0), pa(0x123), true);
    }

    #[test]
    fn tlb_hit_miss_counters() {
        let mut tlb = Tlb::new(2);
        assert!(tlb.lookup(VirtAddr::new(0x1000)).is_none());
        tlb.insert(VirtAddr::new(0x1000), Pte { ppn: 5, writable: true });
        assert!(tlb.lookup(VirtAddr::new(0x1fff)).is_some());
        assert_eq!(tlb.stats(), (1, 1));
    }

    #[test]
    fn tlb_fifo_eviction() {
        let mut tlb = Tlb::new(2);
        for i in 0..3u64 {
            tlb.insert(
                VirtAddr::new(i * PAGE_SIZE),
                Pte { ppn: i, writable: false },
            );
        }
        // First entry was evicted.
        assert!(tlb.lookup(VirtAddr::new(0)).is_none());
        assert!(tlb.lookup(VirtAddr::new(PAGE_SIZE)).is_some());
        assert!(tlb.lookup(VirtAddr::new(2 * PAGE_SIZE)).is_some());
    }

    #[test]
    fn tlb_flush_page() {
        let mut tlb = Tlb::new(4);
        tlb.insert(VirtAddr::new(0x1000), Pte { ppn: 1, writable: true });
        tlb.insert(VirtAddr::new(0x2000), Pte { ppn: 2, writable: true });
        tlb.flush_page(VirtAddr::new(0x1000));
        assert!(tlb.lookup(VirtAddr::new(0x1000)).is_none());
        assert!(tlb.lookup(VirtAddr::new(0x2000)).is_some());
        tlb.flush();
        assert!(tlb.lookup(VirtAddr::new(0x2000)).is_none());
    }

    #[test]
    fn tlb_insert_updates_in_place() {
        let mut tlb = Tlb::new(2);
        tlb.insert(VirtAddr::new(0x1000), Pte { ppn: 1, writable: false });
        tlb.insert(VirtAddr::new(0x1000), Pte { ppn: 9, writable: true });
        let pte = tlb.lookup(VirtAddr::new(0x1000)).unwrap();
        assert_eq!(pte.ppn, 9);
    }
}
