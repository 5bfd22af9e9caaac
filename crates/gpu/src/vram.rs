//! Device memory (VRAM), sparsely materialized.

use std::collections::BTreeMap;
use std::fmt;

/// GPU page size (matches the host's 4 KiB granularity).
pub const GPU_PAGE_SIZE: u64 = 4096;

/// A device-virtual address (what kernels and the driver API use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DevAddr(pub u64);

impl DevAddr {
    /// Raw value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Device-virtual page number.
    pub const fn vpn(self) -> u64 {
        self.0 / GPU_PAGE_SIZE
    }

    /// Offset within the page.
    pub const fn page_offset(self) -> u64 {
        self.0 % GPU_PAGE_SIZE
    }

    /// This address offset by `delta` bytes.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    pub fn offset(self, delta: u64) -> Self {
        DevAddr(self.0.checked_add(delta).expect("device address overflow"))
    }
}

impl fmt::Display for DevAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev:{:#010x}", self.0)
    }
}

/// Whether the `len` bytes from `start` fit below the top of a 64-bit
/// address space, device or bus (`len == 0` always fits). Every
/// range-walking command checks its ranges with this once, up front, so
/// a walk's running address ([`DevAddr::offset`]) can never overflow.
pub fn span_fits(start: u64, len: u64) -> bool {
    len == 0 || start.checked_add(len - 1).is_some()
}

/// Device-physical VRAM.
pub struct Vram {
    pages: BTreeMap<u64, Box<[u8; GPU_PAGE_SIZE as usize]>>,
    size: u64,
}

impl fmt::Debug for Vram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vram")
            .field("size", &self.size)
            .field("resident_pages", &self.pages.len())
            .finish()
    }
}

impl Vram {
    /// Creates VRAM of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is page-aligned and nonzero.
    pub fn new(size: u64) -> Self {
        assert!(
            size > 0 && size.is_multiple_of(GPU_PAGE_SIZE),
            "VRAM size must be page-aligned"
        );
        Vram {
            pages: BTreeMap::new(),
            size,
        }
    }

    /// Total capacity in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Reads device-physical memory (zero-fill for untouched pages).
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds capacity (device model bug).
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        assert!(
            addr.checked_add(buf.len() as u64)
                .is_some_and(|e| e <= self.size),
            "VRAM read out of range"
        );
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let take = ((GPU_PAGE_SIZE - a % GPU_PAGE_SIZE) as usize).min(buf.len() - off);
            buf[off..off + take].copy_from_slice(self.page_slice(a, take));
            off += take;
        }
    }

    /// Writes device-physical memory.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds capacity.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        assert!(
            addr.checked_add(data.len() as u64)
                .is_some_and(|e| e <= self.size),
            "VRAM write out of range"
        );
        let mut off = 0usize;
        while off < data.len() {
            let a = addr + off as u64;
            let take = ((GPU_PAGE_SIZE - a % GPU_PAGE_SIZE) as usize).min(data.len() - off);
            self.page_slice_mut(a, take)
                .copy_from_slice(&data[off..off + take]);
            off += take;
        }
    }

    /// The `len` bytes at device-physical `addr`, which must lie in one
    /// page. An untouched page reads as zeros without being
    /// materialized. Lets a DMA engine copy a page straight to the host.
    ///
    /// # Panics
    ///
    /// Panics if the span crosses a page or exceeds capacity.
    pub fn page_slice(&self, addr: u64, len: usize) -> &[u8] {
        static ZERO_PAGE: [u8; GPU_PAGE_SIZE as usize] = [0; GPU_PAGE_SIZE as usize];
        let (ppn, range) = self.page_span(addr, len);
        match self.pages.get(&ppn) {
            Some(page) => &page[range],
            None => &ZERO_PAGE[range],
        }
    }

    /// Mutable view of the `len` bytes at device-physical `addr`, which
    /// must lie in one page; the page is materialized (zero-filled) on
    /// first touch. Lets a DMA engine copy a host page straight in.
    ///
    /// # Panics
    ///
    /// Panics if the span crosses a page or exceeds capacity.
    pub fn page_slice_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        let (ppn, range) = self.page_span(addr, len);
        let page = self
            .pages
            .entry(ppn)
            .or_insert_with(|| Box::new([0u8; GPU_PAGE_SIZE as usize]));
        &mut page[range]
    }

    /// Page number and in-page byte range of a one-page span.
    fn page_span(&self, addr: u64, len: usize) -> (u64, std::ops::Range<usize>) {
        let po = (addr % GPU_PAGE_SIZE) as usize;
        assert!(
            po + len <= GPU_PAGE_SIZE as usize && addr < self.size,
            "VRAM page span out of range"
        );
        (addr / GPU_PAGE_SIZE, po..po + len)
    }

    /// Fills a range with `value`.
    pub fn fill(&mut self, addr: u64, len: u64, value: u8) {
        // Page-wise to keep sparsity for whole-page zero fills.
        let mut off = 0u64;
        while off < len {
            let a = addr + off;
            let ppn = a / GPU_PAGE_SIZE;
            let po = a % GPU_PAGE_SIZE;
            let take = (GPU_PAGE_SIZE - po).min(len - off);
            if value == 0 && po == 0 && take == GPU_PAGE_SIZE {
                self.pages.remove(&ppn); // unmaterialized pages read zero
            } else {
                let page = self
                    .pages
                    .entry(ppn)
                    .or_insert_with(|| Box::new([0u8; GPU_PAGE_SIZE as usize]));
                page[po as usize..(po + take) as usize].fill(value);
            }
            off += take;
        }
    }

    /// Clears everything (device reset / cold boot).
    pub fn clear(&mut self) {
        self.pages.clear();
    }

    /// Materialized page count (diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_roundtrip() {
        let mut v = Vram::new(1 << 20);
        v.write(GPU_PAGE_SIZE - 2, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        v.read(GPU_PAGE_SIZE - 2, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn untouched_reads_zero() {
        let v = Vram::new(1 << 20);
        let mut buf = [9u8; 8];
        v.read(0x1234, &mut buf);
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn fill_and_sparse_zero() {
        let mut v = Vram::new(1 << 20);
        v.write(0, &[0xaa; 8192]);
        assert_eq!(v.resident_pages(), 2);
        v.fill(0, 8192, 0);
        assert_eq!(v.resident_pages(), 0, "zero fill de-materializes pages");
        v.fill(100, 10, 0x55);
        let mut buf = [0u8; 12];
        v.read(99, &mut buf);
        assert_eq!(buf[0], 0);
        assert_eq!(&buf[1..11], &[0x55; 10]);
        assert_eq!(buf[11], 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_write_panics() {
        Vram::new(1 << 20).write((1 << 20) - 1, &[0, 0]);
    }

    #[test]
    fn page_slices_view_one_page() {
        let mut v = Vram::new(1 << 20);
        assert_eq!(
            v.page_slice(0x2ff0, 16),
            &[0u8; 16],
            "untouched page reads zero"
        );
        assert_eq!(v.resident_pages(), 0, "reading does not materialize");
        v.page_slice_mut(0x2ff0, 16).copy_from_slice(&[7; 16]);
        let mut buf = [0u8; 17];
        v.read(0x2fef, &mut buf);
        assert_eq!(buf[0], 0);
        assert_eq!(&buf[1..], &[7; 16]);
        assert_eq!(v.page_slice(0x2ff8, 8), &[7; 8]);
    }

    #[test]
    #[should_panic(expected = "page span out of range")]
    fn page_slice_rejects_page_crossing() {
        let _ = Vram::new(1 << 20).page_slice(0x2ff0, 17);
    }

    #[test]
    fn dev_addr_helpers() {
        let a = DevAddr(0x12345);
        assert_eq!(a.vpn(), 0x12);
        assert_eq!(a.page_offset(), 0x345);
        assert_eq!(a.offset(0xbb).value(), 0x12400);
        assert_eq!(a.to_string(), "dev:0x00012345");
        let top = u64::MAX - 0xfff;
        assert!(span_fits(top, 0x1000), "the top page itself fits");
        assert!(!span_fits(top, 0x1001));
        assert!(span_fits(u64::MAX, 0) && span_fits(u64::MAX, 1));
    }
}
