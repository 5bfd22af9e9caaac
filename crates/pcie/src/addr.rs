//! Address and device-identifier newtypes.

use std::fmt;

/// A physical (system bus) address.
///
/// Both DRAM and memory-mapped I/O live in this space; the root complex
/// decides which accesses are claimed by PCIe devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Wraps a raw address.
    pub const fn new(addr: u64) -> Self {
        PhysAddr(addr)
    }

    /// The raw address value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// This address offset by `delta` bytes.
    ///
    /// # Panics
    ///
    /// Panics on address-space overflow.
    pub fn offset(self, delta: u64) -> Self {
        PhysAddr(
            self.0
                .checked_add(delta)
                .expect("physical address overflow"),
        )
    }

    /// Byte distance from `base` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `self < base`.
    pub fn offset_from(self, base: PhysAddr) -> u64 {
        self.0.checked_sub(base.0).expect("address below base")
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#012x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A bus/device/function triple identifying a PCIe function.
///
/// ```
/// use hix_pcie::addr::Bdf;
/// let bdf = Bdf::new(1, 0, 0);
/// assert_eq!(bdf.to_string(), "01:00.0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdf {
    /// Bus number (0-255).
    pub bus: u8,
    /// Device number (0-31).
    pub device: u8,
    /// Function number (0-7).
    pub function: u8,
}

impl Bdf {
    /// Creates a BDF.
    ///
    /// # Panics
    ///
    /// Panics if `device > 31` or `function > 7`.
    pub fn new(bus: u8, device: u8, function: u8) -> Self {
        assert!(device < 32, "device number out of range");
        assert!(function < 8, "function number out of range");
        Bdf {
            bus,
            device,
            function,
        }
    }
}

impl fmt::Display for Bdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}:{:02x}.{}", self.bus, self.device, self.function)
    }
}

/// A half-open physical address range `[base, base + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysRange {
    /// First address in the range.
    pub base: PhysAddr,
    /// Length in bytes.
    pub len: u64,
}

impl PhysRange {
    /// Creates a range.
    pub fn new(base: PhysAddr, len: u64) -> Self {
        PhysRange { base, len }
    }

    /// Whether `addr` falls inside the range.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        addr >= self.base && addr.value() - self.base.value() < self.len
    }

    /// Whether `[addr, addr+len)` falls entirely inside the range.
    pub fn contains_span(&self, addr: PhysAddr, len: u64) -> bool {
        if len == 0 {
            return self.contains(addr);
        }
        self.contains(addr)
            && addr
                .value()
                .checked_add(len - 1)
                .is_some_and(|end| self.contains(PhysAddr::new(end)))
    }

    /// One past the last address (saturating).
    pub fn end(&self) -> u64 {
        self.base.value().saturating_add(self.len)
    }

    /// Whether two ranges overlap.
    pub fn overlaps(&self, other: &PhysRange) -> bool {
        self.len > 0
            && other.len > 0
            && self.base.value() < other.end()
            && other.base.value() < self.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_addr_arith() {
        let a = PhysAddr::new(0x1000);
        assert_eq!(a.offset(0x10).value(), 0x1010);
        assert_eq!(a.offset(0x10).offset_from(a), 0x10);
        assert_eq!(a.to_string(), "0x0000001000");
    }

    #[test]
    #[should_panic(expected = "below base")]
    fn offset_from_underflow() {
        PhysAddr::new(0).offset_from(PhysAddr::new(1));
    }

    #[test]
    fn bdf_displays_as_bus_device_function() {
        let bdf = Bdf::new(0x02, 0x1f, 7);
        assert_eq!(bdf.to_string(), "02:1f.7");
    }

    #[test]
    #[should_panic(expected = "device number")]
    fn bdf_rejects_bad_device() {
        Bdf::new(0, 32, 0);
    }

    #[test]
    fn range_contains() {
        let r = PhysRange::new(PhysAddr::new(0x1000), 0x100);
        assert!(r.contains(PhysAddr::new(0x1000)));
        assert!(r.contains(PhysAddr::new(0x10ff)));
        assert!(!r.contains(PhysAddr::new(0x1100)));
        assert!(!r.contains(PhysAddr::new(0xfff)));
        assert!(r.contains_span(PhysAddr::new(0x1080), 0x80));
        assert!(!r.contains_span(PhysAddr::new(0x1080), 0x81));
    }

    #[test]
    fn range_overlap() {
        let a = PhysRange::new(PhysAddr::new(0x1000), 0x100);
        let b = PhysRange::new(PhysAddr::new(0x10ff), 1);
        let c = PhysRange::new(PhysAddr::new(0x1100), 0x100);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!a.overlaps(&PhysRange::new(PhysAddr::new(0x1000), 0)));
    }
}
