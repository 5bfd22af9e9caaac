//! PCI configuration space: type 0 (endpoint) and type 1 (bridge) headers.
//!
//! The model keeps dword-granularity register access at the standard
//! offsets, including the all-ones BAR sizing protocol that §5.6 of the
//! paper calls out as conflicting with the MMIO lockdown.

use crate::addr::{PhysAddr, PhysRange};

/// Index of a Base Address Register (0-5 for endpoints, 0-1 for bridges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BarIndex(pub u8);

/// Standard config-space register offsets (dword aligned).
pub mod offsets {
    /// Vendor ID / device ID dword.
    pub const ID: u16 = 0x00;
    /// Command / status dword (bit 1 of command = memory decode enable).
    pub const COMMAND: u16 = 0x04;
    /// Class code dword.
    pub const CLASS: u16 = 0x08;
    /// First BAR; BAR *n* lives at `BAR0 + 4 n`.
    pub const BAR0: u16 = 0x10;
    /// Bridge bus numbers (primary / secondary / subordinate).
    pub const BUS_NUMBERS: u16 = 0x18;
    /// Bridge memory window (base / limit, 1 MiB units in bits 31:20/15:4).
    pub const MEMORY_WINDOW: u16 = 0x20;
    /// Expansion ROM base address register.
    pub const ROM: u16 = 0x30;
    /// Interrupt line / pin (a routing-benign register).
    pub const INTERRUPT: u16 = 0x3c;
}

/// One 32-bit memory BAR.
///
/// A size of zero marks the BAR unimplemented. Real hardware determines the
/// size by writing all-ones and reading back the mask; the model implements
/// the same probe protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Bar {
    size: u64,
    base: u64,
    probing: bool,
}

impl Bar {
    /// Creates an implemented BAR of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a nonzero power of two of at least 16.
    pub fn with_size(size: u64) -> Self {
        assert!(
            size.is_power_of_two() && size >= 16,
            "BAR size must be a power of two >= 16"
        );
        Bar {
            size,
            base: 0,
            probing: false,
        }
    }

    /// The BAR size in bytes (0 = unimplemented).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The programmed base address.
    pub fn base(&self) -> PhysAddr {
        PhysAddr::new(self.base)
    }

    /// The claimed address range, if the BAR is implemented and programmed.
    pub fn range(&self) -> Option<PhysRange> {
        if self.size == 0 || self.base == 0 {
            None
        } else {
            Some(PhysRange::new(PhysAddr::new(self.base), self.size))
        }
    }

    fn read(&self) -> u32 {
        if self.size == 0 {
            0
        } else if self.probing {
            // Sizing response: ones in the size-decoded bits.
            (!(self.size - 1)) as u32
        } else {
            self.base as u32
        }
    }

    fn write(&mut self, value: u32) {
        if self.size == 0 {
            return;
        }
        if value == u32::MAX {
            self.probing = true;
        } else {
            self.probing = false;
            self.base = (value as u64) & !(self.size - 1);
        }
    }
}

/// Header layout of a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderType {
    /// Type 0: endpoint device.
    Endpoint,
    /// Type 1: PCI-PCI bridge (root port / switch port).
    Bridge,
}

/// Bridge-only routing registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BridgeWindow {
    /// Primary (upstream) bus number.
    pub primary_bus: u8,
    /// Secondary (downstream) bus number.
    pub secondary_bus: u8,
    /// Highest bus number below this bridge.
    pub subordinate_bus: u8,
    /// Memory window forwarded downstream.
    pub window: Option<PhysRange>,
}

/// Classification of a config write for the lockdown filter (§4.3.2: the
/// root complex inspects the target register offset and discards writes
/// that would change MMIO mapping or routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteClass {
    /// Affects MMIO address decoding or packet routing.
    Routing,
    /// Cannot affect routing (status, interrupt line, …).
    Benign,
}

/// Classifies a config-space write by register offset.
pub fn classify_write(offset: u16) -> WriteClass {
    match offset & !0x3 {
        offsets::COMMAND | offsets::BUS_NUMBERS | offsets::MEMORY_WINDOW | offsets::ROM => {
            WriteClass::Routing
        }
        o if (offsets::BAR0..offsets::BAR0 + 24).contains(&o) => WriteClass::Routing,
        _ => WriteClass::Benign,
    }
}

/// A function's configuration space.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSpace {
    vendor_id: u16,
    device_id: u16,
    class_code: u32,
    command: u32,
    header: HeaderType,
    bars: [Bar; 6],
    rom: Bar,
    rom_enabled: bool,
    bridge: BridgeWindow,
    interrupt_line: u8,
}

impl ConfigSpace {
    /// Creates an endpoint config space.
    pub fn endpoint(vendor_id: u16, device_id: u16, class_code: u32) -> Self {
        ConfigSpace {
            vendor_id,
            device_id,
            class_code,
            command: 0,
            header: HeaderType::Endpoint,
            bars: [Bar::default(); 6],
            rom: Bar::default(),
            rom_enabled: false,
            bridge: BridgeWindow::default(),
            interrupt_line: 0,
        }
    }

    /// Creates a bridge (root-port) config space.
    pub fn bridge(vendor_id: u16, device_id: u16) -> Self {
        ConfigSpace {
            header: HeaderType::Bridge,
            ..ConfigSpace::endpoint(vendor_id, device_id, 0x06_04_00)
        }
    }

    /// Declares BAR `index` with the given size (setup-time only).
    ///
    /// # Panics
    ///
    /// Panics if the index exceeds 5 or size is invalid.
    pub fn set_bar_size(&mut self, index: BarIndex, size: u64) {
        self.bars[index.0 as usize] = Bar::with_size(size);
    }

    /// Declares the expansion ROM with the given size (setup-time only).
    pub fn set_rom_size(&mut self, size: u64) {
        self.rom = Bar::with_size(size);
    }

    /// The header type.
    pub fn header(&self) -> HeaderType {
        self.header
    }

    /// Vendor/device identifiers.
    pub fn id(&self) -> (u16, u16) {
        (self.vendor_id, self.device_id)
    }

    /// Whether memory decoding is enabled (command register bit 1).
    pub fn memory_enabled(&self) -> bool {
        self.command & 0b10 != 0
    }

    /// BAR `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index exceeds 5.
    pub fn bar(&self, index: BarIndex) -> &Bar {
        &self.bars[index.0 as usize]
    }

    /// The expansion ROM BAR and enable bit.
    pub fn rom(&self) -> (&Bar, bool) {
        (&self.rom, self.rom_enabled)
    }

    /// Bridge routing registers.
    pub fn bridge_window(&self) -> &BridgeWindow {
        &self.bridge
    }

    /// Mutable bridge routing registers (BIOS/setup use).
    pub fn bridge_window_mut(&mut self) -> &mut BridgeWindow {
        &mut self.bridge
    }

    /// Reads the dword at `offset`.
    pub fn read(&self, offset: u16) -> u32 {
        match offset & !0x3 {
            offsets::ID => (self.device_id as u32) << 16 | self.vendor_id as u32,
            offsets::COMMAND => self.command,
            offsets::CLASS => {
                self.class_code << 8
                    | match self.header {
                        HeaderType::Endpoint => 0,
                        HeaderType::Bridge => 1,
                    }
            }
            o if (offsets::BAR0..offsets::BAR0 + 24).contains(&o) => {
                let idx = ((o - offsets::BAR0) / 4) as usize;
                match self.header {
                    HeaderType::Endpoint => self.bars[idx].read(),
                    // Bridges only implement BAR0/1; bus regs live above.
                    HeaderType::Bridge if idx < 2 => self.bars[idx].read(),
                    HeaderType::Bridge if o == offsets::BUS_NUMBERS => self.read_bus_numbers(),
                    HeaderType::Bridge if o == offsets::MEMORY_WINDOW => self.read_window(),
                    HeaderType::Bridge => 0,
                }
            }
            offsets::ROM => {
                let v = self.rom.read();
                v | self.rom_enabled as u32
            }
            offsets::INTERRUPT => self.interrupt_line as u32,
            _ => 0,
        }
    }

    /// Writes the dword at `offset` (no lockdown filtering here — that is
    /// the root complex's job).
    pub fn write(&mut self, offset: u16, value: u32) {
        match offset & !0x3 {
            offsets::COMMAND => self.command = value & 0x7,
            o if (offsets::BAR0..offsets::BAR0 + 24).contains(&o) => {
                let idx = ((o - offsets::BAR0) / 4) as usize;
                match self.header {
                    HeaderType::Endpoint => self.bars[idx].write(value),
                    HeaderType::Bridge if idx < 2 => self.bars[idx].write(value),
                    HeaderType::Bridge if o == offsets::BUS_NUMBERS => {
                        self.write_bus_numbers(value)
                    }
                    HeaderType::Bridge if o == offsets::MEMORY_WINDOW => self.write_window(value),
                    HeaderType::Bridge => {}
                }
            }
            offsets::ROM => {
                self.rom_enabled = value & 1 != 0;
                self.rom.write(value & !0x7ff);
            }
            offsets::INTERRUPT => self.interrupt_line = value as u8,
            _ => {}
        }
    }

    fn read_bus_numbers(&self) -> u32 {
        (self.bridge.subordinate_bus as u32) << 16
            | (self.bridge.secondary_bus as u32) << 8
            | self.bridge.primary_bus as u32
    }

    fn write_bus_numbers(&mut self, v: u32) {
        self.bridge.primary_bus = v as u8;
        self.bridge.secondary_bus = (v >> 8) as u8;
        self.bridge.subordinate_bus = (v >> 16) as u8;
    }

    fn read_window(&self) -> u32 {
        match self.bridge.window {
            None => 0xfff0, // limit < base: window closed
            Some(r) => {
                let base_mb = (r.base.value() >> 20) as u32;
                let limit_mb = ((r.end() - 1) >> 20) as u32;
                (limit_mb << 20) | ((base_mb & 0xfff) << 4)
            }
        }
    }

    fn write_window(&mut self, v: u32) {
        let base = ((v as u64 >> 4) & 0xfff) << 20;
        let limit_mb = (v as u64) >> 20;
        let end = (limit_mb + 1) << 20;
        self.bridge.window = if end > base {
            Some(PhysRange::new(PhysAddr::new(base), end - base))
        } else {
            None
        };
    }

    /// Serializes the routing-relevant registers for measurement (§4.3.2:
    /// the MMIO configuration register values become part of the GPU
    /// enclave measurement).
    pub fn routing_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        for off in [
            offsets::ID,
            offsets::COMMAND,
            offsets::BUS_NUMBERS,
            offsets::MEMORY_WINDOW,
            offsets::ROM,
        ] {
            out.extend_from_slice(&self.read(off).to_le_bytes());
        }
        for i in 0..6 {
            out.extend_from_slice(&self.read(offsets::BAR0 + 4 * i).to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_sizing_protocol() {
        let mut cfg = ConfigSpace::endpoint(0x10de, 0x1080, 0x030000);
        cfg.set_bar_size(BarIndex(0), 16 << 20);
        cfg.write(offsets::BAR0, 0xc000_0000);
        assert_eq!(cfg.read(offsets::BAR0), 0xc000_0000);
        // all-ones probe returns the size mask
        cfg.write(offsets::BAR0, u32::MAX);
        assert_eq!(cfg.read(offsets::BAR0), !(16u32 * 1024 * 1024 - 1));
        // reprogramming restores normal reads, aligned down
        cfg.write(offsets::BAR0, 0xc012_3456);
        assert_eq!(cfg.read(offsets::BAR0), 0xc000_0000);
        assert_eq!(cfg.bar(BarIndex(0)).range().unwrap().len, 16 << 20);
    }

    #[test]
    fn unimplemented_bar_reads_zero() {
        let mut cfg = ConfigSpace::endpoint(1, 2, 0);
        cfg.write(offsets::BAR0 + 4, 0x1234_0000);
        assert_eq!(cfg.read(offsets::BAR0 + 4), 0);
    }

    #[test]
    fn id_and_class() {
        let cfg = ConfigSpace::endpoint(0x10de, 0x1080, 0x030000);
        assert_eq!(cfg.read(offsets::ID), 0x1080_10de);
        assert_eq!(cfg.id(), (0x10de, 0x1080));
        assert_eq!(cfg.read(offsets::CLASS) >> 8, 0x030000);
    }

    #[test]
    fn command_memory_enable() {
        let mut cfg = ConfigSpace::endpoint(1, 2, 0);
        assert!(!cfg.memory_enabled());
        cfg.write(offsets::COMMAND, 0b10);
        assert!(cfg.memory_enabled());
    }

    #[test]
    fn bridge_bus_numbers_roundtrip() {
        let mut cfg = ConfigSpace::bridge(0x8086, 0x3420);
        cfg.write(offsets::BUS_NUMBERS, 0x0002_0100);
        let w = cfg.bridge_window();
        assert_eq!(w.primary_bus, 0);
        assert_eq!(w.secondary_bus, 1);
        assert_eq!(w.subordinate_bus, 2);
        assert_eq!(cfg.read(offsets::BUS_NUMBERS), 0x0002_0100);
    }

    #[test]
    fn bridge_window_roundtrip() {
        let mut cfg = ConfigSpace::bridge(0x8086, 0x3420);
        // base 0xc0000000, limit covering 256 MiB
        let base_field = (0xc0000000u64 >> 20) as u32 & 0xfff;
        let limit_mb = ((0xc0000000u64 + (256 << 20) - 1) >> 20) as u32;
        cfg.write(offsets::MEMORY_WINDOW, (limit_mb << 20) | (base_field << 4));
        let w = cfg.bridge_window().window.unwrap();
        assert_eq!(w.base.value(), 0xc000_0000);
        assert_eq!(w.len, 256 << 20);
        let read_back = cfg.read(offsets::MEMORY_WINDOW);
        cfg.write(offsets::MEMORY_WINDOW, read_back);
        assert_eq!(cfg.bridge_window().window.unwrap(), w);
    }

    #[test]
    fn rom_bar_enable_bit() {
        let mut cfg = ConfigSpace::endpoint(1, 2, 0);
        cfg.set_rom_size(64 << 10);
        cfg.write(offsets::ROM, 0xfff8_0001);
        let (rom, enabled) = cfg.rom();
        assert!(enabled);
        assert_eq!(rom.base().value(), 0xfff8_0000);
    }

    #[test]
    fn write_classification() {
        assert_eq!(classify_write(offsets::COMMAND), WriteClass::Routing);
        assert_eq!(classify_write(offsets::BAR0), WriteClass::Routing);
        assert_eq!(classify_write(offsets::BAR0 + 20), WriteClass::Routing);
        assert_eq!(classify_write(offsets::BUS_NUMBERS), WriteClass::Routing);
        assert_eq!(classify_write(offsets::MEMORY_WINDOW), WriteClass::Routing);
        assert_eq!(classify_write(offsets::ROM), WriteClass::Routing);
        assert_eq!(classify_write(offsets::INTERRUPT), WriteClass::Benign);
        assert_eq!(classify_write(offsets::ID), WriteClass::Benign);
    }

    #[test]
    fn routing_snapshot_changes_with_bars() {
        let mut cfg = ConfigSpace::endpoint(1, 2, 0);
        cfg.set_bar_size(BarIndex(0), 4096);
        let a = cfg.routing_snapshot();
        cfg.write(offsets::BAR0, 0xd000_0000);
        let b = cfg.routing_snapshot();
        assert_ne!(a, b);
    }
}
