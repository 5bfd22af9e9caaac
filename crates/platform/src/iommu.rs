//! IOMMU: DMA remapping controlled by the (untrusted) OS.
//!
//! Devices address host memory through bus addresses; the IOMMU
//! translates them to physical frames. The OS owns this table, so a
//! privileged adversary can redirect any DMA (§4.3.3 / Fig. 10 ⑤) — HIX
//! does not try to stop that; it makes redirected data useless via
//! authenticated encryption. The one *hardware* rule the model enforces
//! is SGX's: device DMA can never touch the EPC.

use std::collections::BTreeMap;

use hix_pcie::addr::PhysAddr;
use hix_pcie::device::{DmaBus, DmaFault};

use crate::mem::{Ram, PAGE_SIZE};

/// The DMA remapping table.
#[derive(Debug, Default)]
pub struct Iommu {
    // bus page -> phys page
    map: BTreeMap<u64, u64>,
    passthrough: bool,
}

impl Iommu {
    /// Creates an IOMMU with an empty table (no DMA possible).
    pub fn new() -> Self {
        Iommu::default()
    }

    /// Enables identity passthrough (bus address == physical address),
    /// the configuration many systems boot with.
    pub fn set_passthrough(&mut self, on: bool) {
        self.passthrough = on;
    }

    /// Maps bus page `bus` to physical frame `pa` (OS-controlled; the
    /// adversary calls this too).
    ///
    /// # Panics
    ///
    /// Panics if either address is not page-aligned.
    pub fn map(&mut self, bus: PhysAddr, pa: PhysAddr) {
        assert_eq!(
            bus.value() % PAGE_SIZE,
            0,
            "bus address must be page-aligned"
        );
        assert_eq!(
            pa.value() % PAGE_SIZE,
            0,
            "physical address must be page-aligned"
        );
        self.map
            .insert(bus.value() / PAGE_SIZE, pa.value() / PAGE_SIZE);
    }

    /// Removes a mapping.
    pub fn unmap(&mut self, bus: PhysAddr) {
        self.map.remove(&(bus.value() / PAGE_SIZE));
    }

    /// Translates a bus address. Explicit mappings take precedence;
    /// passthrough (identity) applies to unmapped pages when enabled.
    pub fn translate(&self, bus: PhysAddr) -> Option<PhysAddr> {
        if let Some(page) = self.map.get(&(bus.value() / PAGE_SIZE)) {
            return Some(PhysAddr::new(page * PAGE_SIZE + bus.value() % PAGE_SIZE));
        }
        if self.passthrough {
            return Some(bus);
        }
        None
    }
}

/// A [`DmaBus`] over the IOMMU + DRAM, handed to devices when they tick.
pub struct DmaPort<'a> {
    iommu: &'a Iommu,
    ram: &'a mut Ram,
}

impl<'a> DmaPort<'a> {
    /// Creates the port.
    pub fn new(iommu: &'a Iommu, ram: &'a mut Ram) -> Self {
        DmaPort { iommu, ram }
    }

    fn translate_checked(&self, addr: PhysAddr) -> Result<PhysAddr, DmaFault> {
        let pa = self.iommu.translate(addr).ok_or(DmaFault { addr })?;
        // Hardware rule: devices can never DMA into the EPC, and the
        // target must be populated DRAM.
        if Ram::is_epc(pa) || !Ram::contains(pa) {
            return Err(DmaFault { addr });
        }
        Ok(pa)
    }
}

impl DmaBus for DmaPort<'_> {
    fn dma_read(&mut self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), DmaFault> {
        let mut off = 0usize;
        while off < buf.len() {
            let bus = addr.offset(off as u64);
            let take = ((PAGE_SIZE - bus.value() % PAGE_SIZE) as usize).min(buf.len() - off);
            let pa = self.translate_checked(bus)?;
            self.ram.read(pa, &mut buf[off..off + take]);
            off += take;
        }
        Ok(())
    }

    fn dma_write(&mut self, addr: PhysAddr, data: &[u8]) -> Result<(), DmaFault> {
        let mut off = 0usize;
        while off < data.len() {
            let bus = addr.offset(off as u64);
            let take = ((PAGE_SIZE - bus.value() % PAGE_SIZE) as usize).min(data.len() - off);
            let pa = self.translate_checked(bus)?;
            self.ram.write(pa, &data[off..off + take]);
            off += take;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::layout;

    #[test]
    fn translate_with_table() {
        let mut iommu = Iommu::new();
        assert!(iommu.translate(PhysAddr::new(0x1000)).is_none());
        iommu.map(PhysAddr::new(0x1000), PhysAddr::new(0x20_0000));
        assert_eq!(
            iommu.translate(PhysAddr::new(0x1234)),
            Some(PhysAddr::new(0x20_0234))
        );
        iommu.unmap(PhysAddr::new(0x1000));
        assert!(iommu.translate(PhysAddr::new(0x1000)).is_none());
    }

    #[test]
    fn passthrough_mode() {
        let mut iommu = Iommu::new();
        iommu.set_passthrough(true);
        assert_eq!(
            iommu.translate(PhysAddr::new(0xabc)),
            Some(PhysAddr::new(0xabc))
        );
    }

    #[test]
    fn dma_roundtrip_cross_page() {
        let mut iommu = Iommu::new();
        let mut ram = Ram::new();
        // Two discontiguous frames mapped at contiguous bus pages.
        iommu.map(PhysAddr::new(0x1000), PhysAddr::new(0x30_0000));
        iommu.map(PhysAddr::new(0x2000), PhysAddr::new(0x50_0000));
        let data: Vec<u8> = (0..500u32).map(|i| i as u8).collect();
        let start = PhysAddr::new(0x1000 + PAGE_SIZE - 100);
        {
            let mut port = DmaPort::new(&iommu, &mut ram);
            port.dma_write(start, &data).unwrap();
            let mut back = vec![0u8; data.len()];
            port.dma_read(start, &mut back).unwrap();
            assert_eq!(back, data);
        }
        // The bytes really landed in the two frames.
        let mut head = vec![0u8; 100];
        ram.read(PhysAddr::new(0x30_0000 + PAGE_SIZE - 100), &mut head);
        assert_eq!(&head[..], &data[..100]);
    }

    #[test]
    fn unmapped_dma_faults() {
        let iommu = Iommu::new();
        let mut ram = Ram::new();
        let mut port = DmaPort::new(&iommu, &mut ram);
        let err = port.dma_write(PhysAddr::new(0x9000), &[1, 2, 3]);
        assert!(err.is_err());
    }

    #[test]
    fn dma_into_epc_is_blocked() {
        // Even if the OS maps a bus page straight at the EPC, the DMA is
        // refused by hardware (SGX rule).
        let mut iommu = Iommu::new();
        let mut ram = Ram::new();
        iommu.map(PhysAddr::new(0x1000), layout::EPC.base);
        let mut port = DmaPort::new(&iommu, &mut ram);
        assert!(port.dma_write(PhysAddr::new(0x1000), &[1]).is_err());
        assert!(port.dma_read(PhysAddr::new(0x1000), &mut [0]).is_err());
    }

    #[test]
    fn passthrough_dma_to_mmio_hole_faults() {
        let mut iommu = Iommu::new();
        iommu.set_passthrough(true);
        let mut ram = Ram::new();
        let mut port = DmaPort::new(&iommu, &mut ram);
        assert!(port.dma_write(layout::MMIO.base, &[1]).is_err());
    }
}
