//! The PCIe fabric: root complex, root ports, endpoint routing, and the
//! HIX MMIO lockdown.
//!
//! Topology model: the root complex sits on bus 0. Root ports (type-1
//! bridges) occupy bus-0 device slots; each forwards a memory window and a
//! secondary-bus range to the endpoints behind it. This mirrors the
//! paper's prototype, where the GPU hangs off an emulated IOH3420 root
//! port whose modified model implements the lockdown.

use std::collections::BTreeMap;

use hix_sim::{Clock, CostModel, Counter, EventKind, Trace};

use crate::addr::{Bdf, PhysAddr};
use crate::config::{classify_write, BarIndex, BridgeWindow, ConfigSpace, HeaderType, WriteClass};
use crate::device::PcieDevice;

/// Errors from fabric operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcieError {
    /// No function at the addressed BDF.
    NoDevice(Bdf),
    /// A config write was discarded by the MMIO lockdown.
    LockedDown(Bdf),
    /// The BDF slot is already occupied.
    SlotOccupied(Bdf),
    /// The device is behind no root port (unroutable).
    Unroutable(Bdf),
}

impl std::fmt::Display for PcieError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcieError::NoDevice(bdf) => write!(f, "no device at {bdf}"),
            PcieError::LockedDown(bdf) => {
                write!(f, "config write to {bdf} discarded by MMIO lockdown")
            }
            PcieError::SlotOccupied(bdf) => write!(f, "slot {bdf} already occupied"),
            PcieError::Unroutable(bdf) => write!(f, "{bdf} is not behind any root port"),
        }
    }
}

impl std::error::Error for PcieError {}

/// How a function came to exist on the fabric.
///
/// The root complex knows which functions were present at cold boot
/// (enumerated hardware) versus added later by software (an emulated GPU
/// set up by a privileged adversary — attack ⑥ in Fig. 10). HIX uses this
/// to refuse `EGCREATE` on non-hardware devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Physically present at boot enumeration.
    Hardware,
    /// Surfaced by software after boot (hot-added / emulated).
    Emulated,
}

struct Slot {
    device: Box<dyn PcieDevice>,
    provenance: Provenance,
}

/// The PCIe fabric (root complex + root ports + optional switches +
/// endpoints).
pub struct PcieFabric {
    bridges: BTreeMap<Bdf, ConfigSpace>,
    endpoints: BTreeMap<Bdf, Slot>,
    locked: Vec<Bdf>,
    clock: Clock,
    model: CostModel,
    trace: Trace,
}

impl Default for PcieFabric {
    fn default() -> Self {
        PcieFabric::new()
    }
}

impl PcieFabric {
    /// Creates an empty fabric with a private clock (use
    /// [`PcieFabric::with_clock`] to share the platform clock).
    pub fn new() -> Self {
        PcieFabric::with_clock(Clock::new(), CostModel::paper(), Trace::new())
    }

    /// Creates a fabric charging time to the shared `clock`.
    pub fn with_clock(clock: Clock, model: CostModel, trace: Trace) -> Self {
        PcieFabric {
            bridges: BTreeMap::new(),
            endpoints: BTreeMap::new(),
            locked: Vec::new(),
            clock,
            model,
            trace,
        }
    }

    /// Installs a type-1 bridge (BIOS/boot time): a root port on bus 0,
    /// or a switch port on a bus an existing bridge already forwards.
    ///
    /// # Errors
    ///
    /// Returns [`PcieError::SlotOccupied`] or [`PcieError::Unroutable`].
    pub fn add_bridge(&mut self, bdf: Bdf, config: ConfigSpace) -> Result<(), PcieError> {
        assert_eq!(
            config.header(),
            HeaderType::Bridge,
            "{bdf} must be a bridge"
        );
        if self.bridges.contains_key(&bdf) || self.endpoints.contains_key(&bdf) {
            return Err(PcieError::SlotOccupied(bdf));
        }
        if bdf.bus != 0 && self.bridge_path_to_bus(bdf.bus).is_empty() {
            return Err(PcieError::Unroutable(bdf));
        }
        self.bridges.insert(bdf, config);
        Ok(())
    }

    /// Attaches an endpoint device at `bdf` with the given provenance.
    ///
    /// # Errors
    ///
    /// Returns [`PcieError::SlotOccupied`] if the slot is taken, or
    /// [`PcieError::Unroutable`] if no root port forwards `bdf.bus`.
    pub fn add_endpoint(
        &mut self,
        bdf: Bdf,
        device: Box<dyn PcieDevice>,
        provenance: Provenance,
    ) -> Result<(), PcieError> {
        if self.endpoints.contains_key(&bdf) || self.bridges.contains_key(&bdf) {
            return Err(PcieError::SlotOccupied(bdf));
        }
        if self.bridge_path_to_bus(bdf.bus).is_empty() {
            return Err(PcieError::Unroutable(bdf));
        }
        self.endpoints.insert(bdf, Slot { device, provenance });
        Ok(())
    }

    /// Every bridge whose forwarded bus range covers `bus`, shallowest
    /// (root port) first — the packet's path through the hierarchy.
    fn bridge_path_to_bus(&self, bus: u8) -> Vec<Bdf> {
        let mut path: Vec<Bdf> = self
            .bridges
            .iter()
            .filter(|(_, cfg)| forwards_bus(cfg.bridge_window(), bus))
            .map(|(bdf, _)| *bdf)
            .collect();
        // A bridge deeper in the hierarchy sits on a higher bus number.
        path.sort_by_key(|b| b.bus);
        path
    }

    /// Whether a packet for `addr` reaches `bus`: at least one bridge
    /// forwards the bus, and every bridge that does also forwards the
    /// address. The same test as walking [`Self::bridge_path_to_bus`],
    /// made in place so MMIO routing never allocates.
    fn path_forwards(&self, bus: u8, addr: PhysAddr) -> bool {
        let mut routed = false;
        for cfg in self.bridges.values() {
            let w = cfg.bridge_window();
            if forwards_bus(w, bus) {
                if !w.window.is_some_and(|win| win.contains(addr)) {
                    return false;
                }
                routed = true;
            }
        }
        routed
    }

    /// Whether the function at `bdf` was present at boot enumeration.
    pub fn provenance(&self, bdf: Bdf) -> Option<Provenance> {
        self.endpoints.get(&bdf).map(|s| s.provenance)
    }

    /// All populated endpoint BDFs.
    pub fn endpoints(&self) -> Vec<Bdf> {
        self.endpoints.keys().copied().collect()
    }

    /// Routes a physical address to `(bdf, bar, offset)` the way the root
    /// complex does: the address must fall in a root port's forwarded
    /// window, and then inside a programmed, enabled BAR of an endpoint on
    /// that port's secondary bus range.
    pub fn route_mem(&self, addr: PhysAddr) -> Option<(Bdf, BarIndex, u64)> {
        for (bdf, slot) in &self.endpoints {
            let cfg = slot.device.config();
            if !cfg.memory_enabled() {
                continue;
            }
            let Some((bar, range)) = (0..6).map(BarIndex).find_map(|bar| {
                cfg.bar(bar)
                    .range()
                    .filter(|r| r.contains(addr))
                    .map(|r| (bar, r))
            }) else {
                continue;
            };
            // Every bridge on the packet's path must forward the address.
            if self.path_forwards(bdf.bus, addr) {
                return Some((*bdf, bar, addr.offset_from(range.base)));
            }
        }
        None
    }

    /// Performs a routed MMIO read (charges MMIO latency).
    ///
    /// # Errors
    ///
    /// Returns [`PcieError::NoDevice`] if no BAR claims `addr`.
    pub fn mmio_read(&mut self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), PcieError> {
        let (bdf, bar, offset) = self
            .route_mem(addr)
            .ok_or(PcieError::NoDevice(Bdf::new(0, 0, 0)))?;
        self.trace
            .charge(&self.clock, self.model.mmio_read, EventKind::Mmio, "read");
        self.trace.metrics().inc(Counter::PcieMmioReads);
        let slot = self
            .endpoints
            .get_mut(&bdf)
            .expect("routed endpoint exists");
        slot.device.mmio_read(bar, offset, buf);
        Ok(())
    }

    /// Performs a routed MMIO write (charges MMIO latency).
    ///
    /// # Errors
    ///
    /// Returns [`PcieError::NoDevice`] if no BAR claims `addr`.
    pub fn mmio_write(&mut self, addr: PhysAddr, data: &[u8]) -> Result<(), PcieError> {
        let (bdf, bar, offset) = self
            .route_mem(addr)
            .ok_or(PcieError::NoDevice(Bdf::new(0, 0, 0)))?;
        self.trace
            .charge(&self.clock, self.model.mmio_write, EventKind::Mmio, "write");
        self.trace.metrics().inc(Counter::PcieMmioWrites);
        let slot = self
            .endpoints
            .get_mut(&bdf)
            .expect("routed endpoint exists");
        slot.device.mmio_write(bar, offset, data);
        Ok(())
    }

    /// Reads a config dword (config TLP). Reads are never filtered.
    ///
    /// # Errors
    ///
    /// Returns [`PcieError::NoDevice`] for an empty slot.
    pub fn config_read(&self, bdf: Bdf, offset: u16) -> Result<u32, PcieError> {
        self.trace.metrics().inc(Counter::PcieCfgReads);
        if let Some(cfg) = self.bridges.get(&bdf) {
            return Ok(cfg.read(offset));
        }
        self.endpoints
            .get(&bdf)
            .map(|s| s.device.config().read(offset))
            .ok_or(PcieError::NoDevice(bdf))
    }

    /// Writes a config dword (config TLP), applying the MMIO lockdown
    /// filter: if `bdf` lies on a locked path and the register is
    /// routing-relevant, the write is **discarded** (§4.3.2). This also
    /// rejects the all-ones BAR sizing probe — the PCI-sizing limitation
    /// the paper documents in §5.6.
    ///
    /// # Errors
    ///
    /// Returns [`PcieError::LockedDown`] for discarded writes and
    /// [`PcieError::NoDevice`] for empty slots.
    pub fn config_write(&mut self, bdf: Bdf, offset: u16, value: u32) -> Result<(), PcieError> {
        self.trace.metrics().inc(Counter::PcieCfgWrites);
        if self.is_locked_path(bdf) && classify_write(offset) == WriteClass::Routing {
            self.trace.metrics().inc(Counter::PcieCfgWritesDenied);
            self.trace.charge_with(
                &self.clock,
                hix_sim::Nanos::ZERO,
                EventKind::Security,
                "lockdown: config write discarded",
                &[
                    ("bus", bdf.bus as u64),
                    ("device", bdf.device as u64),
                    ("function", bdf.function as u64),
                ],
            );
            return Err(PcieError::LockedDown(bdf));
        }
        if let Some(cfg) = self.bridges.get_mut(&bdf) {
            cfg.write(offset, value);
            return Ok(());
        }
        self.endpoints
            .get_mut(&bdf)
            .map(|s| s.device.config_mut().write(offset, value))
            .ok_or(PcieError::NoDevice(bdf))
    }

    /// Engages the MMIO lockdown for the path to `bdf`: the endpoint
    /// itself and every bridge between it and the root complex.
    ///
    /// # Errors
    ///
    /// Returns [`PcieError::NoDevice`] if `bdf` is unpopulated.
    pub fn lockdown(&mut self, bdf: Bdf) -> Result<(), PcieError> {
        if !self.endpoints.contains_key(&bdf) {
            return Err(PcieError::NoDevice(bdf));
        }
        let path = self.bridge_path_to_bus(bdf.bus);
        if path.is_empty() {
            return Err(PcieError::Unroutable(bdf));
        }
        if !self.locked.contains(&bdf) {
            self.locked.push(bdf);
        }
        for bridge in path {
            if !self.locked.contains(&bridge) {
                self.locked.push(bridge);
            }
        }
        self.trace
            .metrics()
            .set_gauge("pcie.locked_devices", self.locked.len() as u64);
        self.trace.charge(
            &self.clock,
            hix_sim::Nanos::ZERO,
            EventKind::Security,
            "MMIO lockdown engaged",
        );
        Ok(())
    }

    /// Releases the lockdown for `bdf` (graceful GPU-enclave termination
    /// path, §4.2.3) along with its root port if no other locked endpoint
    /// shares it.
    pub fn unlock(&mut self, bdf: Bdf) {
        self.locked.retain(|b| *b != bdf);
        // A bridge stays locked while any still-locked endpoint routes
        // through it.
        let needed: Vec<Bdf> = self
            .locked
            .iter()
            .filter(|b| self.endpoints.contains_key(b))
            .flat_map(|b| self.bridge_path_to_bus(b.bus))
            .collect();
        self.locked
            .retain(|b| self.endpoints.contains_key(b) || needed.contains(b));
        self.trace
            .metrics()
            .set_gauge("pcie.locked_devices", self.locked.len() as u64);
    }

    /// Whether `bdf` (endpoint or bridge) currently sits on a locked path.
    pub fn is_locked_path(&self, bdf: Bdf) -> bool {
        self.locked.contains(&bdf)
    }

    /// Serializes the routing-relevant config registers of the whole path
    /// to `bdf` (root port + endpoint) for enclave measurement.
    ///
    /// # Errors
    ///
    /// Returns [`PcieError::NoDevice`] if `bdf` is unpopulated.
    pub fn path_routing_snapshot(&self, bdf: Bdf) -> Result<Vec<u8>, PcieError> {
        let slot = self.endpoints.get(&bdf).ok_or(PcieError::NoDevice(bdf))?;
        let mut out = Vec::new();
        for bridge in self.bridge_path_to_bus(bdf.bus) {
            out.extend(self.bridges[&bridge].routing_snapshot());
        }
        out.extend(slot.device.config().routing_snapshot());
        Ok(out)
    }

    /// Reads `len` bytes of the expansion ROM of `bdf` starting at
    /// `offset` (the GPU enclave measures the GPU BIOS this way, §4.2.2).
    ///
    /// # Errors
    ///
    /// Returns [`PcieError::NoDevice`] if `bdf` is unpopulated or has no
    /// ROM.
    pub fn read_expansion_rom(
        &self,
        bdf: Bdf,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, PcieError> {
        let slot = self.endpoints.get(&bdf).ok_or(PcieError::NoDevice(bdf))?;
        let rom = slot
            .device
            .expansion_rom()
            .ok_or(PcieError::NoDevice(bdf))?;
        let start = (offset as usize).min(rom.len());
        let end = (start + len).min(rom.len());
        Ok(rom[start..end].to_vec())
    }

    /// Borrows the device at `bdf` mutably for platform-level work
    /// (ticking command queues, downcasting to the concrete model).
    pub fn device_mut(&mut self, bdf: Bdf) -> Option<&mut Box<dyn PcieDevice>> {
        self.endpoints.get_mut(&bdf).map(|s| &mut s.device)
    }

    /// Borrows the device at `bdf`.
    pub fn device(&self, bdf: Bdf) -> Option<&dyn PcieDevice> {
        self.endpoints.get(&bdf).map(|s| s.device.as_ref())
    }

    /// Resets the function at `bdf` (cold-boot path).
    pub fn reset_device(&mut self, bdf: Bdf) {
        if let Some(slot) = self.endpoints.get_mut(&bdf) {
            slot.device.reset();
        }
    }
}

/// Whether a bridge with routing registers `w` forwards packets for `bus`
/// downstream (a zero secondary bus marks an unconfigured bridge).
fn forwards_bus(w: &BridgeWindow, bus: u8) -> bool {
    w.secondary_bus != 0 && w.secondary_bus <= bus && bus <= w.subordinate_bus
}

impl std::fmt::Debug for PcieFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PcieFabric")
            .field("bridges", &self.bridges.keys().collect::<Vec<_>>())
            .field("endpoints", &self.endpoints.keys().collect::<Vec<_>>())
            .field("locked", &self.locked)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysRange;
    use crate::config::offsets;
    use std::any::Any;

    /// A trivial endpoint with a 4 KiB BAR0 backed by a register file.
    struct ScratchDev {
        config: ConfigSpace,
        regs: Vec<u8>,
        rom: Vec<u8>,
    }

    impl ScratchDev {
        fn new() -> Self {
            let mut config = ConfigSpace::endpoint(0x10de, 0x1080, 0x030000);
            config.set_bar_size(BarIndex(0), 4096);
            config.set_rom_size(64 << 10);
            ScratchDev::with_config(config)
        }

        fn with_config(config: ConfigSpace) -> Self {
            ScratchDev {
                config,
                regs: vec![0; 4096],
                rom: b"GPU BIOS v1".to_vec(),
            }
        }
    }

    impl PcieDevice for ScratchDev {
        fn config(&self) -> &ConfigSpace {
            &self.config
        }
        fn config_mut(&mut self) -> &mut ConfigSpace {
            &mut self.config
        }
        fn mmio_read(&mut self, _bar: BarIndex, offset: u64, buf: &mut [u8]) {
            let o = offset as usize;
            buf.copy_from_slice(&self.regs[o..o + buf.len()]);
        }
        fn mmio_write(&mut self, _bar: BarIndex, offset: u64, data: &[u8]) {
            let o = offset as usize;
            self.regs[o..o + data.len()].copy_from_slice(data);
        }
        fn expansion_rom(&self) -> Option<&[u8]> {
            Some(&self.rom)
        }
        fn reset(&mut self) {
            self.regs.fill(0);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn build_fabric() -> (PcieFabric, Bdf) {
        let mut fabric = PcieFabric::new();
        let port = Bdf::new(0, 1, 0);
        let mut port_cfg = ConfigSpace::bridge(0x8086, 0x3420);
        {
            let w = port_cfg.bridge_window_mut();
            w.primary_bus = 0;
            w.secondary_bus = 1;
            w.subordinate_bus = 1;
            w.window = Some(PhysRange::new(PhysAddr::new(0xc000_0000), 256 << 20));
        }
        fabric.add_bridge(port, port_cfg).unwrap();
        let gpu = Bdf::new(1, 0, 0);
        fabric
            .add_endpoint(gpu, Box::new(ScratchDev::new()), Provenance::Hardware)
            .unwrap();
        // BIOS programs BAR0 and enables memory decode.
        fabric
            .config_write(gpu, offsets::BAR0, 0xc000_0000)
            .unwrap();
        fabric.config_write(gpu, offsets::COMMAND, 0b10).unwrap();
        (fabric, gpu)
    }

    #[test]
    fn routes_mmio_through_port_window() {
        let (mut fabric, gpu) = build_fabric();
        let addr = PhysAddr::new(0xc000_0010);
        assert_eq!(fabric.route_mem(addr), Some((gpu, BarIndex(0), 0x10)));
        fabric.mmio_write(addr, &[0xaa, 0xbb]).unwrap();
        let mut buf = [0u8; 2];
        fabric.mmio_read(addr, &mut buf).unwrap();
        assert_eq!(buf, [0xaa, 0xbb]);
    }

    #[test]
    fn unrouted_addresses_fail() {
        let (mut fabric, _) = build_fabric();
        assert!(fabric.route_mem(PhysAddr::new(0x1000)).is_none());
        assert!(fabric
            .mmio_read(PhysAddr::new(0x1000), &mut [0u8; 1])
            .is_err());
    }

    #[test]
    fn memory_disable_stops_routing() {
        let (mut fabric, gpu) = build_fabric();
        fabric.config_write(gpu, offsets::COMMAND, 0).unwrap();
        assert!(fabric.route_mem(PhysAddr::new(0xc000_0000)).is_none());
    }

    #[test]
    fn lockdown_discards_routing_writes() {
        let (mut fabric, gpu) = build_fabric();
        fabric.lockdown(gpu).unwrap();
        // BAR remap attempt on the endpoint: discarded.
        let err = fabric.config_write(gpu, offsets::BAR0, 0xd000_0000);
        assert_eq!(err, Err(PcieError::LockedDown(gpu)));
        assert_eq!(fabric.config_read(gpu, offsets::BAR0).unwrap(), 0xc000_0000);
        // Bridge window rewrite: discarded too.
        let port = Bdf::new(0, 1, 0);
        assert_eq!(
            fabric.config_write(port, offsets::MEMORY_WINDOW, 0),
            Err(PcieError::LockedDown(port))
        );
        // Benign registers still writable; reads unaffected.
        fabric.config_write(gpu, offsets::INTERRUPT, 5).unwrap();
        assert_eq!(fabric.config_read(gpu, offsets::INTERRUPT).unwrap(), 5);
    }

    #[test]
    fn lockdown_blocks_bar_sizing_probe() {
        // §5.6: the all-ones sizing write is a routing write, hence
        // rejected after lockdown.
        let (mut fabric, gpu) = build_fabric();
        fabric.lockdown(gpu).unwrap();
        assert!(fabric.config_write(gpu, offsets::BAR0, u32::MAX).is_err());
    }

    #[test]
    fn unlock_restores_writes() {
        let (mut fabric, gpu) = build_fabric();
        fabric.lockdown(gpu).unwrap();
        fabric.unlock(gpu);
        fabric
            .config_write(gpu, offsets::BAR0, 0xc800_0000)
            .unwrap();
        assert_eq!(fabric.config_read(gpu, offsets::BAR0).unwrap(), 0xc800_0000);
    }

    #[test]
    fn provenance_tracked() {
        let (mut fabric, gpu) = build_fabric();
        assert_eq!(fabric.provenance(gpu), Some(Provenance::Hardware));
        let fake = Bdf::new(1, 1, 0);
        fabric
            .add_endpoint(fake, Box::new(ScratchDev::new()), Provenance::Emulated)
            .unwrap();
        assert_eq!(fabric.provenance(fake), Some(Provenance::Emulated));
        assert_eq!(fabric.provenance(Bdf::new(1, 5, 0)), None);
    }

    #[test]
    fn snapshot_covers_port_and_endpoint() {
        let (mut fabric, gpu) = build_fabric();
        let a = fabric.path_routing_snapshot(gpu).unwrap();
        // Change the *port* window: snapshot must change.
        let port = Bdf::new(0, 1, 0);
        fabric
            .config_write(port, offsets::MEMORY_WINDOW, 0xfff0_0000)
            .unwrap();
        let b = fabric.path_routing_snapshot(gpu).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn expansion_rom_readable() {
        let (fabric, gpu) = build_fabric();
        let rom = fabric.read_expansion_rom(gpu, 0, 64).unwrap();
        assert_eq!(&rom, b"GPU BIOS v1");
        assert_eq!(fabric.read_expansion_rom(gpu, 4, 3).unwrap(), b"BIO");
    }

    #[test]
    fn cannot_attach_unroutable_endpoint() {
        let mut fabric = PcieFabric::new();
        let err = fabric.add_endpoint(
            Bdf::new(3, 0, 0),
            Box::new(ScratchDev::new()),
            Provenance::Hardware,
        );
        assert!(matches!(err, Err(PcieError::Unroutable(_))));
    }

    /// Topology with a switch: root port (00:01.0, sec 1 sub 3) ->
    /// switch upstream (01:00.0, sec 2 sub 3) -> switch downstream
    /// (02:00.0, sec 3 sub 3) -> GPU (03:00.0).
    fn build_switched_fabric() -> (PcieFabric, Bdf) {
        let mut fabric = PcieFabric::new();
        let window = Some(PhysRange::new(PhysAddr::new(0xc000_0000), 256 << 20));
        let mut port_cfg = ConfigSpace::bridge(0x8086, 0x3420);
        {
            let w = port_cfg.bridge_window_mut();
            w.secondary_bus = 1;
            w.subordinate_bus = 3;
            w.window = window;
        }
        fabric.add_bridge(Bdf::new(0, 1, 0), port_cfg).unwrap();
        let mut up_cfg = ConfigSpace::bridge(0x10b5, 0x8747); // PLX switch
        {
            let w = up_cfg.bridge_window_mut();
            w.primary_bus = 1;
            w.secondary_bus = 2;
            w.subordinate_bus = 3;
            w.window = window;
        }
        fabric.add_bridge(Bdf::new(1, 0, 0), up_cfg).unwrap();
        let mut down_cfg = ConfigSpace::bridge(0x10b5, 0x8747);
        {
            let w = down_cfg.bridge_window_mut();
            w.primary_bus = 2;
            w.secondary_bus = 3;
            w.subordinate_bus = 3;
            w.window = window;
        }
        fabric.add_bridge(Bdf::new(2, 0, 0), down_cfg).unwrap();
        let gpu = Bdf::new(3, 0, 0);
        fabric
            .add_endpoint(gpu, Box::new(ScratchDev::new()), Provenance::Hardware)
            .unwrap();
        fabric
            .config_write(gpu, offsets::BAR0, 0xc000_0000)
            .unwrap();
        fabric.config_write(gpu, offsets::COMMAND, 0b10).unwrap();
        (fabric, gpu)
    }

    #[test]
    fn routes_through_a_switch() {
        let (mut fabric, gpu) = build_switched_fabric();
        let addr = PhysAddr::new(0xc000_0040);
        assert_eq!(fabric.route_mem(addr), Some((gpu, BarIndex(0), 0x40)));
        fabric.mmio_write(addr, &[0x77]).unwrap();
        let mut b = [0u8; 1];
        fabric.mmio_read(addr, &mut b).unwrap();
        assert_eq!(b, [0x77]);
    }

    #[test]
    fn narrowed_switch_window_blocks_routing() {
        // If any bridge on the path stops forwarding the address, the
        // packet cannot reach the device.
        let (mut fabric, gpu) = build_switched_fabric();
        // Close the downstream port's window (pre-lockdown, so allowed).
        fabric
            .config_write(Bdf::new(2, 0, 0), offsets::MEMORY_WINDOW, 0x0000_fff0)
            .unwrap();
        assert!(fabric.route_mem(PhysAddr::new(0xc000_0040)).is_none());
        let _ = gpu;
    }

    #[test]
    fn lockdown_freezes_every_bridge_on_the_path() {
        // §4.3.2: "the processor must freeze the MMIO configuration
        // registers of all PCIe devices between the PCIe root complex
        // and GPU".
        let (mut fabric, gpu) = build_switched_fabric();
        fabric.lockdown(gpu).unwrap();
        for bridge in [Bdf::new(0, 1, 0), Bdf::new(1, 0, 0), Bdf::new(2, 0, 0), gpu] {
            assert_eq!(
                fabric.config_write(bridge, offsets::MEMORY_WINDOW, 0),
                Err(PcieError::LockedDown(bridge)),
                "{bridge} must be frozen"
            );
        }
        // Unlock releases the whole chain.
        fabric.unlock(gpu);
        fabric
            .config_write(Bdf::new(2, 0, 0), offsets::MEMORY_WINDOW, 0xfff0_0000)
            .unwrap();
    }

    #[test]
    fn snapshot_covers_the_whole_path() {
        let (mut fabric, gpu) = build_switched_fabric();
        let a = fabric.path_routing_snapshot(gpu).unwrap();
        // Modify the *middle* switch port's window: snapshot must change.
        fabric
            .config_write(Bdf::new(1, 0, 0), offsets::MEMORY_WINDOW, 0xfff0_0000)
            .unwrap();
        let b = fabric.path_routing_snapshot(gpu).unwrap();
        assert_ne!(a, b);
        // Snapshot spans 3 bridges + endpoint.
        assert_eq!(a.len(), 4 * (5 + 6) * 4);
    }

    #[test]
    fn switch_port_requires_routable_bus() {
        let mut fabric = PcieFabric::new();
        let err = fabric.add_bridge(Bdf::new(5, 0, 0), ConfigSpace::bridge(1, 2));
        assert!(matches!(err, Err(PcieError::Unroutable(_))));
    }

    /// The router `route_mem` replaced: builds the bridge path for each
    /// endpoint and checks every hop. Kept as the oracle for the in-place
    /// walk.
    fn route_mem_reference(fabric: &PcieFabric, addr: PhysAddr) -> Option<(Bdf, BarIndex, u64)> {
        for (bdf, slot) in &fabric.endpoints {
            let cfg = slot.device.config();
            if !cfg.memory_enabled() {
                continue;
            }
            let path = fabric.bridge_path_to_bus(bdf.bus);
            if path.is_empty()
                || !path.iter().all(|b| {
                    fabric.bridges[b]
                        .bridge_window()
                        .window
                        .is_some_and(|w| w.contains(addr))
                })
            {
                continue;
            }
            for i in 0..6 {
                let bar = BarIndex(i);
                if let Some(range) = cfg.bar(bar).range() {
                    if range.contains(addr) {
                        return Some((*bdf, bar, addr.offset_from(range.base)));
                    }
                }
            }
        }
        None
    }

    /// Bridge windows and BARs are drawn from this 64 KiB region in
    /// 4 KiB steps, so they overlap often.
    const REGION: u64 = 0xc000_0000;

    fn random_bridge(s: &mut hix_testkit::prop::Source) -> ConfigSpace {
        let mut cfg = ConfigSpace::bridge(0x8086, 0x3420);
        let w = cfg.bridge_window_mut();
        w.secondary_bus = s.in_range(0..6) as u8;
        w.subordinate_bus = s.in_range(0..8) as u8;
        w.window = (s.choice(4) != 0).then(|| {
            PhysRange::new(
                PhysAddr::new(REGION + s.in_range(0..16) * 0x1000),
                s.in_range(1..16) * 0x1000,
            )
        });
        cfg
    }

    fn random_endpoint(s: &mut hix_testkit::prop::Source) -> ConfigSpace {
        let mut cfg = ConfigSpace::endpoint(0x10de, 0x1080, 0x030000);
        for i in 0..6u16 {
            if s.bool() {
                cfg.set_bar_size(BarIndex(i as u8), 0x1000 << s.in_range(0..3));
                // Unprogrammed (base 0) or somewhere in the region; the
                // BAR masks the base down to its size alignment.
                let base = if s.choice(4) == 0 {
                    0
                } else {
                    REGION + s.in_range(0..16) * 0x1000
                };
                cfg.write(offsets::BAR0 + 4 * i, base as u32);
            }
        }
        cfg.write(offsets::COMMAND, if s.choice(4) == 0 { 0 } else { 0b10 });
        cfg
    }

    #[test]
    fn route_mem_matches_the_path_building_router() {
        let routed = std::cell::Cell::new(0u32);
        hix_testkit::prop::prop("route_mem_matches_the_path_building_router").run(|s| {
            let mut fabric = PcieFabric::new();
            // 1-3 levels of bridges: root ports on bus 0, then switch
            // ports on buses the previous level forwards.
            let mut buses = vec![0u8];
            for _ in 0..s.usize_in(1..4) {
                let mut next = Vec::new();
                for _ in 0..s.usize_in(1..3) {
                    let bus = buses[s.index(buses.len())];
                    let cfg = random_bridge(s);
                    let secondary = cfg.bridge_window().secondary_bus;
                    let bdf = Bdf::new(bus, s.in_range(0..4) as u8, 0);
                    if fabric.add_bridge(bdf, cfg).is_ok() && secondary != 0 {
                        next.push(secondary);
                    }
                }
                if next.is_empty() {
                    break;
                }
                buses = next;
            }
            for _ in 0..s.usize_in(1..5) {
                let bdf = Bdf::new(s.in_range(1..8) as u8, s.in_range(0..4) as u8, 0);
                let dev = ScratchDev::with_config(random_endpoint(s));
                let _ = fabric.add_endpoint(bdf, Box::new(dev), Provenance::Hardware);
            }
            // Reprogram some bridges after their endpoints attached:
            // bus ranges that strand an endpoint, windows that close or
            // open over the whole region.
            let bridges: Vec<Bdf> = fabric.bridges.keys().copied().collect();
            for _ in 0..s.usize_in(0..3) {
                let bdf = bridges[s.index(bridges.len())];
                let (offset, value) = match s.choice(3) {
                    0 => {
                        let (secondary, subordinate) = (s.in_range(0..6), s.in_range(0..8));
                        (
                            offsets::BUS_NUMBERS,
                            (subordinate << 16 | secondary << 8) as u32,
                        )
                    }
                    1 => (offsets::MEMORY_WINDOW, 0x0000_fff0),
                    _ => (offsets::MEMORY_WINDOW, 0xc000_c000),
                };
                fabric
                    .config_write(bdf, offset, value)
                    .expect("bridge present, not locked");
            }
            // Probe every window and BAR edge, one byte either side.
            let mut ranges: Vec<PhysRange> = fabric
                .bridges
                .values()
                .filter_map(|c| c.bridge_window().window)
                .collect();
            for slot in fabric.endpoints.values() {
                ranges.extend((0..6).filter_map(|i| slot.device.config().bar(BarIndex(i)).range()));
            }
            for r in ranges {
                let (base, end) = (r.base.value(), r.end());
                for probe in [base - 1, base, base + 1, end - 2, end - 1, end, end + 1] {
                    let addr = PhysAddr::new(probe);
                    let want = route_mem_reference(&fabric, addr);
                    assert_eq!(fabric.route_mem(addr), want, "{addr:?} in {fabric:?}");
                    routed.set(routed.get() + want.is_some() as u32);
                }
            }
        });
        assert!(
            routed.get() > 0,
            "the generator must produce routable topologies"
        );
    }

    #[test]
    fn slot_collisions_rejected() {
        let (mut fabric, gpu) = build_fabric();
        let err = fabric.add_endpoint(gpu, Box::new(ScratchDev::new()), Provenance::Hardware);
        assert!(matches!(err, Err(PcieError::SlotOccupied(_))));
    }
}
