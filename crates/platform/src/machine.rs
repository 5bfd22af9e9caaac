//! The machine: CPU access path, SGX/HIX instruction surface, privileged
//! (adversary) surface, and the PCIe fabric.
//!
//! Everything a privileged adversary may do is a public method here or on
//! the fabric: mapping pages ([`Machine::os_map`]), rewriting the IOMMU
//! ([`Machine::iommu_mut`]), issuing config writes
//! ([`Machine::config_write`]), killing processes
//! ([`Machine::kill_process`]). What HIX guarantees is enforced inside
//! [`Machine::read`]/[`Machine::write`] (the hardware walker checks) and
//! inside the fabric (MMIO lockdown) — never by trusting the caller.

use std::collections::BTreeMap;

use hix_pcie::addr::{Bdf, PhysAddr, PhysRange};
use hix_pcie::config::BarIndex;
use hix_pcie::device::PcieDevice;
use hix_pcie::fabric::{PcieError, PcieFabric, Provenance};
use hix_sim::fault::FaultPlan;
use hix_sim::{Clock, CostModel, EventKind, Nanos, Trace};

use crate::hix::{HixError, HixState};
use crate::iommu::{DmaPort, Iommu};
use crate::mem::{Ram, VirtAddr, PAGE_SIZE};
use crate::mmu::{AccessFault, PageTable, Tlb};
use crate::sgx::{EnclaveId, Measurement, Report, SgxError, SgxState};

/// Identifies a process (address space + optional enclave).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

#[derive(Debug)]
struct Process {
    page_table: PageTable,
    tlb: Tlb,
    enclave: Option<EnclaveId>,
    in_enclave: bool,
    alive: bool,
}

/// Construction parameters for a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// The cost model to charge virtual time against.
    pub model: CostModel,
    /// Seed for the per-boot machine secret (attestation keys).
    pub boot_seed: Vec<u8>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            model: CostModel::paper(),
            boot_seed: b"hix-default-boot".to_vec(),
        }
    }
}

/// The simulated machine.
pub struct Machine {
    clock: Clock,
    model: CostModel,
    trace: Trace,
    ram: Ram,
    sgx: SgxState,
    hix: HixState,
    iommu: Iommu,
    fabric: PcieFabric,
    procs: BTreeMap<ProcessId, Process>,
    next_proc: u32,
    next_dma_page: u64,
    boot_epoch: u64,
    fault_plan: Option<FaultPlan>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.clock.now())
            .field("processes", &self.procs.len())
            .field("fabric", &self.fabric)
            .finish()
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new(MachineConfig::default())
    }
}

impl Machine {
    /// Boots a machine with no devices attached.
    pub fn new(config: MachineConfig) -> Self {
        let clock = Clock::new();
        let trace = Trace::new();
        let fabric = PcieFabric::with_clock(clock.clone(), config.model.clone(), trace.clone());
        Machine {
            clock,
            model: config.model,
            trace,
            ram: Ram::new(),
            sgx: SgxState::new(&config.boot_seed),
            hix: HixState::new(),
            iommu: Iommu::new(),
            fabric,
            procs: BTreeMap::new(),
            next_proc: 1,
            next_dma_page: 0,
            boot_epoch: 0,
            fault_plan: None,
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The PCIe fabric (boot-time wiring and adversary config access).
    pub fn fabric_mut(&mut self) -> &mut PcieFabric {
        &mut self.fabric
    }

    /// The PCIe fabric, read-only.
    pub fn fabric(&self) -> &PcieFabric {
        &self.fabric
    }

    /// The IOMMU (OS/adversary controlled).
    pub fn iommu_mut(&mut self) -> &mut Iommu {
        &mut self.iommu
    }

    /// Number of cold boots performed (epoch counter).
    pub fn boot_epoch(&self) -> u64 {
        self.boot_epoch
    }

    /// Installs a deterministic fault-injection plan: the channel, DMA,
    /// and PCIe layers consult it on every operation. Part of the
    /// adversary surface — the OS owns the transport and may perturb it
    /// at will; only integrity/confidentiality are hardware-enforced.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan.clone());
        for bdf in self.fabric.endpoints() {
            if let Some(dev) = self.fabric.device_mut(bdf) {
                dev.install_fault_plan(Some(plan.clone()));
            }
        }
    }

    /// Removes the active fault plan (the transport behaves ideally
    /// again).
    pub fn clear_fault_plan(&mut self) {
        self.fault_plan = None;
        for bdf in self.fabric.endpoints() {
            if let Some(dev) = self.fabric.device_mut(bdf) {
                dev.install_fault_plan(None);
            }
        }
    }

    /// The active fault plan, if any (cheap handle clone).
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_plan.clone()
    }

    /// Installs (or clears, with `None`) a fault plan on *one* endpoint
    /// device, leaving the machine-level channel plan and every other
    /// device untouched. This is how the fabric profiles localize a
    /// device-fault storm to a single GPU shard — or correlate one
    /// across the shards of a switch — while its peers run clean.
    pub fn set_device_fault_plan(&mut self, bdf: Bdf, plan: Option<FaultPlan>) {
        if let Some(dev) = self.fabric.device_mut(bdf) {
            dev.install_fault_plan(plan);
        }
    }

    // ---------------------------------------------------------- processes

    /// Creates a process with an empty address space.
    pub fn create_process(&mut self) -> ProcessId {
        let id = ProcessId(self.next_proc);
        self.next_proc += 1;
        self.procs.insert(
            id,
            Process {
                page_table: PageTable::new(),
                tlb: Tlb::default(),
                enclave: None,
                in_enclave: false,
                alive: true,
            },
        );
        id
    }

    /// Forcibly kills a process (adversary capability). Its enclave, if
    /// any, is destroyed — but GPU ownership in the GECS persists
    /// (§4.2.3).
    pub fn kill_process(&mut self, pid: ProcessId) {
        if let Some(proc) = self.procs.get_mut(&pid) {
            proc.alive = false;
            if let Some(enclave) = proc.enclave {
                self.sgx.destroy(enclave);
                self.hix.owner_killed(enclave);
            }
        }
    }

    /// Whether the process is alive.
    pub fn process_alive(&self, pid: ProcessId) -> bool {
        self.procs.get(&pid).is_some_and(|p| p.alive)
    }

    fn proc(&self, pid: ProcessId) -> &Process {
        self.procs.get(&pid).expect("unknown process")
    }

    fn proc_mut(&mut self, pid: ProcessId) -> &mut Process {
        self.procs.get_mut(&pid).expect("unknown process")
    }

    // ------------------------------------------------- OS paging surface

    /// Allocates `n` DRAM frames (OS service).
    pub fn alloc_frames(&mut self, n: usize) -> Vec<PhysAddr> {
        self.ram.alloc_frames(n)
    }

    /// Returns DRAM frames to the allocator (OS service).
    pub fn free_frames(&mut self, frames: &[PhysAddr]) {
        self.ram.free_frames(frames);
    }

    /// Reserves `pages` consecutive pages of DMA-buffer address space
    /// and returns the index of the first (OS service). Indices are never
    /// handed out twice on one machine, unlike the frames behind them,
    /// which the allocator recycles.
    pub fn reserve_dma_pages(&mut self, pages: u64) -> u64 {
        let first = self.next_dma_page;
        self.next_dma_page += pages;
        first
    }

    /// Installs a translation in `pid`'s page table (OS-controlled; the
    /// adversary may map anything anywhere — hardware checks happen at
    /// access time).
    pub fn os_map(&mut self, pid: ProcessId, va: VirtAddr, pa: PhysAddr, writable: bool) {
        self.proc_mut(pid).page_table.map(va, pa, writable);
    }

    /// Removes every process's translations for the `pages` pages at
    /// `va`, flushing the TLB of each process that had one — freeing a
    /// shared mapping tears it down wherever it was mapped.
    pub fn os_unmap_shared(&mut self, va: VirtAddr, pages: u64) {
        for proc in self.procs.values_mut() {
            if proc.page_table.unmap_range(va, pages) {
                proc.tlb.flush();
            }
        }
    }

    /// Flushes `pid`'s TLB (the OS can always do this).
    pub fn flush_tlb(&mut self, pid: ProcessId) {
        self.proc_mut(pid).tlb.flush();
    }

    /// Reads physical DRAM directly — the §3.1 adversary can "inspect and
    /// observe data in main memory". EPC reads return ciphertext-like
    /// garbage in real hardware; the model returns an error-marker fill
    /// instead of the stored bytes.
    pub fn os_read_phys(&mut self, pa: PhysAddr, buf: &mut [u8]) {
        if Ram::is_epc(pa) {
            buf.fill(0xff); // MEE: no plaintext visible
        } else {
            self.ram.read(pa, buf);
        }
    }

    /// Writes physical DRAM directly (adversary). Writes to the EPC are
    /// dropped (memory encryption + integrity would make them useless and
    /// detected; the model simply refuses them).
    pub fn os_write_phys(&mut self, pa: PhysAddr, data: &[u8]) {
        if !Ram::is_epc(pa) {
            self.ram.write(pa, data);
        }
    }

    // ------------------------------------------------------- access path

    /// Reads `buf.len()` bytes of virtual memory as `pid`.
    ///
    /// # Errors
    ///
    /// Returns an [`AccessFault`] if translation or validation fails.
    pub fn read(&mut self, pid: ProcessId, va: VirtAddr, buf: &mut [u8]) -> Result<(), AccessFault> {
        self.access(pid, va, AccessKind::Read(buf))
    }

    /// Writes `data` to virtual memory as `pid`.
    ///
    /// # Errors
    ///
    /// Returns an [`AccessFault`] if translation or validation fails.
    pub fn write(&mut self, pid: ProcessId, va: VirtAddr, data: &[u8]) -> Result<(), AccessFault> {
        self.access(pid, va, AccessKind::Write(data))
    }

    fn access(&mut self, pid: ProcessId, va: VirtAddr, mut kind: AccessKind<'_, '_>) -> Result<(), AccessFault> {
        let len = kind.len();
        let mut off = 0usize;
        while off < len {
            let cur = va.offset(off as u64);
            let take = ((PAGE_SIZE - cur.page_offset()) as usize).min(len - off);
            let pte = self.translate(pid, cur)?;
            if kind.is_write() && !pte.writable {
                return Err(AccessFault::ReadOnly(cur));
            }
            let pa = pte.base().offset(cur.page_offset());
            match &mut kind {
                AccessKind::Read(buf) => {
                    if Ram::contains(pa) {
                        self.ram.read(pa, &mut buf[off..off + take]);
                    } else if Ram::is_mmio(pa) {
                        self.fabric
                            .mmio_read(pa, &mut buf[off..off + take])
                            .map_err(|_| AccessFault::BusError(pa))?;
                    } else {
                        return Err(AccessFault::BusError(pa));
                    }
                }
                AccessKind::Write(data) => {
                    if Ram::contains(pa) {
                        self.ram.write(pa, &data[off..off + take]);
                    } else if Ram::is_mmio(pa) {
                        self.fabric
                            .mmio_write(pa, &data[off..off + take])
                            .map_err(|_| AccessFault::BusError(pa))?;
                    } else {
                        return Err(AccessFault::BusError(pa));
                    }
                }
            }
            off += take;
        }
        Ok(())
    }

    /// Translates one address for `pid`, performing the hardware walker
    /// validation on TLB miss (SGX EPCM + HIX GECS/TGMR checks, §4.3.1).
    fn translate(&mut self, pid: ProcessId, va: VirtAddr) -> Result<crate::mmu::Pte, AccessFault> {
        let proc = self.procs.get_mut(&pid).expect("unknown process");
        let accessor = if proc.in_enclave { proc.enclave } else { None };
        if let Some(pte) = proc.tlb.lookup(va) {
            self.trace.metrics().inc("mmu.tlb_hits");
            return Ok(pte);
        }
        // Every TLB fill runs the hardware-walker validation (§4.3.1);
        // count them so the page-walk MMIO check path is observable.
        self.trace.metrics().inc("mmu.tlb_fills_checked");
        let pte = proc.page_table.walk(va).ok_or(AccessFault::NotMapped(va))?;
        let pa = pte.base();
        if !self.sgx.check_access(accessor, va, pa) {
            self.trace.metrics().inc("mmu.fills_denied");
            self.trace.emit(
                self.clock.now(),
                Nanos::ZERO,
                EventKind::Security,
                "EPCM check failed at TLB fill",
            );
            return Err(AccessFault::EpcDenied(va));
        }
        if !self.hix.check_access(accessor, va, pa) {
            self.trace.metrics().inc("mmu.fills_denied");
            self.trace.emit(
                self.clock.now(),
                Nanos::ZERO,
                EventKind::Security,
                "GECS/TGMR check failed at TLB fill",
            );
            return Err(AccessFault::TgmrDenied(va));
        }
        let proc = self.procs.get_mut(&pid).expect("unknown process");
        proc.tlb.insert(va, pte);
        Ok(pte)
    }

    // ------------------------------------------------- SGX instructions

    /// `ECREATE` for `pid` (one enclave per process in this model).
    ///
    /// # Panics
    ///
    /// Panics if the process already has an enclave.
    pub fn ecreate(&mut self, pid: ProcessId) -> EnclaveId {
        assert!(
            self.proc(pid).enclave.is_none(),
            "process already has an enclave"
        );
        let id = self.sgx.ecreate();
        self.proc_mut(pid).enclave = Some(id);
        id
    }

    /// `EADD` a page at `va`; the benign-OS part (mapping the EPC frame
    /// into the process page table) is done too.
    ///
    /// # Errors
    ///
    /// Propagates [`SgxError`].
    pub fn eadd(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        data: &[u8],
        writable: bool,
    ) -> Result<(), SgxError> {
        let enclave = self.proc(pid).enclave.expect("process has no enclave");
        let frame = self.sgx.eadd(&mut self.ram, enclave, va, data, writable)?;
        self.proc_mut(pid)
            .page_table
            .map(VirtAddr::new(va.vpn() * PAGE_SIZE), frame, writable);
        Ok(())
    }

    /// `EINIT` for `pid`'s enclave.
    ///
    /// # Errors
    ///
    /// Propagates [`SgxError`].
    pub fn einit(&mut self, pid: ProcessId) -> Result<Measurement, SgxError> {
        let enclave = self.proc(pid).enclave.expect("process has no enclave");
        self.sgx.einit(enclave)
    }

    /// `EENTER` — the process starts executing inside its enclave.
    ///
    /// # Errors
    ///
    /// Fails if the enclave is not initialized or dead.
    pub fn eenter(&mut self, pid: ProcessId) -> Result<(), SgxError> {
        let enclave = self.proc(pid).enclave.expect("process has no enclave");
        let secs = self.sgx.secs(enclave).ok_or(SgxError::NoSuchEnclave(enclave))?;
        if !secs.alive() {
            return Err(SgxError::Dead(enclave));
        }
        if !secs.initialized() {
            return Err(SgxError::NotInitialized(enclave));
        }
        let proc = self.proc_mut(pid);
        proc.in_enclave = true;
        proc.tlb.flush();
        Ok(())
    }

    /// `EEXIT` — back to untrusted mode.
    pub fn eexit(&mut self, pid: ProcessId) {
        let proc = self.proc_mut(pid);
        proc.in_enclave = false;
        proc.tlb.flush();
    }

    /// The enclave bound to `pid`, if any.
    pub fn enclave_of(&self, pid: ProcessId) -> Option<EnclaveId> {
        self.proc(pid).enclave
    }

    /// The measurement of `pid`'s enclave (after `EINIT`).
    pub fn measurement_of(&self, pid: ProcessId) -> Option<Measurement> {
        let enclave = self.proc(pid).enclave?;
        self.sgx.secs(enclave)?.mrenclave()
    }

    /// `EREPORT` from `pid`'s enclave toward `target`.
    ///
    /// # Errors
    ///
    /// Propagates [`SgxError`].
    pub fn ereport(
        &mut self,
        pid: ProcessId,
        target: &Measurement,
        report_data: &[u8],
    ) -> Result<Report, SgxError> {
        let enclave = self.proc(pid).enclave.expect("process has no enclave");
        self.clock.advance(Nanos::from_micros(4));
        self.sgx.ereport(enclave, target, report_data)
    }

    /// Verifies a report inside `pid`'s enclave.
    ///
    /// # Errors
    ///
    /// Propagates [`SgxError`].
    pub fn everify(&mut self, pid: ProcessId, report: &Report) -> Result<bool, SgxError> {
        let enclave = self.proc(pid).enclave.expect("process has no enclave");
        self.clock.advance(Nanos::from_micros(4));
        self.sgx.everify(enclave, report)
    }

    /// Produces a remote-attestation quote for `pid`'s enclave.
    ///
    /// # Errors
    ///
    /// Propagates [`SgxError`].
    pub fn equote(
        &mut self,
        pid: ProcessId,
        report_data: &[u8],
    ) -> Result<crate::sgx::Quote, SgxError> {
        let enclave = self.proc(pid).enclave.expect("process has no enclave");
        self.clock.advance(Nanos::from_millis(1)); // quoting enclave round trip
        self.sgx.equote(enclave, report_data)
    }

    /// The platform provisioning key (what a remote verifier obtains from
    /// the attestation service out of band).
    pub fn provisioning_key(&self) -> [u8; 32] {
        self.sgx.provisioning_key()
    }

    /// `EGETKEY(SealKey)` for `pid`'s enclave: bound to its measurement
    /// and this machine, so only a same-identity enclave on the same
    /// platform can unseal.
    ///
    /// # Errors
    ///
    /// Propagates [`SgxError`].
    pub fn eseal_key(&mut self, pid: ProcessId) -> Result<[u8; 32], SgxError> {
        let enclave = self.proc(pid).enclave.expect("process has no enclave");
        self.sgx.seal_key(enclave)
    }

    // ------------------------------------------------- HIX instructions

    /// `EGCREATE` — `pid`'s enclave claims exclusive ownership of the GPU
    /// at `bdf`; the MMIO lockdown engages on success (§4.2.1, §4.3.2).
    ///
    /// # Errors
    ///
    /// Propagates [`HixError`]; emulated devices and already-owned GPUs
    /// are refused.
    pub fn egcreate(&mut self, pid: ProcessId, bdf: Bdf) -> Result<(), HixError> {
        let enclave = self.proc(pid).enclave.expect("process has no enclave");
        let initialized = self
            .sgx
            .secs(enclave)
            .is_some_and(|s| s.initialized() && s.alive());
        let is_hardware = self.fabric.provenance(bdf) == Some(Provenance::Hardware);
        let bars = self.device_bar_ranges(bdf);
        self.hix
            .egcreate(enclave, initialized, bdf, is_hardware, &bars)?;
        self.fabric.lockdown(bdf).expect("owned device exists");
        self.trace.metrics().inc("hix.egcreate");
        self.trace.emit_with(
            self.clock.now(),
            Nanos::ZERO,
            EventKind::Security,
            "EGCREATE: GPU enclave owns device",
            &[
                ("bus", bdf.bus as u64),
                ("device", bdf.device as u64),
                ("function", bdf.function as u64),
            ],
        );
        Ok(())
    }

    /// `EGADD` — registers a trusted MMIO page pair for `pid`'s enclave
    /// and installs the (benign-OS) translation.
    ///
    /// # Errors
    ///
    /// Propagates [`HixError`].
    pub fn egadd(&mut self, pid: ProcessId, va: VirtAddr, pa: PhysAddr) -> Result<(), HixError> {
        let enclave = self.proc(pid).enclave.expect("process has no enclave");
        let bdf = self.hix.owned_device(enclave).ok_or(HixError::NotOwner(enclave))?;
        self.hix.egadd(enclave, bdf, va, pa)?;
        self.trace.metrics().inc("hix.egadd_pages");
        self.proc_mut(pid).page_table.map(
            VirtAddr::new(va.vpn() * PAGE_SIZE),
            PhysAddr::new(pa.value() & !(PAGE_SIZE - 1)),
            true,
        );
        Ok(())
    }

    /// Graceful GPU-enclave termination: releases ownership, unlocks the
    /// path (§4.2.3). The caller is responsible for having scrubbed GPU
    /// state first.
    ///
    /// # Errors
    ///
    /// Propagates [`HixError::NotOwner`].
    pub fn hix_release(&mut self, pid: ProcessId) -> Result<(), HixError> {
        let enclave = self.proc(pid).enclave.expect("process has no enclave");
        let bdf = self.hix.owned_device(enclave).ok_or(HixError::NotOwner(enclave))?;
        self.hix.release(enclave, bdf)?;
        self.fabric.unlock(bdf);
        Ok(())
    }

    /// The GECS view for diagnostics/tests.
    pub fn hix_state(&self) -> &HixState {
        &self.hix
    }

    /// BAR ranges currently programmed for `bdf`.
    pub fn device_bar_ranges(&self, bdf: Bdf) -> Vec<PhysRange> {
        let Some(dev) = self.fabric.device(bdf) else {
            return Vec::new();
        };
        (0..6u8)
            .filter_map(|i| dev.config().bar(BarIndex(i)).range())
            .collect()
    }

    // ------------------------------------------------------ PCIe surface

    /// Config-space read (any software).
    ///
    /// # Errors
    ///
    /// Propagates [`PcieError`].
    pub fn config_read(&self, bdf: Bdf, offset: u16) -> Result<u32, PcieError> {
        self.fabric.config_read(bdf, offset)
    }

    /// Config-space write (any software; lockdown filters inside).
    ///
    /// # Errors
    ///
    /// Propagates [`PcieError`], notably [`PcieError::LockedDown`].
    pub fn config_write(&mut self, bdf: Bdf, offset: u16, value: u32) -> Result<(), PcieError> {
        self.fabric.config_write(bdf, offset, value)
    }

    /// Lets the device at `bdf` make forward progress, giving it DMA
    /// access through the IOMMU. Returns whether it did anything.
    pub fn tick_device(&mut self, bdf: Bdf) -> bool {
        let Some(device) = self.fabric.device_mut(bdf) else {
            return false;
        };
        // Split borrows: device lives in fabric; DMA goes to iommu+ram.
        let mut port = DmaPort::new(&self.iommu, &mut self.ram);
        device.tick(&mut port)
    }

    /// Runs the device until it reports no more work (bounded).
    pub fn run_device(&mut self, bdf: Bdf) {
        for _ in 0..10_000_000 {
            if !self.tick_device(bdf) {
                return;
            }
        }
        panic!("device at {bdf} did not quiesce");
    }

    /// Cold boot: resets all devices, clears HIX ownership, re-keys SGX,
    /// and drops every process. Device config survives re-enumeration
    /// (the BIOS reprograms the same map).
    pub fn cold_boot(&mut self) {
        self.boot_epoch += 1;
        let endpoints = self.fabric.endpoints();
        for bdf in &endpoints {
            self.fabric.unlock(*bdf);
            self.fabric.reset_device(*bdf);
        }
        self.hix.cold_boot();
        let seed = format!("reboot-{}", self.boot_epoch);
        self.sgx = SgxState::new(seed.as_bytes());
        self.procs.clear();
        self.clock.advance(Nanos::from_secs(30)); // a reboot is not free
    }

    /// Direct mutable access to a device for model-level plumbing
    /// (downcasting to the concrete GPU).
    pub fn device_mut(&mut self, bdf: Bdf) -> Option<&mut Box<dyn PcieDevice>> {
        self.fabric.device_mut(bdf)
    }
}

enum AccessKind<'a, 'b> {
    Read(&'a mut [u8]),
    Write(&'b [u8]),
}

impl AccessKind<'_, '_> {
    fn len(&self) -> usize {
        match self {
            AccessKind::Read(b) => b.len(),
            AccessKind::Write(d) => d.len(),
        }
    }

    fn is_write(&self) -> bool {
        matches!(self, AccessKind::Write(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::default()
    }

    #[test]
    fn plain_process_memory() {
        let mut m = machine();
        let pid = m.create_process();
        let frame = m.alloc_frames(1)[0];
        let va = VirtAddr::new(0x10_0000);
        m.os_map(pid, va, frame, true);
        m.write(pid, va.offset(5), b"hello").unwrap();
        let mut buf = [0u8; 5];
        m.read(pid, va.offset(5), &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = machine();
        let pid = m.create_process();
        let err = m.read(pid, VirtAddr::new(0x1000), &mut [0u8; 1]);
        assert!(matches!(err, Err(AccessFault::NotMapped(_))));
    }

    #[test]
    fn readonly_mapping_rejects_writes() {
        let mut m = machine();
        let pid = m.create_process();
        let frame = m.alloc_frames(1)[0];
        let va = VirtAddr::new(0x10_0000);
        m.os_map(pid, va, frame, false);
        assert!(m.read(pid, va, &mut [0u8; 4]).is_ok());
        assert!(matches!(
            m.write(pid, va, &[1]),
            Err(AccessFault::ReadOnly(_))
        ));
    }

    #[test]
    fn cross_page_access() {
        let mut m = machine();
        let pid = m.create_process();
        let frames = m.alloc_frames(2);
        let va = VirtAddr::new(0x20_0000);
        m.os_map(pid, va, frames[0], true);
        m.os_map(pid, va.offset(PAGE_SIZE), frames[1], true);
        let data: Vec<u8> = (0..300).map(|i| i as u8).collect();
        m.write(pid, va.offset(PAGE_SIZE - 100), &data).unwrap();
        let mut buf = vec![0u8; 300];
        m.read(pid, va.offset(PAGE_SIZE - 100), &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn enclave_build_and_epc_protection() {
        let mut m = machine();
        let pid = m.create_process();
        m.ecreate(pid);
        let va = VirtAddr::new(0x40_0000);
        m.eadd(pid, va, b"enclave-page", true).unwrap();
        m.einit(pid).unwrap();
        // Outside the enclave, the EPC page is unreachable.
        assert!(matches!(
            m.read(pid, va, &mut [0u8; 4]),
            Err(AccessFault::EpcDenied(_))
        ));
        // Inside, it reads back.
        m.eenter(pid).unwrap();
        let mut buf = [0u8; 12];
        m.read(pid, va, &mut buf).unwrap();
        assert_eq!(&buf, b"enclave-page");
        m.eexit(pid);
        assert!(m.read(pid, va, &mut [0u8; 1]).is_err());
    }

    #[test]
    fn other_process_cannot_touch_epc() {
        let mut m = machine();
        let pid = m.create_process();
        m.ecreate(pid);
        let va = VirtAddr::new(0x40_0000);
        m.eadd(pid, va, b"secret", true).unwrap();
        m.einit(pid).unwrap();
        // The OS maps the same EPC frame into another process.
        let frame = {
            let enclave = m.enclave_of(pid).unwrap();
            m.sgx.secs(enclave).unwrap().page_frame(va).unwrap()
        };
        let attacker = m.create_process();
        m.os_map(attacker, VirtAddr::new(0x9000), frame, true);
        assert!(matches!(
            m.read(attacker, VirtAddr::new(0x9000), &mut [0u8; 1]),
            Err(AccessFault::EpcDenied(_))
        ));
    }

    #[test]
    fn os_remap_of_enclave_va_detected() {
        let mut m = machine();
        let pid = m.create_process();
        m.ecreate(pid);
        let va = VirtAddr::new(0x40_0000);
        m.eadd(pid, va, b"secret", true).unwrap();
        m.einit(pid).unwrap();
        m.eenter(pid).unwrap();
        // Adversary redirects the enclave page to attacker DRAM.
        let evil = m.alloc_frames(1)[0];
        m.os_map(pid, va, evil, true);
        m.flush_tlb(pid);
        assert!(matches!(
            m.read(pid, va, &mut [0u8; 1]),
            Err(AccessFault::EpcDenied(_))
        ));
    }

    #[test]
    fn os_phys_reads_of_epc_see_no_plaintext() {
        let mut m = machine();
        let pid = m.create_process();
        m.ecreate(pid);
        let va = VirtAddr::new(0x40_0000);
        m.eadd(pid, va, b"topsecret", true).unwrap();
        m.einit(pid).unwrap();
        let enclave = m.enclave_of(pid).unwrap();
        let frame = m.sgx.secs(enclave).unwrap().page_frame(va).unwrap();
        let mut buf = [0u8; 9];
        m.os_read_phys(frame, &mut buf);
        assert_ne!(&buf, b"topsecret");
        // And physical writes to EPC are dropped.
        m.os_write_phys(frame, b"corrupted");
        m.eenter(pid).unwrap();
        let mut inside = [0u8; 9];
        m.read(pid, va, &mut inside).unwrap();
        assert_eq!(&inside, b"topsecret");
    }

    #[test]
    fn kill_process_destroys_enclave() {
        let mut m = machine();
        let pid = m.create_process();
        m.ecreate(pid);
        m.eadd(pid, VirtAddr::new(0x1000), b"x", false).unwrap();
        let mr = m.einit(pid).unwrap();
        m.kill_process(pid);
        assert!(!m.process_alive(pid));
        let enclave = m.enclave_of(pid).unwrap();
        assert!(m.sgx.ereport(enclave, &mr, b"").is_err());
    }

    #[test]
    fn attestation_between_processes() {
        let mut m = machine();
        let a = m.create_process();
        m.ecreate(a);
        m.eadd(a, VirtAddr::new(0x1000), b"A", false).unwrap();
        m.einit(a).unwrap();
        let b = m.create_process();
        m.ecreate(b);
        m.eadd(b, VirtAddr::new(0x1000), b"B", false).unwrap();
        let mr_b = m.einit(b).unwrap();
        let report = m.ereport(a, &mr_b, b"hello-b").unwrap();
        assert!(m.everify(b, &report).unwrap());
    }

    #[test]
    fn cold_boot_clears_everything() {
        let mut m = machine();
        let pid = m.create_process();
        m.ecreate(pid);
        m.cold_boot();
        assert_eq!(m.boot_epoch(), 1);
        assert!(!m.process_alive(pid));
    }
}
