//! The machine: CPU access path, SGX/HIX instruction surface, privileged
//! (adversary) surface, and the PCIe fabric.
//!
//! Everything a privileged adversary may do is a public method here or on
//! the fabric: mapping pages ([`Machine::os_map`]), rewriting the IOMMU
//! ([`Machine::iommu_mut`]), issuing config writes
//! ([`Machine::config_write`]), killing processes
//! ([`Machine::kill_process`]). The seeded OS adversary of the fault
//! plan acts through the same surface: [`Machine::os_config_storm`] and
//! [`Machine::os_dma_flip`]. What HIX guarantees is enforced inside
//! [`Machine::read`]/[`Machine::write`] (the hardware walker checks) and
//! inside the fabric (MMIO lockdown) — never by trusting the caller.

use std::collections::BTreeMap;

use hix_pcie::addr::{Bdf, PhysAddr, PhysRange};
use hix_pcie::config::{offsets, BarIndex};
use hix_pcie::device::PcieDevice;
use hix_pcie::fabric::{PcieError, PcieFabric, Provenance};
use hix_sim::fault::{self, FaultPlan};
use hix_sim::{Clock, CostModel, Counter, EventKind, Nanos, Trace};

use crate::hix::{HixError, HixState};
use crate::iommu::{DmaPort, Iommu};
use crate::mem::{Ram, VirtAddr, PAGE_SIZE};
use crate::mmu::{AccessFault, PageTable, Tlb};
use crate::sgx::{EnclaveId, Measurement, Report, SgxError, SgxState};

/// One byte [`Machine::os_dma_flip`] flipped: its bus address and the
/// value to restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaFlip {
    bus: PhysAddr,
    orig: u8,
}

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

    /// [`Trace::charge`] on this machine's clock: advances it by `dt`
    /// and records the span as `kind` (a zero `dt` is a marker).
    pub fn charge(&self, kind: EventKind, dt: Nanos, label: impl Into<String>) {
        self.trace.charge(&self.clock, dt, kind, label);
    }

    /// Runs `f` inside a structural span (see `Obs::enter`) opened now
    /// and closed when `f` returns, on every return path: the charged
    /// work `f` causes nests under it in the exported timeline.
    pub fn in_span<R>(
        &mut self,
        category: &'static str,
        name: impl Into<String>,
        attrs: &[(&'static str, u64)],
        f: impl FnOnce(&mut Machine) -> R,
    ) -> R {
        let span = self
            .trace
            .obs()
            .enter(self.clock.now().as_nanos(), category, name, attrs);
        let out = f(self);
        self.trace.obs().exit(span, self.clock.now().as_nanos());
        out
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
        self.install_fault_plan(Some(plan));
    }

    /// Removes the active fault plan (the transport behaves ideally
    /// again).
    pub fn clear_fault_plan(&mut self) {
        self.install_fault_plan(None);
    }

    fn install_fault_plan(&mut self, plan: Option<FaultPlan>) {
        for bdf in self.fabric.endpoints() {
            self.set_device_fault_plan(bdf, plan.clone());
        }
        self.fault_plan = plan;
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

    /// The fault plan's config-write storm: when the plan rolls one, the
    /// OS fires its burst of BAR0 writes at `bdf`. Called against a
    /// device the PCIe lockdown protects, which must refuse them all.
    pub fn os_config_storm(&mut self, bdf: Bdf) {
        let Some(writes) = self
            .fault_plan
            .as_ref()
            .and_then(FaultPlan::sample_cfg_storm)
        else {
            return;
        };
        let attrs = [("writes", u64::from(writes))];
        fault::record(&self.trace, self.clock.now(), Some("cfg_storm"), "", &attrs);
        for i in 0..writes {
            let r = self.config_write(bdf, offsets::BAR0, 0xdead_0000 + i);
            debug_assert!(
                r.is_err(),
                "PCIe lockdown must reject OS config writes to {bdf}"
            );
        }
    }

    /// The fault plan's in-flight DMA corruption: when the plan rolls a
    /// flip for the `len` bytes a device is about to read at bus address
    /// `bus`, the OS flips one byte of them in DRAM. The flip hits one
    /// DMA pass, not the staged data: undo it with
    /// [`Machine::os_undo_dma_flip`] once the pass is over.
    pub fn os_dma_flip(&mut self, bus: PhysAddr, len: u64) -> Option<DmaFlip> {
        let (off, xor) = self.fault_plan.as_ref()?.sample_dma_flip(len)?;
        let at = bus.offset(off);
        let pa = self.iommu.translate(at)?;
        let mut orig = [0u8; 1];
        self.os_read_phys(pa, &mut orig);
        self.os_write_phys(pa, &[orig[0] ^ xor]);
        fault::record(
            &self.trace,
            self.clock.now(),
            Some("dma_flip"),
            &format!(" at +{off}"),
            &[],
        );
        Some(DmaFlip {
            bus: at,
            orig: orig[0],
        })
    }

    /// Restores the byte an [`Machine::os_dma_flip`] flipped.
    pub fn os_undo_dma_flip(&mut self, flip: DmaFlip) {
        if let Some(pa) = self.iommu.translate(flip.bus) {
            self.os_write_phys(pa, &[flip.orig]);
        }
    }

    // ------------------------------------------------------- access path

    /// Reads `buf.len()` bytes of virtual memory as `pid`.
    ///
    /// # Errors
    ///
    /// Returns an [`AccessFault`] if translation or validation fails.
    pub fn read(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), AccessFault> {
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

    /// Lends `f` the `len` bytes of DRAM at `va` as `pid`, for reading.
    /// The span must lie in one page; the page gets exactly the
    /// translation, TLB accounting and EPCM/GECS/TGMR checks of
    /// [`Machine::read`]. Only DRAM can be lent: a page that translates
    /// anywhere else (MMIO, the unpopulated hole) is refused. Shared
    /// windows and DMA buffers are always DRAM.
    ///
    /// # Errors
    ///
    /// Returns an [`AccessFault`] if translation or validation fails,
    /// and [`AccessFault::BusError`] for a page that is not DRAM.
    ///
    /// # Panics
    ///
    /// Panics if the span leaves its page.
    pub fn with_page<R>(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, AccessFault> {
        let pa = self.resolve_page(pid, va, len, false)?;
        Ok(f(self.ram.page_slice(pa, len)))
    }

    /// The writing mirror of [`Machine::with_page`]: lends `f` the `len`
    /// bytes of DRAM at `va` as `pid` after the checks of
    /// [`Machine::write`], the writable check included.
    ///
    /// # Errors
    ///
    /// Returns an [`AccessFault`] if translation or validation fails,
    /// and [`AccessFault::BusError`] for a page that is not DRAM.
    ///
    /// # Panics
    ///
    /// Panics if the span leaves its page.
    pub fn with_page_mut<R>(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, AccessFault> {
        let pa = self.resolve_page(pid, va, len, true)?;
        Ok(f(self.ram.page_slice_mut(pa, len)))
    }

    /// The DRAM address of a one-page span for [`Machine::with_page`] and
    /// [`Machine::with_page_mut`].
    fn resolve_page(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        len: usize,
        write: bool,
    ) -> Result<PhysAddr, AccessFault> {
        assert!(
            va.page_offset() + len as u64 <= PAGE_SIZE,
            "span leaves its page at {va}"
        );
        let pa = self.resolve(pid, va, write)?;
        if Ram::contains(pa) {
            Ok(pa)
        } else {
            Err(AccessFault::BusError(pa))
        }
    }

    /// The physical address of `va` for `pid`: translation (with the
    /// walker's checks on a TLB fill), then the writable check for a
    /// write. Every virtual access goes through here.
    fn resolve(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        write: bool,
    ) -> Result<PhysAddr, AccessFault> {
        let pte = self.translate(pid, va)?;
        if write && !pte.writable {
            return Err(AccessFault::ReadOnly(va));
        }
        Ok(pte.base().offset(va.page_offset()))
    }

    fn access(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        mut kind: AccessKind<'_, '_>,
    ) -> Result<(), AccessFault> {
        let len = kind.len();
        let mut off = 0usize;
        while off < len {
            let cur = va.offset(off as u64);
            let take = ((PAGE_SIZE - cur.page_offset()) as usize).min(len - off);
            let pa = self.resolve(pid, cur, kind.is_write())?;
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
            self.trace.metrics().inc(Counter::MmuTlbHits);
            return Ok(pte);
        }
        // Every TLB fill runs the hardware-walker validation (§4.3.1);
        // count them so the page-walk MMIO check path is observable.
        self.trace.metrics().inc(Counter::MmuTlbFillsChecked);
        let pte = proc.page_table.walk(va).ok_or(AccessFault::NotMapped(va))?;
        let pa = pte.base();
        if !self.sgx.check_access(accessor, va, pa) {
            self.trace.metrics().inc(Counter::MmuFillsDenied);
            self.charge(
                EventKind::Security,
                Nanos::ZERO,
                "EPCM check failed at TLB fill",
            );
            return Err(AccessFault::EpcDenied(va));
        }
        if !self.hix.check_access(accessor, va, pa) {
            self.trace.metrics().inc(Counter::MmuFillsDenied);
            self.charge(
                EventKind::Security,
                Nanos::ZERO,
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
        let secs = self
            .sgx
            .secs(enclave)
            .ok_or(SgxError::NoSuchEnclave(enclave))?;
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
        self.charge(EventKind::Attestation, Nanos::from_micros(4), "EREPORT");
        self.sgx.ereport(enclave, target, report_data)
    }

    /// Verifies a report inside `pid`'s enclave.
    ///
    /// # Errors
    ///
    /// Propagates [`SgxError`].
    pub fn everify(&mut self, pid: ProcessId, report: &Report) -> Result<bool, SgxError> {
        let enclave = self.proc(pid).enclave.expect("process has no enclave");
        self.charge(EventKind::Attestation, Nanos::from_micros(4), "EVERIFY");
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
        // The quoting enclave's round trip.
        self.charge(EventKind::Attestation, Nanos::from_millis(1), "EQUOTE");
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
        self.trace.metrics().inc(Counter::HixEgcreate);
        self.trace.charge_with(
            &self.clock,
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
        let bdf = self
            .hix
            .owned_device(enclave)
            .ok_or(HixError::NotOwner(enclave))?;
        self.hix.egadd(enclave, bdf, va, pa)?;
        self.trace.metrics().inc(Counter::HixEgaddPages);
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
        let bdf = self
            .hix
            .owned_device(enclave)
            .ok_or(HixError::NotOwner(enclave))?;
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
        // A reboot is not free.
        self.charge(EventKind::Init, Nanos::from_secs(30), "cold boot");
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

    /// Maps `n` fresh writable DRAM pages at `va` into `pid`.
    fn map_pages(m: &mut Machine, pid: ProcessId, va: VirtAddr, n: usize) {
        for (i, frame) in m.alloc_frames(n).into_iter().enumerate() {
            m.os_map(pid, va.offset(i as u64 * PAGE_SIZE), frame, true);
        }
    }

    fn tlb_counts(m: &Machine) -> (u64, u64) {
        let metrics = m.trace().metrics();
        (
            metrics.counter("mmu.tlb_hits"),
            metrics.counter("mmu.tlb_fills_checked"),
        )
    }

    #[test]
    fn page_sweeps_account_the_tlb_like_one_access() {
        // A range from mid-page across five pages, written and read twice
        // (cold, then warm TLB) by whole-range accesses on one machine and
        // by page sweeps on another.
        let va = VirtAddr::new(0x20_0000);
        let start = va.offset(100);
        let data: Vec<u8> = (0..5 * PAGE_SIZE as usize - 300)
            .map(|i| (i * 13) as u8)
            .collect();
        let mut whole = machine();
        let mut swept = machine();
        let (a, b) = (whole.create_process(), swept.create_process());
        map_pages(&mut whole, a, va, 6);
        map_pages(&mut swept, b, va, 6);
        let pieces =
            |m: &mut Machine, f: &mut dyn FnMut(&mut Machine, VirtAddr, std::ops::Range<usize>)| {
                let mut off = 0;
                while off < data.len() {
                    let at = start.offset(off as u64);
                    let take = ((PAGE_SIZE - at.page_offset()) as usize).min(data.len() - off);
                    f(m, at, off..off + take);
                    off += take;
                }
            };
        let mut back = vec![0u8; data.len()];
        for _ in 0..2 {
            whole.write(a, start, &data).unwrap();
            whole.read(a, start, &mut back).unwrap();
            pieces(&mut swept, &mut |m, at, r| {
                m.with_page_mut(b, at, r.len(), |page| page.copy_from_slice(&data[r]))
                    .unwrap();
            });
            pieces(&mut swept, &mut |m, at, r| {
                m.with_page(b, at, r.len(), |page| back[r].copy_from_slice(page))
                    .unwrap();
            });
            assert_eq!(back, data);
        }
        assert_eq!(tlb_counts(&swept), tlb_counts(&whole));
        assert_eq!(tlb_counts(&whole), (15, 5), "5 fills, then 3 x 5 hits");
    }

    #[test]
    fn page_accessors_refuse_what_read_and_write_refuse() {
        let mut m = machine();
        let pid = m.create_process();
        let frame = m.alloc_frames(1)[0];
        let ro = VirtAddr::new(0x10_0000);
        m.os_map(pid, ro, frame, false);
        assert_eq!(m.with_page(pid, ro, 4, |p| p.len()), Ok(4));
        assert_eq!(
            m.with_page_mut(pid, ro, 4, |_| ()),
            Err(AccessFault::ReadOnly(ro))
        );
        let unmapped = VirtAddr::new(0x30_0000);
        assert_eq!(
            m.with_page(pid, unmapped, 1, |_| ()),
            Err(AccessFault::NotMapped(unmapped))
        );
        assert_eq!(
            m.with_page_mut(pid, unmapped, 1, |_| ()),
            Err(AccessFault::NotMapped(unmapped))
        );
        // An EPC page of another process's enclave.
        let owner = m.create_process();
        m.ecreate(owner);
        let enclave_va = VirtAddr::new(0x40_0000);
        m.eadd(owner, enclave_va, b"secret", true).unwrap();
        m.einit(owner).unwrap();
        let epc = m
            .sgx
            .secs(m.enclave_of(owner).unwrap())
            .unwrap()
            .page_frame(enclave_va)
            .unwrap();
        let stolen = VirtAddr::new(0x50_0000);
        m.os_map(pid, stolen, epc, true);
        assert_eq!(
            m.with_page(pid, stolen, 1, |_| ()),
            Err(AccessFault::EpcDenied(stolen))
        );
        assert_eq!(
            m.with_page_mut(pid, stolen, 1, |_| ()),
            Err(AccessFault::EpcDenied(stolen))
        );
        // MMIO and the unpopulated hole are not DRAM.
        let hole = PhysAddr::new(0x8000_0000);
        for (va, pa) in [
            (0x60_0000, crate::mem::layout::MMIO.base),
            (0x61_0000, hole),
        ] {
            let va = VirtAddr::new(va);
            m.os_map(pid, va, pa, true);
            assert_eq!(
                m.with_page(pid, va, 1, |_| ()),
                Err(AccessFault::BusError(pa))
            );
            assert_eq!(
                m.with_page_mut(pid, va, 1, |_| ()),
                Err(AccessFault::BusError(pa))
            );
        }
    }

    #[test]
    #[should_panic(expected = "span leaves its page")]
    fn page_accessors_lend_one_page_only() {
        let mut m = machine();
        let pid = m.create_process();
        let va = VirtAddr::new(0x10_0000);
        map_pages(&mut m, pid, va, 2);
        let _ = m.with_page(pid, va.offset(1), PAGE_SIZE as usize, |_| ());
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
