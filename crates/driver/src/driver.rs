//! The register-level GPU driver (the refactored Gdev core).
//!
//! Every device interaction is a virtual-memory MMIO access issued as a
//! particular process — the driver never bypasses the platform's access
//! checks. If the process lacks rights to the GPU MMIO (because HIX
//! protects it), every method fails with
//! [`DriverError::Access`], which is precisely the paper's isolation
//! property showing up as an API error.

use std::cell::Cell;
use std::collections::BTreeMap;

use hix_gpu::cmd::GpuCommand;
use hix_gpu::ctx::CtxId;
use hix_gpu::device::GpuDevice;
use hix_gpu::kernel::kernel_hash;
use hix_gpu::regs::{bar0, errcode, GPU_MAGIC};
use hix_gpu::vram::{DevAddr, GPU_PAGE_SIZE};
use hix_pcie::addr::Bdf;
use hix_pcie::config::BarIndex;
use hix_platform::mem::PAGE_SIZE;
use hix_platform::mmu::AccessFault;
use hix_platform::{Machine, ProcessId, VirtAddr};
use hix_sim::{Counter, EventKind};

use crate::buffer::DmaBuffer;

/// Driver-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The MMIO access itself was denied (page fault / SGX / HIX). Under
    /// HIX this is what an attacker touching the GPU sees.
    Access(AccessFault),
    /// The device reported an error code (see [`hix_gpu::regs::errcode`]).
    Gpu(u32),
    /// The registers did not answer with the GPU magic.
    NotAGpu,
    /// Kernel name not loaded / not installed.
    UnknownKernel(String),
    /// Device memory exhausted.
    OutOfMemory,
    /// Free/copy referenced an unknown allocation.
    BadAllocation(DevAddr),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Access(e) => write!(f, "MMIO access denied: {e}"),
            DriverError::Gpu(code) => write!(f, "GPU error code {code}"),
            DriverError::NotAGpu => f.write_str("device did not identify as a GPU"),
            DriverError::UnknownKernel(name) => write!(f, "kernel {name:?} not loaded"),
            DriverError::OutOfMemory => f.write_str("out of device memory"),
            DriverError::BadAllocation(va) => write!(f, "no allocation at {va}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<AccessFault> for DriverError {
    fn from(e: AccessFault) -> Self {
        DriverError::Access(e)
    }
}

#[derive(Debug, Clone)]
struct Allocation {
    /// Backing frame per page; `None` = not yet resident (managed
    /// allocations fault pages in on first touch).
    page_frames: Vec<Option<u64>>,
}

/// The driver instance (one per GPU owner: either the OS-side runtime or
/// the GPU enclave).
#[derive(Debug)]
pub struct GpuDriver {
    pid: ProcessId,
    bdf: Bdf,
    bar0_va: VirtAddr,
    bar1_va: Option<VirtAddr>,
    vram_size: u64,
    vram_next: u64,
    free_frames: Vec<u64>,
    next_ctx: u32,
    heaps: BTreeMap<u32, u64>,
    allocations: BTreeMap<(u32, u64), Allocation>,
    /// Loaded modules: kernel name → device handle ([`kernel_hash`]),
    /// so a launch looks the handle up instead of rehashing the name.
    modules: BTreeMap<String, u64>,
    /// Submitted commands the fence has not yet counted as retired
    /// (a kill or a reset drops them all).
    outstanding: Cell<u64>,
    /// The fence value the last sync read.
    fence: Cell<u64>,
}

impl GpuDriver {
    /// Attaches to the GPU whose BAR0 is mapped at `bar0_va` in `pid`'s
    /// address space (and optionally BAR1 at `bar1_va`). Verifies the
    /// device magic.
    ///
    /// # Errors
    ///
    /// Fails if MMIO is unreachable or the magic does not match.
    pub fn attach(
        machine: &mut Machine,
        pid: ProcessId,
        bdf: Bdf,
        bar0_va: VirtAddr,
        bar1_va: Option<VirtAddr>,
    ) -> Result<Self, DriverError> {
        let mut driver = GpuDriver {
            pid,
            bdf,
            bar0_va,
            bar1_va,
            vram_size: 0,
            vram_next: 0x10_0000, // first MiB reserved (firmware use)
            free_frames: Vec::new(),
            next_ctx: 1,
            heaps: BTreeMap::new(),
            allocations: BTreeMap::new(),
            modules: BTreeMap::new(),
            outstanding: Cell::new(0),
            fence: Cell::new(0),
        };
        let magic = driver.reg_read(machine, bar0::ID)?;
        if magic != GPU_MAGIC {
            return Err(DriverError::NotAGpu);
        }
        driver.vram_size = driver.reg_read(machine, bar0::VRAM_SIZE)?;
        Ok(driver)
    }

    /// The driving process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The device location.
    pub fn bdf(&self) -> Bdf {
        self.bdf
    }

    /// Device memory capacity.
    pub fn vram_size(&self) -> u64 {
        self.vram_size
    }

    /// Reads a BAR0 register.
    ///
    /// # Errors
    ///
    /// Propagates MMIO faults.
    pub fn reg_read(&self, machine: &mut Machine, offset: u64) -> Result<u64, DriverError> {
        let mut buf = [0u8; 8];
        machine.read(self.pid, self.bar0_va.offset(offset), &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a BAR0 register.
    ///
    /// # Errors
    ///
    /// Propagates MMIO faults.
    pub fn reg_write(
        &self,
        machine: &mut Machine,
        offset: u64,
        value: u64,
    ) -> Result<(), DriverError> {
        machine.write(self.pid, self.bar0_va.offset(offset), &value.to_le_bytes())?;
        Ok(())
    }

    /// Submits one command through the staging window + doorbell.
    ///
    /// # Errors
    ///
    /// Propagates MMIO faults.
    pub fn submit(&self, machine: &mut Machine, cmd: &GpuCommand) -> Result<(), DriverError> {
        let bytes = cmd.encode();
        machine.write(self.pid, self.bar0_va.offset(bar0::CMD_WINDOW), &bytes)?;
        self.reg_write(machine, bar0::DOORBELL, bytes.len() as u64)?;
        self.outstanding.set(self.outstanding.get() + 1);
        Ok(())
    }

    /// Waits for the GPU to drain its queue (Gdev synchronizes by MMIO
    /// polling) and surfaces any device error.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Gpu`] with the device error code, after
    /// clearing it.
    pub fn sync(&self, machine: &mut Machine) -> Result<(), DriverError> {
        machine.run_device(self.bdf);
        // Poll once (models the final fence read).
        let fence = self.reg_read(machine, bar0::FENCE)?;
        let retired = fence - self.fence.replace(fence);
        self.outstanding
            .set(self.outstanding.get().saturating_sub(retired));
        let error = self.reg_read(machine, bar0::ERROR)? as u32;
        if error != errcode::NONE {
            self.reg_write(machine, bar0::ERROR, 0)?;
            machine.trace().metrics().inc(Counter::DriverGpuErrors);
            return Err(DriverError::Gpu(error));
        }
        Ok(())
    }

    /// Whether the fence the last [`GpuDriver::sync`] read counted
    /// every command submitted so far as retired: a hang or a lost
    /// completion leaves this false until a kill or a reset. Host-side
    /// bookkeeping only; it reads no register.
    pub fn drained(&self) -> bool {
        self.outstanding.get() == 0
    }

    /// Whether the engines report busy (bit0 of STATUS): commands
    /// pending, a latched hang, or a lost completion. The TDR
    /// watchdog's hang signal — a clean [`GpuDriver::sync`] that leaves
    /// the device busy means no forward progress is being made.
    ///
    /// # Errors
    ///
    /// Propagates MMIO faults.
    pub fn status_busy(&self, machine: &mut Machine) -> Result<bool, DriverError> {
        Ok(self.reg_read(machine, bar0::STATUS)? & 1 != 0)
    }

    /// Rings the KILL doorbell for `ctx` (the watchdog's middle
    /// escalation rung): the device preempts the context, drops its
    /// queued work, and scrubs and destroys it. Host-side bookkeeping
    /// is forgotten in the same step. A wedged context ignores the
    /// doorbell — check [`GpuDriver::status_busy`] afterwards.
    ///
    /// # Errors
    ///
    /// Propagates MMIO faults.
    pub fn kill_ctx(&mut self, machine: &mut Machine, ctx: CtxId) -> Result<(), DriverError> {
        self.reg_write(machine, bar0::KILL, u64::from(ctx.0))?;
        self.forget_ctx(ctx);
        // The device dropped the context's queued work, which will never
        // retire (a wedged context's hung command waits for the reset).
        self.outstanding.set(0);
        Ok(())
    }

    /// Drops host-side bookkeeping for a context whose device-side half
    /// is already gone (killed, or lost to a device reset), reclaiming
    /// its frames without submitting anything.
    pub fn forget_ctx(&mut self, ctx: CtxId) {
        let keys: Vec<(u32, u64)> = self
            .allocations
            .keys()
            .filter(|(c, _)| *c == ctx.0)
            .copied()
            .collect();
        for key in keys {
            let alloc = self.allocations.remove(&key).expect("key listed");
            self.reclaim(alloc);
        }
        self.heaps.remove(&ctx.0);
    }

    /// Returns an allocation's resident frames to the free list, in page
    /// order: the one path by which VRAM frames are reused.
    fn reclaim(&mut self, alloc: Allocation) {
        self.free_frames
            .extend(alloc.page_frames.into_iter().flatten());
    }

    /// Re-synchronizes the driver with a freshly reset device: every
    /// context, allocation, and loaded module is gone on the device, so
    /// the host-side mirrors are cleared too (the MMIO mappings survive
    /// a function-level reset). Context ids stay monotonic so post-reset
    /// contexts never alias pre-reset ones. Verifies the device still
    /// answers with the GPU magic.
    ///
    /// # Errors
    ///
    /// Fails if MMIO is unreachable or the magic does not match.
    pub fn reinit_after_reset(&mut self, machine: &mut Machine) -> Result<(), DriverError> {
        let magic = self.reg_read(machine, bar0::ID)?;
        if magic != GPU_MAGIC {
            return Err(DriverError::NotAGpu);
        }
        self.vram_next = 0x10_0000;
        self.free_frames.clear();
        self.heaps.clear();
        self.allocations.clear();
        self.modules.clear();
        // The reset zeroed the fence and dropped every queued command.
        self.outstanding.set(0);
        self.fence.set(0);
        Ok(())
    }

    /// Creates a GPU context.
    ///
    /// # Errors
    ///
    /// Propagates submission/sync failures.
    pub fn create_ctx(&mut self, machine: &mut Machine) -> Result<CtxId, DriverError> {
        let ctx = CtxId(self.next_ctx);
        self.next_ctx += 1;
        self.submit(machine, &GpuCommand::CreateCtx { ctx })?;
        self.sync(machine)?;
        self.heaps.insert(ctx.0, 0x100_0000); // dev VA heap base
        Ok(ctx)
    }

    /// Destroys a context (the device scrubs its memory).
    ///
    /// # Errors
    ///
    /// Propagates submission/sync failures.
    pub fn destroy_ctx(&mut self, machine: &mut Machine, ctx: CtxId) -> Result<(), DriverError> {
        // Reclaim the context's frames for future allocations.
        self.forget_ctx(ctx);
        self.submit(machine, &GpuCommand::DestroyCtx { ctx })?;
        self.sync(machine)
    }

    fn alloc_frame(&mut self) -> Result<u64, DriverError> {
        if let Some(f) = self.free_frames.pop() {
            return Ok(f);
        }
        if self.vram_next + GPU_PAGE_SIZE > self.vram_size {
            return Err(DriverError::OutOfMemory);
        }
        let f = self.vram_next;
        self.vram_next += GPU_PAGE_SIZE;
        Ok(f)
    }

    /// Allocates `len` bytes of device memory in `ctx` (`cuMemAlloc`).
    ///
    /// # Errors
    ///
    /// Fails when VRAM is exhausted or submission fails.
    pub fn malloc(
        &mut self,
        machine: &mut Machine,
        ctx: CtxId,
        len: u64,
    ) -> Result<DevAddr, DriverError> {
        let pages = len.div_ceil(GPU_PAGE_SIZE).max(1);
        // The length comes from a tenant: refuse what the free list and
        // the unbumped VRAM cannot cover before touching the heap, a
        // `Vec` or any frame.
        let unbumped = self.vram_size.saturating_sub(self.vram_next) / GPU_PAGE_SIZE;
        if pages > self.free_frames.len() as u64 + unbumped {
            return Err(DriverError::OutOfMemory);
        }
        let heap = self.heaps.get_mut(&ctx.0).expect("context exists");
        let va = DevAddr(*heap);
        *heap += pages * GPU_PAGE_SIZE;
        let mut frames = Vec::with_capacity(pages as usize);
        for _ in 0..pages {
            frames.push(self.alloc_frame()?);
        }
        // Coalesce physically-consecutive frames into MapRange commands
        // (bump allocation makes one range the common case).
        let mut i = 0usize;
        while i < frames.len() {
            let start = i;
            while i + 1 < frames.len() && frames[i + 1] == frames[i] + GPU_PAGE_SIZE {
                i += 1;
            }
            let run = (i - start + 1) as u64;
            self.submit(
                machine,
                &GpuCommand::MapRange {
                    ctx,
                    va: va.offset(start as u64 * GPU_PAGE_SIZE),
                    pa: frames[start],
                    pages: run,
                },
            )?;
            i += 1;
        }
        self.sync(machine)?;
        self.allocations.insert(
            (ctx.0, va.value()),
            Allocation {
                page_frames: frames.into_iter().map(Some).collect(),
            },
        );
        Ok(va)
    }

    /// Allocates `len` bytes of *managed* device memory (the demand-paging
    /// extension the paper leaves as future work, §5.6): no VRAM is
    /// committed up front; the first GPU touch of each page raises a
    /// recoverable page fault that [`GpuDriver::handle_page_fault`]
    /// services. Drive faulting work with [`GpuDriver::sync_paged`].
    pub fn malloc_managed(
        &mut self,
        _machine: &mut Machine,
        ctx: CtxId,
        len: u64,
    ) -> Result<DevAddr, DriverError> {
        let pages = len.div_ceil(GPU_PAGE_SIZE).max(1);
        let heap = self.heaps.get_mut(&ctx.0).expect("context exists");
        let va = DevAddr(*heap);
        *heap += pages * GPU_PAGE_SIZE;
        self.allocations.insert(
            (ctx.0, va.value()),
            Allocation {
                page_frames: vec![None; pages as usize],
            },
        );
        Ok(va)
    }

    /// Services a pending recoverable page fault: reads the faulting
    /// address, commits zero-filled frames for every non-resident page of
    /// the managed allocation it belongs to, and clears the error.
    /// Returns `true` if a fault was handled.
    ///
    /// # Errors
    ///
    /// [`DriverError::BadAllocation`] if the faulting address is not a
    /// managed allocation (a genuine wild access).
    pub fn handle_page_fault(&mut self, machine: &mut Machine) -> Result<bool, DriverError> {
        let code = self.reg_read(machine, bar0::ERROR)? as u32;
        if code != errcode::PAGE_FAULT {
            return Ok(false);
        }
        let addr = DevAddr(self.reg_read(machine, bar0::FAULT_ADDR)?);
        let ctx = CtxId(self.reg_read(machine, bar0::FAULT_CTX)? as u32);
        machine.trace().metrics().inc(Counter::DriverPageFaults);
        let key = self
            .allocations
            .range(..=(ctx.0, addr.value()))
            .next_back()
            .filter(|((c, base), a)| {
                *c == ctx.0 && addr.value() < base + a.page_frames.len() as u64 * GPU_PAGE_SIZE
            })
            .map(|(k, _)| *k)
            .ok_or(DriverError::BadAllocation(addr))?;
        // Commit every non-resident page of the allocation (pre-faulting
        // keeps retried commands idempotent; see the module tests).
        let pages: Vec<usize> = {
            let alloc = &self.allocations[&key];
            (0..alloc.page_frames.len())
                .filter(|&i| alloc.page_frames[i].is_none())
                .collect()
        };
        for page in pages {
            let frame = self.alloc_frame()?;
            self.allocations.get_mut(&key).expect("present").page_frames[page] = Some(frame);
            let va = DevAddr(key.1 + page as u64 * GPU_PAGE_SIZE);
            self.submit(
                machine,
                &GpuCommand::MapRange {
                    ctx,
                    va,
                    pa: frame,
                    pages: 1,
                },
            )?;
        }
        // Clear the fault and drain the mapping commands.
        self.reg_write(machine, bar0::ERROR, 0)?;
        machine.run_device(self.bdf);
        Ok(true)
    }

    /// Like [`GpuDriver::sync`], but transparently services recoverable
    /// page faults by committing managed pages and re-submitting `retry`
    /// (the faulting command) until it completes.
    ///
    /// # Errors
    ///
    /// Propagates non-recoverable device errors.
    pub fn sync_paged(
        &mut self,
        machine: &mut Machine,
        retry: &GpuCommand,
    ) -> Result<(), DriverError> {
        for _ in 0..4096 {
            match self.sync(machine) {
                Ok(()) => return Ok(()),
                Err(DriverError::Gpu(code)) if code == errcode::PAGE_FAULT => {
                    // sync() already cleared ERROR; FAULT_ADDR persists.
                    self.reg_write(machine, bar0::ERROR, errcode::PAGE_FAULT as u64)?;
                    self.handle_page_fault(machine)?;
                    self.submit(machine, retry)?;
                }
                Err(other) => return Err(other),
            }
        }
        Err(DriverError::Gpu(errcode::PAGE_FAULT))
    }

    /// Frees a device allocation (`cuMemFree`). When `scrub` is set the
    /// memory is zeroed first — the §4.5 requirement for the trusted
    /// runtime; the insecure baseline skips it (and leaks, as the GPU
    /// data-leak literature shows).
    ///
    /// # Errors
    ///
    /// Fails for unknown allocations or submission errors.
    pub fn free(
        &mut self,
        machine: &mut Machine,
        ctx: CtxId,
        va: DevAddr,
        scrub: bool,
    ) -> Result<(), DriverError> {
        let alloc = self
            .allocations
            .remove(&(ctx.0, va.value()))
            .ok_or(DriverError::BadAllocation(va))?;
        let pages = alloc.page_frames.len() as u64;
        if scrub {
            // One `Memset` command per resident page, even where pages
            // are contiguous (managed holes are never dirty).
            for (i, frame) in alloc.page_frames.iter().enumerate() {
                if frame.is_some() {
                    self.submit(
                        machine,
                        &GpuCommand::Memset {
                            ctx,
                            va: va.offset(i as u64 * GPU_PAGE_SIZE),
                            len: GPU_PAGE_SIZE,
                            value: 0,
                        },
                    )?;
                }
            }
        }
        self.submit(machine, &GpuCommand::UnmapRange { ctx, va, pages })?;
        self.reclaim(alloc);
        self.sync(machine)
    }

    /// Queues a device-side fill (`cuMemsetD8`).
    ///
    /// # Errors
    ///
    /// Propagates submission failures.
    pub fn memset(
        &self,
        machine: &mut Machine,
        ctx: CtxId,
        va: DevAddr,
        len: u64,
        value: u8,
    ) -> Result<(), DriverError> {
        self.submit(
            machine,
            &GpuCommand::Memset {
                ctx,
                va,
                len,
                value,
            },
        )
    }

    /// Queues a device-to-device copy (`cuMemcpyDtoD`).
    ///
    /// # Errors
    ///
    /// Propagates submission failures.
    pub fn copy_dtod(
        &self,
        machine: &mut Machine,
        ctx: CtxId,
        src: DevAddr,
        dst: DevAddr,
        len: u64,
    ) -> Result<(), DriverError> {
        self.submit(machine, &GpuCommand::CopyDtoD { ctx, src, dst, len })
    }

    /// Queues a host→device DMA from a pinned buffer (`cuMemcpyHtoD`).
    /// Does not synchronize — callers batch and [`GpuDriver::sync`].
    ///
    /// # Errors
    ///
    /// Propagates submission failures.
    pub fn dma_htod(
        &self,
        machine: &mut Machine,
        ctx: CtxId,
        dst: DevAddr,
        src: &DmaBuffer,
        offset: u64,
        len: u64,
    ) -> Result<(), DriverError> {
        let bus = src.bus().offset(offset);
        machine.in_span("driver", "dma_htod", &[("bytes", len)], |machine| {
            self.submit(
                machine,
                &GpuCommand::DmaHtoD {
                    ctx,
                    bus,
                    va: dst,
                    len,
                },
            )
        })
    }

    /// Queues a device→host DMA into a pinned buffer (`cuMemcpyDtoH`).
    ///
    /// # Errors
    ///
    /// Propagates submission failures.
    pub fn dma_dtoh(
        &self,
        machine: &mut Machine,
        ctx: CtxId,
        src: DevAddr,
        dst: &DmaBuffer,
        offset: u64,
        len: u64,
    ) -> Result<(), DriverError> {
        let bus = dst.bus().offset(offset);
        machine.in_span("driver", "dma_dtoh", &[("bytes", len)], |machine| {
            self.submit(
                machine,
                &GpuCommand::DmaDtoH {
                    ctx,
                    va: src,
                    bus,
                    len,
                },
            )
        })
    }

    /// "Loads a module": verifies the kernel binary exists on the device
    /// and charges the binary upload.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::UnknownKernel`] when not installed.
    pub fn load_module(&mut self, machine: &mut Machine, name: &str) -> Result<(), DriverError> {
        let hash = kernel_hash(name);
        let installed = machine
            .device_mut(self.bdf)
            .and_then(|d| d.as_any_mut().downcast_mut::<GpuDevice>())
            .is_some_and(|gpu| gpu.has_kernel(hash));
        if !installed {
            return Err(DriverError::UnknownKernel(name.to_string()));
        }
        // Model the cubin upload (64 KiB binary).
        let cost = machine.model().pcie_transfer(64 << 10);
        machine.charge(EventKind::Dma, cost, "module upload");
        self.modules.insert(name.to_string(), hash);
        Ok(())
    }

    /// Queues a kernel launch (`cuLaunchKernel`).
    ///
    /// # Errors
    ///
    /// Fails if the module was not loaded or submission fails.
    pub fn launch(
        &self,
        machine: &mut Machine,
        ctx: CtxId,
        name: &str,
        args: &[u64],
    ) -> Result<(), DriverError> {
        let Some(&hash) = self.modules.get(name) else {
            return Err(DriverError::UnknownKernel(name.to_string()));
        };
        self.submit(
            machine,
            &GpuCommand::Launch {
                ctx,
                kernel: hash,
                args: args.to_vec(),
            },
        )
    }

    /// Runs one GPU-side DH exponentiation step (§4.4.1). For non-final
    /// steps, returns the blinded public value from the response buffer.
    ///
    /// # Errors
    ///
    /// Propagates submission/sync failures.
    pub fn dh_exp(
        &self,
        machine: &mut Machine,
        ctx: CtxId,
        public: &[u8],
        finalize: bool,
    ) -> Result<Option<Vec<u8>>, DriverError> {
        self.submit(
            machine,
            &GpuCommand::DhExp {
                ctx,
                finalize,
                public: public.to_vec(),
            },
        )?;
        self.sync(machine)?;
        if finalize {
            return Ok(None);
        }
        let mut len_buf = [0u8; 2];
        machine.read(self.pid, self.bar0_va.offset(bar0::RESP), &mut len_buf)?;
        let n = u16::from_le_bytes(len_buf) as usize;
        let mut out = vec![0u8; n];
        machine.read(self.pid, self.bar0_va.offset(bar0::RESP + 2), &mut out)?;
        Ok(Some(out))
    }

    /// Copies bytes into device memory through the BAR1 aperture (the
    /// MMIO data path of §4.4.2, used for small transfers).
    ///
    /// # Errors
    ///
    /// Fails without a mapped BAR1, on unknown allocations, or on MMIO
    /// faults.
    pub fn mmio_htod(
        &self,
        machine: &mut Machine,
        ctx: CtxId,
        dst: DevAddr,
        data: &[u8],
    ) -> Result<(), DriverError> {
        let bar1 = self.bar1_va.ok_or(DriverError::BadAllocation(dst))?;
        let (base_va, alloc) = self
            .allocations
            .range(..=(ctx.0, dst.value()))
            .next_back()
            .filter(|((c, base), a)| {
                let span = a.page_frames.len() as u64 * GPU_PAGE_SIZE;
                *c == ctx.0 && dst.value() + data.len() as u64 <= base + span
            })
            .map(|((_, base), a)| (*base, a.clone()))
            .ok_or(DriverError::BadAllocation(dst))?;
        let mut written = 0usize;
        while written < data.len() {
            let cur = dst.value() + written as u64 - base_va;
            let page = cur / GPU_PAGE_SIZE;
            let po = cur % GPU_PAGE_SIZE;
            let take = ((GPU_PAGE_SIZE - po) as usize).min(data.len() - written);
            let frame = alloc.page_frames[page as usize].ok_or(DriverError::BadAllocation(dst))?;
            self.reg_write(machine, bar0::APERTURE, frame)?;
            machine.write(self.pid, bar1.offset(po), &data[written..written + take])?;
            written += take;
        }
        Ok(())
    }
}

/// Maps the GPU's BAR0 (first `pages` pages) into `pid` at a fixed VA via
/// plain OS page tables — the *unprotected* access path the baseline
/// uses. Returns the chosen VA.
pub fn os_map_bar0(machine: &mut Machine, pid: ProcessId, bdf: Bdf, pages: u64) -> VirtAddr {
    let base = machine
        .fabric()
        .device(bdf)
        .expect("device present")
        .config()
        .bar(BarIndex(0))
        .base();
    let va = VirtAddr::new(0x7f00_0000_0000);
    for i in 0..pages {
        machine.os_map(
            pid,
            va.offset(i * PAGE_SIZE),
            base.offset(i * PAGE_SIZE),
            true,
        );
    }
    va
}

/// Maps the first `pages` pages of BAR1 (aperture window) into `pid`.
pub fn os_map_bar1(machine: &mut Machine, pid: ProcessId, bdf: Bdf, pages: u64) -> VirtAddr {
    let base = machine
        .fabric()
        .device(bdf)
        .expect("device present")
        .config()
        .bar(BarIndex(1))
        .base();
    let va = VirtAddr::new(0x7f10_0000_0000);
    for i in 0..pages {
        machine.os_map(
            pid,
            va.offset(i * PAGE_SIZE),
            base.offset(i * PAGE_SIZE),
            true,
        );
    }
    va
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{standard_rig, RigOptions, GPU_BDF};
    use hix_sim::Payload;

    fn setup() -> (Machine, ProcessId, GpuDriver) {
        let mut m = standard_rig(RigOptions::default());
        let pid = m.create_process();
        let bar0_va = os_map_bar0(&mut m, pid, GPU_BDF, 16);
        let bar1_va = os_map_bar1(&mut m, pid, GPU_BDF, 16);
        let driver = GpuDriver::attach(&mut m, pid, GPU_BDF, bar0_va, Some(bar1_va)).unwrap();
        (m, pid, driver)
    }

    #[test]
    fn attach_verifies_magic() {
        let (_, _, driver) = setup();
        assert_eq!(driver.vram_size(), 1536 << 20);
    }

    #[test]
    fn attach_fails_on_unmapped_mmio() {
        let mut m = standard_rig(RigOptions::default());
        let pid = m.create_process();
        let err = GpuDriver::attach(&mut m, pid, GPU_BDF, VirtAddr::new(0x1000), None);
        assert!(matches!(err, Err(DriverError::Access(_))));
    }

    #[test]
    fn malloc_memcpy_roundtrip_via_dma() {
        let (mut m, pid, mut driver) = setup();
        let ctx = driver.create_ctx(&mut m).unwrap();
        let dev = driver.malloc(&mut m, ctx, 10_000).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7) as u8).collect();
        let hbuf = DmaBuffer::alloc(&mut m, pid, 10_000);
        hbuf.write(&mut m, pid, 0, &Payload::from_bytes(data.clone()))
            .unwrap();
        driver.dma_htod(&mut m, ctx, dev, &hbuf, 0, 10_000).unwrap();
        driver.sync(&mut m).unwrap();
        let out = DmaBuffer::alloc(&mut m, pid, 10_000);
        driver.dma_dtoh(&mut m, ctx, dev, &out, 0, 10_000).unwrap();
        driver.sync(&mut m).unwrap();
        assert_eq!(out.read(&mut m, pid, 0, 10_000).unwrap(), data);
    }

    #[test]
    fn mmio_data_path_roundtrip() {
        let (mut m, pid, mut driver) = setup();
        let ctx = driver.create_ctx(&mut m).unwrap();
        let dev = driver.malloc(&mut m, ctx, 9000).unwrap();
        let data: Vec<u8> = (0..9000u32).map(|i| (i * 3) as u8).collect();
        driver.mmio_htod(&mut m, ctx, dev, &data).unwrap();
        driver.sync(&mut m).unwrap();
        let out = DmaBuffer::alloc(&mut m, pid, 9000);
        driver.dma_dtoh(&mut m, ctx, dev, &out, 0, 9000).unwrap();
        driver.sync(&mut m).unwrap();
        assert_eq!(out.read(&mut m, pid, 0, 9000).unwrap(), data);
    }

    #[test]
    fn free_with_scrub_zeroes_and_reuses_frames() {
        let (mut m, _pid, mut driver) = setup();
        let ctx = driver.create_ctx(&mut m).unwrap();
        let a = driver.malloc(&mut m, ctx, 4096).unwrap();
        driver.mmio_htod(&mut m, ctx, a, &[0xabu8; 4096]).unwrap();
        driver.sync(&mut m).unwrap();
        driver.free(&mut m, ctx, a, true).unwrap();
        // Next allocation reuses the frame; it must read back zero.
        let b = driver.malloc(&mut m, ctx, 4096).unwrap();
        let out = DmaBuffer::alloc(&mut m, driver.pid(), 4096);
        driver.dma_dtoh(&mut m, ctx, b, &out, 0, 4096).unwrap();
        driver.sync(&mut m).unwrap();
        assert_eq!(
            out.read(&mut m, driver.pid(), 0, 16).unwrap(),
            vec![0u8; 16]
        );
    }

    #[test]
    fn kill_ctx_recovers_a_hung_device() {
        use hix_sim::fault::{FaultConfig, FaultPlan};
        let (mut m, _pid, mut driver) = setup();
        let ctx = driver.create_ctx(&mut m).unwrap();
        let dev = driver.malloc(&mut m, ctx, 4096).unwrap();
        m.set_fault_plan(FaultPlan::new(
            1,
            FaultConfig {
                gpu_hang_pm: 1000,
                ..FaultConfig::none()
            },
        ));
        driver.copy_dtod(&mut m, ctx, dev, dev, 64).unwrap();
        driver.sync(&mut m).unwrap(); // no error code — just no progress
        assert!(
            driver.status_busy(&mut m).unwrap(),
            "hang leaves engines busy"
        );
        m.clear_fault_plan();
        driver.kill_ctx(&mut m, ctx).unwrap();
        assert!(
            !driver.status_busy(&mut m).unwrap(),
            "kill unblocks the device"
        );
        // The latched KILLED code surfaces exactly once at the next sync.
        assert_eq!(driver.sync(&mut m), Err(DriverError::Gpu(errcode::KILLED)));
        driver.sync(&mut m).unwrap();
    }

    #[test]
    fn drained_counts_what_the_fence_never_retired() {
        use hix_sim::fault::{FaultConfig, FaultPlan};
        let (mut m, _pid, mut driver) = setup();
        let ctx = driver.create_ctx(&mut m).unwrap();
        let dev = driver.malloc(&mut m, ctx, 4096).unwrap();
        assert!(driver.drained());
        m.set_fault_plan(FaultPlan::new(
            1,
            FaultConfig {
                gpu_lost_pm: 1000,
                ..FaultConfig::none()
            },
        ));
        driver.copy_dtod(&mut m, ctx, dev, dev, 64).unwrap();
        driver.sync(&mut m).unwrap();
        assert!(!driver.drained(), "the lost completion stays outstanding");
        m.clear_fault_plan();
        driver.kill_ctx(&mut m, ctx).unwrap();
        assert!(driver.drained(), "the kill dropped it");
    }

    #[test]
    fn reinit_after_reset_resyncs_bookkeeping() {
        let (mut m, _pid, mut driver) = setup();
        let ctx = driver.create_ctx(&mut m).unwrap();
        let _dev = driver.malloc(&mut m, ctx, 8192).unwrap();
        m.fabric_mut().reset_device(GPU_BDF);
        driver.reinit_after_reset(&mut m).unwrap();
        let ctx2 = driver.create_ctx(&mut m).unwrap();
        assert!(ctx2.0 > ctx.0, "context ids stay monotonic across reset");
        let dev2 = driver.malloc(&mut m, ctx2, 4096).unwrap();
        driver.memset(&mut m, ctx2, dev2, 4096, 7).unwrap();
        driver.sync(&mut m).unwrap();
    }

    #[test]
    fn free_without_scrub_leaks_stale_data() {
        // The insecure baseline behavior the leak literature documents.
        let (mut m, _pid, mut driver) = setup();
        let ctx = driver.create_ctx(&mut m).unwrap();
        let a = driver.malloc(&mut m, ctx, 4096).unwrap();
        driver.mmio_htod(&mut m, ctx, a, &[0xcdu8; 4096]).unwrap();
        driver.sync(&mut m).unwrap();
        driver.free(&mut m, ctx, a, false).unwrap();
        let b = driver.malloc(&mut m, ctx, 4096).unwrap();
        let out = DmaBuffer::alloc(&mut m, driver.pid(), 4096);
        driver.dma_dtoh(&mut m, ctx, b, &out, 0, 4096).unwrap();
        driver.sync(&mut m).unwrap();
        assert_eq!(out.read(&mut m, driver.pid(), 0, 4).unwrap(), vec![0xcd; 4]);
    }

    #[test]
    fn unknown_kernel_rejected_at_load_and_launch() {
        let (mut m, _pid, mut driver) = setup();
        let ctx = driver.create_ctx(&mut m).unwrap();
        assert!(matches!(
            driver.load_module(&mut m, "nope"),
            Err(DriverError::UnknownKernel(_))
        ));
        assert!(matches!(
            driver.launch(&mut m, ctx, "hix.ocb_decrypt", &[]),
            Err(DriverError::UnknownKernel(_)) // installed but not loaded
        ));
        driver.load_module(&mut m, "hix.ocb_decrypt").unwrap();
        driver
            .launch(&mut m, ctx, "hix.ocb_decrypt", &[0, 0, 0, 0])
            .unwrap();
        // No session key -> BAD_ARGS from the device.
        assert_eq!(
            driver.sync(&mut m),
            Err(DriverError::Gpu(errcode::BAD_ARGS))
        );
        // Error was cleared by sync; next sync is clean.
        driver.sync(&mut m).unwrap();
    }

    /// A driver on a GPU with `vram_size` bytes of VRAM, and one context.
    fn small_vram(vram_size: u64) -> (Machine, GpuDriver, CtxId) {
        let mut m = standard_rig(RigOptions {
            gpu: hix_gpu::device::GpuConfig {
                vram_size,
                ..Default::default()
            },
            ..Default::default()
        });
        let pid = m.create_process();
        let bar0_va = os_map_bar0(&mut m, pid, GPU_BDF, 16);
        let mut driver = GpuDriver::attach(&mut m, pid, GPU_BDF, bar0_va, None).unwrap();
        let ctx = driver.create_ctx(&mut m).unwrap();
        (m, driver, ctx)
    }

    #[test]
    fn out_of_memory_detected() {
        let (mut m, mut driver, ctx) = small_vram(2 << 20);
        assert!(matches!(
            driver.malloc(&mut m, ctx, 64 << 20),
            Err(DriverError::OutOfMemory)
        ));
    }

    #[test]
    fn an_oversized_malloc_takes_nothing() {
        let (mut m, mut driver, ctx) = small_vram(4 << 20);
        for len in [8 << 20, 1 << 50, u64::MAX] {
            assert_eq!(
                driver.malloc(&mut m, ctx, len),
                Err(DriverError::OutOfMemory),
                "{len:#x}"
            );
        }
        // Neither the heap nor a frame moved: all the VRAM past the
        // firmware MiB is still one allocation, at the heap's base.
        let rest = driver.vram_size() - 0x10_0000;
        assert_eq!(driver.malloc(&mut m, ctx, rest), Ok(DevAddr(0x100_0000)));
    }
}
