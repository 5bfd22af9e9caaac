//! The GPU device: command processor, DMA engines, compute engine, BAR1
//! aperture, and expansion-ROM BIOS.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

use hix_crypto::dh::{DhGroup, DhPrivate, DhPublic};
use hix_crypto::drbg::HmacDrbg;
use hix_crypto::kdf;
use hix_pcie::config::{BarIndex, ConfigSpace};
use hix_pcie::device::{DmaBus, PcieDevice};
use hix_sim::fault::{self, DeviceFault, FaultPlan};
use hix_sim::{Clock, CostModel, Counter, EventKind, Nanos, Trace};

use crate::cmd::GpuCommand;
use crate::ctx::{CtxId, GpuContext};
use crate::kernel::{GpuKernel, KernelError, KernelExec};
use crate::regs::{bar0, errcode, GPU_MAGIC};
use crate::vram::{span_fits, Vram, GPU_PAGE_SIZE};

/// VRAM bandwidth used for memsets/scrubbing (GTX 580 class).
const VRAM_BW: u64 = 150_000_000_000;

/// PCI identity of the modeled GPU (vendor 0x10de, device 0x1080 — a
/// GTX 580-class discrete GPU; class code 0x030000 = VGA display).
pub const GPU_VENDOR: u16 = 0x10de;
/// See [`GPU_VENDOR`].
pub const GPU_DEVICE: u16 = 0x1080;

/// Construction parameters.
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// VRAM capacity (default 1.5 GiB, the GTX 580 of Table 3).
    pub vram_size: u64,
    /// Synthetic mode: charge time but skip byte work (paper-scale
    /// benchmarking; see DESIGN.md).
    pub synthetic: bool,
    /// Seed for the device's DRBG (DH secrets).
    pub seed: u64,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            vram_size: 1536 << 20,
            synthetic: false,
            seed: 0x6770_755f,
        }
    }
}

/// A latched engine hang: the command processor stops making forward
/// progress until the offending context is killed (or, if `wedged`, the
/// whole device is reset).
#[derive(Debug, Clone, Copy)]
struct HangState {
    ctx: CtxId,
    wedged: bool,
}

/// The GPU device model. Attach to a [`hix_pcie::PcieFabric`] and drive it
/// through MMIO.
pub struct GpuDevice {
    config_space: ConfigSpace,
    opts: GpuConfig,
    vram: Vram,
    ctxs: BTreeMap<CtxId, GpuContext>,
    dh_keys: BTreeMap<CtxId, DhPrivate>,
    queue: VecDeque<GpuCommand>,
    staging: Vec<u8>,
    resp: Vec<u8>,
    fence: u64,
    error: u32,
    aperture: u64,
    ctx_switches: u64,
    fault_addr: u64,
    fault_ctx: u32,
    engine_ctx: Option<CtxId>,
    fault_plan: Option<FaultPlan>,
    hang: Option<HangState>,
    completion_lost: Option<CtxId>,
    kernels: BTreeMap<u64, Box<dyn GpuKernel>>,
    // Kernel working memory, lent to every launch through `KernelExec`
    // and kept across launches. Only `hix.ocb_decrypt` borrows it, one
    // span sized by the transfer, so it stays within one pipeline chunk.
    scratch: Vec<u8>,
    drbg: HmacDrbg,
    group: &'static DhGroup,
    bios: Vec<u8>,
    clock: Clock,
    model: CostModel,
    trace: Trace,
}

impl std::fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuDevice")
            .field("vram", &self.vram)
            .field("contexts", &self.ctxs.len())
            .field("pending", &self.queue.len())
            .field("fence", &self.fence)
            .field("error", &self.error)
            .finish()
    }
}

/// Builds the deterministic GPU BIOS image the expansion ROM exposes.
pub fn build_bios(seed: u64) -> Vec<u8> {
    let mut bios = Vec::with_capacity(8192);
    bios.extend_from_slice(b"HIXBIOS1");
    bios.extend_from_slice(&seed.to_le_bytes());
    let mut drbg = HmacDrbg::new(&bios.clone());
    bios.extend(drbg.bytes(8192 - bios.len()));
    bios
}

impl GpuDevice {
    /// Creates the device sharing the platform's clock/model/trace.
    pub fn new(opts: GpuConfig, clock: Clock, model: CostModel, trace: Trace) -> Self {
        let mut config_space = ConfigSpace::endpoint(GPU_VENDOR, GPU_DEVICE, 0x030000);
        config_space.set_bar_size(BarIndex(0), 16 << 20);
        config_space.set_bar_size(BarIndex(1), 256 << 20);
        config_space.set_rom_size(64 << 10);
        let bios = build_bios(opts.seed);
        let drbg = HmacDrbg::new(&opts.seed.to_le_bytes());
        GpuDevice {
            config_space,
            vram: Vram::new(opts.vram_size),
            ctxs: BTreeMap::new(),
            dh_keys: BTreeMap::new(),
            queue: VecDeque::new(),
            staging: vec![0u8; bar0::CMD_WINDOW_LEN as usize],
            resp: vec![0u8; bar0::RESP_LEN as usize],
            fence: 0,
            error: errcode::NONE,
            aperture: 0,
            ctx_switches: 0,
            fault_addr: 0,
            fault_ctx: 0,
            engine_ctx: None,
            fault_plan: None,
            hang: None,
            completion_lost: None,
            kernels: BTreeMap::new(),
            scratch: Vec::new(),
            drbg,
            group: DhGroup::sim(),
            bios,
            clock,
            model,
            trace,
            opts,
        }
    }

    /// Installs a kernel "binary" (simulator setup; stands in for the
    /// universe of loadable CUDA modules).
    pub fn install_kernel(&mut self, kernel: Box<dyn GpuKernel>) {
        let hash = crate::kernel::kernel_hash(kernel.name());
        self.kernels.insert(hash, kernel);
    }

    /// Whether a kernel with this handle is installed.
    pub fn has_kernel(&self, hash: u64) -> bool {
        self.kernels.contains_key(&hash)
    }

    /// Completed-command fence value.
    pub fn fence(&self) -> u64 {
        self.fence
    }

    /// Pending command count.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Last error code.
    pub fn error(&self) -> u32 {
        self.error
    }

    /// Context-switch counter.
    pub fn ctx_switches(&self) -> u64 {
        self.ctx_switches
    }

    /// Whether the device is in synthetic (time-only) mode.
    pub fn is_synthetic(&self) -> bool {
        self.opts.synthetic
    }

    /// Direct VRAM view for tests and attack scenarios (physical access —
    /// the §5.6 "physical attacks on GPUs" limitation is real in the
    /// model too).
    pub fn vram(&self) -> &Vram {
        &self.vram
    }

    /// The context table (diagnostics).
    pub fn context(&self, ctx: CtxId) -> Option<&GpuContext> {
        self.ctxs.get(&ctx)
    }

    /// Records a recoverable page fault (demand paging extension, §5.6
    /// future work): the driver reads the faulting address, maps the
    /// page, and re-submits the command.
    fn set_page_fault(&mut self, ctx: CtxId, addr: crate::vram::DevAddr) {
        self.fault_addr = addr.value();
        self.fault_ctx = ctx.0;
        self.set_error(errcode::PAGE_FAULT);
    }

    /// The VRAM address a BAR1 access of `len` bytes at `offset` lands
    /// on, or `None` if the aperture-relative span wraps past 2⁶⁴ or
    /// leaves VRAM (such a read returns `0xff`s and such a write is
    /// dropped).
    fn bar1_target(&self, offset: u64, len: usize) -> Option<u64> {
        let base = self.aperture.checked_add(offset)?;
        let end = base.checked_add(len as u64)?;
        (end <= self.vram.size()).then_some(base)
    }

    fn set_error(&mut self, code: u32) {
        self.latch_error(code);
        // A raised (not injected) fault: the device *detected* a real
        // problem — e.g. an integrity failure after a bit-flip landed in
        // a sealed staging buffer. Recorded as detected, so one injection
        // that cascades into a detected error downstream is two faults.
        fault::record(
            &self.trace,
            &self.clock,
            None,
            "gpu error",
            &[("code", u64::from(code))],
        );
    }

    /// Latches an error code without the [`GpuDevice::set_error`] `Fault`
    /// record: an injected device fault is recorded once, as injected
    /// ([`GpuDevice::injected`]), and the KILL doorbell uses it too
    /// because a kill is a recovery action, not a fault.
    fn latch_error(&mut self, code: u32) {
        // A spurious latch never masks a real error the host has not
        // read yet (an ECC flip earlier in the same drain).
        if code != errcode::SPURIOUS || self.error == errcode::NONE {
            self.error = code;
        }
        self.trace.metrics().inc(Counter::GpuErrors);
    }

    /// Records one injected device fault against the context it hit.
    fn injected(&self, what: DeviceFault, ctx: CtxId) {
        fault::record(
            &self.trace,
            &self.clock,
            Some(what.kind()),
            "",
            &[("ctx", u64::from(ctx.0))],
        );
    }

    /// Flips one byte inside the context's resident VRAM footprint and
    /// latches an ECC error. Returns whether the flip was applied (a
    /// context with no resident pages has no live buffer to corrupt).
    fn apply_vram_flip(&mut self, ctx: CtxId, offset: u64, xor: u8) -> bool {
        let Some(context) = self.ctxs.get(&ctx) else {
            return false;
        };
        let frames = context.frames();
        if frames.is_empty() {
            return false;
        }
        let bytes = frames.len() as u64 * GPU_PAGE_SIZE;
        let target = offset % bytes;
        let pa = frames[(target / GPU_PAGE_SIZE) as usize] + target % GPU_PAGE_SIZE;
        let mut byte = [0u8; 1];
        self.vram.read(pa, &mut byte);
        self.vram.write(pa, &[byte[0] ^ xor]);
        self.fault_ctx = ctx.0;
        self.latch_error(errcode::ECC);
        true
    }

    /// The KILL doorbell: preempts and destroys `ctx`, dropping its
    /// queued commands and scrubbing its VRAM (DestroyCtx semantics). A
    /// wedged hang ignores the kill — only a full reset clears it.
    fn kill_ctx(&mut self, ctx: CtxId) {
        if let Some(hang) = self.hang {
            if hang.ctx == ctx {
                if hang.wedged {
                    // The context ignores preemption; the watchdog's
                    // next rung is a secure device reset.
                    self.trace.metrics().inc(Counter::GpuKillIgnored);
                    return;
                }
                self.hang = None;
            }
        }
        if self.completion_lost == Some(ctx) {
            self.completion_lost = None;
        }
        self.queue.retain(|cmd| cmd.ctx() != ctx);
        if let Some(context) = self.ctxs.remove(&ctx) {
            let frames = context.frames();
            let bytes = frames.len() as u64 * GPU_PAGE_SIZE;
            for frame in frames {
                self.vram.fill(frame, GPU_PAGE_SIZE, 0);
            }
            self.dh_keys.remove(&ctx);
            if self.engine_ctx == Some(ctx) {
                self.engine_ctx = None;
            }
            self.trace.charge_with(
                &self.clock,
                Nanos::for_throughput(bytes.max(1), VRAM_BW),
                EventKind::GpuMem,
                "kill ctx",
                &[("bytes", bytes)],
            );
            self.trace.metrics().inc(Counter::GpuKills);
            self.latch_error(errcode::KILLED);
        }
    }

    /// Whether the engines are blocked on a latched hang (diagnostics).
    pub fn is_hung(&self) -> bool {
        self.hang.is_some()
    }

    fn exec(&mut self, cmd: GpuCommand, dma: &mut dyn DmaBus) {
        if cmd.uses_engines() && self.engine_ctx != Some(cmd.ctx()) {
            if self.engine_ctx.is_some() {
                let dt = self.model.ctx_switch;
                self.trace
                    .charge(&self.clock, dt, EventKind::CtxSwitch, "gpu ctx switch");
                self.trace.metrics().inc(Counter::GpuCtxSwitches);
                self.ctx_switches += 1;
            }
            self.engine_ctx = Some(cmd.ctx());
        }
        match cmd {
            GpuCommand::CreateCtx { ctx } => {
                if self.ctxs.contains_key(&ctx) {
                    self.set_error(errcode::CTX_EXISTS);
                    return;
                }
                let secret = self.group.generate_private(&mut self.drbg);
                self.dh_keys.insert(ctx, secret);
                self.ctxs.insert(ctx, GpuContext::new(ctx));
                let dt = Nanos::from_micros(100);
                self.trace
                    .charge(&self.clock, dt, EventKind::Init, "create ctx");
            }
            GpuCommand::DestroyCtx { ctx } => {
                let Some(context) = self.ctxs.remove(&ctx) else {
                    self.set_error(errcode::NO_CTX);
                    return;
                };
                // Scrub every frame the context could address (§4.5: the
                // runtime must cleanse deallocated memory; the device
                // model enforces it at destroy as defense in depth).
                let frames = context.frames();
                let bytes = frames.len() as u64 * GPU_PAGE_SIZE;
                for frame in frames {
                    self.vram.fill(frame, GPU_PAGE_SIZE, 0);
                }
                self.dh_keys.remove(&ctx);
                if self.engine_ctx == Some(ctx) {
                    self.engine_ctx = None;
                }
                self.trace.charge_with(
                    &self.clock,
                    Nanos::for_throughput(bytes.max(1), VRAM_BW),
                    EventKind::GpuMem,
                    "scrub ctx",
                    &[("bytes", bytes)],
                );
            }
            GpuCommand::MapRange { ctx, va, pa, pages } => {
                let vram_size = self.vram.size();
                let Some(context) = self.ctxs.get_mut(&ctx) else {
                    self.set_error(errcode::NO_CTX);
                    return;
                };
                let span = pages.saturating_mul(GPU_PAGE_SIZE);
                if pa % GPU_PAGE_SIZE != 0
                    || pa.saturating_add(span) > vram_size
                    || !span_fits(va.value(), span)
                {
                    self.set_error(errcode::FAULT);
                    return;
                }
                for i in 0..pages {
                    context.map_page(va.offset(i * GPU_PAGE_SIZE), pa + i * GPU_PAGE_SIZE);
                }
            }
            GpuCommand::UnmapRange { ctx, va, pages } => {
                let Some(context) = self.ctxs.get_mut(&ctx) else {
                    self.set_error(errcode::NO_CTX);
                    return;
                };
                if !pages
                    .checked_mul(GPU_PAGE_SIZE)
                    .is_some_and(|span| span_fits(va.value(), span))
                {
                    self.set_error(errcode::FAULT);
                    return;
                }
                for i in 0..pages {
                    context.unmap_page(va.offset(i * GPU_PAGE_SIZE));
                }
            }
            GpuCommand::DmaHtoD { ctx, bus, va, len } => {
                self.trace.charge_with(
                    &self.clock,
                    self.model.pcie_transfer(len),
                    EventKind::Dma,
                    "HtoD",
                    &[("bytes", len)],
                );
                self.trace.metrics().add(Counter::DmaBytesHtod, len);
                if self.opts.synthetic {
                    return;
                }
                if !self.ctxs.contains_key(&ctx) {
                    self.set_error(errcode::NO_CTX);
                    return;
                }
                if !span_fits(va.value(), len) || !span_fits(bus.value(), len) {
                    self.set_error(errcode::FAULT);
                    return;
                }
                let mut off = 0u64;
                while off < len {
                    let cur = va.offset(off);
                    let take = (GPU_PAGE_SIZE - cur.page_offset()).min(len - off);
                    let pa = match self.ctxs[&ctx].translate(cur) {
                        Ok(pa) => pa,
                        Err(fault) => {
                            self.set_page_fault(ctx, fault.addr);
                            return;
                        }
                    };
                    // The host bytes land straight in the VRAM page.
                    let page = self.vram.page_slice_mut(pa, take as usize);
                    if dma.dma_read(bus.offset(off), page).is_err() {
                        self.set_error(errcode::DMA);
                        return;
                    }
                    off += take;
                }
            }
            GpuCommand::DmaDtoH { ctx, va, bus, len } => {
                self.trace.charge_with(
                    &self.clock,
                    self.model.pcie_transfer(len),
                    EventKind::Dma,
                    "DtoH",
                    &[("bytes", len)],
                );
                self.trace.metrics().add(Counter::DmaBytesDtoh, len);
                if self.opts.synthetic {
                    return;
                }
                if !self.ctxs.contains_key(&ctx) {
                    self.set_error(errcode::NO_CTX);
                    return;
                }
                if !span_fits(va.value(), len) || !span_fits(bus.value(), len) {
                    self.set_error(errcode::FAULT);
                    return;
                }
                let mut off = 0u64;
                while off < len {
                    let cur = va.offset(off);
                    let take = (GPU_PAGE_SIZE - cur.page_offset()).min(len - off);
                    let pa = match self.ctxs[&ctx].translate(cur) {
                        Ok(pa) => pa,
                        Err(fault) => {
                            self.set_page_fault(ctx, fault.addr);
                            return;
                        }
                    };
                    // The VRAM page goes straight out to the host.
                    let page = self.vram.page_slice(pa, take as usize);
                    if dma.dma_write(bus.offset(off), page).is_err() {
                        self.set_error(errcode::DMA);
                        return;
                    }
                    off += take;
                }
            }
            GpuCommand::CopyDtoD { ctx, src, dst, len } => {
                self.trace.charge_with(
                    &self.clock,
                    // read + write traffic; saturate — a hostile length
                    // must cost time, never wrap (fuzzer-found).
                    Nanos::for_throughput(len.max(1).saturating_mul(2), VRAM_BW),
                    EventKind::GpuMem,
                    "dtod copy",
                    &[("bytes", len)],
                );
                if self.opts.synthetic {
                    return;
                }
                if !self.ctxs.contains_key(&ctx) {
                    self.set_error(errcode::NO_CTX);
                    return;
                }
                if !span_fits(src.value(), len) || !span_fits(dst.value(), len) {
                    self.set_error(errcode::FAULT);
                    return;
                }
                // Each step moves at most one page, through this bounce
                // page: a step reads all its source bytes before writing
                // any, so an overlapping step copies like memmove.
                let mut bounce = [0u8; GPU_PAGE_SIZE as usize];
                let mut off = 0u64;
                while off < len {
                    let s_cur = src.offset(off);
                    let d_cur = dst.offset(off);
                    let take = (GPU_PAGE_SIZE - s_cur.page_offset())
                        .min(GPU_PAGE_SIZE - d_cur.page_offset())
                        .min(len - off);
                    let (s_pa, d_pa) = {
                        let context = &self.ctxs[&ctx];
                        match (context.translate(s_cur), context.translate(d_cur)) {
                            (Ok(s), Ok(d)) => (s, d),
                            (Err(fault), _) | (_, Err(fault)) => {
                                self.set_page_fault(ctx, fault.addr);
                                return;
                            }
                        }
                    };
                    let step = &mut bounce[..take as usize];
                    self.vram.read(s_pa, step);
                    self.vram.write(d_pa, step);
                    off += take;
                }
            }
            GpuCommand::Memset {
                ctx,
                va,
                len,
                value,
            } => {
                self.trace.charge_with(
                    &self.clock,
                    Nanos::for_throughput(len.max(1), VRAM_BW),
                    EventKind::GpuMem,
                    "memset",
                    &[("bytes", len)],
                );
                if self.opts.synthetic {
                    return;
                }
                let Some(context) = self.ctxs.get(&ctx) else {
                    self.set_error(errcode::NO_CTX);
                    return;
                };
                if !span_fits(va.value(), len) {
                    self.set_error(errcode::FAULT);
                    return;
                }
                let mut off = 0u64;
                while off < len {
                    let cur = va.offset(off);
                    let take = (GPU_PAGE_SIZE - cur.page_offset()).min(len - off);
                    let pa = match context.translate(cur) {
                        Ok(pa) => pa,
                        Err(fault) => {
                            self.set_page_fault(ctx, fault.addr);
                            return;
                        }
                    };
                    self.vram.fill(pa, take, value);
                    off += take;
                }
            }
            GpuCommand::Launch { ctx, kernel, args } => {
                let Some(k) = self.kernels.get(&kernel) else {
                    self.set_error(errcode::NO_KERNEL);
                    return;
                };
                let is_crypto = k.name().starts_with(crate::crypto_kernels::RESERVED_PREFIX);
                let cost = self.model.kernel_launch + k.cost(&self.model, &args);
                self.trace.metrics().inc(if is_crypto {
                    Counter::GpuCryptoLaunches
                } else {
                    Counter::GpuKernelLaunches
                });
                self.trace.charge(
                    &self.clock,
                    cost,
                    if is_crypto {
                        EventKind::GpuCrypto
                    } else {
                        EventKind::Kernel
                    },
                    "launch",
                );
                if self.opts.synthetic {
                    return;
                }
                let Some(context) = self.ctxs.get(&ctx) else {
                    self.set_error(errcode::NO_CTX);
                    return;
                };
                let mut exec = KernelExec::new(context, &mut self.vram, &args, &mut self.scratch);
                match self.kernels[&kernel].run(&mut exec) {
                    Ok(()) => {}
                    Err(KernelError::Fault(fault)) => self.set_page_fault(ctx, fault.addr),
                    Err(KernelError::BadArgs(_)) => self.set_error(errcode::BAD_ARGS),
                    Err(KernelError::IntegrityFailure) => self.set_error(errcode::INTEGRITY),
                }
            }
            GpuCommand::DhExp {
                ctx,
                finalize,
                public,
            } => {
                let dt = Nanos::from_micros(200);
                self.trace
                    .charge(&self.clock, dt, EventKind::Attestation, "gpu dh");
                let Some(context) = self.ctxs.get_mut(&ctx) else {
                    self.set_error(errcode::NO_CTX);
                    return;
                };
                let secret = &self.dh_keys[&ctx];
                let peer = DhPublic::from_be_bytes(&public);
                match self.group.agree_private(secret, &peer) {
                    Ok(shared) => {
                        if finalize {
                            let key = kdf::derive_aes128(b"hix-3dh", shared.as_bytes(), b"session");
                            context.set_session_key(key);
                            context.set_dh_secret(shared.as_bytes().to_vec());
                            self.resp.fill(0);
                        } else {
                            let out = shared.as_bytes();
                            self.resp.fill(0);
                            self.resp[..2].copy_from_slice(&(out.len() as u16).to_le_bytes());
                            self.resp[2..2 + out.len()].copy_from_slice(out);
                        }
                    }
                    Err(_) => self.set_error(errcode::BAD_ARGS),
                }
            }
        }
    }
}

impl PcieDevice for GpuDevice {
    fn config(&self) -> &ConfigSpace {
        &self.config_space
    }

    fn config_mut(&mut self) -> &mut ConfigSpace {
        &mut self.config_space
    }

    fn mmio_read(&mut self, bar: BarIndex, offset: u64, buf: &mut [u8]) {
        match bar {
            BarIndex(0) => {
                let value: u64 = match offset & !0x7 {
                    bar0::ID => GPU_MAGIC,
                    bar0::STATUS => u64::from(
                        !self.queue.is_empty()
                            || self.hang.is_some()
                            || self.completion_lost.is_some(),
                    ),
                    bar0::FENCE => self.fence,
                    bar0::ERROR => self.error as u64,
                    bar0::APERTURE => self.aperture,
                    bar0::CTX_SWITCH => self.ctx_switches,
                    bar0::VRAM_SIZE => self.vram.size(),
                    bar0::FAULT_ADDR => self.fault_addr,
                    bar0::FAULT_CTX => self.fault_ctx as u64,
                    o if (bar0::RESP..bar0::RESP + bar0::RESP_LEN).contains(&o) => {
                        let start = (offset - bar0::RESP) as usize;
                        let end = (start + buf.len()).min(self.resp.len());
                        let n = end.saturating_sub(start);
                        buf[..n].copy_from_slice(&self.resp[start..end]);
                        if n < buf.len() {
                            buf[n..].fill(0);
                        }
                        return;
                    }
                    _ => 0,
                };
                let bytes = value.to_le_bytes();
                let off = (offset & 0x7) as usize;
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = *bytes.get(off + i).unwrap_or(&0);
                }
            }
            BarIndex(1) => {
                // Aperture window into VRAM.
                match self.bar1_target(offset, buf.len()) {
                    Some(base) => self.vram.read(base, buf),
                    None => buf.fill(0xff),
                }
            }
            _ => buf.fill(0),
        }
    }

    fn mmio_write(&mut self, bar: BarIndex, offset: u64, data: &[u8]) {
        match bar {
            BarIndex(0) => match offset & !0x7 {
                bar0::ERROR => {
                    // Writable for the driver's fault-handling protocol:
                    // write 0 to clear, or restore a code when replaying.
                    let mut bytes = [0u8; 4];
                    let n = data.len().min(4);
                    bytes[..n].copy_from_slice(&data[..n]);
                    self.error = u32::from_le_bytes(bytes);
                }
                bar0::APERTURE => {
                    let mut bytes = [0u8; 8];
                    bytes[..data.len().min(8)].copy_from_slice(&data[..data.len().min(8)]);
                    self.aperture = u64::from_le_bytes(bytes);
                }
                bar0::KILL => {
                    let mut bytes = [0u8; 4];
                    let n = data.len().min(4);
                    bytes[..n].copy_from_slice(&data[..n]);
                    self.kill_ctx(CtxId(u32::from_le_bytes(bytes)));
                }
                bar0::DOORBELL => {
                    let mut bytes = [0u8; 8];
                    bytes[..data.len().min(8)].copy_from_slice(&data[..data.len().min(8)]);
                    let len = (u64::from_le_bytes(bytes) as usize).min(self.staging.len());
                    match GpuCommand::decode(&self.staging[..len]) {
                        Ok(cmd) => self.queue.push_back(cmd),
                        Err(_) => self.set_error(errcode::DECODE),
                    }
                }
                o if (bar0::CMD_WINDOW..bar0::CMD_WINDOW + bar0::CMD_WINDOW_LEN).contains(&o) => {
                    let start = (offset - bar0::CMD_WINDOW) as usize;
                    let end = (start + data.len()).min(self.staging.len());
                    self.staging[start..end].copy_from_slice(&data[..end - start]);
                }
                _ => {}
            },
            BarIndex(1) => {
                // Bulk MMIO data path into VRAM: slower than DMA; charge
                // at half PCIe bandwidth for large writes.
                if data.len() > 64 {
                    self.trace.charge(
                        &self.clock,
                        Nanos::for_throughput(data.len() as u64, self.model.pcie_bw / 2),
                        EventKind::Mmio,
                        "bar1 bulk",
                    );
                }
                if self.opts.synthetic {
                    return;
                }
                if let Some(base) = self.bar1_target(offset, data.len()) {
                    self.vram.write(base, data);
                }
            }
            _ => {}
        }
    }

    fn expansion_rom(&self) -> Option<&[u8]> {
        Some(&self.bios)
    }

    fn reset(&mut self) {
        self.ctxs.clear();
        self.dh_keys.clear();
        self.queue.clear();
        self.staging.fill(0);
        self.resp.fill(0);
        self.fence = 0;
        self.error = errcode::NONE;
        self.aperture = 0;
        self.ctx_switches = 0;
        self.fault_addr = 0;
        self.fault_ctx = 0;
        self.engine_ctx = None;
        // A full function-level reset un-wedges even a context that
        // ignored the KILL doorbell; the fault plan survives (it models
        // the environment, not device state).
        self.hang = None;
        self.completion_lost = None;
        self.vram.clear();
        self.scratch.fill(0);
        let dt = Nanos::from_millis(10);
        self.trace
            .charge(&self.clock, dt, EventKind::Init, "gpu reset");
    }

    fn install_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    fn tick(&mut self, dma: &mut dyn DmaBus) -> bool {
        if self.hang.is_some() {
            // The command processor is blocked on the hung command; no
            // forward progress until a KILL or a reset.
            return false;
        }
        let Some(cmd) = self.queue.pop_front() else {
            return false;
        };
        let fault = match &self.fault_plan {
            Some(plan) if cmd.fault_eligible() => plan.sample_gpu_fault(),
            _ => None,
        };
        match fault {
            Some(hang @ DeviceFault::Hang { wedged }) => {
                self.injected(hang, cmd.ctx());
                self.hang = Some(HangState {
                    ctx: cmd.ctx(),
                    wedged,
                });
                false
            }
            Some(lost @ DeviceFault::LostCompletion) => {
                let ctx = cmd.ctx();
                self.injected(lost, ctx);
                self.exec(cmd, dma);
                // The work is done but the fence update is dropped: the
                // host observes a busy engine that never completes.
                self.completion_lost = Some(ctx);
                false
            }
            Some(flip @ DeviceFault::VramFlip { offset, xor }) => {
                let ctx = cmd.ctx();
                self.exec(cmd, dma);
                if self.apply_vram_flip(ctx, offset, xor) {
                    self.injected(flip, ctx);
                }
                self.fence += 1;
                true
            }
            Some(spurious @ DeviceFault::Spurious) => {
                self.injected(spurious, cmd.ctx());
                self.exec(cmd, dma);
                // The command completed fine; the error latch lies.
                self.latch_error(errcode::SPURIOUS);
                self.fence += 1;
                true
            }
            None => {
                self.exec(cmd, dma);
                self.fence += 1;
                true
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vram::DevAddr;
    use hix_pcie::addr::PhysAddr;
    use hix_pcie::device::DmaFault;

    /// Host memory stub for DMA in unit tests.
    #[derive(Default)]
    struct HostStub {
        mem: std::collections::BTreeMap<u64, u8>,
        fail: bool,
    }

    impl DmaBus for HostStub {
        fn dma_read(&mut self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), DmaFault> {
            if self.fail {
                return Err(DmaFault { addr });
            }
            for (i, b) in buf.iter_mut().enumerate() {
                *b = *self.mem.get(&(addr.value() + i as u64)).unwrap_or(&0);
            }
            Ok(())
        }
        fn dma_write(&mut self, addr: PhysAddr, data: &[u8]) -> Result<(), DmaFault> {
            if self.fail {
                return Err(DmaFault { addr });
            }
            for (i, b) in data.iter().enumerate() {
                self.mem.insert(addr.value() + i as u64, *b);
            }
            Ok(())
        }
    }

    fn device() -> GpuDevice {
        GpuDevice::new(
            GpuConfig {
                vram_size: 16 << 20,
                ..GpuConfig::default()
            },
            Clock::new(),
            CostModel::paper(),
            Trace::new(),
        )
    }

    fn submit(dev: &mut GpuDevice, cmd: GpuCommand) {
        let bytes = cmd.encode();
        dev.mmio_write(BarIndex(0), bar0::CMD_WINDOW, &bytes);
        dev.mmio_write(
            BarIndex(0),
            bar0::DOORBELL,
            &(bytes.len() as u64).to_le_bytes(),
        );
    }

    fn drain(dev: &mut GpuDevice, host: &mut HostStub) {
        while dev.tick(host) {}
    }

    #[test]
    fn submission_via_mmio_window() {
        let mut dev = device();
        let mut host = HostStub::default();
        submit(&mut dev, GpuCommand::CreateCtx { ctx: CtxId(1) });
        assert_eq!(dev.pending(), 1);
        let mut status = [0u8; 8];
        dev.mmio_read(BarIndex(0), bar0::STATUS, &mut status);
        assert_eq!(status[0], 1, "busy while queued");
        drain(&mut dev, &mut host);
        assert_eq!(dev.fence(), 1);
        assert_eq!(dev.error(), errcode::NONE);
        assert!(dev.context(CtxId(1)).is_some());
    }

    #[test]
    fn malformed_submission_sets_error() {
        let mut dev = device();
        dev.mmio_write(BarIndex(0), bar0::CMD_WINDOW, &[0xee, 1, 2]);
        dev.mmio_write(BarIndex(0), bar0::DOORBELL, &3u64.to_le_bytes());
        assert_eq!(dev.error(), errcode::DECODE);
        // Error reg clears on write.
        dev.mmio_write(BarIndex(0), bar0::ERROR, &[0]);
        assert_eq!(dev.error(), errcode::NONE);
    }

    #[test]
    fn dma_htod_dtoh_roundtrip() {
        let mut dev = device();
        let mut host = HostStub::default();
        let data = b"through the fabric and back".to_vec();
        host.dma_write(PhysAddr::new(0x1000), &data).unwrap();
        submit(&mut dev, GpuCommand::CreateCtx { ctx: CtxId(1) });
        let map = GpuCommand::MapRange {
            ctx: CtxId(1),
            va: DevAddr(0x4000),
            pa: 0x8000,
            pages: 1,
        };
        submit(&mut dev, map);
        submit(
            &mut dev,
            GpuCommand::DmaHtoD {
                ctx: CtxId(1),
                bus: PhysAddr::new(0x1000),
                va: DevAddr(0x4000),
                len: data.len() as u64,
            },
        );
        submit(
            &mut dev,
            GpuCommand::DmaDtoH {
                ctx: CtxId(1),
                va: DevAddr(0x4000),
                bus: PhysAddr::new(0x9000),
                len: data.len() as u64,
            },
        );
        drain(&mut dev, &mut host);
        assert_eq!(dev.error(), errcode::NONE);
        let mut back = vec![0u8; data.len()];
        host.dma_read(PhysAddr::new(0x9000), &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn dma_to_unmapped_dev_va_faults() {
        let mut dev = device();
        let mut host = HostStub::default();
        submit(&mut dev, GpuCommand::CreateCtx { ctx: CtxId(1) });
        submit(
            &mut dev,
            GpuCommand::DmaHtoD {
                ctx: CtxId(1),
                bus: PhysAddr::new(0x1000),
                va: DevAddr(0x4000),
                len: 16,
            },
        );
        drain(&mut dev, &mut host);
        assert_eq!(
            dev.error(),
            errcode::PAGE_FAULT,
            "recoverable fault reported"
        );
        // The fault registers carry the details.
        let mut buf = [0u8; 8];
        dev.mmio_read(BarIndex(0), bar0::FAULT_ADDR, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 0x4000);
        dev.mmio_read(BarIndex(0), bar0::FAULT_CTX, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 1);
    }

    #[test]
    fn host_dma_failure_reported() {
        let mut dev = device();
        let mut host = HostStub {
            fail: true,
            ..HostStub::default()
        };
        submit(&mut dev, GpuCommand::CreateCtx { ctx: CtxId(1) });
        submit(
            &mut dev,
            GpuCommand::MapRange {
                ctx: CtxId(1),
                va: DevAddr(0),
                pa: 0,
                pages: 1,
            },
        );
        submit(
            &mut dev,
            GpuCommand::DmaHtoD {
                ctx: CtxId(1),
                bus: PhysAddr::new(0x1000),
                va: DevAddr(0),
                len: 4,
            },
        );
        drain(&mut dev, &mut host);
        assert_eq!(dev.error(), errcode::DMA);
    }

    #[test]
    fn a_map_past_the_top_of_the_address_space_faults() {
        let mut dev = device();
        let mut host = HostStub::default();
        submit(&mut dev, GpuCommand::CreateCtx { ctx: CtxId(1) });
        let pa = 0u64.wrapping_sub(GPU_PAGE_SIZE); // 2^64 - 4096, page-aligned
        submit(
            &mut dev,
            GpuCommand::MapRange {
                ctx: CtxId(1),
                va: DevAddr(0),
                pa,
                pages: 1,
            },
        );
        drain(&mut dev, &mut host);
        assert_eq!(dev.error(), errcode::FAULT);
    }

    #[test]
    fn bar1_aperture_rw() {
        let mut dev = device();
        dev.mmio_write(BarIndex(0), bar0::APERTURE, &0x2000u64.to_le_bytes());
        dev.mmio_write(BarIndex(1), 0x10, b"aperture bytes");
        let mut buf = [0u8; 14];
        dev.mmio_read(BarIndex(1), 0x10, &mut buf);
        assert_eq!(&buf, b"aperture bytes");
        // The bytes landed at vram[aperture + offset].
        let mut raw = [0u8; 8];
        dev.vram().read(0x2010, &mut raw);
        assert_eq!(&raw, b"aperture");
    }

    #[test]
    fn ctx_switch_counted_between_contexts() {
        let mut dev = device();
        let mut host = HostStub::default();
        for c in 1..=2u32 {
            submit(&mut dev, GpuCommand::CreateCtx { ctx: CtxId(c) });
            let pa = u64::from(c) * 0x1000;
            submit(
                &mut dev,
                GpuCommand::MapRange {
                    ctx: CtxId(c),
                    va: DevAddr(0),
                    pa,
                    pages: 1,
                },
            );
        }
        for _ in 0..3 {
            submit(
                &mut dev,
                GpuCommand::Memset {
                    ctx: CtxId(1),
                    va: DevAddr(0),
                    len: 16,
                    value: 1,
                },
            );
            submit(
                &mut dev,
                GpuCommand::Memset {
                    ctx: CtxId(2),
                    va: DevAddr(0),
                    len: 16,
                    value: 2,
                },
            );
        }
        drain(&mut dev, &mut host);
        // 6 engine ops alternating contexts: 5 switches.
        assert_eq!(dev.ctx_switches(), 5);
    }

    #[test]
    fn destroy_ctx_scrubs_vram() {
        let mut dev = device();
        let mut host = HostStub::default();
        submit(&mut dev, GpuCommand::CreateCtx { ctx: CtxId(1) });
        submit(
            &mut dev,
            GpuCommand::MapRange {
                ctx: CtxId(1),
                va: DevAddr(0),
                pa: 0x3000,
                pages: 1,
            },
        );
        submit(
            &mut dev,
            GpuCommand::Memset {
                ctx: CtxId(1),
                va: DevAddr(0),
                len: 4096,
                value: 0xaa,
            },
        );
        submit(&mut dev, GpuCommand::DestroyCtx { ctx: CtxId(1) });
        drain(&mut dev, &mut host);
        let mut raw = [0u8; 16];
        dev.vram().read(0x3000, &mut raw);
        assert_eq!(raw, [0u8; 16], "freed memory must be scrubbed");
    }

    #[test]
    fn reset_clears_volatile_state() {
        let mut dev = device();
        let mut host = HostStub::default();
        submit(&mut dev, GpuCommand::CreateCtx { ctx: CtxId(1) });
        drain(&mut dev, &mut host);
        dev.mmio_write(BarIndex(1), 0, &[1, 2, 3]);
        dev.reset();
        assert!(dev.context(CtxId(1)).is_none());
        assert_eq!(dev.fence(), 0);
        let mut raw = [0u8; 3];
        dev.vram().read(0, &mut raw);
        assert_eq!(raw, [0u8; 3]);
    }

    #[test]
    fn id_register_and_bios() {
        let mut dev = device();
        let mut id = [0u8; 8];
        dev.mmio_read(BarIndex(0), bar0::ID, &mut id);
        assert_eq!(u64::from_le_bytes(id), GPU_MAGIC);
        let rom = dev.expansion_rom().unwrap();
        assert_eq!(&rom[..8], b"HIXBIOS1");
        assert_eq!(rom.len(), 8192);
        // Deterministic across instances with the same seed.
        assert_eq!(rom, &build_bios(GpuConfig::default().seed)[..]);
    }

    #[test]
    fn three_party_dh_key_agreement() {
        // User (a) and GPU-enclave (b) on the host; device holds c.
        use hix_crypto::dh::DhGroup;
        let group = DhGroup::sim();
        let mut dev = device();
        let mut host = HostStub::default();
        submit(&mut dev, GpuCommand::CreateCtx { ctx: CtxId(1) });
        let user = group.generate(&mut HmacDrbg::new(b"user"));
        let encl = group.generate(&mut HmacDrbg::new(b"enclave"));
        // Step 1: g^a -> device -> g^ac (relayed back for the enclave).
        submit(
            &mut dev,
            GpuCommand::DhExp {
                ctx: CtxId(1),
                finalize: false,
                public: user.public.to_be_bytes(),
            },
        );
        drain(&mut dev, &mut host);
        let mut resp = [0u8; 2];
        dev.mmio_read(BarIndex(0), bar0::RESP, &mut resp);
        let n = u16::from_le_bytes(resp) as usize;
        let mut g_ac = vec![0u8; n];
        dev.mmio_read(BarIndex(0), bar0::RESP + 2, &mut g_ac);
        // Enclave: key = (g^ac)^b.
        let key_e = group.agree(&encl, &DhPublic::from_be_bytes(&g_ac)).unwrap();
        // Step 2: g^b -> device -> g^bc (relayed to the user).
        submit(
            &mut dev,
            GpuCommand::DhExp {
                ctx: CtxId(1),
                finalize: false,
                public: encl.public.to_be_bytes(),
            },
        );
        drain(&mut dev, &mut host);
        dev.mmio_read(BarIndex(0), bar0::RESP, &mut resp);
        let n = u16::from_le_bytes(resp) as usize;
        let mut g_bc = vec![0u8; n];
        dev.mmio_read(BarIndex(0), bar0::RESP + 2, &mut g_bc);
        let key_u = group.agree(&user, &DhPublic::from_be_bytes(&g_bc)).unwrap();
        // Step 3: enclave computes g^ab and finalizes on the device.
        let g_ab = group.agree(&encl, &user.public).unwrap();
        submit(
            &mut dev,
            GpuCommand::DhExp {
                ctx: CtxId(1),
                finalize: true,
                public: g_ab.as_bytes().to_vec(),
            },
        );
        drain(&mut dev, &mut host);
        assert_eq!(dev.error(), errcode::NONE);
        // All three parties derived the same key.
        let expect = kdf::derive_aes128(b"hix-3dh", key_e.as_bytes(), b"session");
        assert_eq!(
            kdf::derive_aes128(b"hix-3dh", key_u.as_bytes(), b"session"),
            expect
        );
        // Pinned for this device seed: the device draws its secret from
        // its DRBG at CreateCtx, so a change to that draw moves the key.
        assert_eq!(
            expect,
            [
                0xdd, 0x34, 0x73, 0x63, 0xc2, 0x6e, 0xd0, 0xb6, 0x87, 0x08, 0x8e, 0xe7, 0x40, 0x89,
                0x2c, 0xff
            ]
        );
        assert_eq!(dev.context(CtxId(1)).unwrap().session_key(), Some(expect));
        // The response buffer was cleared after finalize.
        let mut tail = [0u8; 8];
        dev.mmio_read(BarIndex(0), bar0::RESP, &mut tail);
        assert_eq!(tail, [0u8; 8]);
    }

    #[test]
    fn launch_unknown_kernel_errors() {
        let mut dev = device();
        let mut host = HostStub::default();
        submit(&mut dev, GpuCommand::CreateCtx { ctx: CtxId(1) });
        submit(
            &mut dev,
            GpuCommand::Launch {
                ctx: CtxId(1),
                kernel: 42,
                args: vec![],
            },
        );
        drain(&mut dev, &mut host);
        assert_eq!(dev.error(), errcode::NO_KERNEL);
    }

    /// A plan whose only non-zero rate is `field`=1000‰, so every
    /// eligible command draws exactly that fault.
    fn certain_plan(config: hix_sim::fault::FaultConfig) -> FaultPlan {
        FaultPlan::new(0xdead_beef, config)
    }

    fn hang_cfg(wedge_pm: u32) -> hix_sim::fault::FaultConfig {
        hix_sim::fault::FaultConfig {
            gpu_hang_pm: 1000,
            gpu_wedge_pm: wedge_pm,
            ..hix_sim::fault::FaultConfig::none()
        }
    }

    /// Creates ctx 1 with one mapped page at `pa` (control-plane
    /// commands are not fault-eligible, so this works under any plan).
    fn ctx_with_page(dev: &mut GpuDevice, host: &mut HostStub, pa: u64) {
        submit(dev, GpuCommand::CreateCtx { ctx: CtxId(1) });
        submit(
            dev,
            GpuCommand::MapRange {
                ctx: CtxId(1),
                va: DevAddr(0),
                pa,
                pages: 1,
            },
        );
        drain(dev, host);
        assert_eq!(dev.error(), errcode::NONE);
    }

    fn status(dev: &mut GpuDevice) -> u64 {
        let mut buf = [0u8; 8];
        dev.mmio_read(BarIndex(0), bar0::STATUS, &mut buf);
        u64::from_le_bytes(buf)
    }

    #[test]
    fn a_spurious_latch_never_masks_an_ecc_error() {
        let mut dev = device();
        let mut host = HostStub::default();
        ctx_with_page(&mut dev, &mut host, 0x3000);
        let copy = GpuCommand::CopyDtoD {
            ctx: CtxId(1),
            src: DevAddr(0),
            dst: DevAddr(64),
            len: 64,
        };
        for cfg in [
            hix_sim::fault::FaultConfig {
                gpu_vram_flip_pm: 1000,
                ..hix_sim::fault::FaultConfig::none()
            },
            hix_sim::fault::FaultConfig {
                gpu_spurious_pm: 1000,
                ..hix_sim::fault::FaultConfig::none()
            },
        ] {
            dev.install_fault_plan(Some(certain_plan(cfg)));
            submit(&mut dev, copy.clone());
            drain(&mut dev, &mut host);
        }
        assert_eq!(dev.error(), errcode::ECC, "the flip stays reported");
    }

    #[test]
    fn hang_blocks_engine_and_kill_recovers() {
        let mut dev = device();
        let mut host = HostStub::default();
        ctx_with_page(&mut dev, &mut host, 0x3000);
        dev.install_fault_plan(Some(certain_plan(hang_cfg(0))));
        submit(
            &mut dev,
            GpuCommand::CopyDtoD {
                ctx: CtxId(1),
                src: DevAddr(0),
                dst: DevAddr(64),
                len: 64,
            },
        );
        assert!(!dev.tick(&mut host), "hung tick makes no progress");
        assert!(dev.is_hung());
        assert_eq!(status(&mut dev), 1, "busy while hung");
        assert_eq!(dev.fence(), 2, "fence did not advance past the hang");
        drain(&mut dev, &mut host); // still no progress
        assert!(dev.is_hung());
        // The KILL doorbell preempts the offender and scrubs it.
        dev.mmio_write(BarIndex(0), bar0::KILL, &1u32.to_le_bytes());
        assert!(!dev.is_hung());
        assert_eq!(status(&mut dev), 0, "idle after the kill");
        assert_eq!(dev.error(), errcode::KILLED);
        assert!(dev.context(CtxId(1)).is_none(), "killed context destroyed");
    }

    #[test]
    fn wedged_hang_ignores_kill_but_reset_clears_it() {
        let mut dev = device();
        let mut host = HostStub::default();
        ctx_with_page(&mut dev, &mut host, 0x3000);
        dev.install_fault_plan(Some(certain_plan(hang_cfg(1000))));
        submit(
            &mut dev,
            GpuCommand::CopyDtoD {
                ctx: CtxId(1),
                src: DevAddr(0),
                dst: DevAddr(64),
                len: 64,
            },
        );
        assert!(!dev.tick(&mut host));
        dev.mmio_write(BarIndex(0), bar0::KILL, &1u32.to_le_bytes());
        assert!(dev.is_hung(), "a wedged context ignores the kill doorbell");
        assert_eq!(status(&mut dev), 1);
        dev.reset();
        assert!(!dev.is_hung(), "full reset un-wedges the device");
        assert_eq!(status(&mut dev), 0);
    }

    #[test]
    fn lost_completion_latches_busy_despite_finished_work() {
        let mut dev = device();
        let mut host = HostStub::default();
        ctx_with_page(&mut dev, &mut host, 0x3000);
        dev.install_fault_plan(Some(certain_plan(hix_sim::fault::FaultConfig {
            gpu_lost_pm: 1000,
            ..hix_sim::fault::FaultConfig::none()
        })));
        // Memset is not fault-eligible (scrubbing must never hang), so
        // it seeds the page even under the always-fault plan.
        submit(
            &mut dev,
            GpuCommand::Memset {
                ctx: CtxId(1),
                va: DevAddr(0),
                len: 16,
                value: 0x55,
            },
        );
        assert!(dev.tick(&mut host));
        submit(
            &mut dev,
            GpuCommand::CopyDtoD {
                ctx: CtxId(1),
                src: DevAddr(0),
                dst: DevAddr(16),
                len: 16,
            },
        );
        assert!(!dev.tick(&mut host));
        let mut raw = [0u8; 16];
        dev.vram().read(0x3010, &mut raw);
        assert_eq!(raw, [0x55; 16], "the work itself completed");
        assert_eq!(status(&mut dev), 1, "but the completion was lost");
        dev.install_fault_plan(None);
        dev.mmio_write(BarIndex(0), bar0::KILL, &1u32.to_le_bytes());
        assert_eq!(status(&mut dev), 0, "kill clears the latch");
    }

    #[test]
    fn vram_flip_corrupts_live_buffer_and_reports_ecc() {
        let mut dev = device();
        let mut host = HostStub::default();
        ctx_with_page(&mut dev, &mut host, 0x3000);
        dev.install_fault_plan(Some(certain_plan(hix_sim::fault::FaultConfig {
            gpu_vram_flip_pm: 1000,
            ..hix_sim::fault::FaultConfig::none()
        })));
        submit(
            &mut dev,
            GpuCommand::Memset {
                ctx: CtxId(1),
                va: DevAddr(0),
                len: 4096,
                value: 0xaa,
            },
        );
        assert!(dev.tick(&mut host));
        submit(
            &mut dev,
            GpuCommand::CopyDtoD {
                ctx: CtxId(1),
                src: DevAddr(0),
                dst: DevAddr(0),
                len: 4096,
            },
        );
        assert!(dev.tick(&mut host), "an ECC flip does not stall the engine");
        let mut raw = [0u8; 4096];
        dev.vram().read(0x3000, &mut raw);
        let flipped = raw.iter().filter(|&&b| b != 0xaa).count();
        assert_eq!(flipped, 1, "exactly one byte corrupted");
        assert_eq!(dev.error(), errcode::ECC);
        let mut buf = [0u8; 8];
        dev.mmio_read(BarIndex(0), bar0::FAULT_CTX, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 1, "ECC names the owning context");
    }

    #[test]
    fn spurious_fault_completes_work_but_latches_error() {
        let mut dev = device();
        let mut host = HostStub::default();
        ctx_with_page(&mut dev, &mut host, 0x3000);
        dev.install_fault_plan(Some(certain_plan(hix_sim::fault::FaultConfig {
            gpu_spurious_pm: 1000,
            ..hix_sim::fault::FaultConfig::none()
        })));
        submit(
            &mut dev,
            GpuCommand::Memset {
                ctx: CtxId(1),
                va: DevAddr(0),
                len: 16,
                value: 0x77,
            },
        );
        assert!(dev.tick(&mut host));
        submit(
            &mut dev,
            GpuCommand::CopyDtoD {
                ctx: CtxId(1),
                src: DevAddr(0),
                dst: DevAddr(16),
                len: 16,
            },
        );
        assert!(dev.tick(&mut host));
        let mut raw = [0u8; 16];
        dev.vram().read(0x3010, &mut raw);
        assert_eq!(raw, [0x77; 16]);
        assert_eq!(dev.error(), errcode::SPURIOUS);
        assert_eq!(status(&mut dev), 0, "no residual busy state");
    }

    #[test]
    fn injections_account_one_fault_event_each() {
        let trace = Trace::new();
        let mut dev = GpuDevice::new(
            GpuConfig {
                vram_size: 16 << 20,
                ..GpuConfig::default()
            },
            Clock::new(),
            CostModel::paper(),
            trace.clone(),
        );
        let mut host = HostStub::default();
        ctx_with_page(&mut dev, &mut host, 0x3000);
        dev.install_fault_plan(Some(certain_plan(hang_cfg(0))));
        submit(
            &mut dev,
            GpuCommand::CopyDtoD {
                ctx: CtxId(1),
                src: DevAddr(0),
                dst: DevAddr(16),
                len: 16,
            },
        );
        assert!(!dev.tick(&mut host));
        dev.mmio_write(BarIndex(0), bar0::KILL, &1u32.to_le_bytes());
        let metrics = trace.metrics();
        assert_eq!(metrics.counter("fault.injected"), 1);
        assert_eq!(metrics.counter("fault.injected.gpu.hang"), 1);
        assert_eq!(
            trace.count(EventKind::Fault),
            1,
            "one Fault event per injection; the kill emits none"
        );
    }

    #[test]
    fn kill_drops_only_the_victims_queued_commands() {
        let mut dev = device();
        let mut host = HostStub::default();
        for c in 1..=2u32 {
            submit(&mut dev, GpuCommand::CreateCtx { ctx: CtxId(c) });
            let pa = u64::from(c) * 0x1000;
            submit(
                &mut dev,
                GpuCommand::MapRange {
                    ctx: CtxId(c),
                    va: DevAddr(0),
                    pa,
                    pages: 1,
                },
            );
        }
        drain(&mut dev, &mut host);
        submit(
            &mut dev,
            GpuCommand::Memset {
                ctx: CtxId(1),
                va: DevAddr(0),
                len: 16,
                value: 1,
            },
        );
        submit(
            &mut dev,
            GpuCommand::Memset {
                ctx: CtxId(2),
                va: DevAddr(0),
                len: 16,
                value: 2,
            },
        );
        dev.mmio_write(BarIndex(0), bar0::KILL, &1u32.to_le_bytes());
        assert_eq!(
            dev.pending(),
            1,
            "victim's queued work dropped, peer's kept"
        );
        dev.mmio_write(BarIndex(0), bar0::ERROR, &[0]);
        drain(&mut dev, &mut host);
        assert_eq!(dev.error(), errcode::NONE);
        let mut raw = [0u8; 16];
        dev.vram().read(0x2000, &mut raw);
        assert_eq!(raw, [2u8; 16], "the peer's memset still ran");
        dev.vram().read(0x1000, &mut raw);
        assert_eq!(raw, [0u8; 16], "the victim's page was scrubbed by the kill");
    }

    #[test]
    fn channel_only_plan_leaves_device_untouched() {
        let mut dev = device();
        let mut host = HostStub::default();
        dev.install_fault_plan(Some(FaultPlan::new(
            7,
            hix_sim::fault::FaultConfig::heavy(),
        )));
        ctx_with_page(&mut dev, &mut host, 0x3000);
        for _ in 0..50 {
            submit(
                &mut dev,
                GpuCommand::Memset {
                    ctx: CtxId(1),
                    va: DevAddr(0),
                    len: 64,
                    value: 3,
                },
            );
        }
        drain(&mut dev, &mut host);
        assert_eq!(dev.error(), errcode::NONE);
        assert_eq!(dev.fence(), 52, "no device fault ever fires");
        assert!(!dev.is_hung());
    }

    #[test]
    fn synthetic_mode_charges_time_without_bytes() {
        let clock = Clock::new();
        let mut dev = GpuDevice::new(
            GpuConfig {
                vram_size: 16 << 20,
                synthetic: true,
                ..GpuConfig::default()
            },
            clock.clone(),
            CostModel::paper(),
            Trace::new(),
        );
        let mut host = HostStub::default();
        submit(&mut dev, GpuCommand::CreateCtx { ctx: CtxId(1) });
        submit(
            &mut dev,
            GpuCommand::DmaHtoD {
                ctx: CtxId(1),
                bus: PhysAddr::new(0x1000),
                va: DevAddr(0), // unmapped! would fault in functional mode
                len: 6 << 20,
            },
        );
        drain(&mut dev, &mut host);
        assert_eq!(dev.error(), errcode::NONE, "synthetic skips translation");
        assert_eq!(dev.vram().resident_pages(), 0);
        // ~1ms of DMA time was still charged for 6 MiB at 6 GB/s.
        assert!(clock.now() >= Nanos::from_millis(1));
    }
}
