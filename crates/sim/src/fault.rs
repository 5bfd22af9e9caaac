//! Deterministic fault injection for the untrusted channel.
//!
//! HIX's threat model (§3) makes everything between the enclaves — the
//! message queue, the shared memory, the DMA path, the PCIe config
//! plane — adversarial. The paper guarantees integrity and
//! confidentiality; *availability* is the runtime's job. This module
//! supplies the adversary: a seeded [`FaultPlan`] that, driven purely by
//! `hix_testkit::Rng` and the virtual clock, decides per transmission
//! how a sealed frame and its doorbell reach the wire
//! ([`FaultPlan::deliver`]: dropped, duplicated, reordered, delayed or
//! corrupted), and per transfer whether to flip a bit on the DMA wire,
//! storm the config plane, or restart the GPU enclave mid-session.
//! [`record`] is the one writer of the fault ledger: every `Fault`
//! event and its `fault.injected.<kind>` or `fault.detected` counter.
//!
//! The plan is *pay-for-what-you-use*: when no plan is installed (or all
//! rates are zero) no RNG draws happen and no state is kept, so
//! fault-free runs are bit-identical to builds that never heard of this
//! module.
//!
//! [`Resequencer`] (sorted release of out-of-order arrivals with a
//! monotonic floor) is the plan's own buffer for held doorbells. The
//! trusted side's recovery primitives live in `hix_core::recovery`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use hix_obs::Counter;
use hix_testkit::Rng;

use crate::time::Nanos;
use crate::trace::{EventKind, Trace};

/// Records one fault: a zero-length `Fault` event at `now` together
/// with its counters, so `Fault` events == `fault.injected` +
/// `fault.detected` holds by construction. `Some(kind)` is an injected
/// fault, counted under `fault.injected.<kind>` and labelled
/// `inject <kind><detail>`; `None` is a fault the device raised that no
/// plan injected, counted under `fault.detected` and labelled `detail`.
pub fn record(
    trace: &Trace,
    now: Nanos,
    injected: Option<&str>,
    detail: &str,
    attrs: &[(&'static str, u64)],
) {
    let metrics = trace.metrics();
    let label = match injected {
        Some(kind) => {
            metrics.inc(Counter::FaultInjected);
            metrics.add_named(&format!("fault.injected.{kind}"), 1);
            format!("inject {kind}{detail}")
        }
        None => {
            metrics.inc(Counter::FaultDetected);
            detail.to_owned()
        }
    };
    trace.emit_with(now, Nanos::ZERO, EventKind::Fault, label, attrs);
}

/// Which way a channel message travels. The plan keeps independent
/// wire state per (channel, direction) so a held request doorbell never
/// collides with response traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dir {
    /// User enclave → GPU enclave.
    Request,
    /// GPU enclave → user enclave.
    Response,
}

impl Dir {
    /// Label used in trace events and metrics names.
    pub fn as_str(self) -> &'static str {
        match self {
            Dir::Request => "request",
            Dir::Response => "response",
        }
    }
}

/// Per-message fault rates in permille (‰) plus the knobs for the
/// non-message fault classes. Message rates are exclusive — one draw in
/// `0..1000` per transmission picks at most one of them — so their sum
/// must stay ≤ 1000.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Drop the doorbell: the message is staged but never announced.
    pub drop_pm: u32,
    /// Deliver the message twice (the queue wakes the receiver again).
    pub dup_pm: u32,
    /// The previous transmission overtakes this one in the single-slot
    /// medium (old frame re-announced, new frame lost).
    pub reorder_pm: u32,
    /// Hold the doorbell for a sampled virtual-time delay.
    pub delay_pm: u32,
    /// Flip a byte of the sealed frame (or, 1 in 16, of the doorbell
    /// header itself — a nonce/sequence tamper).
    pub corrupt_pm: u32,
    /// Per-HtoD-transfer chance of a transient bit-flip on the DMA wire.
    pub dma_flip_pm: u32,
    /// Per-poll-attempt chance of a PCIe config-write storm against the
    /// locked-down device.
    pub cfg_storm_pm: u32,
    /// Per-round chance (sampled by the harness) of a mid-session GPU
    /// enclave restart.
    pub restart_pm: u32,
    /// Per-engine-command chance the GPU wedges mid-execution: the
    /// command never completes and the engine reports busy forever
    /// until the context is killed (or the device reset).
    pub gpu_hang_pm: u32,
    /// Given a hang, per-hang chance the context also ignores the kill
    /// doorbell — only a full device reset clears it.
    pub gpu_wedge_pm: u32,
    /// Per-engine-command chance the work completes but its completion
    /// (fence bump) is lost — the engine looks busy with an empty queue.
    pub gpu_lost_pm: u32,
    /// Per-engine-command chance of a VRAM/ECC bit-flip in a live
    /// buffer of the executing context; the engine raises an ECC error.
    pub gpu_vram_flip_pm: u32,
    /// Per-engine-command chance of a spurious engine-fault report: the
    /// work actually completed but the device latches an error anyway.
    pub gpu_spurious_pm: u32,
    /// Upper bound for sampled doorbell delays.
    pub max_delay: Nanos,
}

impl FaultConfig {
    /// All rates zero — installing this plan is a no-op (and draws
    /// nothing from the RNG).
    pub fn none() -> Self {
        FaultConfig {
            drop_pm: 0,
            dup_pm: 0,
            reorder_pm: 0,
            delay_pm: 0,
            corrupt_pm: 0,
            dma_flip_pm: 0,
            cfg_storm_pm: 0,
            restart_pm: 0,
            gpu_hang_pm: 0,
            gpu_wedge_pm: 0,
            gpu_lost_pm: 0,
            gpu_vram_flip_pm: 0,
            gpu_spurious_pm: 0,
            max_delay: Nanos::from_micros(200),
        }
    }

    /// ~1% of each message-fault class — the acceptance-criteria floor
    /// (drops+corruption+reorder at ≥1% each).
    pub fn light() -> Self {
        FaultConfig {
            drop_pm: 10,
            dup_pm: 10,
            reorder_pm: 10,
            delay_pm: 10,
            corrupt_pm: 10,
            dma_flip_pm: 10,
            cfg_storm_pm: 10,
            ..FaultConfig::none()
        }
    }

    /// 5% message faults plus DMA flips, config storms, and restarts.
    pub fn heavy() -> Self {
        FaultConfig {
            drop_pm: 50,
            dup_pm: 30,
            reorder_pm: 40,
            delay_pm: 30,
            corrupt_pm: 50,
            dma_flip_pm: 40,
            cfg_storm_pm: 30,
            restart_pm: 120,
            ..FaultConfig::none()
        }
    }

    /// Light device-fault profile for the TDR soak: modest channel
    /// noise plus occasional recoverable GPU faults (hangs that yield
    /// to a context kill, lost completions, spurious errors).
    pub fn gpu_light() -> Self {
        FaultConfig {
            gpu_hang_pm: 25,
            gpu_wedge_pm: 0,
            gpu_lost_pm: 20,
            gpu_vram_flip_pm: 0,
            gpu_spurious_pm: 20,
            ..FaultConfig::light()
        }
    }

    /// Heavy device-fault profile: frequent hangs, some of which wedge
    /// the context and force a full secure device reset, plus live-VRAM
    /// ECC flips. Channel noise rides along at the light rates so both
    /// recovery layers are exercised together.
    pub fn gpu_heavy() -> Self {
        FaultConfig {
            gpu_hang_pm: 60,
            gpu_wedge_pm: 400,
            gpu_lost_pm: 40,
            gpu_vram_flip_pm: 25,
            gpu_spurious_pm: 30,
            ..FaultConfig::light()
        }
    }

    fn msg_total(&self) -> u32 {
        self.drop_pm + self.dup_pm + self.reorder_pm + self.delay_pm + self.corrupt_pm
    }

    fn gpu_total(&self) -> u32 {
        self.gpu_hang_pm + self.gpu_lost_pm + self.gpu_vram_flip_pm + self.gpu_spurious_pm
    }
}

/// The fault chosen for one message transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MsgFault {
    /// Stage the frame but never ring the doorbell.
    Drop,
    /// Deliver the frame, then present it a second time.
    Duplicate,
    /// Replace the frame with the previous transmission's.
    Reorder,
    /// Ring the doorbell only after `0` elapses.
    Delay(Nanos),
    /// XOR one byte. `header` targets the doorbell sequence word
    /// instead of the sealed frame.
    Corrupt {
        /// Byte offset (mod frame length / header width).
        offset: u64,
        /// Non-zero mask XORed into the byte.
        xor: u8,
        /// Tamper the announced sequence number, not the ciphertext.
        header: bool,
    },
}

impl MsgFault {
    /// Metric suffix for `fault.injected.<kind>`.
    fn kind(&self) -> &'static str {
        match self {
            MsgFault::Drop => "drop",
            MsgFault::Duplicate => "duplicate",
            MsgFault::Reorder => "reorder",
            MsgFault::Delay(_) => "delay",
            MsgFault::Corrupt { .. } => "corrupt",
        }
    }
}

/// A device-side fault chosen for one GPU engine command — the raw
/// material for the TDR watchdog (hang detection, context kill, secure
/// reset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFault {
    /// The command never completes; the engine reports busy until the
    /// context is killed. `wedged` contexts ignore the kill doorbell
    /// too — only a full device reset clears them.
    Hang {
        /// The context ignores the kill doorbell.
        wedged: bool,
    },
    /// The command completes but its fence bump is lost: the engine
    /// looks busy with nothing left to run.
    LostCompletion,
    /// A bit-flip lands in a live buffer of the executing context and
    /// the engine raises an ECC error.
    VramFlip {
        /// Offset into the context's resident footprint (caller
        /// reduces modulo the actual byte count).
        offset: u64,
        /// Non-zero mask XORed into the byte.
        xor: u8,
    },
    /// The command completes normally but the device latches a
    /// spurious engine-fault error anyway.
    Spurious,
}

impl DeviceFault {
    /// Metric suffix for `fault.injected.<kind>` — GPU faults live
    /// under the `gpu.` prefix so the channel and device ledgers stay
    /// separable.
    pub fn kind(&self) -> &'static str {
        match self {
            DeviceFault::Hang { wedged: false } => "gpu.hang",
            DeviceFault::Hang { wedged: true } => "gpu.wedge",
            DeviceFault::LostCompletion => "gpu.lost_completion",
            DeviceFault::VramFlip { .. } => "gpu.vram_flip",
            DeviceFault::Spurious => "gpu.spurious",
        }
    }
}

#[derive(Debug, Default)]
struct DirState {
    /// Last frame put on the wire: (wire seq, sealed bytes). Reordering
    /// re-announces this frame over the new one.
    last: Option<(u64, Vec<u8>)>,
    /// Doorbells held back by delay faults, released in seq order once
    /// their due time passes.
    held: Resequencer<Nanos>,
    /// A duplicate delivery is pending for the receiver.
    dup_armed: bool,
}

#[derive(Debug)]
struct PlanInner {
    rng: Rng,
    config: FaultConfig,
    dirs: BTreeMap<(u64, Dir), DirState>,
}

/// A seeded fault plan. Cheap-to-clone handle (`Rc<RefCell<_>>`, like
/// `Clock`/`Trace`): the machine, both channel endpoints, and the GPU
/// enclave all sample the *same* deterministic stream, so a given
/// (seed, config, workload) triple always injects the identical fault
/// tape — the soak suite's trace-identity check rests on this.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Rc<RefCell<PlanInner>>,
}

impl FaultPlan {
    /// Builds a plan from a seed and a rate configuration.
    ///
    /// # Panics
    ///
    /// If the exclusive message-fault or GPU-fault rates sum past
    /// 1000‰.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        assert!(
            config.msg_total() <= 1000,
            "message fault rates exceed 1000 permille"
        );
        assert!(
            config.gpu_total() <= 1000,
            "GPU fault rates exceed 1000 permille"
        );
        FaultPlan {
            inner: Rc::new(RefCell::new(PlanInner {
                rng: Rng::new(seed),
                config,
                dirs: BTreeMap::new(),
            })),
        }
    }

    /// Samples the fault (if any) for one message transmission. Draws
    /// nothing when every message rate is zero.
    fn sample_message(&self) -> Option<MsgFault> {
        let mut inner = self.inner.borrow_mut();
        let cfg = inner.config;
        let total = cfg.msg_total();
        if total == 0 {
            return None;
        }
        let r = inner.rng.gen_range(0..1000) as u32;
        let mut edge = cfg.drop_pm;
        if r < edge {
            return Some(MsgFault::Drop);
        }
        edge += cfg.dup_pm;
        if r < edge {
            return Some(MsgFault::Duplicate);
        }
        edge += cfg.reorder_pm;
        if r < edge {
            return Some(MsgFault::Reorder);
        }
        edge += cfg.delay_pm;
        if r < edge {
            let span = cfg.max_delay.as_nanos().max(2);
            let by = inner.rng.gen_range(1..span);
            return Some(MsgFault::Delay(Nanos::from_nanos(by)));
        }
        edge += cfg.corrupt_pm;
        if r < edge {
            let offset = inner.rng.u64();
            let xor = (inner.rng.gen_range(0..255) + 1) as u8;
            let header = inner.rng.gen_range(0..16) == 0;
            return Some(MsgFault::Corrupt {
                offset,
                xor,
                header,
            });
        }
        None
    }

    /// Decides how one frame sealed under wire sequence `seq` on `wire`
    /// (channel, direction) reaches it: `stage` writes the frame it is
    /// given and rings the doorbell sequence, if any. A drop or a delay
    /// stages `frame` unrung (a delayed doorbell rings through
    /// [`FaultPlan::release_doorbell`]); a duplicate rings `seq` and arms
    /// [`FaultPlan::take_duplicate`]; a reorder stages and rings the
    /// wire's previous frame instead (and with none yet, sends `frame`
    /// clean); a corruption flips one byte of `frame` or, 1 in 16, of the
    /// doorbell word. Only once `stage` succeeds does the plan record the
    /// fault at `now`, arm or hold, and keep `frame` as the wire's
    /// previous one: a frame that never reached the wire leaves no trace.
    ///
    /// # Errors
    ///
    /// Propagates `stage`'s error.
    pub fn deliver<E>(
        &self,
        trace: &Trace,
        now: Nanos,
        (chan, dir): (u64, Dir),
        seq: u64,
        mut frame: Vec<u8>,
        stage: impl FnOnce(&[u8], Option<u64>) -> Result<(), E>,
    ) -> Result<(), E> {
        let Some(fault) = self.sample_message() else {
            stage(&frame, Some(seq))?;
            self.remember(chan, dir, seq, frame);
            return Ok(());
        };
        let mut bell = Some(seq);
        let mut previous = None;
        match fault {
            MsgFault::Drop | MsgFault::Delay(_) => bell = None,
            MsgFault::Duplicate => {}
            MsgFault::Reorder => {
                let inner = self.inner.borrow();
                previous = inner.dirs.get(&(chan, dir)).and_then(|st| st.last.clone());
            }
            MsgFault::Corrupt {
                offset,
                xor,
                header: true,
            } => {
                bell = Some(seq ^ (u64::from(xor) << (8 * (offset % 8))));
            }
            MsgFault::Corrupt {
                offset,
                xor,
                header: false,
            } => {
                let i = (offset % frame.len() as u64) as usize;
                frame[i] ^= xor;
            }
        }
        match &previous {
            // The previous frame overwrites the single-slot medium and
            // this transmission is lost.
            Some((old_seq, old_frame)) => stage(old_frame, Some(*old_seq))?,
            None => stage(&frame, bell)?,
        }
        match fault {
            MsgFault::Duplicate => self.arm_duplicate(chan, dir),
            MsgFault::Delay(by) => self.hold_doorbell(chan, dir, seq, now + by),
            _ => {}
        }
        self.remember(chan, dir, seq, frame);
        if fault != MsgFault::Reorder || previous.is_some() {
            record(
                trace,
                now,
                Some(fault.kind()),
                &format!(" ({})", dir.as_str()),
                &[],
            );
        }
        Ok(())
    }

    /// Records a frame that hit the wire (fresh or retransmitted) so a
    /// later reorder fault can re-announce it.
    fn remember(&self, chan: u64, dir: Dir, seq: u64, frame: Vec<u8>) {
        let mut inner = self.inner.borrow_mut();
        inner.dirs.entry((chan, dir)).or_default().last = Some((seq, frame));
    }

    /// Parks a delayed doorbell until `due`.
    fn hold_doorbell(&self, chan: u64, dir: Dir, seq: u64, due: Nanos) {
        let mut inner = self.inner.borrow_mut();
        let st = inner.dirs.entry((chan, dir)).or_default();
        st.held.push(seq, due);
    }

    /// Releases the lowest held doorbell whose due time has passed.
    pub fn release_doorbell(&self, chan: u64, dir: Dir, now: Nanos) -> Option<u64> {
        let mut inner = self.inner.borrow_mut();
        let st = inner.dirs.get_mut(&(chan, dir))?;
        match st.held.peek() {
            Some((_, due)) if *due <= now => st.held.pop().map(|(seq, _)| seq),
            _ => None,
        }
    }

    /// Arms a duplicate delivery: the receiver's next idle poll sees the
    /// already-consumed message again.
    fn arm_duplicate(&self, chan: u64, dir: Dir) {
        let mut inner = self.inner.borrow_mut();
        inner.dirs.entry((chan, dir)).or_default().dup_armed = true;
    }

    /// Consumes a pending duplicate delivery, if armed.
    pub fn take_duplicate(&self, chan: u64, dir: Dir) -> bool {
        let mut inner = self.inner.borrow_mut();
        match inner.dirs.get_mut(&(chan, dir)) {
            Some(st) if st.dup_armed => {
                st.dup_armed = false;
                true
            }
            _ => false,
        }
    }

    /// Samples a transient DMA bit-flip for a sealed stream of
    /// `sealed_len` bytes: `(offset, xor mask)`.
    pub fn sample_dma_flip(&self, sealed_len: u64) -> Option<(u64, u8)> {
        let mut inner = self.inner.borrow_mut();
        let pm = inner.config.dma_flip_pm;
        if pm == 0 || sealed_len == 0 {
            return None;
        }
        if inner.rng.gen_range(0..1000) >= pm as u64 {
            return None;
        }
        let off = inner.rng.gen_range(0..sealed_len);
        let xor = (inner.rng.gen_range(0..255) + 1) as u8;
        Some((off, xor))
    }

    /// Samples a PCIe config-write storm: number of writes to fire.
    pub fn sample_cfg_storm(&self) -> Option<u32> {
        let mut inner = self.inner.borrow_mut();
        let pm = inner.config.cfg_storm_pm;
        if pm == 0 {
            return None;
        }
        if inner.rng.gen_range(0..1000) >= pm as u64 {
            return None;
        }
        Some(inner.rng.gen_range(1..5) as u32)
    }

    /// Samples a mid-session GPU-enclave restart (harness-driven, once
    /// per workload round).
    pub fn sample_restart(&self) -> bool {
        let mut inner = self.inner.borrow_mut();
        let pm = inner.config.restart_pm;
        pm != 0 && inner.rng.gen_range(0..1000) < pm as u64
    }

    /// Samples the device-side fault (if any) for one GPU engine
    /// command. One exclusive draw picks at most one class; the wedge
    /// sub-draw happens only when a hang fired, so all-zero GPU rates
    /// draw nothing at all.
    pub fn sample_gpu_fault(&self) -> Option<DeviceFault> {
        let mut inner = self.inner.borrow_mut();
        let cfg = inner.config;
        if cfg.gpu_total() == 0 {
            return None;
        }
        let r = inner.rng.gen_range(0..1000) as u32;
        let mut edge = cfg.gpu_hang_pm;
        if r < edge {
            let wedged =
                cfg.gpu_wedge_pm != 0 && inner.rng.gen_range(0..1000) < cfg.gpu_wedge_pm as u64;
            return Some(DeviceFault::Hang { wedged });
        }
        edge += cfg.gpu_lost_pm;
        if r < edge {
            return Some(DeviceFault::LostCompletion);
        }
        edge += cfg.gpu_vram_flip_pm;
        if r < edge {
            let offset = inner.rng.u64();
            let xor = (inner.rng.gen_range(0..255) + 1) as u8;
            return Some(DeviceFault::VramFlip { offset, xor });
        }
        edge += cfg.gpu_spurious_pm;
        if r < edge {
            return Some(DeviceFault::Spurious);
        }
        None
    }
}

/// Sorted-release buffer for out-of-order arrivals: items are held by
/// sequence number and popped lowest-first; once a sequence has been
/// released, it (and everything below it) is refused forever — the
/// monotonic floor that makes delayed-doorbell replay impossible.
#[derive(Debug, Clone, Default)]
pub struct Resequencer<T> {
    held: BTreeMap<u64, T>,
    floor: Option<u64>,
}

impl<T> Resequencer<T> {
    /// An empty buffer with no floor.
    pub fn new() -> Self {
        Resequencer {
            held: BTreeMap::new(),
            floor: None,
        }
    }

    /// Holds `item` under `seq`. Returns `false` (and drops the item)
    /// when `seq` is at/under the floor or already held.
    pub fn push(&mut self, seq: u64, item: T) -> bool {
        if self.floor.is_some_and(|f| seq <= f) || self.held.contains_key(&seq) {
            return false;
        }
        self.held.insert(seq, item);
        true
    }

    /// The lowest held entry, without releasing it.
    pub fn peek(&self) -> Option<(u64, &T)> {
        self.held.iter().next().map(|(s, t)| (*s, t))
    }

    /// Releases the lowest held entry and raises the floor to it.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let seq = *self.held.keys().next()?;
        let item = self.held.remove(&seq).expect("keyed");
        self.floor = Some(seq);
        Some((seq, item))
    }

    /// Number of held entries.
    pub fn len(&self) -> usize {
        self.held.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fault_tape() {
        let tape = |seed| {
            let plan = FaultPlan::new(seed, FaultConfig::heavy());
            (0..64).map(|_| plan.sample_message()).collect::<Vec<_>>()
        };
        assert_eq!(tape(7), tape(7));
        assert_ne!(tape(7), tape(8), "seed must matter");
    }

    #[test]
    fn zero_config_draws_nothing() {
        let plan = FaultPlan::new(1, FaultConfig::none());
        for _ in 0..32 {
            assert_eq!(plan.sample_message(), None);
            assert_eq!(plan.sample_dma_flip(4096), None);
            assert_eq!(plan.sample_cfg_storm(), None);
            assert!(!plan.sample_restart());
            assert_eq!(plan.sample_gpu_fault(), None);
        }
        // The RNG was never touched: a fresh same-seed plan with real
        // rates produces its stream from the very first draw.
        let a = FaultPlan::new(1, FaultConfig::heavy());
        let b = FaultPlan::new(1, FaultConfig::heavy());
        assert_eq!(a.sample_message(), b.sample_message());
    }

    #[test]
    fn channel_only_profiles_never_draw_gpu_faults() {
        // light()/heavy() predate the device-fault layer; the GPU draw
        // must stay a no-op under them so pre-TDR soak tapes replay
        // bit-identically.
        for cfg in [FaultConfig::light(), FaultConfig::heavy()] {
            let plan = FaultPlan::new(9, cfg);
            let twin = FaultPlan::new(9, cfg);
            for _ in 0..16 {
                assert_eq!(plan.sample_gpu_fault(), None);
            }
            // The twin never sampled GPU faults and their message
            // streams still agree: the GPU path drew nothing.
            for _ in 0..16 {
                assert_eq!(plan.sample_message(), twin.sample_message());
            }
        }
    }

    #[test]
    fn gpu_heavy_plan_injects_every_device_class() {
        let plan = FaultPlan::new(0x7D12_5EED, FaultConfig::gpu_heavy());
        let mut kinds = std::collections::BTreeSet::new();
        for _ in 0..6000 {
            if let Some(f) = plan.sample_gpu_fault() {
                if let DeviceFault::VramFlip { xor, .. } = f {
                    assert_ne!(xor, 0, "a zero mask would be a silent no-op");
                }
                kinds.insert(f.kind());
            }
        }
        for kind in [
            "gpu.hang",
            "gpu.wedge",
            "gpu.lost_completion",
            "gpu.vram_flip",
            "gpu.spurious",
        ] {
            assert!(kinds.contains(kind), "never sampled {kind}");
        }
    }

    #[test]
    fn heavy_plan_injects_every_class() {
        let plan = FaultPlan::new(0x5eed, FaultConfig::heavy());
        let mut kinds = std::collections::BTreeSet::new();
        for _ in 0..4000 {
            if let Some(f) = plan.sample_message() {
                kinds.insert(f.kind());
            }
        }
        for kind in ["drop", "duplicate", "reorder", "delay", "corrupt"] {
            assert!(kinds.contains(kind), "never sampled {kind}");
        }
        assert!((0..400).any(|_| plan.sample_dma_flip(1 << 20).is_some()));
        assert!((0..400).any(|_| plan.sample_cfg_storm().is_some()));
        assert!((0..400).any(|_| plan.sample_restart()));
    }

    /// Sends `frame` as `seq` on `wire` and returns what reached it: the
    /// frame staged and the doorbell rung, if any.
    fn send_on(
        plan: &FaultPlan,
        trace: &Trace,
        now: Nanos,
        wire: (u64, Dir),
        seq: u64,
        frame: &[u8],
    ) -> (Vec<u8>, Option<u64>) {
        let mut staged = None;
        let sent = plan.deliver(trace, now, wire, seq, frame.to_vec(), |frame, bell| {
            staged = Some((frame.to_vec(), bell));
            Ok::<(), ()>(())
        });
        assert_eq!(sent, Ok(()));
        staged.expect("every delivery stages a frame")
    }

    /// Sends `frame` as `seq` on wire (9, request).
    fn send(
        plan: &FaultPlan,
        trace: &Trace,
        now: Nanos,
        seq: u64,
        frame: &[u8],
    ) -> (Vec<u8>, Option<u64>) {
        send_on(plan, trace, now, (9, Dir::Request), seq, frame)
    }

    /// Asserts `trace` recorded `times` injections, all of `kind`, and
    /// one `Fault` event per injected or detected fault.
    fn recorded(trace: &Trace, kind: &str, times: u64) {
        let metrics = trace.metrics();
        assert_eq!(metrics.counter("fault.injected"), times);
        assert_eq!(metrics.counter(&format!("fault.injected.{kind}")), times);
        assert_eq!(
            trace.count(EventKind::Fault),
            times + metrics.counter("fault.detected")
        );
    }

    #[test]
    fn doorbell_hold_and_release() {
        // Every frame is delayed by exactly 1 ns and stays unrung until due.
        let cfg = FaultConfig {
            delay_pm: 1000,
            max_delay: Nanos::from_nanos(2),
            ..FaultConfig::none()
        };
        let (plan, trace) = (FaultPlan::new(3, cfg), Trace::new());
        let (t, tick) = (Nanos::from_micros, Nanos::from_nanos(1));
        assert_eq!(
            send(&plan, &trace, t(10) - tick, 5, b"five"),
            (b"five".to_vec(), None)
        );
        assert_eq!(
            send(&plan, &trace, t(20) - tick, 4, b"four"),
            (b"four".to_vec(), None)
        );
        recorded(&trace, "delay", 2);
        // Nothing due yet.
        assert_eq!(plan.release_doorbell(9, Dir::Request, t(5)), None);
        // Seq 4 is the lowest held; it gates seq 5 even though 5 is due
        // earlier (sorted release).
        assert_eq!(plan.release_doorbell(9, Dir::Request, t(15)), None);
        assert_eq!(plan.release_doorbell(9, Dir::Request, t(20)), Some(4));
        assert_eq!(plan.release_doorbell(9, Dir::Request, t(20)), Some(5));
        assert_eq!(plan.release_doorbell(9, Dir::Request, t(20)), None);
    }

    #[test]
    fn duplicate_arm_is_one_shot_per_direction() {
        let plan = FaultPlan::new(
            3,
            FaultConfig {
                dup_pm: 1000,
                ..FaultConfig::none()
            },
        );
        let trace = Trace::new();
        let sent = send_on(&plan, &trace, Nanos::ZERO, (1, Dir::Response), 1, b"resp");
        assert_eq!(
            sent,
            (b"resp".to_vec(), Some(1)),
            "delivered once, then again"
        );
        recorded(&trace, "duplicate", 1);
        assert!(!plan.take_duplicate(1, Dir::Request));
        assert!(plan.take_duplicate(1, Dir::Response));
        assert!(!plan.take_duplicate(1, Dir::Response));
    }

    #[test]
    fn deliver_without_a_fault_rings_the_frames_own_sequence() {
        let (plan, trace) = (FaultPlan::new(3, FaultConfig::none()), Trace::new());
        assert_eq!(
            send(&plan, &trace, Nanos::ZERO, 7, b"clean"),
            (b"clean".to_vec(), Some(7))
        );
        recorded(&trace, "drop", 0);
    }

    #[test]
    fn deliver_drop_stages_the_frame_but_never_rings() {
        let plan = FaultPlan::new(
            3,
            FaultConfig {
                drop_pm: 1000,
                ..FaultConfig::none()
            },
        );
        let trace = Trace::new();
        assert_eq!(
            send(&plan, &trace, Nanos::ZERO, 7, b"lost"),
            (b"lost".to_vec(), None)
        );
        assert_eq!(
            plan.release_doorbell(9, Dir::Request, Nanos::from_secs(1)),
            None
        );
        recorded(&trace, "drop", 1);
    }

    #[test]
    fn deliver_reorder_needs_a_previous_frame() {
        let plan = FaultPlan::new(
            3,
            FaultConfig {
                reorder_pm: 1000,
                ..FaultConfig::none()
            },
        );
        let trace = Trace::new();
        // Nothing to reorder with yet: sent clean, nothing recorded.
        assert_eq!(
            send(&plan, &trace, Nanos::ZERO, 1, b"one"),
            (b"one".to_vec(), Some(1))
        );
        recorded(&trace, "reorder", 0);
        // The previous frame overtakes under its own sequence; the lost
        // frame still becomes the previous one.
        assert_eq!(
            send(&plan, &trace, Nanos::ZERO, 2, b"two"),
            (b"one".to_vec(), Some(1))
        );
        assert_eq!(
            send(&plan, &trace, Nanos::ZERO, 3, b"three"),
            (b"two".to_vec(), Some(2))
        );
        recorded(&trace, "reorder", 2);
        // The response wire has no previous frame of its own.
        let other = send_on(&plan, &trace, Nanos::ZERO, (9, Dir::Response), 1, b"resp");
        assert_eq!(other, (b"resp".to_vec(), Some(1)));
    }

    #[test]
    fn a_frame_that_never_reaches_the_wire_leaves_no_trace() {
        let plan = FaultPlan::new(
            3,
            FaultConfig {
                reorder_pm: 1000,
                ..FaultConfig::none()
            },
        );
        let trace = Trace::new();
        assert_eq!(
            send(&plan, &trace, Nanos::ZERO, 1, b"one"),
            (b"one".to_vec(), Some(1))
        );
        // The medium refuses the second frame: it is not recorded, and a
        // reorder never re-announces it.
        let refused = plan.deliver(
            &trace,
            Nanos::ZERO,
            (9, Dir::Request),
            2,
            b"two".to_vec(),
            |_, _| Err("unmapped"),
        );
        assert_eq!(refused, Err("unmapped"));
        recorded(&trace, "reorder", 0);
        assert_eq!(
            send(&plan, &trace, Nanos::ZERO, 3, b"three"),
            (b"one".to_vec(), Some(1))
        );
        recorded(&trace, "reorder", 1);
    }

    #[test]
    fn deliver_corrupts_the_body_or_the_doorbell() {
        let plan = FaultPlan::new(
            3,
            FaultConfig {
                corrupt_pm: 1000,
                ..FaultConfig::none()
            },
        );
        let (trace, frame) = (Trace::new(), [0x5au8; 32]);
        let (mut bodies, mut headers) = (0, 0);
        for seq in 1..=200u64 {
            let (staged, bell) = send(&plan, &trace, Nanos::ZERO, seq, &frame);
            let flipped = staged.iter().zip(&frame).filter(|(a, b)| a != b).count();
            let bell = bell.expect("a corrupted frame still rings") ^ seq;
            let header = bell.to_le_bytes().iter().filter(|b| **b != 0).count();
            // One byte of the frame, or one byte of the doorbell word.
            assert_eq!(flipped + header, 1, "seq {seq}");
            *(if header == 1 {
                &mut headers
            } else {
                &mut bodies
            }) += 1;
        }
        assert!(
            bodies > 0 && headers > 0,
            "{bodies} body and {headers} header corruptions"
        );
        recorded(&trace, "corrupt", 200);
    }

    #[test]
    fn fault_records_tile_injected_and_detected() {
        let trace = Trace::new();
        trace.set_recording(true);
        record(
            &trace,
            Nanos::from_nanos(5),
            Some("gpu.hang"),
            " here",
            &[("ctx", 3)],
        );
        record(&trace, Nanos::from_nanos(6), None, "gpu error", &[]);
        recorded(&trace, "gpu.hang", 1);
        assert_eq!(trace.metrics().counter("fault.detected"), 1);
        let spans: Vec<_> = trace
            .obs()
            .spans()
            .into_iter()
            .map(|s| (s.name, s.end_ns, s.attrs))
            .collect();
        assert_eq!(
            spans,
            [
                ("inject gpu.hang here".into(), 5, vec![("ctx", 3)]),
                ("gpu error".into(), 6, vec![])
            ]
        );
    }

    #[test]
    fn resequencer_sorted_release_with_floor() {
        let mut r = Resequencer::new();
        assert!(r.push(5, "e"));
        assert!(r.push(3, "c"));
        assert!(!r.push(3, "dup"), "already held");
        assert_eq!(r.pop(), Some((3, "c")));
        assert!(!r.push(2, "b"), "under the floor");
        assert!(!r.push(3, "c2"), "at the floor");
        assert_eq!(r.pop(), Some((5, "e")));
        assert_eq!(r.pop(), None);
        assert!(r.is_empty());
    }
}
