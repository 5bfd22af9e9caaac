//! Named counters, gauges, and fixed-bucket histograms with a stable,
//! deterministic text snapshot.
//!
//! Counters come from one vocabulary: the [`Counter`] table names every
//! counter the workspace increments under a fixed name, and the hot
//! paths count by indexing a fixed array with it. Three families have
//! names built at run time and go through [`Metrics::add_named`]:
//! `fault.injected.<kind>`, `fabric.shard<N>.<what>` and
//! `sched.s<i>.<what>`. Any other name is a bug and panics there, so a
//! misspelled name cannot silently start a counter of its own. Counters
//! saturate at `u64::MAX`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::attr::EventKind;

/// Defines [`Counter`] from one `Variant => "name"` table, kept in
/// name order so the array index order is the snapshot order.
macro_rules! counters {
    ($($variant:ident => $name:literal,)*) => {
        /// A counter with a fixed name: every counter the workspace
        /// increments outside the run-time-named families (see the
        /// module docs). Declared in name order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $(
                #[doc = concat!("`", $name, "`")]
                $variant,
            )*
        }

        impl Counter {
            /// Every counter, in name order (the index of a counter here
            /// is its discriminant).
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)*];

            /// The counter's dotted `<subsystem>.<what>` name.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }
        }
    };
}

counters! {
    AttestHandshakes => "attest.handshakes",
    CmdqBackpressureFlushes => "cmdq.backpressure_flushes",
    CmdqBatchAborts => "cmdq.batch_aborts",
    CmdqFrameCmds => "cmdq.frame_cmds",
    CmdqFrames => "cmdq.frames",
    CmdqWakes => "cmdq.wakes",
    DmaBytesDecrypted => "dma.bytes_decrypted",
    DmaBytesDtoh => "dma.bytes_dtoh",
    DmaBytesEncrypted => "dma.bytes_encrypted",
    DmaBytesHtod => "dma.bytes_htod",
    DriverGpuErrors => "driver.gpu_errors",
    DriverPageFaults => "driver.page_faults",
    EnclaveSessionsAccepted => "enclave.sessions_accepted",
    EnclaveSessionsAdopted => "enclave.sessions_adopted",
    EnclaveSessionsExported => "enclave.sessions_exported",
    EnclaveSessionsParked => "enclave.sessions_parked",
    EnclaveSessionsReaped => "enclave.sessions_reaped",
    EnclaveSessionsUnparked => "enclave.sessions_unparked",
    EnclaveShutdowns => "enclave.shutdowns",
    FabricEvacuations => "fabric.evacuations",
    FabricMigrations => "fabric.migrations",
    FabricPlacements => "fabric.placements",
    FabricResetBlastRadius => "fabric.reset_blast_radius",
    FabricShardsLaunched => "fabric.shards_launched",
    FaultDetected => "fault.detected",
    FaultInjected => "fault.injected",
    GpuCryptoLaunches => "gpu.crypto_launches",
    GpuCtxSwitches => "gpu.ctx_switches",
    GpuErrors => "gpu.errors",
    GpuKernelLaunches => "gpu.kernel_launches",
    GpuKillIgnored => "gpu.kill_ignored",
    GpuKills => "gpu.kills",
    HixEgaddPages => "hix.egadd_pages",
    HixEgcreate => "hix.egcreate",
    IpcMsgs => "ipc.msgs",
    MmuFillsDenied => "mmu.fills_denied",
    MmuTlbFillsChecked => "mmu.tlb_fills_checked",
    MmuTlbHits => "mmu.tlb_hits",
    PcieCfgReads => "pcie.cfg_reads",
    PcieCfgWrites => "pcie.cfg_writes",
    PcieCfgWritesDenied => "pcie.cfg_writes_denied",
    PcieMmioReads => "pcie.mmio_reads",
    PcieMmioWrites => "pcie.mmio_writes",
    RecoveryDupServed => "recovery.dup_served",
    RecoveryMsgsDiscarded => "recovery.msgs_discarded",
    RecoveryRedma => "recovery.redma",
    RecoveryRekeys => "recovery.rekeys",
    RecoveryRetransmits => "recovery.retransmits",
    RecoveryRetries => "recovery.retries",
    ReqClose => "req.close",
    ReqCopyDtod => "req.copy_dtod",
    ReqFree => "req.free",
    ReqLaunch => "req.launch",
    ReqLoadModule => "req.load_module",
    ReqMalloc => "req.malloc",
    ReqMemcpyDtoh => "req.memcpy_dtoh",
    ReqMemcpyHtod => "req.memcpy_htod",
    ReqMemset => "req.memset",
    ReqSubmit => "req.submit",
    ReqSync => "req.sync",
    SchedCtxSwitches => "sched.ctx_switches",
    SchedEvictions => "sched.evictions",
    SchedOverflowServiceNs => "sched.overflow.service_ns",
    SchedOverflowSessions => "sched.overflow.sessions",
    SchedOverflowWaitNs => "sched.overflow.wait_ns",
    SchedParks => "sched.parks",
    SchedServiceNs => "sched.service_ns",
    SchedSlices => "sched.slices",
    SchedUnparks => "sched.unparks",
    WatchdogEccKills => "watchdog.ecc_kills",
    WatchdogEvictions => "watchdog.evictions",
    WatchdogHangsDetected => "watchdog.hangs_detected",
    WatchdogKills => "watchdog.kills",
    WatchdogOffenses => "watchdog.offenses",
    WatchdogRebuildsRefused => "watchdog.rebuilds_refused",
    WatchdogRecoveries => "watchdog.recoveries",
    WatchdogReplaysCompleted => "watchdog.replays_completed",
    WatchdogResets => "watchdog.resets",
    WatchdogSessionsRebuilt => "watchdog.sessions_rebuilt",
    WatchdogSpuriousCleared => "watchdog.spurious_cleared",
    WatchdogStaleServed => "watchdog.stale_served",
    WatchdogTransientRecovered => "watchdog.transient_recovered",
}

/// Number of fixed-name counters (the registry's array length).
const N_COUNTERS: usize = Counter::ALL.len();

impl Counter {
    /// The counter called `name`, if the table has one.
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL
            .binary_search_by(|c| c.name().cmp(name))
            .ok()
            .map(|i| Counter::ALL[i])
    }
}

/// Whether `name` belongs to one of the run-time-named counter families:
/// `fault.injected.<kind>`, `fabric.shard<N>.<what>`, `sched.s<i>.<what>`.
pub fn is_family_name(name: &str) -> bool {
    /// `<digits>.<non-empty rest>`.
    fn indexed(rest: &str) -> bool {
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        digits > 0 && rest[digits..].strip_prefix('.').is_some_and(|w| !w.is_empty())
    }
    if let Some(kind) = name.strip_prefix("fault.injected.") {
        return !kind.is_empty();
    }
    name.strip_prefix("fabric.shard").is_some_and(indexed)
        || name.strip_prefix("sched.s").is_some_and(indexed)
}

/// Default histogram bucket upper bounds for latency values, in
/// nanoseconds of virtual time (log10 ladder from 100 ns to 1 s; an
/// implicit overflow bucket catches the rest).
pub const LATENCY_BOUNDS_NS: [u64; 8] = [
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Default histogram bucket upper bounds for small event counts
/// (retries per operation, queue depths — powers of two up to the
/// replay-window width; an implicit overflow bucket catches the rest).
pub const COUNT_BOUNDS: [u64; 8] = [0, 1, 2, 4, 8, 16, 32, 64];

/// A fixed-bucket histogram: cumulative-style buckets defined by static
/// upper bounds plus an implicit overflow bucket, with total count and
/// sum. All integer state — snapshots are bit-stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    bounds: &'static [u64],
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Hist {
    /// Creates an empty histogram over `bounds` (must be sorted
    /// ascending).
    pub fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds sorted");
        Hist {
            bounds,
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Renders `count=N sum=S le<bound>=n… inf=n` on one line.
    fn render(&self, out: &mut String) {
        out.push_str(&format!("count={} sum={}", self.count, self.sum));
        for (i, n) in self.buckets.iter().enumerate() {
            match self.bounds.get(i) {
                Some(b) => out.push_str(&format!(" le{b}={n}")),
                None => out.push_str(&format!(" inf={n}")),
            }
        }
    }
}

#[derive(Debug)]
struct MetricsInner {
    /// Fixed-name counters, indexed by [`Counter`]; `None` until first
    /// touched (an `add` of zero still lists the counter in snapshots).
    counters: [Option<u64>; N_COUNTERS],
    /// Run-time-named family counters ([`is_family_name`]).
    named: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
    /// Charged-span latency histograms, indexed by [`EventKind`]; `None`
    /// until the kind's first charge.
    span_latency: [Option<Hist>; EventKind::ALL.len()],
}

impl Default for MetricsInner {
    fn default() -> Self {
        MetricsInner {
            counters: [None; N_COUNTERS],
            named: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            span_latency: Default::default(),
        }
    }
}

/// The shared, cheaply clonable metrics registry.
///
/// Naming scheme: dotted lowercase paths, `<subsystem>.<what>`
/// (`pcie.cfg_writes_denied`, `dma.bytes_encrypted`, `ipc.msgs`).
/// Snapshots list counters, gauges, then histograms, each sorted by
/// name, so output is stable across runs.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Rc<RefCell<MetricsInner>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Increments counter `c` by 1.
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Increments counter `c` by `by`, saturating at `u64::MAX`.
    pub fn add(&self, c: Counter, by: u64) {
        let slot = &mut self.inner.borrow_mut().counters[c as usize];
        *slot = Some(slot.map_or(by, |v| v.saturating_add(by)));
    }

    /// Increments the counter called `name` by `by`, saturating at
    /// `u64::MAX`: the entry point for the run-time-named families
    /// ([`is_family_name`]). A name from the [`Counter`] table counts
    /// into that counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is neither in the [`Counter`] table nor in a
    /// run-time-named family.
    pub fn add_named(&self, name: &str, by: u64) {
        if let Some(c) = Counter::from_name(name) {
            return self.add(c, by);
        }
        assert!(
            is_family_name(name),
            "unknown counter {name:?}: add it to the Counter table"
        );
        let mut inner = self.inner.borrow_mut();
        match inner.named.get_mut(name) {
            Some(v) => *v = v.saturating_add(by),
            None => {
                inner.named.insert(name.to_string(), by);
            }
        }
    }

    /// Current value of counter `name` (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        let inner = self.inner.borrow();
        match Counter::from_name(name) {
            Some(c) => inner.counters[c as usize].unwrap_or(0),
            None => inner.named.get(name).copied().unwrap_or(0),
        }
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: u64) {
        self.inner.borrow_mut().gauges.insert(name.to_string(), v);
    }

    /// Current value of gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.inner.borrow().gauges.get(name).copied()
    }

    /// Records `v` into histogram `name` with the default latency
    /// buckets ([`LATENCY_BOUNDS_NS`]).
    pub fn observe(&self, name: &str, v: u64) {
        self.observe_with(name, &LATENCY_BOUNDS_NS, v);
    }

    /// Records `v` into histogram `name` over explicit `bounds` (the
    /// bounds of the first observation win for a given name).
    pub fn observe_with(&self, name: &str, bounds: &'static [u64], v: u64) {
        let mut inner = self.inner.borrow_mut();
        match inner.hists.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Hist::new(bounds);
                h.observe(v);
                inner.hists.insert(name.to_string(), h);
            }
        }
    }

    /// A copy of histogram `name`, if any observation was recorded.
    pub fn hist(&self, name: &str) -> Option<Hist> {
        self.inner.borrow().hists.get(name).cloned()
    }

    /// Records a charged-span duration into the kind's latency
    /// histogram (`span.latency.<kind>` in the snapshot).
    pub(crate) fn observe_span_latency(&self, kind: EventKind, dur_ns: u64) {
        self.inner.borrow_mut().span_latency[kind as usize]
            .get_or_insert_with(|| Hist::new(&LATENCY_BOUNDS_NS))
            .observe(dur_ns);
    }

    /// The latency histogram for a kind, if any span was charged to it.
    pub fn span_latency(&self, kind: EventKind) -> Option<Hist> {
        self.inner.borrow().span_latency[kind as usize].clone()
    }

    /// Renders the stable text snapshot: `counter`/`gauge`/`hist` lines,
    /// each family sorted by metric name.
    pub fn snapshot(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::new();
        // Merge the two name-ordered counter stores.
        let mut named = inner.named.iter().peekable();
        for (c, v) in Counter::ALL.iter().zip(&inner.counters) {
            let Some(v) = v else { continue };
            while let Some((name, nv)) = named.next_if(|(n, _)| n.as_str() < c.name()) {
                out.push_str(&format!("counter {name} {nv}\n"));
            }
            out.push_str(&format!("counter {} {v}\n", c.name()));
        }
        for (name, v) in named {
            out.push_str(&format!("counter {name} {v}\n"));
        }
        for (name, v) in &inner.gauges {
            out.push_str(&format!("gauge {name} {v}\n"));
        }
        let mut hists: BTreeMap<String, &Hist> = inner
            .hists
            .iter()
            .map(|(n, h)| (n.clone(), h))
            .collect();
        for (kind, h) in EventKind::ALL.iter().zip(&inner.span_latency) {
            if let Some(h) = h {
                hists.insert(format!("span.latency.{kind}"), h);
            }
        }
        for (name, h) in hists {
            out.push_str(&format!("hist {name} "));
            h.render(&mut out);
            out.push('\n');
        }
        out
    }

    /// Resets every metric.
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.counters = [None; N_COUNTERS];
        inner.named.clear();
        inner.gauges.clear();
        inner.hists.clear();
        inner.span_latency = Default::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_table_is_in_name_order_and_indexed_by_discriminant() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?}");
        }
        for w in Counter::ALL.windows(2) {
            assert!(w[0].name() < w[1].name(), "{} !< {}", w[0].name(), w[1].name());
        }
    }

    #[test]
    fn family_names() {
        for ok in [
            "fault.injected.dma_flip",
            "fault.injected.gpu.hang",
            "fabric.shard0.placements",
            "fabric.shard12.migrations_in",
            "sched.s3.service_ns",
        ] {
            assert!(is_family_name(ok), "{ok}");
        }
        for bad in [
            "fault.injected",
            "fault.injected.",
            "fabric.shard.placements",
            "fabric.shard1.",
            "fabric.shardx.placements",
            "sched.slices",
            "sched.s3",
            "ipc.msgs",
        ] {
            assert!(!is_family_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown counter")]
    fn misspelled_name_panics() {
        Metrics::new().add_named("ipc.msg", 1);
    }

    #[test]
    fn counters_saturate() {
        let m = Metrics::new();
        m.add(Counter::DmaBytesHtod, 1 << 63);
        m.add(Counter::DmaBytesHtod, 1 << 63);
        assert_eq!(m.counter("dma.bytes_htod"), u64::MAX);
        m.inc(Counter::DmaBytesHtod);
        assert_eq!(m.counter("dma.bytes_htod"), u64::MAX);
        m.add_named("sched.s0.wait_ns", u64::MAX);
        m.add_named("sched.s0.wait_ns", 2);
        assert_eq!(m.counter("sched.s0.wait_ns"), u64::MAX);
    }

    #[test]
    fn counters_and_gauges() {
        let m = Metrics::new();
        m.inc(Counter::IpcMsgs);
        m.add(Counter::IpcMsgs, 2);
        m.set_gauge("pcie.locked_devices", 3);
        assert_eq!(m.counter("ipc.msgs"), 3);
        assert_eq!(m.counter("never"), 0);
        assert_eq!(m.gauge("pcie.locked_devices"), Some(3));
        assert_eq!(m.gauge("never"), None);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Hist::new(&[10, 100]);
        h.observe(5);
        h.observe(10); // boundary lands in its bucket (le semantics)
        h.observe(50);
        h.observe(1000); // overflow
        assert_eq!(h.buckets(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1065);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let m = Metrics::new();
        m.inc(Counter::WatchdogResets);
        m.add_named("sched.s1.wait_ns", 4);
        m.add(Counter::AttestHandshakes, 0);
        m.add_named("fault.injected.dma_flip", 1);
        m.set_gauge("mid", 7);
        m.observe("lat", 5_000);
        let s1 = m.snapshot();
        let s2 = m.snapshot();
        assert_eq!(s1, s2, "snapshot must be deterministic");
        let counters: Vec<&str> = s1.lines().filter(|l| l.starts_with("counter ")).collect();
        assert_eq!(
            counters,
            [
                "counter attest.handshakes 0",
                "counter fault.injected.dma_flip 1",
                "counter sched.s1.wait_ns 4",
                "counter watchdog.resets 1",
            ],
            "typed and named counters merge in name order: {s1}"
        );
        assert!(s1.contains("gauge mid 7"), "{s1}");
        assert!(s1.contains("hist lat count=1 sum=5000"), "{s1}");
        assert!(s1.contains("le10000=1"), "{s1}");
        assert!(s1.contains(" inf=0"), "{s1}");
    }

    #[test]
    fn span_latency_rides_in_the_snapshot() {
        let m = Metrics::new();
        m.observe_span_latency(EventKind::Dma, 50_000);
        let s = m.snapshot();
        assert!(s.contains("hist span.latency.dma count=1 sum=50000"), "{s}");
        assert_eq!(m.span_latency(EventKind::Dma).unwrap().count(), 1);
        assert!(m.span_latency(EventKind::Mmio).is_none());
    }

    #[test]
    fn clear_resets() {
        let m = Metrics::new();
        m.inc(Counter::IpcMsgs);
        m.add_named("fabric.shard0.placements", 1);
        m.observe("h", 1);
        m.clear();
        assert_eq!(m.counter("ipc.msgs"), 0);
        assert_eq!(m.counter("fabric.shard0.placements"), 0);
        assert!(m.hist("h").is_none());
        assert!(m.snapshot().is_empty());
    }
}
