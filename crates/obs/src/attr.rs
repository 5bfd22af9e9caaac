//! The charge vocabulary and request-scoped latency attribution.
//!
//! Every charged span is spent on one [`EventKind`], and every kind
//! rolls up into one serving [`Stage`] through an exhaustive `match`.
//! A [`Ledger`] holds charged nanoseconds and span counts per kind in a
//! fixed array; the collector's totals, each request's attribution and
//! the unattributed remainder are all ledgers.
//!
//! A *request* is one logical enclave operation (a `memcpy_htod`, a
//! `launch`, a `sync`…) observed from submission to completion. While a
//! request is open on the collector, every charged span that completes
//! is attributed to it, per kind. Charged spans tile the virtual clock
//! (every nanosecond it moves lies in exactly one of them), so a
//! request's charges sum to its end-to-end window: its service time is
//! its charged total, with no search over overlapping intervals. Charged
//! time that falls outside any request lands in a parallel
//! *unattributed* ledger, so the attribution ledgers always tile the
//! collector's totals exactly:
//!
//! > for every kind: Σ attributed (finished + open requests)
//! > + unattributed == [`crate::Obs::totals`]  (±0)
//!
//! That reconciliation invariant is unconditional — it holds whether or
//! not request tracking is enabled, because the unattributed side is
//! always maintained alongside the totals.
//!
//! Request tracking itself (`begin_request`/`end_request`) is opt-in via
//! [`crate::Obs::set_attributing`], mirroring the recording flag: the
//! hot path of an uninstrumented run pays only the unattributed
//! accumulate. Requests do not nest; a `begin_request` while one is
//! open returns `None` and the inner operation's charges roll up into
//! the outer request (e.g. a `resume` that internally issues a `sync`).

use crate::span::Obs;
use crate::{percentile_sorted, percentile_sorted_pm};

/// What a charged span was spent on: the one vocabulary for every
/// virtual-time charge ("how much of the execution went to enclave
/// crypto vs PCIe transfer"). Declared in [`EventKind::ALL`] order, so a
/// kind's discriminant is its row in a [`Ledger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// MMIO register access through the trusted or untrusted path.
    Mmio,
    /// Bulk DMA transfer over PCIe.
    Dma,
    /// Cryptographic work in a CPU enclave.
    EnclaveCrypto,
    /// Cryptographic kernel executing on the GPU.
    GpuCrypto,
    /// Application GPU kernel execution.
    Kernel,
    /// GPU context switch.
    CtxSwitch,
    /// Inter-enclave IPC (message queue + shared memory).
    Ipc,
    /// Task/session initialization.
    Init,
    /// Attestation and key agreement.
    Attestation,
    /// Security-relevant control event (lockdown engaged, access denied…).
    Security,
    /// On-device memory operations (scrub, memset, device-to-device copy).
    GpuMem,
    /// Device fault/error reporting (GPU error register raised).
    Fault,
    /// Anything else.
    Other,
}

/// Number of kinds: the row count of a [`Ledger`].
const N_KINDS: usize = EventKind::ALL.len();

impl EventKind {
    /// Every kind, in declaration order (the index of a kind here is its
    /// discriminant).
    pub const ALL: [EventKind; 13] = [
        EventKind::Mmio,
        EventKind::Dma,
        EventKind::EnclaveCrypto,
        EventKind::GpuCrypto,
        EventKind::Kernel,
        EventKind::CtxSwitch,
        EventKind::Ipc,
        EventKind::Init,
        EventKind::Attestation,
        EventKind::Security,
        EventKind::GpuMem,
        EventKind::Fault,
        EventKind::Other,
    ];

    /// The stable category name: the span category in exported traces
    /// and the `<kind>` in `span.ns.<kind>` and `span.latency.<kind>`.
    pub const fn as_str(self) -> &'static str {
        match self {
            EventKind::Mmio => "mmio",
            EventKind::Dma => "dma",
            EventKind::EnclaveCrypto => "enclave-crypto",
            EventKind::GpuCrypto => "gpu-crypto",
            EventKind::Kernel => "kernel",
            EventKind::CtxSwitch => "ctx-switch",
            EventKind::Ipc => "ipc",
            EventKind::Init => "init",
            EventKind::Attestation => "attestation",
            EventKind::Security => "security",
            EventKind::GpuMem => "gpu-mem",
            EventKind::Fault => "fault",
            EventKind::Other => "other",
        }
    }

    /// The pipeline stage this kind's charges roll up into. Exhaustive:
    /// a new kind does not compile until it has a stage.
    pub const fn stage(self) -> Stage {
        match self {
            EventKind::Ipc | EventKind::Mmio => Stage::Channel,
            EventKind::EnclaveCrypto => Stage::CryptoCpu,
            EventKind::GpuCrypto => Stage::CryptoGpu,
            EventKind::Dma => Stage::Dma,
            EventKind::Kernel => Stage::Compute,
            EventKind::Attestation | EventKind::Security => Stage::Security,
            EventKind::Fault => Stage::Fault,
            EventKind::CtxSwitch | EventKind::Init | EventKind::GpuMem | EventKind::Other => {
                Stage::Runtime
            }
        }
    }

    /// The kind whose [`EventKind::as_str`] is `name`, for the
    /// name-keyed readers ([`Obs::category_ns`], [`Obs::category_count`]).
    pub(crate) fn named(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.as_str() == name)
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.as_str())
    }
}

/// Coarse pipeline stage of the HIX serving path. Every [`EventKind`]
/// maps onto exactly one stage ([`EventKind::stage`]), so per-stage
/// rollups inherit the ±0 reconciliation of the per-kind ledger.
/// Declared in [`Stage::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Host-side runtime work: session setup, context switches, device
    /// memory management, and anything uncategorized.
    Runtime,
    /// The untrusted channel: IPC messages and MMIO doorbells.
    Channel,
    /// CPU-enclave crypto (sealing/unsealing on the host).
    CryptoCpu,
    /// On-GPU crypto kernels (decrypt/encrypt of sealed streams).
    CryptoGpu,
    /// PCIe DMA wire time.
    Dma,
    /// User kernel compute time on the GPU.
    Compute,
    /// Attestation and access-control enforcement.
    Security,
    /// Fault injection and recovery bookkeeping.
    Fault,
}

impl Stage {
    /// Every stage, in report order (the index of a stage here is its
    /// discriminant, which exported traces carry as the `stage`
    /// argument of every charged span).
    pub const ALL: [Stage; 8] = [
        Stage::Runtime,
        Stage::Channel,
        Stage::CryptoCpu,
        Stage::CryptoGpu,
        Stage::Dma,
        Stage::Compute,
        Stage::Security,
        Stage::Fault,
    ];

    /// Stable lower-case name (used as a JSON key in `BENCH_perf.json`).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Runtime => "runtime",
            Stage::Channel => "channel",
            Stage::CryptoCpu => "crypto-cpu",
            Stage::CryptoGpu => "crypto-gpu",
            Stage::Dma => "dma",
            Stage::Compute => "compute",
            Stage::Security => "security",
            Stage::Fault => "fault",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Charged nanoseconds and span count per [`EventKind`], one fixed row
/// per kind. The same ledger backs the collector's totals, each
/// request's attribution and the unattributed remainder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    ns: [u64; N_KINDS],
    count: [u64; N_KINDS],
}

impl Ledger {
    /// Charges one span of `dur_ns` to `kind`.
    pub fn add(&mut self, kind: EventKind, dur_ns: u64) {
        self.ns[kind as usize] += dur_ns;
        self.count[kind as usize] += 1;
    }

    /// `(ns, spans)` charged to `kind`.
    pub fn get(&self, kind: EventKind) -> (u64, u64) {
        (self.ns[kind as usize], self.count[kind as usize])
    }

    /// Adds every row of `other` into this ledger.
    pub fn merge(&mut self, other: &Ledger) {
        for k in 0..N_KINDS {
            self.ns[k] += other.ns[k];
            self.count[k] += other.count[k];
        }
    }

    /// `(kind, ns, spans)` for every kind charged at least once, in
    /// [`EventKind::ALL`] order.
    pub fn rows(&self) -> impl Iterator<Item = (EventKind, u64, u64)> + '_ {
        EventKind::ALL
            .into_iter()
            .filter(|&k| self.count[k as usize] > 0)
            .map(|k| (k, self.ns[k as usize], self.count[k as usize]))
    }

    /// Charged nanoseconds across all kinds.
    pub fn total(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Per-stage `(stage, ns, spans)` rollup in [`Stage::ALL`] order,
    /// stages with zero charge included. The stage sums tile the kind
    /// sums by construction.
    pub fn by_stage(&self) -> [(Stage, u64, u64); Stage::ALL.len()] {
        let mut rows = Stage::ALL.map(|s| (s, 0, 0));
        for (kind, ns, count) in self.rows() {
            let row = &mut rows[kind.stage() as usize];
            row.1 += ns;
            row.2 += count;
        }
        rows
    }
}

/// Handle for an open request, returned by [`Obs::begin_request`] and
/// consumed by [`Obs::end_request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestId(pub(crate) u64);

impl RequestId {
    /// The numeric id (also attached as a `("req", id)` attribute to
    /// every span recorded while the request is open).
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A completed request with its attribution ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Request id (unique per collector lifetime, starts at 1).
    pub id: u64,
    /// Tenant (session) the request belongs to.
    pub tenant: u64,
    /// Operation name ("memcpy_htod", "launch", …).
    pub name: String,
    /// Virtual-time submission, nanoseconds.
    pub start_ns: u64,
    /// Virtual-time completion, nanoseconds.
    pub end_ns: u64,
    /// Charged time and span count per kind.
    pub by_kind: Ledger,
}

impl RequestRecord {
    /// End-to-end latency in nanoseconds.
    pub fn e2e_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Total charged nanoseconds across all kinds: the request's service
    /// time. Charges tile the clock, so on the simulated stack this
    /// equals [`RequestRecord::e2e_ns`].
    pub fn charged_ns(&self) -> u64 {
        self.by_kind.total()
    }

    /// Per-stage rollup of the per-kind ledger, in [`Stage::ALL`] order
    /// (stages with zero charge included).
    pub fn by_stage(&self) -> [(Stage, u64, u64); Stage::ALL.len()] {
        self.by_kind.by_stage()
    }
}

/// The request currently open on a collector.
#[derive(Debug)]
pub(crate) struct OpenRequest {
    pub(crate) id: u64,
    pub(crate) tenant: u64,
    pub(crate) name: String,
    pub(crate) start_ns: u64,
    pub(crate) scope: crate::span::SpanId,
    pub(crate) by_kind: Ledger,
}

/// Attribution state riding inside the collector.
#[derive(Debug, Default)]
pub(crate) struct AttrState {
    /// Whether `begin_request` opens requests (off by default).
    pub(crate) enabled: bool,
    next_id: u64,
    pub(crate) current: Option<OpenRequest>,
    finished: Vec<RequestRecord>,
    /// Charged time outside any request. Always maintained, so the
    /// reconciliation invariant holds unconditionally.
    unattributed: Ledger,
}

impl AttrState {
    /// Charges `dur_ns` of `kind` to the open request (or the
    /// unattributed ledger). Called from [`Obs::charged`] for every
    /// charged span.
    pub(crate) fn on_charged(&mut self, dur_ns: u64, kind: EventKind) {
        match &mut self.current {
            Some(req) => req.by_kind.add(kind, dur_ns),
            None => self.unattributed.add(kind, dur_ns),
        }
    }

    /// Id of the open request, if any (attached to recorded spans).
    pub(crate) fn current_id(&self) -> Option<u64> {
        self.current.as_ref().map(|r| r.id)
    }

    pub(crate) fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    pub(crate) fn finish(&mut self, end_ns: u64) -> Option<crate::span::SpanId> {
        let req = self.current.take()?;
        let scope = req.scope;
        self.finished.push(RequestRecord {
            id: req.id,
            tenant: req.tenant,
            name: req.name,
            start_ns: req.start_ns,
            end_ns: end_ns.max(req.start_ns),
            by_kind: req.by_kind,
        });
        Some(scope)
    }

    /// Everything charged so far: unattributed, finished and open
    /// requests folded into one ledger.
    fn attributed(&self) -> Ledger {
        let mut all = self.unattributed;
        for rec in &self.finished {
            all.merge(&rec.by_kind);
        }
        if let Some(open) = &self.current {
            all.merge(&open.by_kind);
        }
        all
    }

    /// Clears requests and ledgers, keeping the enabled flag (mirrors
    /// how `clear` keeps the recording flag).
    pub(crate) fn clear(&mut self) {
        self.next_id = 0;
        self.current = None;
        self.finished.clear();
        self.unattributed = Ledger::default();
    }
}

impl Obs {
    /// Enables or disables request tracking. Off by default; the
    /// unattributed ledger is maintained either way.
    pub fn set_attributing(&self, on: bool) {
        self.with_inner(|inner| inner.attr.enabled = on);
    }

    /// Whether request tracking is enabled.
    pub fn attributing(&self) -> bool {
        self.with_inner(|inner| inner.attr.enabled)
    }

    /// Opens a request for tenant `tenant` named `name` at `now_ns`.
    ///
    /// Returns `None` when attribution is disabled **or a request is
    /// already open** — requests do not nest; an inner operation's
    /// charges roll up into the outer request. While span recording is
    /// on, the request also opens a structural `request` scope so the
    /// Perfetto timeline and folded stacks nest under it, and every
    /// span recorded until [`Obs::end_request`] carries a
    /// `("req", id)` attribute.
    pub fn begin_request(&self, now_ns: u64, tenant: u64, name: &str) -> Option<RequestId> {
        let id = self.with_inner(|inner| {
            if !inner.attr.enabled || inner.attr.current.is_some() {
                return None;
            }
            Some(inner.attr.next_id())
        })?;
        let scope = self.enter(now_ns, "request", name, &[("req", id), ("tenant", tenant)]);
        self.with_inner(|inner| {
            inner.attr.current = Some(OpenRequest {
                id,
                tenant,
                name: name.to_string(),
                start_ns: now_ns,
                scope,
                by_kind: Ledger::default(),
            });
        });
        Some(RequestId(id))
    }

    /// Completes the open request at `now_ns`. Tolerant: a stale or
    /// mismatched id (the request was already closed) is a no-op, so an
    /// error path can never wedge the attributor.
    pub fn end_request(&self, id: RequestId, now_ns: u64) {
        let scope = self.with_inner(|inner| {
            if inner.attr.current_id() != Some(id.0) {
                return None;
            }
            inner.attr.finish(now_ns)
        });
        if let Some(scope) = scope {
            self.exit(scope, now_ns);
        }
    }

    /// All completed requests, in completion order.
    pub fn requests(&self) -> Vec<RequestRecord> {
        self.with_inner(|inner| inner.attr.finished.clone())
    }

    /// Charged time that fell outside any request.
    pub fn unattributed_totals(&self) -> Ledger {
        self.with_inner(|inner| inner.attr.unattributed)
    }

    /// Verifies the reconciliation invariant: for every kind, attributed
    /// (finished + open request) + unattributed charged time and span
    /// counts equal the collector's totals **exactly** (±0). Returns a
    /// diagnostic on the first drift found.
    pub fn check_attribution(&self) -> Result<(), String> {
        let (attributed, totals) = self.with_inner(|inner| (inner.attr.attributed(), inner.totals));
        for kind in EventKind::ALL {
            let (got_ns, got_count) = attributed.get(kind);
            let (ns, count) = totals.get(kind);
            if (got_ns, got_count) != (ns, count) {
                return Err(format!(
                    "attribution drift for {kind}: attributed+unattributed \
                     {got_ns} ns / {got_count} spans vs total {ns} ns / {count} spans"
                ));
            }
        }
        Ok(())
    }
}

/// Maximum number of tenants reported individually in an SLO table;
/// tenants beyond the first `SLO_TENANTS_MAX` (in first-request order)
/// aggregate into a single `overflow` row that preserves totals —
/// mirroring the scheduler's per-session metrics cardinality gate.
pub const SLO_TENANTS_MAX: usize = 64;

/// One row of a per-tenant SLO table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloRow {
    /// Tenant label: `t<id>`, or `overflow` for the aggregate row.
    pub tenant: String,
    /// Number of requests.
    pub requests: u64,
    /// End-to-end latency percentiles (nearest-rank).
    pub p50_ns: u64,
    /// 95th percentile end-to-end latency.
    pub p95_ns: u64,
    /// 99th percentile end-to-end latency.
    pub p99_ns: u64,
    /// 99.9th percentile end-to-end latency (per-mille nearest-rank).
    pub p999_ns: u64,
    /// Worst-case end-to-end latency.
    pub max_ns: u64,
    /// Total service time: Σ per-request charged total.
    pub service_ns: u64,
    /// Total queue/blocked time: Σ (e2e − charged), clamped at 0 per
    /// request. Zero on the simulated stack, whose charges tile every
    /// request window.
    pub queue_ns: u64,
}

/// Builds the per-tenant SLO table from completed requests.
///
/// Service is each request's charged total
/// ([`RequestRecord::charged_ns`]); queue is the end-to-end remainder
/// the charges leave uncovered. Tenants appear in first-request order; past
/// [`SLO_TENANTS_MAX`] distinct tenants the rest collapse into one
/// `overflow` row, so Σ row.requests and Σ row.service/queue always
/// equal the whole-population values.
pub fn slo_table(records: &[RequestRecord]) -> Vec<SloRow> {
    let mut tenants: Vec<u64> = Vec::new();
    for rec in records {
        if !tenants.contains(&rec.tenant) {
            tenants.push(rec.tenant);
        }
    }
    let named: Vec<u64> = tenants.iter().copied().take(SLO_TENANTS_MAX).collect();
    let overflow = tenants.len() > SLO_TENANTS_MAX;
    let mut rows: Vec<(String, Vec<&RequestRecord>)> = named
        .iter()
        .map(|t| (format!("t{t}"), Vec::new()))
        .collect();
    if overflow {
        rows.push(("overflow".to_string(), Vec::new()));
    }
    for rec in records {
        let idx = match named.iter().position(|t| *t == rec.tenant) {
            Some(i) => i,
            None => rows.len() - 1,
        };
        rows[idx].1.push(rec);
    }
    rows.into_iter()
        .map(|(tenant, recs)| {
            let mut e2e: Vec<u64> = recs.iter().map(|r| r.e2e_ns()).collect();
            e2e.sort_unstable();
            let mut service_ns = 0u64;
            let mut queue_ns = 0u64;
            for rec in &recs {
                service_ns += rec.charged_ns();
                queue_ns += rec.e2e_ns().saturating_sub(rec.charged_ns());
            }
            SloRow {
                tenant,
                requests: recs.len() as u64,
                p50_ns: percentile_sorted(&e2e, 50).unwrap_or(0),
                p95_ns: percentile_sorted(&e2e, 95).unwrap_or(0),
                p99_ns: percentile_sorted(&e2e, 99).unwrap_or(0),
                p999_ns: percentile_sorted_pm(&e2e, 999).unwrap_or(0),
                max_ns: e2e.last().copied().unwrap_or(0),
                service_ns,
                queue_ns,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use EventKind::*;

    fn rec(tenant: u64, start: u64, end: u64) -> RequestRecord {
        let mut by_kind = Ledger::default();
        by_kind.add(Dma, end - start);
        RequestRecord {
            id: 1,
            tenant,
            name: "op".into(),
            start_ns: start,
            end_ns: end,
            by_kind,
        }
    }

    #[test]
    fn kinds_and_stages_are_indexed_by_discriminant() {
        // A kind's discriminant is its ledger row and a stage's is its
        // rollup row and exported `stage` value; kind names are the
        // snapshot keys, stage names JSON keys, so both must be distinct.
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{k:?}");
            assert_eq!(format!("{k:>16}"), format!("{:>16}", k.as_str()));
        }
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "{s:?}");
        }
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }

    #[test]
    fn stage_names_are_distinct() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }

    #[test]
    fn stage_rollup_tiles_categories() {
        let mut ledger = Ledger::default();
        ledger.add(Dma, 60);
        ledger.add(Dma, 40);
        for _ in 0..3 {
            ledger.add(Ipc, 10);
        }
        ledger.add(Mmio, 7);
        let stages = ledger.by_stage();
        let total: u64 = stages.iter().map(|(_, ns, _)| ns).sum();
        assert_eq!(total, 137);
        assert_eq!(total, ledger.total());
        let channel = stages[Stage::Channel as usize];
        assert_eq!(
            channel,
            (Stage::Channel, 37, 4),
            "ipc+mmio fold into channel"
        );
    }

    #[test]
    fn requests_attribute_and_reconcile() {
        let obs = Obs::new();
        obs.set_attributing(true);
        obs.charged(0, 5, Init, "boot", &[]); // before any request
        let id = obs.begin_request(10, 3, "memcpy_htod").expect("opens");
        obs.charged(10, 20, EnclaveCrypto, "seal", &[]);
        obs.charged(25, 30, Dma, "HtoD", &[]);
        obs.end_request(id, 60);
        obs.charged(60, 2, Ipc, "teardown", &[]);

        let reqs = obs.requests();
        assert_eq!(reqs.len(), 1);
        let r = &reqs[0];
        assert_eq!(r.tenant, 3);
        assert_eq!(r.e2e_ns(), 50);
        assert_eq!(r.charged_ns(), 50);
        assert_eq!(
            obs.unattributed_totals().rows().collect::<Vec<_>>(),
            vec![(Ipc, 2, 1), (Init, 5, 1)]
        );
        obs.check_attribution().expect("±0 reconciliation");
    }

    #[test]
    fn requests_do_not_nest() {
        let obs = Obs::new();
        obs.set_attributing(true);
        let outer = obs.begin_request(0, 1, "resume").expect("opens");
        assert!(obs.begin_request(1, 1, "sync").is_none(), "inner rolls up");
        obs.charged(2, 10, Kernel, "mul", &[]);
        obs.end_request(outer, 20);
        let reqs = obs.requests();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].name, "resume");
        assert_eq!(
            reqs[0].by_kind.rows().collect::<Vec<_>>(),
            vec![(Kernel, 10, 1)]
        );
    }

    #[test]
    fn disabled_attribution_accumulates_unattributed() {
        let obs = Obs::new();
        assert!(obs.begin_request(0, 1, "x").is_none(), "off by default");
        obs.charged(0, 9, Dma, "d", &[]);
        assert_eq!(
            obs.unattributed_totals().rows().collect::<Vec<_>>(),
            vec![(Dma, 9, 1)]
        );
        obs.check_attribution()
            .expect("invariant holds while disabled");
    }

    #[test]
    fn stale_end_request_is_a_noop() {
        let obs = Obs::new();
        obs.set_attributing(true);
        let a = obs.begin_request(0, 1, "a").unwrap();
        obs.end_request(a, 5);
        obs.end_request(a, 9); // stale: already closed
        let b = obs.begin_request(10, 1, "b").unwrap();
        obs.end_request(a, 12); // mismatched: b is open
        assert_eq!(obs.requests().len(), 1, "b still open");
        obs.end_request(b, 15);
        assert_eq!(obs.requests().len(), 2);
    }

    #[test]
    fn recorded_spans_carry_request_ids() {
        let obs = Obs::new();
        obs.set_recording(true);
        obs.set_attributing(true);
        let id = obs.begin_request(0, 7, "launch").unwrap();
        obs.charged(1, 4, Kernel, "mul", &[("grid", 8)]);
        obs.end_request(id, 10);
        obs.charged(10, 2, Ipc, "outside", &[]);
        let spans = obs.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].category, "request");
        assert_eq!(spans[0].name, "launch");
        assert_eq!(spans[0].dur_ns(), 10);
        assert!(
            spans[1].attrs.contains(&("req", id.value())),
            "{:?}",
            spans[1]
        );
        assert!(spans[1].attrs.contains(&("grid", 8)));
        assert_eq!(
            spans[1].parent,
            Some(0),
            "charged span nests under the request"
        );
        assert!(
            !spans[2].attrs.iter().any(|(k, _)| *k == "req"),
            "spans outside a request carry no req attr"
        );
    }

    #[test]
    fn clear_resets_attribution_but_keeps_the_flag() {
        let obs = Obs::new();
        obs.set_attributing(true);
        let id = obs.begin_request(0, 1, "x").unwrap();
        obs.charged(0, 3, Dma, "d", &[]);
        obs.end_request(id, 4);
        obs.clear();
        assert!(obs.requests().is_empty());
        assert_eq!(obs.unattributed_totals(), Ledger::default());
        assert!(obs.attributing(), "clear keeps the attributing flag");
        obs.check_attribution().expect("empty ledgers reconcile");
    }

    #[test]
    fn slo_table_splits_queue_and_service() {
        // Tenant 1: two requests fully charged (no queue). Tenant 2:
        // one request with half its wall time uncharged (queue).
        let mut r3 = rec(2, 0, 100);
        r3.by_kind = Ledger::default();
        r3.by_kind.add(Dma, 50);
        let records = vec![rec(1, 0, 10), rec(1, 10, 30), r3];
        let table = slo_table(&records);
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].tenant, "t1");
        assert_eq!(table[0].requests, 2);
        assert_eq!(table[0].queue_ns, 0);
        assert_eq!(table[0].service_ns, 30);
        assert_eq!(table[0].p50_ns, 20, "sorted [10,20][1]");
        assert_eq!(table[1].tenant, "t2");
        assert_eq!(table[1].service_ns, 50);
        assert_eq!(table[1].queue_ns, 50);
        assert_eq!(table[1].p999_ns, 100);
    }

    #[test]
    fn slo_table_overflow_row_preserves_totals() {
        let records: Vec<RequestRecord> = (0..(SLO_TENANTS_MAX as u64 + 10))
            .map(|t| rec(t, 0, 10 + t))
            .collect();
        let table = slo_table(&records);
        assert_eq!(table.len(), SLO_TENANTS_MAX + 1);
        assert_eq!(table.last().unwrap().tenant, "overflow");
        assert_eq!(table.last().unwrap().requests, 10);
        let total: u64 = table.iter().map(|r| r.requests).sum();
        assert_eq!(total, records.len() as u64, "no request lost to the gate");
        let service: u64 = table.iter().map(|r| r.service_ns).sum();
        let expect: u64 = records.iter().map(RequestRecord::charged_ns).sum();
        assert_eq!(service, expect);
    }
}
