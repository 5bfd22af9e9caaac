//! The typed counter registry and the typed charge ledger against
//! name-keyed models.
//!
//! `Metrics` keeps fixed-name counters in an array indexed by `Counter`
//! and only the run-time-named families in a map. Random sequences of
//! typed adds, named adds, gauges, histogram observations and `clear()`
//! drive both the registry and a plain `BTreeMap<String, u64>` model;
//! the snapshot text and every counter read must agree.
//!
//! `Obs` keeps charged time in per-`EventKind` ledgers and rolls kinds
//! up into stages with an exhaustive `match`. Random charge, request,
//! flag and `clear()` tapes drive a `Trace` and a model of the
//! string-keyed accounting those ledgers replaced: category-name maps
//! for the totals, the open and finished requests and the unattributed
//! remainder, latency histograms per name, and the category → stage
//! table written out row by row.
//!
//! (Both live here rather than in `hix-obs`, which cannot take
//! `hix-testkit` as a dev-dependency: `hix-testkit` depends on it.)

use std::collections::{BTreeMap, BTreeSet};

use hix_obs::metrics::is_family_name;
use hix_obs::{Counter, Hist, Metrics, RequestId, COUNT_BOUNDS, LATENCY_BOUNDS_NS};
use hix_sim::{Clock, EventKind, Nanos, Trace};
use hix_testkit::prop::{prop, Source};

const SEEDS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/proptest_metrics.seeds");

/// Members of the three run-time-named families.
const FAMILY_NAMES: [&str; 6] = [
    "fabric.shard0.placements",
    "fabric.shard12.migrations_in",
    "fault.injected.drop",
    "fault.injected.gpu.hang",
    "sched.s0.service_ns",
    "sched.s7.wait_ns",
];

const GAUGES: [&str; 2] = ["pcie.locked_devices", "sched.peak_resident"];

/// Histogram names, each paired with the bounds the property always
/// observes it with.
const HISTS: [(&str, &[u64]); 2] = [
    ("cmdq.batch_len", &COUNT_BOUNDS),
    ("sched.wait_ns", &LATENCY_BOUNDS_NS),
];

#[derive(Debug, Clone)]
enum Op {
    Typed(Counter, u64),
    Named(&'static str, u64),
    Gauge(&'static str, u64),
    Observe(usize, u64),
    Clear,
}

/// An increment: mostly small, sometimes zero (which still lists the
/// counter) or huge (which saturates).
fn amount(s: &mut Source) -> u64 {
    match s.choice(4) {
        0 => 1,
        1 => 0,
        2 => s.in_range(0..1000),
        _ => u64::MAX - s.in_range(0..4),
    }
}

fn op(s: &mut Source) -> Op {
    match s.choice(8) {
        0..=2 => Op::Typed(Counter::ALL[s.index(Counter::ALL.len())], amount(s)),
        // Table names go through the named path too: they must land in
        // the same slot as a typed add.
        3 => Op::Named(Counter::ALL[s.index(Counter::ALL.len())].name(), amount(s)),
        4 => Op::Named(FAMILY_NAMES[s.index(FAMILY_NAMES.len())], amount(s)),
        5 => Op::Gauge(GAUGES[s.index(GAUGES.len())], s.u64()),
        6 => Op::Observe(s.index(HISTS.len()), s.in_range(0..1 << 32)),
        _ => Op::Clear,
    }
}

#[derive(Default)]
struct Model {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, (&'static [u64], Hist)>,
}

impl Model {
    fn add(&mut self, name: &str, by: u64) {
        let v = self.counters.entry(name.to_string()).or_insert(0);
        *v = v.saturating_add(by);
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Typed(c, by) => self.add(c.name(), by),
            Op::Named(name, by) => self.add(name, by),
            Op::Gauge(name, v) => {
                self.gauges.insert(name.to_string(), v);
            }
            Op::Observe(h, v) => {
                let (name, bounds) = HISTS[h];
                self.hists
                    .entry(name.to_string())
                    .or_insert_with(|| (bounds, Hist::new(bounds)))
                    .1
                    .observe(v);
            }
            Op::Clear => *self = Model::default(),
        }
    }

    fn snapshot(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out += &format!("counter {name} {v}\n");
        }
        for (name, v) in &self.gauges {
            out += &format!("gauge {name} {v}\n");
        }
        for (name, (bounds, h)) in &self.hists {
            render_hist(&mut out, name, bounds, h);
        }
        out
    }
}

/// A `hist` snapshot line, as `Metrics::snapshot` prints it.
fn render_hist(out: &mut String, name: &str, bounds: &[u64], h: &Hist) {
    *out += &format!("hist {name} count={} sum={}", h.count(), h.sum());
    for (i, n) in h.buckets().iter().enumerate() {
        match bounds.get(i) {
            Some(b) => *out += &format!(" le{b}={n}"),
            None => *out += &format!(" inf={n}"),
        }
    }
    out.push('\n');
}

fn apply(m: &Metrics, op: &Op) {
    match *op {
        Op::Typed(c, by) => m.add(c, by),
        Op::Named(name, by) => m.add_named(name, by),
        Op::Gauge(name, v) => m.set_gauge(name, v),
        Op::Observe(h, v) => m.observe_with(HISTS[h].0, HISTS[h].1, v),
        Op::Clear => m.clear(),
    }
}

#[test]
fn registry_matches_a_name_keyed_model() {
    prop("registry_matches_a_name_keyed_model").run(|s| {
        let ops = s.collect(0..48, op);
        let metrics = Metrics::new();
        let mut model = Model::default();
        for op in &ops {
            apply(&metrics, op);
            model.apply(op);
            assert_eq!(metrics.snapshot(), model.snapshot(), "after {op:?}");
        }
        let names = Counter::ALL
            .iter()
            .map(|c| c.name())
            .chain(FAMILY_NAMES)
            .chain(["ipc.msg", "sched.s9.wait_ns", "never"]);
        for name in names {
            let want = model.counters.get(name).copied().unwrap_or(0);
            assert_eq!(metrics.counter(name), want, "{name}");
        }
    });
}

#[test]
fn counter_names_are_unique_well_formed_and_round_trip() {
    let names: BTreeSet<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
    assert_eq!(names.len(), Counter::ALL.len(), "duplicate counter names");
    for &c in Counter::ALL {
        let name = c.name();
        // `<subsystem>.<what>`: dotted lowercase segments, none empty.
        let segments: Vec<&str> = name.split('.').collect();
        assert!(segments.len() >= 2, "{name}: no subsystem");
        for seg in &segments {
            let word = |ch: char| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_';
            assert!(
                seg.starts_with(|ch: char| ch.is_ascii_lowercase()) && seg.chars().all(word),
                "{name}: segment {seg:?} breaks the naming scheme"
            );
        }
        assert!(
            !is_family_name(name),
            "{name} collides with a run-time family"
        );
        assert_eq!(
            Counter::from_name(name),
            Some(c),
            "{name} does not round-trip"
        );
    }
    for name in FAMILY_NAMES {
        assert!(is_family_name(name), "{name}");
        assert_eq!(Counter::from_name(name), None, "{name}");
    }
}

/// Each kind's category name and the stage its charges roll up into, in
/// `EventKind::ALL` order: the category → stage table of the
/// string-keyed accounting, written out so the property pins it.
const CATEGORY_STAGE: [(&str, &str); 13] = [
    ("mmio", "channel"),
    ("dma", "dma"),
    ("enclave-crypto", "crypto-cpu"),
    ("gpu-crypto", "crypto-gpu"),
    ("kernel", "compute"),
    ("ctx-switch", "runtime"),
    ("ipc", "channel"),
    ("init", "runtime"),
    ("attestation", "security"),
    ("security", "security"),
    ("gpu-mem", "runtime"),
    ("fault", "fault"),
    ("other", "runtime"),
];

/// Stage names in report order (`BENCH_perf.json`'s stage rows).
const STAGE_ORDER: [&str; 8] = [
    "runtime",
    "channel",
    "crypto-cpu",
    "crypto-gpu",
    "dma",
    "compute",
    "security",
    "fault",
];

#[derive(Debug, Clone)]
enum ChargeOp {
    /// Charge a span of `CATEGORY_STAGE[k]`'s kind.
    Charge(usize, u64),
    /// Open a request for a tenant.
    Begin(u64),
    /// Close an issued request id: the latest (`None`), or one picked
    /// by index, usually stale or mismatched.
    End(Option<usize>),
    Attributing(bool),
    Recording(bool),
    Clear,
}

/// A charge duration: zero, small, or large.
fn duration(s: &mut Source) -> u64 {
    match s.choice(3) {
        0 => 0,
        1 => s.in_range(1..1000),
        _ => s.in_range(1 << 32..1 << 40),
    }
}

fn charge_op(s: &mut Source) -> ChargeOp {
    match s.choice(10) {
        0..=3 => ChargeOp::Charge(s.index(CATEGORY_STAGE.len()), duration(s)),
        4 => ChargeOp::Begin(s.in_range(0..4)),
        5 => ChargeOp::End(None),
        6 => ChargeOp::End(Some(s.index(16))),
        7 => ChargeOp::Attributing(s.bool()),
        8 => ChargeOp::Recording(s.bool()),
        _ => ChargeOp::Clear,
    }
}

/// `(ns, spans)` per category name.
type CategoryLedger = BTreeMap<&'static str, (u64, u64)>;

fn charge(ledger: &mut CategoryLedger, category: &'static str, dur_ns: u64) {
    let row = ledger.entry(category).or_insert((0, 0));
    row.0 += dur_ns;
    row.1 += 1;
}

/// The string-keyed accounting: what `Obs` kept per category name.
#[derive(Default)]
struct ChargeModel {
    totals: CategoryLedger,
    latency: BTreeMap<&'static str, Hist>,
    unattributed: CategoryLedger,
    /// The open request's id and ledger.
    open: Option<(u64, CategoryLedger)>,
    finished: Vec<CategoryLedger>,
    attributing: bool,
    next_id: u64,
}

impl ChargeModel {
    fn charge(&mut self, category: &'static str, dur_ns: u64) {
        charge(&mut self.totals, category, dur_ns);
        self.latency
            .entry(category)
            .or_insert_with(|| Hist::new(&LATENCY_BOUNDS_NS))
            .observe(dur_ns);
        match &mut self.open {
            Some((_, ledger)) => charge(ledger, category, dur_ns),
            None => charge(&mut self.unattributed, category, dur_ns),
        }
    }

    /// The id `begin_request` must return: `None` while attribution is
    /// off or a request is open (requests do not nest).
    fn begin(&mut self) -> Option<u64> {
        if !self.attributing || self.open.is_some() {
            return None;
        }
        self.next_id += 1;
        self.open = Some((self.next_id, CategoryLedger::new()));
        Some(self.next_id)
    }

    /// Closes the open request if its id is `id`; anything else is a
    /// no-op.
    fn end(&mut self, id: u64) {
        if self.open.as_ref().is_some_and(|(open, _)| *open == id) {
            let (_, ledger) = self.open.take().unwrap();
            self.finished.push(ledger);
        }
    }

    /// Clears everything but the attributing flag.
    fn clear(&mut self) {
        *self = ChargeModel {
            attributing: self.attributing,
            ..ChargeModel::default()
        };
    }

    fn snapshot(&self) -> String {
        let mut out = String::from("# spans\n");
        for (category, (ns, count)) in &self.totals {
            out += &format!("span.count.{category} {count}\nspan.ns.{category} {ns}\n");
        }
        out += "# metrics\n";
        for (category, h) in &self.latency {
            render_hist(
                &mut out,
                &format!("span.latency.{category}"),
                &LATENCY_BOUNDS_NS,
                h,
            );
        }
        out
    }
}

/// Rolls a category ledger up into `(stage, ns, spans)` rows in report
/// order through `CATEGORY_STAGE`.
fn roll_up(ledger: &CategoryLedger) -> Vec<(&'static str, u64, u64)> {
    STAGE_ORDER
        .iter()
        .map(|&stage| {
            CATEGORY_STAGE
                .iter()
                .filter(|(_, s)| *s == stage)
                .filter_map(|(category, _)| ledger.get(category))
                .fold((stage, 0, 0), |(s, ns, n), (dns, dn)| (s, ns + dns, n + dn))
        })
        .collect()
}

#[test]
fn typed_ledger_matches_the_string_keyed_accounting() {
    prop("typed_ledger_matches_the_string_keyed_accounting")
        .corpus(SEEDS)
        .run(|s| {
            let ops = s.collect(0..48, charge_op);
            let (clock, trace) = (Clock::new(), Trace::new());
            let obs = trace.obs();
            let mut model = ChargeModel::default();
            // Issued ids outlive `clear()`, which restarts ids at 1, so an
            // id from before it can close a newer request; the model
            // compares ids by value, as the collector does.
            let mut issued: Vec<RequestId> = Vec::new();
            for op in &ops {
                match *op {
                    ChargeOp::Charge(k, dur) => {
                        let kind = EventKind::ALL[k];
                        trace.charge(&clock, Nanos::from_nanos(dur), kind, "op");
                        model.charge(CATEGORY_STAGE[k].0, dur);
                    }
                    ChargeOp::Begin(tenant) => {
                        let id = obs.begin_request(clock.now().as_nanos(), tenant, "req");
                        assert_eq!(id.map(RequestId::value), model.begin(), "begin_request");
                        issued.extend(id);
                    }
                    ChargeOp::End(pick) => {
                        let i =
                            pick.map_or(issued.len().wrapping_sub(1), |i| i % issued.len().max(1));
                        if let Some(&id) = issued.get(i) {
                            obs.end_request(id, clock.now().as_nanos());
                            model.end(id.value());
                        }
                    }
                    ChargeOp::Attributing(on) => {
                        obs.set_attributing(on);
                        model.attributing = on;
                    }
                    ChargeOp::Recording(on) => trace.set_recording(on),
                    ChargeOp::Clear => {
                        trace.clear();
                        model.clear();
                    }
                }

                assert_eq!(obs.snapshot(), model.snapshot(), "after {op:?}");
                for (category, _) in CATEGORY_STAGE.iter().chain(&[("no-such-kind", "")]) {
                    let (ns, count) = model.totals.get(category).copied().unwrap_or((0, 0));
                    assert_eq!(obs.category_ns(category), ns, "{category} after {op:?}");
                    assert_eq!(
                        obs.category_count(category),
                        count,
                        "{category} after {op:?}"
                    );
                }
                for (kind, (category, _)) in EventKind::ALL.iter().zip(&CATEGORY_STAGE) {
                    let (ns, count) = model.totals.get(category).copied().unwrap_or((0, 0));
                    assert_eq!(trace.total(*kind).as_nanos(), ns, "{kind:?} after {op:?}");
                    assert_eq!(trace.count(*kind), count, "{kind:?} after {op:?}");
                }
                let unattributed: CategoryLedger = obs
                    .unattributed_totals()
                    .rows()
                    .map(|(kind, ns, count)| (kind.as_str(), (ns, count)))
                    .collect();
                assert_eq!(unattributed, model.unattributed, "after {op:?}");
                obs.check_attribution()
                    .unwrap_or_else(|e| panic!("{e} after {op:?}"));
                let requests = obs.requests();
                assert_eq!(requests.len(), model.finished.len(), "after {op:?}");
                for (rec, ledger) in requests.iter().zip(&model.finished) {
                    let stages: Vec<_> = rec
                        .by_stage()
                        .iter()
                        .map(|&(st, ns, n)| (st.as_str(), ns, n))
                        .collect();
                    assert_eq!(stages, roll_up(ledger), "request {} after {op:?}", rec.id);
                }
            }
        });
}
