//! The typed counter registry against a name-keyed model.
//!
//! `Metrics` keeps fixed-name counters in an array indexed by `Counter`
//! and only the run-time-named families in a map. Random sequences of
//! typed adds, named adds, gauges, histogram observations and `clear()`
//! drive both the registry and a plain `BTreeMap<String, u64>` model;
//! the snapshot text and every counter read must agree. (This lives
//! here rather than in `hix-obs`, which cannot take `hix-testkit` as a
//! dev-dependency: `hix-testkit` depends on it.)

use std::collections::{BTreeMap, BTreeSet};

use hix_obs::metrics::is_family_name;
use hix_obs::{Counter, Hist, Metrics, COUNT_BOUNDS, LATENCY_BOUNDS_NS};
use hix_testkit::prop::{prop, Source};

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
            out += &format!("hist {name} count={} sum={}", h.count(), h.sum());
            for (i, n) in h.buckets().iter().enumerate() {
                match bounds.get(i) {
                    Some(b) => out += &format!(" le{b}={n}"),
                    None => out += &format!(" inf={n}"),
                }
            }
            out.push('\n');
        }
        out
    }
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
        assert!(!is_family_name(name), "{name} collides with a run-time family");
        assert_eq!(Counter::from_name(name), Some(c), "{name} does not round-trip");
    }
    for name in FAMILY_NAMES {
        assert!(is_family_name(name), "{name}");
        assert_eq!(Counter::from_name(name), None, "{name}");
    }
}
