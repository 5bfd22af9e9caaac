//! Event tracing for debugging and per-kind time accounting.
//!
//! This module is a thin facade over [`hix_obs`]: every [`Trace::charge`]
//! advances the [`Clock`] and becomes a *charged* span of its
//! [`EventKind`] over the interval it advanced, in the underlying
//! [`Obs`] collector (feeding the per-kind totals and latency
//! histograms). The collector additionally carries *structural* spans
//! and a metrics registry that instrumented subsystems use directly.
//! Reach them through [`Trace::obs`] and [`Trace::metrics`]; recorded
//! spans, charged and structural, are [`Obs::spans`].

use hix_obs::{Metrics, Obs};

use crate::time::{Clock, Nanos};

pub use hix_obs::EventKind;

/// A shared, cheaply clonable event trace.
///
/// Recording of spans is off by default (accounting totals are always
/// kept); enable with [`Trace::set_recording`] when debugging.
///
/// ```
/// use hix_sim::{Clock, EventKind, Nanos, Trace};
/// let (clock, t) = (Clock::new(), Trace::new());
/// t.charge(&clock, Nanos::from_micros(1), EventKind::Dma, "HtoD");
/// assert_eq!(clock.now(), Nanos::from_micros(1));
/// assert_eq!(t.total(EventKind::Dma), Nanos::from_micros(1));
/// assert_eq!(t.obs().category_ns("dma"), 1_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    obs: Obs,
}

impl Trace {
    /// Creates an empty trace with recording disabled.
    pub fn new() -> Self {
        Trace::default()
    }

    /// The underlying span collector (structural spans, exports).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The metrics registry shared with the span collector.
    pub fn metrics(&self) -> &Metrics {
        self.obs.metrics()
    }

    /// Enables or disables span recording.
    pub fn set_recording(&self, on: bool) {
        self.obs.set_recording(on);
    }

    /// Advances `clock` by `dt` and charges the span `[before, after]` to
    /// `kind`: the one way time moves by a duration (a zero `dt` is a
    /// marker). `label` becomes a `String` only while recording.
    pub fn charge(&self, clock: &Clock, dt: Nanos, kind: EventKind, label: impl Into<String>) {
        self.charge_with(clock, dt, kind, label, &[]);
    }

    /// [`Trace::charge`] with numeric span attributes (bytes, ids…).
    pub fn charge_with(
        &self,
        clock: &Clock,
        dt: Nanos,
        kind: EventKind,
        label: impl Into<String>,
        attrs: &[(&'static str, u64)],
    ) {
        let start = clock.now().as_nanos();
        clock.advance(dt);
        self.obs.charged(start, dt.as_nanos(), kind, label, attrs);
    }

    /// Charges the remainder up to `until` to `kind`: one span
    /// `[now, until]` when `until` lies ahead of `clock`, nothing
    /// otherwise. This is how a closed-form completion time (a pipelined
    /// transfer's floor) becomes a charge of the time the charged work
    /// before it left uncovered.
    pub fn charge_until(
        &self,
        clock: &Clock,
        until: Nanos,
        kind: EventKind,
        label: impl Into<String>,
    ) {
        let now = clock.now();
        if until > now {
            self.charge(clock, until - now, kind, label);
        }
    }

    /// Total time charged to `kind` so far.
    pub fn total(&self, kind: EventKind) -> Nanos {
        Nanos::from_nanos(self.obs.totals().get(kind).0)
    }

    /// Number of events charged to `kind` so far.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.obs.totals().get(kind).1
    }

    /// Clears events, totals, structural spans, and metrics.
    pub fn clear(&self) {
        self.obs.clear();
    }

    /// Renders an accounting summary sorted by descending total time.
    pub fn summary(&self) -> String {
        let mut rows: Vec<_> = self.obs.totals().rows().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        let mut out = String::new();
        for (kind, total, count) in rows {
            out.push_str(&format!(
                "{kind:>16}: {} ({count} events)\n",
                Nanos::from_nanos(total)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh trace and the clock it charges.
    fn rig() -> (Clock, Trace) {
        (Clock::new(), Trace::new())
    }

    #[test]
    fn totals_accumulate_without_recording() {
        let (clock, t) = rig();
        t.charge(&clock, Nanos::from_nanos(10), EventKind::Mmio, "w");
        t.charge(&clock, Nanos::from_nanos(5), EventKind::Mmio, "w");
        t.charge(&clock, Nanos::from_nanos(7), EventKind::Dma, "d");
        assert_eq!(t.total(EventKind::Mmio).as_nanos(), 15);
        assert_eq!(t.count(EventKind::Mmio), 2);
        assert_eq!(t.total(EventKind::Dma).as_nanos(), 7);
        assert_eq!(t.total(EventKind::Kernel), Nanos::ZERO);
        assert!(t.obs().spans().is_empty(), "recording is off by default");
    }

    #[test]
    fn recording_captures_events() {
        let (clock, t) = rig();
        t.set_recording(true);
        clock.advance(Nanos::from_nanos(1));
        t.charge(&clock, Nanos::from_nanos(2), EventKind::Ipc, "req");
        let spans = t.obs().spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "req");
        assert_eq!(spans[0].kind, Some(EventKind::Ipc));
        assert_eq!(spans[0].end_ns, 3, "completion time preserved");
        assert_eq!(spans[0].dur_ns(), 2);
    }

    #[test]
    fn clear_resets() {
        let (clock, t) = rig();
        t.charge(&clock, Nanos::from_nanos(1), EventKind::Other, "x");
        t.clear();
        assert_eq!(t.total(EventKind::Other), Nanos::ZERO);
        assert_eq!(t.count(EventKind::Other), 0);
    }

    #[test]
    fn summary_lists_categories() {
        let (clock, t) = rig();
        t.charge(&clock, Nanos::from_micros(3), EventKind::Kernel, "k");
        t.charge(&clock, Nanos::from_micros(9), EventKind::Dma, "d");
        let s = t.summary();
        let dma_pos = s.find("dma").unwrap();
        let k_pos = s.find("kernel").unwrap();
        assert!(dma_pos < k_pos, "sorted by descending total: {s}");
    }

    #[test]
    fn shared_between_clones() {
        let (clock, a) = rig();
        let b = a.clone();
        a.charge(&clock, Nanos::from_nanos(4), EventKind::Init, "i");
        assert_eq!(b.total(EventKind::Init).as_nanos(), 4);
    }

    #[test]
    fn charge_feeds_latency_histogram_and_snapshot() {
        let (clock, t) = rig();
        t.charge(&clock, Nanos::from_micros(2), EventKind::Dma, "d");
        let h = t
            .metrics()
            .span_latency(EventKind::Dma)
            .expect("histogram exists");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 2_000);
        let snap = t.obs().snapshot();
        assert!(snap.contains("span.ns.dma 2000"), "{snap}");
        // The snapshot reconciles with the legacy accounting by
        // construction: same accumulator.
        assert_eq!(t.total(EventKind::Dma).as_nanos(), 2_000);
    }

    #[test]
    fn charge_advances_and_records_the_interval() {
        let (clock, t) = rig();
        t.set_recording(true);
        t.charge(&clock, Nanos::from_nanos(5), EventKind::Mmio, "read");
        t.charge_with(&clock, Nanos::ZERO, EventKind::Security, "m", &[("x", 1)]);
        t.charge(&clock, Nanos::from_nanos(7), EventKind::Dma, "d");
        assert_eq!(clock.now().as_nanos(), 12);
        let spans: Vec<_> = t
            .obs()
            .spans()
            .iter()
            .map(|s| (s.start_ns, s.end_ns, s.kind))
            .collect();
        assert_eq!(
            spans,
            [
                (0, 5, Some(EventKind::Mmio)),
                (5, 5, Some(EventKind::Security)),
                (5, 12, Some(EventKind::Dma)),
            ]
        );
        assert_eq!(t.count(EventKind::Security), 1);
    }

    #[test]
    fn charge_with_attaches_attrs() {
        let (clock, t) = rig();
        t.set_recording(true);
        t.charge_with(
            &clock,
            Nanos::from_nanos(8),
            EventKind::Dma,
            "HtoD",
            &[("bytes", 4096)],
        );
        let spans = t.obs().spans();
        assert_eq!(spans[0].attrs, vec![("bytes", 4096)]);
    }

    #[test]
    fn charge_until_charges_only_the_remainder() {
        let (clock, t) = rig();
        t.set_recording(true);
        t.charge(&clock, Nanos::from_nanos(100), EventKind::Dma, "wire");
        // At or behind the clock: nothing moves and nothing is charged.
        for until in [50, 100] {
            t.charge_until(
                &clock,
                Nanos::from_nanos(until),
                EventKind::EnclaveCrypto,
                "floor",
            );
        }
        assert_eq!(clock.now().as_nanos(), 100);
        assert_eq!(t.count(EventKind::EnclaveCrypto), 0);
        // Ahead of it: exactly the remainder, as one span.
        t.charge_until(
            &clock,
            Nanos::from_nanos(150),
            EventKind::EnclaveCrypto,
            "floor",
        );
        assert_eq!(clock.now().as_nanos(), 150);
        assert_eq!(t.total(EventKind::EnclaveCrypto).as_nanos(), 50);
        assert_eq!(t.count(EventKind::EnclaveCrypto), 1);
        let last = t.obs().spans().pop().expect("recorded");
        assert_eq!((last.start_ns, last.end_ns), (100, 150));
    }
}
