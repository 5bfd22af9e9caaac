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

    /// Records a charged span ending at `at` without moving the clock:
    /// `fault::record`'s markers, and the runtime's recording-only seal
    /// and unseal spans, which ROADMAP item 6 step 2 removes.
    pub fn emit(&self, at: Nanos, duration: Nanos, kind: EventKind, label: impl Into<String>) {
        self.emit_with(at, duration, kind, label, &[]);
    }

    /// [`Trace::emit`] with numeric span attributes.
    pub fn emit_with(
        &self,
        at: Nanos,
        duration: Nanos,
        kind: EventKind,
        label: impl Into<String>,
        attrs: &[(&'static str, u64)],
    ) {
        // `at` is the completion time; the span starts `duration` earlier.
        let start = at.as_nanos().saturating_sub(duration.as_nanos());
        self.obs
            .charged(start, duration.as_nanos(), kind, label, attrs);
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

    #[test]
    fn totals_accumulate_without_recording() {
        let t = Trace::new();
        t.emit(Nanos::ZERO, Nanos::from_nanos(10), EventKind::Mmio, "w");
        t.emit(Nanos::ZERO, Nanos::from_nanos(5), EventKind::Mmio, "w");
        t.emit(Nanos::ZERO, Nanos::from_nanos(7), EventKind::Dma, "d");
        assert_eq!(t.total(EventKind::Mmio).as_nanos(), 15);
        assert_eq!(t.count(EventKind::Mmio), 2);
        assert_eq!(t.total(EventKind::Dma).as_nanos(), 7);
        assert_eq!(t.total(EventKind::Kernel), Nanos::ZERO);
        assert!(t.obs().spans().is_empty(), "recording is off by default");
    }

    #[test]
    fn recording_captures_events() {
        let t = Trace::new();
        t.set_recording(true);
        t.emit(
            Nanos::from_nanos(3),
            Nanos::from_nanos(2),
            EventKind::Ipc,
            "req",
        );
        let spans = t.obs().spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "req");
        assert_eq!(spans[0].kind, Some(EventKind::Ipc));
        assert_eq!(spans[0].end_ns, 3, "completion time preserved");
        assert_eq!(spans[0].dur_ns(), 2);
    }

    #[test]
    fn clear_resets() {
        let t = Trace::new();
        t.emit(Nanos::ZERO, Nanos::from_nanos(1), EventKind::Other, "x");
        t.clear();
        assert_eq!(t.total(EventKind::Other), Nanos::ZERO);
        assert_eq!(t.count(EventKind::Other), 0);
    }

    #[test]
    fn summary_lists_categories() {
        let t = Trace::new();
        t.emit(Nanos::ZERO, Nanos::from_micros(3), EventKind::Kernel, "k");
        t.emit(Nanos::ZERO, Nanos::from_micros(9), EventKind::Dma, "d");
        let s = t.summary();
        let dma_pos = s.find("dma").unwrap();
        let k_pos = s.find("kernel").unwrap();
        assert!(dma_pos < k_pos, "sorted by descending total: {s}");
    }

    #[test]
    fn shared_between_clones() {
        let a = Trace::new();
        let b = a.clone();
        a.emit(Nanos::ZERO, Nanos::from_nanos(4), EventKind::Init, "i");
        assert_eq!(b.total(EventKind::Init).as_nanos(), 4);
    }

    #[test]
    fn emit_feeds_latency_histogram_and_snapshot() {
        let t = Trace::new();
        t.emit(
            Nanos::from_micros(2),
            Nanos::from_micros(2),
            EventKind::Dma,
            "d",
        );
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
        let (clock, t) = (Clock::new(), Trace::new());
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
    fn emit_with_attaches_attrs() {
        let t = Trace::new();
        t.set_recording(true);
        t.emit_with(
            Nanos::from_nanos(8),
            Nanos::from_nanos(8),
            EventKind::Dma,
            "HtoD",
            &[("bytes", 4096)],
        );
        let spans = t.obs().spans();
        assert_eq!(spans[0].attrs, vec![("bytes", 4096)]);
    }
}
