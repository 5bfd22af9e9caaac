//! The span collector: charged spans for per-kind time accounting,
//! structural spans for hierarchy.

use std::cell::RefCell;
use std::rc::Rc;

use crate::attr::{EventKind, Ledger};
use crate::metrics::Metrics;

/// Sentinel for "this span was not recorded" (recording disabled at
/// `enter`); `exit` on it is a no-op.
const NOT_RECORDED: u32 = u32::MAX;

/// End timestamp of a still-open structural span.
const OPEN: u64 = u64::MAX;

/// Handle returned by [`Obs::enter`], consumed by [`Obs::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One completed (or still-open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the parent span in the collector, if any.
    pub parent: Option<u32>,
    /// Category: the kind's name for charged spans, a grouping label
    /// for structural ones. Always a static string so traces stay
    /// allocation-light and deterministic.
    pub category: &'static str,
    /// Human-readable name.
    pub name: String,
    /// Virtual-time start, nanoseconds.
    pub start_ns: u64,
    /// Virtual-time end, nanoseconds (`u64::MAX` while open).
    pub end_ns: u64,
    /// What a charged span's duration was spent on; `None` for a
    /// structural span, which charges nothing.
    pub kind: Option<EventKind>,
    /// Numeric attributes (bytes moved, enclave id, BDF…).
    pub attrs: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in nanoseconds (zero while open).
    pub fn dur_ns(&self) -> u64 {
        if self.end_ns == OPEN {
            0
        } else {
            self.end_ns - self.start_ns
        }
    }

    /// Whether the span is still open (missing `exit`, e.g. because an
    /// instrumented operation aborted with an error).
    pub fn is_open(&self) -> bool {
        self.end_ns == OPEN
    }
}

#[derive(Debug, Default)]
pub(crate) struct ObsInner {
    pub(crate) spans: Vec<Span>,
    /// Stack of indices of open structural spans (single thread of
    /// execution — matches the simulator's determinism model).
    pub(crate) open: Vec<u32>,
    pub(crate) recording: bool,
    /// Charged totals per kind. Always maintained, even when span
    /// recording is off, so accounting stays cheap and exact.
    pub(crate) totals: Ledger,
    /// Request-scoped attribution ledgers (see [`crate::attr`]).
    pub(crate) attr: crate::attr::AttrState,
}

/// The shared, cheaply clonable span collector.
///
/// Charged-span totals are always accumulated; full span recording (for
/// export) is off until [`Obs::set_recording`] enables it — mirroring
/// the legacy `hix_sim::trace::Trace` behavior it now backs.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Rc<RefCell<ObsInner>>,
    metrics: Metrics,
}

impl Obs {
    /// Creates an empty collector with recording disabled.
    pub fn new() -> Self {
        Obs::default()
    }

    /// The metrics registry riding along with this collector.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Runs `f` with the inner state mutably borrowed (crate-internal:
    /// the attribution module lives in `attr.rs` but shares this
    /// collector's state). `f` must not call back into `Obs` methods.
    pub(crate) fn with_inner<R>(&self, f: impl FnOnce(&mut ObsInner) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }

    /// Enables or disables full span recording.
    pub fn set_recording(&self, on: bool) {
        self.inner.borrow_mut().recording = on;
    }

    /// Whether full span recording is enabled.
    pub fn recording(&self) -> bool {
        self.inner.borrow().recording
    }

    /// Records a **charged** complete span: `dur_ns` of virtual time
    /// spent on `kind`, parented under the innermost open structural
    /// span. The kind's total and latency histogram are always updated;
    /// the span itself is stored only while recording.
    pub fn charged(
        &self,
        start_ns: u64,
        dur_ns: u64,
        kind: EventKind,
        name: impl Into<String>,
        attrs: &[(&'static str, u64)],
    ) {
        let mut inner = self.inner.borrow_mut();
        inner.totals.add(kind, dur_ns);
        inner.attr.on_charged(start_ns, dur_ns, kind);
        self.metrics.observe_span_latency(kind, dur_ns);
        if inner.recording {
            let parent = inner.open.last().copied();
            let mut attrs = attrs.to_vec();
            if let Some(req) = inner.attr.current_id() {
                attrs.push(("req", req));
            }
            inner.spans.push(Span {
                parent,
                category: kind.as_str(),
                name: name.into(),
                start_ns,
                end_ns: start_ns + dur_ns,
                kind: Some(kind),
                attrs,
            });
        }
    }

    /// Opens a **structural** span: a hierarchy scope that shows up in
    /// the exported timeline but never contributes to the totals
    /// (its children carry the charged time). Returns a handle for
    /// [`Obs::exit`]. A no-op handle is returned while recording is off.
    pub fn enter(
        &self,
        now_ns: u64,
        category: &'static str,
        name: impl Into<String>,
        attrs: &[(&'static str, u64)],
    ) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        if !inner.recording {
            return SpanId(NOT_RECORDED);
        }
        let idx = inner.spans.len() as u32;
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            parent,
            category,
            name: name.into(),
            start_ns: now_ns,
            end_ns: OPEN,
            kind: None,
            attrs: attrs.to_vec(),
        });
        inner.open.push(idx);
        SpanId(idx)
    }

    /// Closes a structural span at `now_ns`. Tolerant of out-of-order
    /// exits (closes everything opened after `span` too, so an
    /// instrumented error path can't wedge the stack).
    pub fn exit(&self, span: SpanId, now_ns: u64) {
        if span.0 == NOT_RECORDED {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        while let Some(idx) = inner.open.pop() {
            let end = now_ns.max(inner.spans[idx as usize].start_ns);
            inner.spans[idx as usize].end_ns = end;
            if idx == span.0 {
                break;
            }
        }
    }

    /// Snapshot of all recorded spans, in creation order. Still-open
    /// structural spans (e.g. abandoned by an error path) are closed at
    /// the latest end time seen, so exports are always well-formed.
    pub fn spans(&self) -> Vec<Span> {
        let inner = self.inner.borrow();
        let horizon = inner
            .spans
            .iter()
            .filter(|s| !s.is_open())
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(0);
        inner
            .spans
            .iter()
            .map(|s| {
                let mut s = s.clone();
                if s.is_open() {
                    s.end_ns = horizon.max(s.start_ns);
                }
                s
            })
            .collect()
    }

    /// Total charged nanoseconds for the kind named `category` (zero if
    /// never charged or not a kind's name).
    pub fn category_ns(&self, category: &str) -> u64 {
        self.category(category).0
    }

    /// Number of charged spans for the kind named `category`.
    pub fn category_count(&self, category: &str) -> u64 {
        self.category(category).1
    }

    /// `(ns, spans)` of the kind named `category`: the name is resolved
    /// to a kind once, then read off the totals.
    fn category(&self, category: &str) -> (u64, u64) {
        EventKind::named(category).map_or((0, 0), |kind| self.inner.borrow().totals.get(kind))
    }

    /// Charged totals per kind.
    pub fn totals(&self) -> Ledger {
        self.inner.borrow().totals
    }

    /// Renders the combined deterministic metrics snapshot: per-kind
    /// span accounting for every kind charged at least once (sorted by
    /// name) followed by the registry ([`Metrics::snapshot`]). The
    /// `span.ns.<kind>` lines are the totals behind [`Obs::category_ns`],
    /// so they reconcile exactly (±0) with `hix_sim::trace` totals.
    pub fn snapshot(&self) -> String {
        let mut rows: Vec<_> = self.totals().rows().collect();
        rows.sort_by_key(|(kind, _, _)| kind.as_str());
        let mut out = String::from("# spans\n");
        for (kind, total, count) in rows {
            out.push_str(&format!("span.count.{kind} {count}\n"));
            out.push_str(&format!("span.ns.{kind} {total}\n"));
        }
        out.push_str("# metrics\n");
        out.push_str(&self.metrics.snapshot());
        out
    }

    /// Clears spans, totals, the open stack, the attribution ledgers,
    /// and all metrics (the recording and attributing flags survive).
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.spans.clear();
        inner.open.clear();
        inner.totals = Ledger::default();
        inner.attr.clear();
        self.metrics.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use EventKind::*;

    #[test]
    fn totals_without_recording() {
        let obs = Obs::new();
        obs.charged(0, 10, Mmio, "w", &[]);
        obs.charged(10, 5, Mmio, "w", &[]);
        obs.charged(15, 7, Dma, "d", &[]);
        assert_eq!(obs.category_ns("mmio"), 15);
        assert_eq!(obs.category_count("mmio"), 2);
        assert_eq!(obs.category_ns("dma"), 7);
        assert_eq!(obs.category_ns("kernel"), 0);
        assert_eq!(obs.category_ns("no-such-kind"), 0);
        assert_eq!(obs.totals().get(Mmio), (15, 2));
        assert!(obs.spans().is_empty(), "recording off by default");
    }

    #[test]
    fn structural_spans_nest_and_do_not_charge() {
        let obs = Obs::new();
        obs.set_recording(true);
        let outer = obs.enter(0, "session", "memcpy", &[("bytes", 64)]);
        obs.charged(5, 20, Dma, "HtoD", &[]);
        let inner = obs.enter(25, "driver", "sync", &[]);
        obs.exit(inner, 30);
        obs.exit(outer, 40);
        let spans = obs.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "memcpy");
        assert_eq!(spans[0].kind, None);
        assert_eq!(spans[1].kind, Some(Dma));
        assert_eq!(spans[1].category, "dma");
        assert_eq!(spans[2].kind, None);
        assert_eq!(spans[0].dur_ns(), 40);
        assert_eq!(
            spans[1].parent,
            Some(0),
            "charged span nests under open scope"
        );
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(
            obs.category_ns("session"),
            0,
            "structural spans charge nothing"
        );
        assert_eq!(obs.category_ns("dma"), 20);
    }

    #[test]
    fn exit_unwinds_abandoned_children() {
        let obs = Obs::new();
        obs.set_recording(true);
        let outer = obs.enter(0, "a", "outer", &[]);
        let _leaked = obs.enter(1, "b", "leaked by error path", &[]);
        obs.exit(outer, 10);
        let spans = obs.spans();
        assert!(spans.iter().all(|s| !s.is_open()), "{spans:?}");
        assert_eq!(spans[0].end_ns, 10);
        assert_eq!(spans[1].end_ns, 10);
    }

    #[test]
    fn open_spans_are_closed_at_horizon_in_snapshot() {
        let obs = Obs::new();
        obs.set_recording(true);
        let _open = obs.enter(3, "a", "never exited", &[]);
        obs.charged(5, 10, Dma, "d", &[]);
        let spans = obs.spans();
        assert_eq!(spans[0].end_ns, 15, "closed at latest end seen");
    }

    #[test]
    fn noop_span_when_not_recording() {
        let obs = Obs::new();
        let sp = obs.enter(0, "a", "x", &[]);
        obs.exit(sp, 5); // must not panic or record
        assert!(obs.spans().is_empty());
    }

    #[test]
    fn snapshot_is_sorted_and_reconciles() {
        let obs = Obs::new();
        // Declared Mmio before Dma; listed by name, dma before mmio.
        obs.charged(0, 9, Mmio, "m", &[]);
        obs.charged(0, 4, Dma, "d", &[]);
        obs.metrics().inc(crate::Counter::IpcMsgs);
        let snap = obs.snapshot();
        let d = snap.find("span.ns.dma 4").expect("dma line");
        let m = snap.find("span.ns.mmio 9").expect("mmio line");
        assert!(d < m, "sorted by name: {snap}");
        assert!(
            !snap.contains("span.ns.kernel"),
            "uncharged kinds are not listed: {snap}"
        );
        assert!(snap.contains("counter ipc.msgs 1"), "{snap}");
    }

    #[test]
    fn clear_resets_everything() {
        let obs = Obs::new();
        obs.set_recording(true);
        obs.charged(0, 5, Dma, "d", &[]);
        obs.metrics().inc(crate::Counter::IpcMsgs);
        obs.clear();
        assert_eq!(obs.category_ns("dma"), 0);
        assert!(obs.spans().is_empty());
        assert_eq!(obs.metrics().counter("ipc.msgs"), 0);
        assert!(obs.recording(), "clear keeps the recording flag");
    }

    #[test]
    fn shared_between_clones() {
        let a = Obs::new();
        let b = a.clone();
        a.charged(0, 4, Init, "i", &[]);
        assert_eq!(b.category_ns("init"), 4);
    }
}
