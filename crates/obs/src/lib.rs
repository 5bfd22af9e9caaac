//! # hix-obs — deterministic observability for the simulated stack
//!
//! The whole simulator is single-threaded and driven by a virtual clock,
//! so observability can be exact: every span is stamped from the
//! deterministic clock, collectors keep insertion order, and exports are
//! rendered from integers only. Two same-seed runs therefore produce
//! **byte-identical** traces, snapshots, and Perfetto JSON.
//!
//! Three pieces:
//!
//! * [`Obs`] — a span collector with two span flavors:
//!   *charged* spans (a duration spent on an [`EventKind`] — these feed
//!   the per-kind [`Ledger`] that `hix_sim::trace` exposes, and roll up
//!   into serving [`Stage`]s) and *structural* spans (hierarchical
//!   enter/exit scopes that give the Perfetto timeline its nesting
//!   without double-counting any time).
//! * [`Metrics`] — a registry of counters (typed by [`Counter`]), gauges,
//!   and fixed-bucket histograms with a stable text [`Metrics::snapshot`].
//! * [`export`] — Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`), folded stacks for flamegraph tooling, and a
//!   plain-text phase-breakdown table for the secure DMA pipeline.
//!
//! Request-scoped attribution ([`attr`]) rides on the charged spans: the
//! simulator's charges tile its clock, so a request's charged total is
//! its service time and equals its end-to-end window.
//!
//! This crate sits below `hix-sim` in the dependency graph, so all
//! timestamps here are raw `u64` nanoseconds of virtual time.
//!
//! ```
//! use hix_obs::{EventKind, Obs};
//! let obs = Obs::new();
//! obs.set_recording(true);
//! let sp = obs.enter(0, "session", "memcpy", &[("bytes", 4096)]);
//! obs.charged(10, 90, EventKind::Dma, "HtoD", &[("bytes", 4096)]);
//! obs.exit(sp, 120);
//! assert_eq!(obs.totals().get(EventKind::Dma), (90, 1));
//! assert_eq!(obs.category_ns("dma"), 90);
//! assert_eq!(obs.spans().len(), 2);
//! ```

#![warn(missing_docs)]

pub mod attr;
pub mod export;
pub mod metrics;
mod span;

pub use attr::{
    slo_table, EventKind, Ledger, RequestId, RequestRecord, SloRow, Stage, SLO_TENANTS_MAX,
};
pub use export::{chrome_trace_json, folded_stacks, phase_table};
pub use metrics::{Counter, Hist, Metrics, COUNT_BOUNDS, LATENCY_BOUNDS_NS};
pub use span::{Obs, Span, SpanId};

/// The workspace's one percentile convention (the SLO tables, the
/// ledgers and `hix_testkit::bench` all use it): nearest-rank on an already **sorted** slice,
/// `sorted[(len * pct / 100).min(len - 1)]`. `pct` 50 is the median
/// (`sorted[len / 2]`), 0 the minimum, 100 the maximum. Returns `None`
/// on an empty slice.
///
/// ```
/// assert_eq!(hix_obs::percentile_sorted(&[1, 2, 3, 4], 50), Some(3));
/// assert_eq!(hix_obs::percentile_sorted(&[1, 2, 3, 4], 95), Some(4));
/// assert_eq!(hix_obs::percentile_sorted(&[], 50), None);
/// ```
pub fn percentile_sorted(sorted: &[u64], pct: u32) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = (sorted.len() * pct as usize / 100).min(sorted.len() - 1);
    Some(sorted[idx])
}

/// Per-mille variant of [`percentile_sorted`] for tail percentiles the
/// percent grid cannot express: `pm` 999 is p99.9, 500 the median.
/// Same nearest-rank convention, `sorted[(len * pm / 1000).min(len - 1)]`
/// on an already **sorted** slice; `None` on an empty one.
///
/// ```
/// let v: Vec<u64> = (0..2000).collect();
/// assert_eq!(hix_obs::percentile_sorted_pm(&v, 999), Some(1998));
/// assert_eq!(hix_obs::percentile_sorted_pm(&v, 500), hix_obs::percentile_sorted(&v, 50));
/// ```
pub fn percentile_sorted_pm(sorted: &[u64], pm: u32) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = (sorted.len() * pm as usize / 1000).min(sorted.len() - 1);
    Some(sorted[idx])
}

/// Renders a nanosecond count with a human-scale unit (shared by the
/// bench harnesses so all reports format alike).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_bench_convention() {
        // Mirrors testkit::bench: median = sorted[len/2],
        // p95 = sorted[(len*95/100).min(len-1)].
        for len in 1..40usize {
            let v: Vec<u64> = (0..len as u64).collect();
            assert_eq!(percentile_sorted(&v, 50), Some(v[len / 2]));
            assert_eq!(
                percentile_sorted(&v, 95),
                Some(v[(len * 95 / 100).min(len - 1)])
            );
            assert_eq!(percentile_sorted(&v, 0), Some(0));
            assert_eq!(percentile_sorted(&v, 100), Some(len as u64 - 1));
        }
    }

    #[test]
    fn per_mille_percentile_agrees_with_percent_grid() {
        for len in 1..40usize {
            let v: Vec<u64> = (0..len as u64).collect();
            for pct in [0u32, 50, 95, 100] {
                assert_eq!(
                    percentile_sorted_pm(&v, pct * 10),
                    percentile_sorted(&v, pct),
                    "len {len} pct {pct}"
                );
            }
            assert_eq!(
                percentile_sorted_pm(&v, 999),
                Some(v[(len * 999 / 1000).min(len - 1)])
            );
        }
        assert_eq!(percentile_sorted_pm(&[], 999), None);
        // p99.9 only separates from p99 past 1000 samples — the whole
        // point of the per-mille grid for 10k-session tails.
        let v: Vec<u64> = (0..10_000).collect();
        assert_eq!(percentile_sorted_pm(&v, 990), Some(9_900));
        assert_eq!(percentile_sorted_pm(&v, 999), Some(9_990));
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(123), "123 ns");
        assert_eq!(fmt_ns(45_000), "45.00 µs");
        assert_eq!(fmt_ns(12_000_000), "12.00 ms");
    }
}
