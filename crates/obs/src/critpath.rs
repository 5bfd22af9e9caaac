//! Critical-path profiling over a request's charged intervals, plus a
//! folded-stacks exporter for flamegraph tooling.
//!
//! Charged spans can overlap in virtual time — the secure DMA pipeline
//! deliberately overlaps enclave crypto with wire time — so summing a
//! request's charges can exceed its end-to-end latency. The *critical
//! path* is the longest chain of **non-overlapping** charged intervals
//! inside the request window: a lower bound on how long the request had
//! to take given the work it did, and therefore the principled
//! "service time". The end-to-end remainder (`e2e − critical path`) is
//! queueing/blocked time, and is ≥ 0 by construction because every
//! interval is clamped to the request window before the chain search.
//!
//! The chain search is the classic weighted-interval-scheduling dynamic
//! program (sort by end, binary-search the rightmost compatible
//! predecessor), `O(n log n)` per request.

use crate::attr::{ChargedInterval, RequestRecord};
use crate::span::Span;
use std::collections::BTreeMap;

/// Intervals of `rec`, clamped to the request window `[start, end]`,
/// with empty results dropped. The DP runs over these, which is what
/// guarantees `critical_path_ns(rec) <= rec.e2e_ns()`.
fn clamped(rec: &RequestRecord) -> Vec<ChargedInterval> {
    rec.intervals
        .iter()
        .filter_map(|iv| {
            let start = iv.start_ns.max(rec.start_ns).min(rec.end_ns);
            let end = iv.end_ns().max(rec.start_ns).min(rec.end_ns);
            (end > start).then_some(ChargedInterval {
                start_ns: start,
                dur_ns: end - start,
                kind: iv.kind,
            })
        })
        .collect()
}

/// The longest non-overlapping chain of charged intervals within the
/// request window, as the list of chosen intervals in time order.
pub fn critical_chain(rec: &RequestRecord) -> Vec<ChargedInterval> {
    let mut ivs = clamped(rec);
    if ivs.is_empty() {
        return Vec::new();
    }
    ivs.sort_by_key(|iv| (iv.end_ns(), iv.start_ns));
    // p[i]: number of intervals (prefix length) ending at or before
    // ivs[i].start_ns — the DP state a chain through i can extend.
    let ends: Vec<u64> = ivs.iter().map(|iv| iv.end_ns()).collect();
    let n = ivs.len();
    let mut best = vec![0u64; n + 1]; // best[k]: max weight using first k intervals
    let mut take = vec![false; n];
    for i in 0..n {
        let pred = ends[..i].partition_point(|&e| e <= ivs[i].start_ns);
        let with = best[pred] + ivs[i].dur_ns;
        if with > best[i] {
            best[i + 1] = with;
            take[i] = true;
        } else {
            best[i + 1] = best[i];
        }
    }
    // Walk back through the take decisions to recover the chain.
    let mut chain = Vec::new();
    let mut i = n;
    while i > 0 {
        if take[i - 1] && best[i] != best[i - 1] {
            chain.push(ivs[i - 1]);
            i = ends[..i - 1].partition_point(|&e| e <= ivs[i - 1].start_ns);
        } else {
            i -= 1;
        }
    }
    chain.reverse();
    chain
}

/// Length of the critical path in nanoseconds. Always
/// `<= rec.e2e_ns()`.
pub fn critical_path_ns(rec: &RequestRecord) -> u64 {
    critical_chain(rec).iter().map(|iv| iv.dur_ns).sum()
}

/// Sanitizes a frame name for the folded-stacks format: `;` separates
/// frames and the final space separates the weight, so both are
/// replaced in names.
fn frame(name: &str) -> String {
    name.replace([';', ' '], "_")
}

/// Renders recorded spans as folded stacks — one line per distinct
/// call path, `root;scope;…;leaf weight`, sorted lexicographically —
/// the input format of Brendan Gregg's `flamegraph.pl` and of
/// speedscope's "folded" importer.
///
/// Structural spans contribute path frames; charged spans contribute
/// their duration as the leaf weight, with the leaf frame spelled
/// `kind:name` so pipeline stages stay distinguishable in the graph.
/// Total weight equals total charged nanoseconds.
pub fn folded_stacks(spans: &[Span], root: &str) -> String {
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for span in spans {
        let Some(kind) = span.kind else { continue };
        let mut path = vec![format!("{kind}:{}", frame(&span.name))];
        let mut parent = span.parent;
        while let Some(idx) = parent {
            let p = &spans[idx as usize];
            path.push(frame(&p.name));
            parent = p.parent;
        }
        path.push(frame(root));
        path.reverse();
        *weights.entry(path.join(";")).or_insert(0) += span.dur_ns();
    }
    let mut out = String::new();
    for (path, weight) in weights {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Ledger, Obs};
    use EventKind::*;

    fn rec_with(intervals: Vec<(u64, u64, EventKind)>, start: u64, end: u64) -> RequestRecord {
        RequestRecord {
            id: 1,
            tenant: 1,
            name: "op".into(),
            start_ns: start,
            end_ns: end,
            by_kind: Ledger::default(),
            intervals: intervals
                .into_iter()
                .map(|(s, d, kind)| ChargedInterval { start_ns: s, dur_ns: d, kind })
                .collect(),
        }
    }

    #[test]
    fn empty_request_has_zero_critical_path() {
        let rec = rec_with(vec![], 0, 100);
        assert_eq!(critical_path_ns(&rec), 0);
        assert!(critical_chain(&rec).is_empty());
    }

    #[test]
    fn disjoint_chain_sums_everything() {
        let rec = rec_with(vec![(0, 10, Mmio), (10, 20, Dma), (40, 5, Kernel)], 0, 50);
        assert_eq!(critical_path_ns(&rec), 35);
        assert_eq!(critical_chain(&rec).len(), 3);
    }

    #[test]
    fn overlapping_intervals_pick_the_heavier_chain() {
        // [0,30) weight 30 overlaps both [0,10) and [10,25); the chain
        // 10+15=25 loses to the single 30.
        let rec = rec_with(vec![(0, 10, Mmio), (10, 15, Dma), (0, 30, Kernel)], 0, 40);
        assert_eq!(critical_path_ns(&rec), 30);
        let chain = critical_chain(&rec);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].kind, Kernel);
    }

    #[test]
    fn pipelined_overlap_beats_wall_clock_sum() {
        // Classic pipeline: crypto [0,60) and DMA [20,100) overlap.
        // Charged sum 140 > e2e 100; critical path picks the best
        // non-overlapping chain: dma alone (80) beats crypto alone (60)
        // and they can't chain.
        let rec = rec_with(vec![(0, 60, EnclaveCrypto), (20, 80, Dma)], 0, 100);
        assert_eq!(critical_path_ns(&rec), 80);
    }

    #[test]
    fn chain_is_bounded_by_e2e_even_with_stray_intervals() {
        // Intervals leaking past the window are clamped, so the path
        // can never exceed the request's end-to-end latency.
        let rec = rec_with(vec![(0, 500, Mmio), (90, 500, Dma)], 100, 200);
        let path = critical_path_ns(&rec);
        assert!(path <= rec.e2e_ns(), "{path} > {}", rec.e2e_ns());
        assert_eq!(path, 100, "one fully-clamped interval covers the window");
    }

    #[test]
    fn tie_between_chains_is_deterministic() {
        let rec = rec_with(vec![(0, 10, Mmio), (0, 10, Dma)], 0, 10);
        let a = critical_chain(&rec);
        let b = critical_chain(&rec);
        assert_eq!(a, b);
        assert_eq!(critical_path_ns(&rec), 10);
    }

    #[test]
    fn folded_stacks_aggregate_and_sanitize() {
        let obs = Obs::new();
        obs.set_recording(true);
        let scope = obs.enter(0, "session", "memcpy htod", &[]);
        obs.charged(0, 30, EnclaveCrypto, "seal stream", &[]);
        obs.charged(30, 50, Dma, "HtoD", &[]);
        obs.charged(80, 20, Dma, "HtoD", &[]);
        obs.exit(scope, 100);
        let folded = folded_stacks(&obs.spans(), "hix");
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "{folded}");
        assert!(
            lines.contains(&"hix;memcpy_htod;dma:HtoD 70"),
            "repeat paths aggregate: {folded}"
        );
        assert!(
            lines.contains(&"hix;memcpy_htod;enclave-crypto:seal_stream 30"),
            "spaces sanitized: {folded}"
        );
        let total: u64 = lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 100, "weights tile the charged time");
    }

    #[test]
    fn folded_stacks_are_deterministic() {
        let build = || {
            let obs = Obs::new();
            obs.set_recording(true);
            obs.charged(0, 5, Ipc, "send", &[]);
            obs.charged(5, 7, Dma, "HtoD", &[]);
            folded_stacks(&obs.spans(), "p")
        };
        assert_eq!(build(), build());
    }
}
