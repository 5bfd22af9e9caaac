//! Exporters: Chrome trace-event JSON (Perfetto / `chrome://tracing`),
//! folded stacks for flamegraph tooling, and the plain-text phase
//! breakdown of the secure DMA pipeline.
//!
//! Everything here renders from integers in deterministic order, so two
//! same-seed simulations export byte-identical artifacts.

use std::collections::BTreeMap;

use crate::attr::EventKind;
use crate::span::{Obs, Span};

/// Escapes a string for a JSON string literal (labels are short ASCII,
/// but hostile names must not break the document).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Microsecond timestamp with fixed 3-digit sub-µs precision, rendered
/// from integer nanoseconds (no floating point → no rounding drift).
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders spans as a Chrome trace-event JSON document.
///
/// Every span becomes a `"ph":"X"` complete event on one thread track
/// (the simulator is a single thread of execution), so Perfetto nests
/// them by timestamps exactly as they nested at runtime. Charged spans
/// carry `"charged":1` and their kind's `"stage"` (the
/// [`crate::Stage::ALL`] index) in `args`; numeric span attributes ride
/// along unchanged.
///
/// ```
/// use hix_obs::{export::chrome_trace_json, EventKind, Obs};
/// let obs = Obs::new();
/// obs.set_recording(true);
/// obs.charged(1_500, 250, EventKind::Dma, "HtoD", &[("bytes", 4096)]);
/// let json = chrome_trace_json(&obs.spans(), "hix");
/// assert!(json.contains("\"cat\":\"dma\""));
/// assert!(json.contains("\"ts\":1.500"));
/// assert!(json.contains("\"charged\":1,\"stage\":4"));
/// ```
pub fn chrome_trace_json(spans: &[Span], process_name: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"{}\"}}}}",
        json_escape(process_name)
    ));
    out.push_str(
        ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\
         \"args\":{\"name\":\"sim\"}}",
    );
    for (idx, span) in spans.iter().enumerate() {
        out.push_str(",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1");
        out.push_str(&format!(",\"ts\":{}", ts_us(span.start_ns)));
        out.push_str(&format!(",\"dur\":{}", ts_us(span.dur_ns())));
        out.push_str(&format!(",\"cat\":\"{}\"", json_escape(span.category)));
        out.push_str(&format!(
            ",\"name\":\"{}\"",
            json_escape(span.name.as_str())
        ));
        out.push_str(&format!(",\"args\":{{\"span\":{idx}"));
        if let Some(parent) = span.parent {
            out.push_str(&format!(",\"parent\":{parent}"));
        }
        if let Some(kind) = span.kind {
            out.push_str(&format!(",\"charged\":1,\"stage\":{}", kind.stage() as u64));
        }
        for (key, value) in &span.attrs {
            out.push_str(&format!(",\"{}\":{value}", json_escape(key)));
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
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

/// One row of the secure-DMA-pipeline breakdown.
const PIPELINE_PHASES: [(&str, EventKind); 3] = [
    ("encrypt (enclave)", EventKind::EnclaveCrypto),
    ("copy (PCIe DMA)", EventKind::Dma),
    ("decrypt (on-GPU)", EventKind::GpuCrypto),
];

/// Renders the per-phase breakdown table of the secure DMA pipeline
/// (§4.4.2: seal in the enclave → DMA the sealed stream → decrypt on
/// the GPU) from the collector's charged totals.
///
/// Charges tile the clock, so each phase shows its *exposed* time: the
/// DMA and the in-GPU crypto are charged as they run, and the enclave's
/// crypto only for the remainder of the pipelined transfer that they
/// leave uncovered. Sealing work hidden behind the wire is not shown.
pub fn phase_table(obs: &Obs) -> String {
    let totals = obs.totals();
    let (pipeline_total, pipeline_spans) =
        PIPELINE_PHASES
            .iter()
            .fold((0, 0), |(ns, spans), &(_, kind)| {
                let (kind_ns, kind_spans) = totals.get(kind);
                (ns + kind_ns, spans + kind_spans)
            });
    let mut out = String::from("== secure DMA pipeline breakdown ==\n");
    out.push_str(&format!(
        "{:<20} {:>14} {:>10} {:>8}\n",
        "phase", "time", "spans", "share"
    ));
    for &(phase, kind) in &PIPELINE_PHASES {
        let (ns, count) = totals.get(kind);
        let share = if pipeline_total == 0 {
            0.0
        } else {
            ns as f64 * 100.0 / pipeline_total as f64
        };
        out.push_str(&format!(
            "{:<20} {:>14} {:>10} {:>7.1}%\n",
            phase,
            crate::fmt_ns(ns),
            count,
            share
        ));
    }
    out.push_str(&format!(
        "{:<20} {:>14} {:>10} {:>8}\n",
        "pipeline total",
        crate::fmt_ns(pipeline_total),
        pipeline_spans,
        "100.0%"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn sample_obs() -> Obs {
        let obs = Obs::new();
        obs.set_recording(true);
        let sp = obs.enter(0, "session", "memcpy_htod", &[("bytes", 4096)]);
        obs.charged(
            0,
            300,
            EventKind::EnclaveCrypto,
            "seal stream",
            &[("bytes", 4096)],
        );
        obs.charged(300, 500, EventKind::Dma, "HtoD", &[("bytes", 4096)]);
        obs.charged(800, 200, EventKind::GpuCrypto, "launch", &[]);
        obs.exit(sp, 1_000);
        obs
    }

    #[test]
    fn json_is_structurally_valid() {
        let json = chrome_trace_json(&sample_obs().spans(), "hix");
        // Balanced braces/brackets and the metadata + 4 span events.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.ends_with("\n]}\n"));
        assert!(json.contains("\"cat\":\"enclave-crypto\""));
        assert!(json.contains("\"bytes\":4096"));
        assert!(
            json.contains("\"parent\":0"),
            "children link to scope: {json}"
        );
        // The three charged spans carry their kind's stage; the
        // structural scope carries neither mark.
        assert_eq!(
            json.matches("\"charged\":1,\"stage\":").count(),
            3,
            "{json}"
        );
        assert_eq!(json.matches("\"stage\":").count(), 3, "{json}");
        assert!(
            json.contains("\"charged\":1,\"stage\":2"),
            "crypto-cpu: {json}"
        );
    }

    #[test]
    fn timestamps_are_fixed_point_microseconds() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(1_500), "1.500");
        assert_eq!(ts_us(1_000_007), "1000.007");
    }

    #[test]
    fn json_escapes_hostile_names() {
        let obs = Obs::new();
        obs.set_recording(true);
        obs.charged(0, 1, EventKind::Other, "quote\" slash\\ ctl\u{1}", &[]);
        let json = chrome_trace_json(&obs.spans(), "p");
        assert!(json.contains("quote\\\" slash\\\\ ctl\\u0001"), "{json}");
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_obs();
        let b = sample_obs();
        assert_eq!(
            chrome_trace_json(&a.spans(), "hix"),
            chrome_trace_json(&b.spans(), "hix")
        );
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(phase_table(&a), phase_table(&b));
    }

    #[test]
    fn phase_table_shares_sum_to_100() {
        let table = phase_table(&sample_obs());
        assert!(table.contains("encrypt (enclave)"), "{table}");
        assert!(table.contains("30.0%"), "{table}");
        assert!(table.contains("50.0%"), "{table}");
        assert!(table.contains("20.0%"), "{table}");
        assert!(table.contains("pipeline total"), "{table}");
        assert!(
            table.contains("1.00 µs") || table.contains("1000 ns"),
            "{table}"
        );
    }

    #[test]
    fn empty_pipeline_renders_zero_shares() {
        let table = phase_table(&Obs::new());
        assert!(table.contains("0.0%"), "{table}");
    }

    #[test]
    fn folded_stacks_aggregate_and_sanitize() {
        let obs = Obs::new();
        obs.set_recording(true);
        let scope = obs.enter(0, "session", "memcpy htod", &[]);
        obs.charged(0, 30, EventKind::EnclaveCrypto, "seal (pipelined)", &[]);
        obs.charged(30, 50, EventKind::Dma, "HtoD", &[]);
        obs.charged(80, 20, EventKind::Dma, "HtoD", &[]);
        obs.exit(scope, 100);
        let folded = folded_stacks(&obs.spans(), "hix");
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "{folded}");
        assert!(
            lines.contains(&"hix;memcpy_htod;dma:HtoD 70"),
            "repeat paths aggregate: {folded}"
        );
        assert!(
            lines.contains(&"hix;memcpy_htod;enclave-crypto:seal_(pipelined) 30"),
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
            obs.charged(0, 5, EventKind::Ipc, "send", &[]);
            obs.charged(5, 7, EventKind::Dma, "HtoD", &[]);
            folded_stacks(&obs.spans(), "p")
        };
        assert_eq!(build(), build());
    }
}
