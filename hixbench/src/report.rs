//! Turns a [`Run`] into the named metrics the benchmark prints.

use crate::calib::NOMINAL_NS;
use crate::harness::{median, percentile, PassStat, Run, Window};
use crate::machine::{CHANNEL_COUNTERS, DEVICE_COUNTERS};
use crate::meter::OPS;
use crate::model;
use hix_sim::EventKind;

pub type Metric = (String, f64, &'static str);

const MIB: f64 = (1u64 << 20) as f64;

/// Median over the untraced passes of `f(pass)`.
fn per_pass(run: &Run, f: impl Fn(&PassStat) -> f64) -> f64 {
    let v: Vec<f64> = run.passes.iter().filter(|p| !p.traced).map(f).collect();
    median(&v)
}

/// Host seconds inside the program's calls during a pass, scaled to
/// nominal host speed by the pass's reference-kernel samples.
fn secs(p: &PassStat) -> f64 {
    p.acc.sys_ns.max(1) as f64 / 1e9 * NOMINAL_NS / p.acc.tick_ns().max(1.0)
}

/// Host peak resident set of this process, MiB (`VmHWM`, which,
/// unlike `getrusage`'s `ru_maxrss`, starts afresh at `exec`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// End-to-end metrics: host rates with tracing off, virtual figures of
/// the window.
pub fn end_to_end(run: &Run, win: &Window) -> Vec<Metric> {
    vec![
        ("setup_s".into(), median(&run.setup_s), "s"),
        (
            "host_mib_per_s".into(),
            per_pass(run, |p| p.acc.bytes as f64 / MIB / secs(p)),
            "MiB/s",
        ),
        (
            "host_ops_per_s".into(),
            per_pass(run, |p| p.acc.calls as f64 / secs(p)),
            "1/s",
        ),
        (
            "host_requests_per_s".into(),
            per_pass(run, |p| p.requests as f64 / secs(p)),
            "1/s",
        ),
        (
            "virt_makespan_ms".into(),
            win.virt.makespan_ns as f64 / 1e6,
            "ms",
        ),
        (
            "virt_setup_ms".into(),
            (win.setup_virt_ns + win.virt.setup_ns) as f64 / 1e6,
            "ms",
        ),
        (
            "virt_req_p50_us".into(),
            percentile(&win.req_virt, 50.0) as f64 / 1e3,
            "us",
        ),
        (
            "virt_req_p99_us".into(),
            percentile(&win.req_virt, 99.0) as f64 / 1e3,
            "us",
        ),
        ("fairness_ratio".into(), win.virt.fairness, "ratio"),
        ("peak_rss_mib".into(), peak_rss_mib(), "MiB"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layers whose self time is reported, by span-name prefix.
pub const SELF_LAYERS: [&str; 5] = ["request", "gen", "oracle", "runtime", "model"];

/// Per-layer metrics from the traced run. `probes` are the layer
/// probes' rows; every name is present on every workload (zero where a
/// layer is not reached).
pub fn per_layer(run: &Run, win: &Window, probes: &[Metric]) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let ops = &run.meter.ops;
    for (i, op) in OPS.iter().enumerate() {
        let (all, w) = (ops[i], win.ops[i]);
        out.push((format!("runtime.{op}.calls"), w.calls as f64, "count"));
        out.push((
            format!("runtime.{op}.host_ns"),
            ratio(all.host_ns as f64, all.calls as f64),
            "ns",
        ));
        out.push((
            format!("runtime.{op}.virt_ns"),
            ratio(w.virt_ns as f64, w.calls as f64),
            "ns",
        ));
    }
    out.extend(probes.iter().cloned());
    let probe = |name: &str| probes.iter().find(|p| p.0 == name).map_or(0.0, |p| p.1);
    let crypt_per_kib = probe("crypto.ocb_seal.ns_per_kib") + probe("crypto.ocb_open.ns_per_kib");
    for (op, i) in [("memcpy_htod", 4), ("memcpy_dtoh", 5)] {
        let s = ops[i];
        let crypto_ns = crypt_per_kib * ratio(s.bytes as f64 / 1024.0, s.calls as f64);
        out.push((
            format!("runtime.{op}.crypto_share"),
            ratio(crypto_ns, ratio(s.host_ns as f64, s.calls as f64)),
            "ratio",
        ));
    }
    let calls: u64 = win.ops.iter().map(|s| s.calls).sum();
    for c in CHANNEL_COUNTERS {
        out.push((
            format!("{c}.per_op"),
            ratio(win.counter(c) as f64, calls as f64),
            "1/op",
        ));
    }
    for kind in EventKind::ALL {
        let c = kind.as_str();
        out.push((
            format!("virt.{c}.ns"),
            win.counter(&format!("virt.{c}.ns")) as f64,
            "ns",
        ));
        out.push((
            format!("virt.{c}.count"),
            win.counter(&format!("virt.{c}.count")) as f64,
            "count",
        ));
    }
    for c in DEVICE_COUNTERS {
        let unit = if c.starts_with("dma.bytes") {
            "bytes"
        } else {
            "count"
        };
        out.push((c.to_string(), win.counter(c) as f64, unit));
    }
    let (hits, fills) = (
        win.counter("mmu.tlb_hits") as f64,
        win.counter("mmu.tlb_fills_checked") as f64,
    );
    out.push((
        "mmu.tlb_hit_ratio".into(),
        ratio(hits, hits + fills),
        "ratio",
    ));
    out.push(("mmu.tlb_lookups".into(), hits + fills, "count"));
    for c in model::COUNTERS {
        out.push((c.to_string(), win.counter(c) as f64, "count"));
    }
    let is_model = win.counter("sched.slices") > 0;
    let model_ns = if is_model {
        per_pass(run, |p| p.acc.sys_ns as f64)
    } else {
        0.0
    };
    out.push(("model.run_scaled.host_ns".into(), model_ns, "ns"));
    let per_slice = if is_model {
        per_pass(run, |p| ratio(p.acc.sys_ns as f64, p.acc.calls as f64))
    } else {
        0.0
    };
    out.push(("model.host_ns_per_slice".into(), per_slice, "ns"));
    out.push((
        "sim.host_ns_per_charged_span".into(),
        per_pass(run, |p| ratio(p.acc.sys_ns as f64, p.events as f64)),
        "ns",
    ));
    let wall = |traced: bool| {
        let v: Vec<f64> = run
            .passes
            .iter()
            .skip(1)
            .filter(|p| p.traced == traced)
            .map(|p| p.wall_ns as f64)
            .collect();
        median(&v)
    };
    out.push((
        "obs.overhead_pct".into(),
        100.0 * (ratio(wall(true), wall(false)) - 1.0),
        "%",
    ));
    let reqs = run.meter.tracer.requests() as f64;
    let selfs = run.meter.tracer.self_times();
    for layer in SELF_LAYERS {
        let ns = selfs
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |(_, ns)| *ns);
        out.push((
            format!("self.{layer}.ns_per_req"),
            ratio(ns as f64, reqs),
            "ns",
        ));
    }
    out
}

/// The result line: one JSON object.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run;
    use crate::model::Model;

    /// Names and units `section` of BENCHMARK.json lists, in order.
    fn listed(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let body = json
            .split(&format!("\"{section}\""))
            .nth(1)
            .expect("section present");
        let body = body.split(']').next().expect("section ends");
        let field = |entry: &str, key: &str| {
            let rest = entry
                .split(&format!("\"{key}\": \""))
                .nth(1)
                .expect("field present");
            rest.split('"').next().expect("closing quote").to_string()
        };
        body.split('}')
            .filter(|e| e.contains("\"name\""))
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let run = run::<Model>(std::time::Instant::now(), 3, 0.0, false);
        assert!(run.error.is_none(), "{:?}", run.error);
        let win = run.window.as_ref().expect("window ran");
        let names = |m: Vec<Metric>| {
            m.into_iter()
                .map(|(n, _, u)| (n, u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(end_to_end(&run, win)), listed("end_to_end"));
        let probes: Vec<Metric> = crate::probes::ROWS
            .iter()
            .map(|(n, u)| (n.to_string(), 1.0, *u))
            .collect();
        assert_eq!(names(per_layer(&run, win, &probes)), listed("per_layer"));
        for (name, value, _) in end_to_end(&run, win) {
            assert!(value > 0.0, "{name} must never be 0");
        }
    }
}
