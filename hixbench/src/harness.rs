//! The run loop shared by every workload: the virtual window with its
//! exactness replay, then timed passes until the run's seconds are
//! spent. Every pass starts on a fresh set-up, and every set-up is
//! timed: long-lived sessions keep each HtoD payload in their replay
//! journal, so a stack reused across passes would grow with run length.

use std::time::Instant;

use crate::calib::NOMINAL_NS;
use crate::meter::{Meter, OpStat, PassAcc};

/// Virtual-time results of one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PassVirt {
    pub makespan_ns: u64,
    /// Virtual time of session set-up inside the pass (connects on
    /// `session-churn`, tenant init and parking on `multiuser-model`).
    pub setup_ns: u64,
    /// Max/min per-tenant virtual completion or service.
    pub fairness: f64,
}

pub trait Workload: Sized {
    fn setup(seed: u64) -> Result<Self, String>;
    /// Virtual time now (zero for the model, which has no clock): read
    /// right after set-up, it is the set-up phase's virtual time.
    fn virt_now(&self) -> u64;
    /// Runs pass `pass` of the seeded tape, one closed-loop request
    /// after another.
    fn run_pass(&mut self, pass: u64, meter: &mut Meter) -> Result<PassVirt, String>;
    /// Cumulative program counters, including `sim.events` (charged
    /// spans, or scheduler slices on the model).
    fn counters(&self) -> Vec<(String, u64)>;
    /// Deterministic program state for the digest.
    fn snapshot(&self) -> String;
}

/// Host-side figures of one pass.
#[derive(Debug, Clone)]
pub struct PassStat {
    pub wall_ns: u64,
    /// The pass's sums; its per-request latencies are kept only for
    /// the window, so a run's memory does not grow with its length.
    pub acc: PassAcc,
    pub requests: u64,
    pub events: u64,
    pub traced: bool,
}

/// The virtual window: pass 0 of the timed phase. Everything here is a
/// pure function of the seed.
#[derive(Debug, Clone)]
pub struct Window {
    pub virt: PassVirt,
    pub setup_virt_ns: u64,
    pub req_virt: Vec<u64>,
    /// Program counters accumulated over the window.
    pub counters: Vec<(String, u64)>,
    /// Per-op calls and virtual time over the window.
    pub ops: [OpStat; 12],
    pub digest: u64,
}

impl Window {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

#[derive(Debug)]
pub struct Run {
    pub setup_s: Vec<f64>,
    pub window: Option<Window>,
    pub passes: Vec<PassStat>,
    pub meter: Meter,
    pub error: Option<String>,
}

/// Times one set-up into `run.setup_s`, at nominal host speed.
fn timed_setup<W: Workload>(run: &mut Run, since: Instant, seed: u64) -> Result<W, String> {
    let w = W::setup(seed)?;
    let secs = since.elapsed().as_secs_f64();
    let speed = NOMINAL_NS / run.meter.reference.tick() as f64;
    run.setup_s.push(secs * speed);
    Ok(w)
}

/// FNV-1a, 64-bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn delta(before: &[(String, u64)], after: Vec<(String, u64)>) -> Vec<(String, u64)> {
    after
        .into_iter()
        .map(|(name, v)| {
            let b = before
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, b)| *b);
            (name, v - b)
        })
        .collect()
}

fn pass<W: Workload>(
    w: &mut W,
    index: u64,
    meter: &mut Meter,
) -> Result<(PassStat, PassVirt, Vec<u64>), String> {
    meter.pass = PassAcc::default();
    let events0 = events(&w.counters());
    let t0 = Instant::now();
    let virt = w.run_pass(index, meter)?;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut acc = std::mem::take(&mut meter.pass);
    let req_virt = std::mem::take(&mut acc.req_virt);
    let stat = PassStat {
        wall_ns,
        acc,
        requests: req_virt.len() as u64,
        events: events(&w.counters()) - events0,
        traced: meter.tracer.enabled,
    };
    Ok((stat, virt, req_virt))
}

fn events(counters: &[(String, u64)]) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == "sim.events")
        .map_or(0, |(_, v)| *v)
}

/// Runs pass 0 on a fresh set-up and digests everything virtual.
fn window<W: Workload>(w: &mut W, meter: &mut Meter) -> Result<(Window, PassStat), String> {
    let before = w.counters();
    let setup_virt_ns = w.virt_now();
    let (stat, virt, req_virt) = pass(w, 0, meter)?;
    let counters = delta(&before, w.counters());
    let text = format!(
        "{setup_virt_ns}|{virt:?}|{req_virt:?}|{counters:?}|{}",
        w.snapshot()
    );
    let window = Window {
        virt,
        setup_virt_ns,
        req_virt,
        counters,
        ops: meter.ops,
        digest: fnv64(text.as_bytes()),
    };
    Ok((window, stat))
}

/// The whole run. `start` is the process's first instant, so the first
/// set-up counts from an empty process.
pub fn run<W: Workload>(start: Instant, seed: u64, seconds: f64, trace: bool) -> Run {
    let mut run = Run {
        setup_s: Vec::new(),
        window: None,
        passes: Vec::new(),
        meter: Meter::new(),
        error: None,
    };
    if let Err(e) = run_into::<W>(&mut run, start, seed, seconds, trace) {
        run.error = Some(e);
    }
    run
}

/// Passes a run makes at least, whatever its seconds.
const MIN_PASSES: u64 = 3;

fn run_into<W: Workload>(
    run: &mut Run,
    start: Instant,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(), String> {
    // The first set-up counts from an empty process; it replays the
    // window for the exactness check.
    let mut first = timed_setup::<W>(run, start, seed)?;
    let (replay, _) = window(&mut first, &mut Meter::new())?;
    drop(first);

    let timed = Instant::now();
    let mut w = timed_setup::<W>(run, Instant::now(), seed)?;
    let (win, stat) = window(&mut w, &mut run.meter)?;
    run.passes.push(stat);
    let same = win.digest == replay.digest;
    run.window = Some(win);
    if !same {
        return Err("virtual window differs between two same-seed set-ups".into());
    }
    let mut index = 1;
    while index < MIN_PASSES || timed.elapsed().as_secs_f64() < seconds {
        drop(w);
        w = timed_setup::<W>(run, Instant::now(), seed)?;
        run.meter.tracer.enabled = trace && index % 2 == 1;
        let (stat, _, _) = pass(&mut w, index, &mut run.meter)?;
        run.passes.push(stat);
        index += 1;
    }
    Ok(())
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[u64], pct: f64) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v.get(rank.saturating_sub(1)).copied().unwrap_or(0)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
