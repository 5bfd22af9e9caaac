//! Per-call accounting: host time, virtual time and bytes for every
//! public `HixSession` call the workloads make, plus the per-pass sums
//! the end-to-end rates are computed from.

use std::time::Instant;

use hix_core::HixCoreError;
use hix_sim::Clock;

use crate::calib::Reference;
use crate::spans::{SpanId, Tracer};

/// The public `HixSession` operations, in report order. `submit`
/// covers every `submit_*` enqueue.
pub const OPS: [&str; 12] = [
    "connect",
    "close",
    "malloc",
    "free",
    "memcpy_htod",
    "memcpy_dtoh",
    "memcpy_dtod",
    "memset",
    "launch",
    "sync",
    "submit",
    "flush",
];

/// Span names, one per entry of [`OPS`].
const SPAN_NAMES: [&str; 12] = [
    "runtime.connect",
    "runtime.close",
    "runtime.malloc",
    "runtime.free",
    "runtime.memcpy_htod",
    "runtime.memcpy_dtoh",
    "runtime.memcpy_dtod",
    "runtime.memset",
    "runtime.launch",
    "runtime.sync",
    "runtime.submit",
    "runtime.flush",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Connect,
    Close,
    Malloc,
    Free,
    Htod,
    Dtoh,
    Dtod,
    Submit = 10,
    Flush = 11,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct OpStat {
    pub calls: u64,
    pub host_ns: u64,
    pub virt_ns: u64,
    pub bytes: u64,
}

/// Sums over the pass in progress.
#[derive(Debug, Clone, Default)]
pub struct PassAcc {
    /// Host time spent inside the program's calls.
    pub sys_ns: u64,
    /// Public calls completed (scheduler slices on the model).
    pub calls: u64,
    /// Secured plaintext bytes moved (HtoD + DtoH payloads).
    pub bytes: u64,
    /// Virtual latency of every request, in order.
    pub req_virt: Vec<u64>,
    /// Host time and count of reference-kernel ticks in this pass.
    pub ref_ns: u64,
    pub ticks: u64,
}

impl PassAcc {
    /// Mean reference-kernel time of the pass.
    pub fn tick_ns(&self) -> f64 {
        self.ref_ns as f64 / self.ticks.max(1) as f64
    }
}

#[derive(Debug)]
pub struct Meter {
    pub tracer: Tracer,
    pub ops: [OpStat; 12],
    pub pass: PassAcc,
    /// Calls attempted over the whole run.
    pub attempted: u64,
    pub reference: Reference,
}

impl Meter {
    pub fn new() -> Self {
        Meter {
            tracer: Tracer::new(),
            ops: [OpStat::default(); 12],
            pass: PassAcc::default(),
            attempted: 0,
            reference: Reference::new(),
        }
    }

    /// Runs one public call, charging its host and virtual time to `op`
    /// and recording a `runtime.<op>` span.
    pub fn op<T>(
        &mut self,
        clock: &Clock,
        op: Op,
        bytes: u64,
        f: impl FnOnce() -> Result<T, HixCoreError>,
    ) -> Result<T, String> {
        self.attempted += 1;
        let span = self.tracer.enter(SPAN_NAMES[op as usize]);
        let v0 = clock.now().as_nanos();
        let t0 = Instant::now();
        let result = f();
        let host = t0.elapsed().as_nanos() as u64;
        let virt = clock.now().as_nanos() - v0;
        self.tracer.exit(span);
        let stat = &mut self.ops[op as usize];
        stat.calls += 1;
        stat.host_ns += host;
        stat.virt_ns += virt;
        stat.bytes += bytes;
        self.pass.sys_ns += host;
        self.pass.calls += 1;
        result.map_err(|e| format!("{}: {e}", OPS[op as usize]))
    }

    /// Closes request `root` and takes a host-speed sample.
    pub fn end_request(&mut self, root: SpanId) {
        self.tracer.end_request(root);
        self.tick();
    }

    /// One reference-kernel sample for the pass in progress.
    pub fn tick(&mut self) {
        self.pass.ref_ns += self.reference.tick();
        self.pass.ticks += 1;
    }

    /// Runs `f` inside a span named `name` (benchmark-side work).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.tracer.enter(name);
        let out = f();
        self.tracer.exit(span);
        out
    }
}
