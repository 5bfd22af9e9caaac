//! A micro-benchmark runner — the in-tree replacement for Criterion.
//!
//! Each benchmark warms up, calibrates an iteration count so one batch
//! of calls takes roughly [`TARGET_BATCH_NS`], then times a fixed number
//! of batches and reports per-iteration median, p95, and min. Numbers
//! are wall-clock (these benches measure the *functional* plane — how
//! much host time the simulator's real byte-work costs — not the
//! virtual-clock model).
//!
//! ```no_run
//! use hix_testkit::bench::Bench;
//! Bench::new("sha256/64KiB")
//!     .throughput_bytes(64 * 1024)
//!     .run(|| hix_crypto_digest_stand_in());
//! # fn hix_crypto_digest_stand_in() -> u64 { 0 }
//! ```

use std::time::Instant;

/// Re-export: keep benched expressions out of the optimizer's reach.
pub use std::hint::black_box;

/// Target duration of one timed batch, in nanoseconds (10 ms).
pub const TARGET_BATCH_NS: u64 = 10_000_000;

/// Warmup duration, in nanoseconds (50 ms).
pub const WARMUP_NS: u64 = 50_000_000;

/// Number of timed batches per benchmark.
pub const BATCHES: usize = 30;

/// Minimum iterations per timed batch. A single iteration gives one
/// noisy sample per batch — a big row (e.g. sealing 1 MiB) whose cost
/// hovers around the batch target would calibrate to 1 and report
/// scheduler jitter as signal. Every batch averages over at least this
/// many calls.
pub const MIN_ITERS: u64 = 8;

/// Picks how many iterations one timed batch should run so the batch
/// lasts about `target_ns`, given an observed per-iteration cost.
/// Monotone: a longer target or a cheaper operation never yields fewer
/// iterations, and the count never drops below [`MIN_ITERS`].
pub fn calibrate_iters(per_iter_ns: u64, target_ns: u64) -> u64 {
    (target_ns / per_iter_ns.max(1)).max(MIN_ITERS)
}

/// One benchmark, identified by a Criterion-style `group/name` label.
pub struct Bench {
    name: String,
    throughput_bytes: Option<u64>,
}

impl Bench {
    /// Starts a benchmark named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Bench {
            name: name.into(),
            throughput_bytes: None,
        }
    }

    /// Reports throughput (MiB/s) for an operation processing `bytes`
    /// bytes per iteration.
    pub fn throughput_bytes(mut self, bytes: u64) -> Self {
        self.throughput_bytes = Some(bytes);
        self
    }

    /// Times `f`, prints a report line, and returns the measurement.
    pub fn run<T>(self, mut f: impl FnMut() -> T) -> Measurement {
        // Warmup: run until the warmup budget elapses, tracking the
        // observed rate for calibration.
        let start = Instant::now();
        let mut warm_iters = 0u64;
        while (start.elapsed().as_nanos() as u64) < WARMUP_NS {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = (start.elapsed().as_nanos() as u64 / warm_iters.max(1)).max(1);
        let iters = calibrate_iters(per_iter, TARGET_BATCH_NS);

        let mut samples = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples.push((t0.elapsed().as_nanos() as u64 / iters).max(1));
        }
        samples.sort_unstable();
        // The workspace-wide percentile convention (`hix_obs::percentile_sorted`).
        let m = Measurement {
            name: self.name,
            iters,
            median_ns: hix_obs::percentile_sorted(&samples, 50).expect("BATCHES > 0"),
            p95_ns: hix_obs::percentile_sorted(&samples, 95).expect("BATCHES > 0"),
            min_ns: samples[0],
            throughput_bytes: self.throughput_bytes,
        };
        println!("{m}");
        m
    }
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label.
    pub name: String,
    /// Iterations per timed batch (after calibration).
    pub iters: u64,
    /// Median per-iteration time across batches.
    pub median_ns: u64,
    /// 95th-percentile per-iteration time across batches.
    pub p95_ns: u64,
    /// Fastest per-iteration time across batches.
    pub min_ns: u64,
    /// Bytes processed per iteration, when reporting throughput.
    pub throughput_bytes: Option<u64>,
}

impl Measurement {
    /// Median throughput in MiB/s (zero without a byte count).
    pub fn mib_per_sec(&self) -> f64 {
        match self.throughput_bytes {
            Some(bytes) => bytes as f64 / (1 << 20) as f64 * 1e9 / self.median_ns as f64,
            None => 0.0,
        }
    }
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<44} {:>12}/iter  (p95 {}, min {}, {} iters/batch)",
            self.name,
            fmt_ns(self.median_ns),
            fmt_ns(self.p95_ns),
            fmt_ns(self.min_ns),
            self.iters,
        )?;
        if self.throughput_bytes.is_some() {
            write!(f, "  {:>9.1} MiB/s", self.mib_per_sec())?;
        }
        Ok(())
    }
}

use hix_obs::fmt_ns;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_monotone_in_target() {
        let mut prev = 0;
        for target in [1_000u64, 10_000, 1_000_000, 10_000_000, 100_000_000] {
            let iters = calibrate_iters(250, target);
            assert!(iters >= prev, "target {target}: {iters} < {prev}");
            prev = iters;
        }
    }

    #[test]
    fn calibration_is_monotone_in_cost() {
        let mut prev = u64::MAX;
        for per_iter in [1u64, 10, 1_000, 1_000_000, 10_000_000] {
            let iters = calibrate_iters(per_iter, TARGET_BATCH_NS);
            assert!(iters <= prev, "cost {per_iter}: {iters} > {prev}");
            assert!(iters >= MIN_ITERS, "never below the floor");
            prev = iters;
        }
        // An op slower than the whole batch target still averages over
        // the minimum batch — one call per batch is too noisy to report.
        assert_eq!(calibrate_iters(u64::MAX, TARGET_BATCH_NS), MIN_ITERS);
        assert_eq!(calibrate_iters(0, TARGET_BATCH_NS), TARGET_BATCH_NS);
    }

    #[test]
    fn measurement_formats_units() {
        let m = Measurement {
            name: "x".into(),
            iters: 3,
            median_ns: 123,
            p95_ns: 45_000,
            min_ns: 100,
            throughput_bytes: Some(1 << 20),
        };
        let s = m.to_string();
        assert!(s.contains("123 ns"), "{s}");
        assert!(s.contains("45.00 µs"), "{s}");
        assert!(s.contains("MiB/s"), "{s}");
        // 1 MiB per 123 ns ≈ 8.1 GB/s.
        assert!((m.mib_per_sec() - 1e9 / 123.0 / 1.0).abs() / m.mib_per_sec() < 0.01);
    }
}
