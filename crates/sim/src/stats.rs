//! Small statistics helpers for the benchmark harnesses.

use crate::time::Nanos;

/// Summary statistics over a set of virtual-time samples.
///
/// The paper reports the average of five runs per measurement; the figure
/// harnesses mirror that with [`Samples::mean`].
///
/// ```
/// use hix_sim::{Nanos, stats::Samples};
/// let mut s = Samples::new();
/// for us in [1, 2, 3] {
///     s.push(Nanos::from_micros(us));
/// }
/// assert_eq!(s.mean(), Nanos::from_micros(2));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Samples {
    values: Vec<Nanos>,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, v: Nanos) {
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (zero if empty).
    pub fn mean(&self) -> Nanos {
        if self.values.is_empty() {
            return Nanos::ZERO;
        }
        let sum: u128 = self.values.iter().map(|v| v.as_nanos() as u128).sum();
        Nanos::from_nanos((sum / self.values.len() as u128) as u64)
    }

    /// Minimum sample (zero if empty).
    pub fn min(&self) -> Nanos {
        self.values.iter().copied().min().unwrap_or(Nanos::ZERO)
    }

    /// Nearest-rank percentile, zero if empty. Shares the convention of
    /// `hix_testkit::bench` via [`hix_obs::percentile_sorted`], so
    /// figure harnesses and micro-benches report identically.
    pub fn percentile(&self, pct: u32) -> Nanos {
        let mut sorted: Vec<u64> = self.values.iter().map(|v| v.as_nanos()).collect();
        sorted.sort_unstable();
        hix_obs::percentile_sorted(&sorted, pct)
            .map(Nanos::from_nanos)
            .unwrap_or(Nanos::ZERO)
    }

    /// Median sample (zero if empty).
    pub fn p50(&self) -> Nanos {
        self.percentile(50)
    }

    /// 95th-percentile sample (zero if empty).
    pub fn p95(&self) -> Nanos {
        self.percentile(95)
    }

    /// 99th-percentile sample (zero if empty).
    pub fn p99(&self) -> Nanos {
        self.percentile(99)
    }

    /// 99.9th-percentile sample (zero if empty) — per-mille nearest
    /// rank via [`hix_obs::percentile_sorted_pm`]; only separates from
    /// [`Samples::p99`] past 1000 samples, which is exactly the
    /// 10k-session tail it exists to expose.
    pub fn p999(&self) -> Nanos {
        let mut sorted: Vec<u64> = self.values.iter().map(|v| v.as_nanos()).collect();
        sorted.sort_unstable();
        hix_obs::percentile_sorted_pm(&sorted, 999)
            .map(Nanos::from_nanos)
            .unwrap_or(Nanos::ZERO)
    }

    /// Maximum sample (zero if empty).
    pub fn max(&self) -> Nanos {
        self.values.iter().copied().max().unwrap_or(Nanos::ZERO)
    }

    /// All samples, in insertion order.
    pub fn values(&self) -> &[Nanos] {
        &self.values
    }
}

impl FromIterator<Nanos> for Samples {
    fn from_iter<I: IntoIterator<Item = Nanos>>(iter: I) -> Self {
        Samples {
            values: iter.into_iter().collect(),
        }
    }
}

impl Extend<Nanos> for Samples {
    fn extend<I: IntoIterator<Item = Nanos>>(&mut self, iter: I) {
        self.values.extend(iter);
    }
}

/// Ratio `a / b` as a percentage delta: `+26.8` means `a` is 26.8% slower
/// than `b`. Returns `f64::NAN` when `b` is zero.
pub fn overhead_pct(a: Nanos, b: Nanos) -> f64 {
    if b == Nanos::ZERO {
        return f64::NAN;
    }
    (a.as_nanos() as f64 / b.as_nanos() as f64 - 1.0) * 100.0
}

/// Ratio `a / b` as a slowdown factor (`2.5` means 2.5× slower).
pub fn slowdown(a: Nanos, b: Nanos) -> f64 {
    if b == Nanos::ZERO {
        return f64::NAN;
    }
    a.as_nanos() as f64 / b.as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_min_max() {
        let s: Samples = [4u64, 1, 7].into_iter().map(Nanos::from_nanos).collect();
        assert_eq!(s.mean().as_nanos(), 4);
        assert_eq!(s.min().as_nanos(), 1);
        assert_eq!(s.max().as_nanos(), 7);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), Nanos::ZERO);
        assert_eq!(s.min(), Nanos::ZERO);
        assert_eq!(s.max(), Nanos::ZERO);
        assert_eq!(s.p50(), Nanos::ZERO);
        assert_eq!(s.p95(), Nanos::ZERO);
    }

    #[test]
    fn percentiles_use_the_shared_convention() {
        // Insertion order must not matter: percentiles sort internally.
        let s: Samples = [70u64, 10, 50, 30, 90, 20, 40, 80, 60, 100]
            .into_iter()
            .map(Nanos::from_nanos)
            .collect();
        assert_eq!(s.p50().as_nanos(), 60, "sorted[10/2]");
        assert_eq!(s.p95().as_nanos(), 100, "sorted[(10*95/100).min(9)]");
        assert_eq!(s.percentile(0), s.min());
        assert_eq!(s.percentile(100), s.max());
    }

    #[test]
    fn tail_percentiles_separate_past_a_thousand_samples() {
        let small: Samples = (1..=10u64).map(Nanos::from_nanos).collect();
        assert_eq!(small.p99(), small.p999(), "coarse grid below 1k samples");
        let big: Samples = (1..=10_000u64).map(Nanos::from_nanos).collect();
        assert_eq!(big.p99().as_nanos(), 9_901);
        assert_eq!(
            big.p999().as_nanos(),
            9_991,
            "p99.9 exposes the deeper tail"
        );
        assert_eq!(Samples::new().p999(), Nanos::ZERO);
    }

    #[test]
    fn overhead_and_slowdown() {
        let a = Nanos::from_nanos(250);
        let b = Nanos::from_nanos(100);
        assert!((overhead_pct(a, b) - 150.0).abs() < 1e-9);
        assert!((slowdown(a, b) - 2.5).abs() < 1e-9);
        assert!(overhead_pct(a, Nanos::ZERO).is_nan());
        assert!(slowdown(a, Nanos::ZERO).is_nan());
    }

    #[test]
    fn extend_appends() {
        let mut s = Samples::new();
        s.extend([Nanos::from_nanos(1), Nanos::from_nanos(2)]);
        assert_eq!(s.values().len(), 2);
    }
}
