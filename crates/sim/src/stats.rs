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

    /// Arithmetic mean (zero if empty).
    pub fn mean(&self) -> Nanos {
        if self.values.is_empty() {
            return Nanos::ZERO;
        }
        let sum: u128 = self.values.iter().map(|v| v.as_nanos() as u128).sum();
        Nanos::from_nanos((sum / self.values.len() as u128) as u64)
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
    fn empty_stats_are_zero() {
        assert_eq!(Samples::new().mean(), Nanos::ZERO);
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
}
