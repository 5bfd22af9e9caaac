//! Virtual time: [`Nanos`] durations/instants and the shared [`Clock`].

use std::cell::Cell;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use std::rc::Rc;

/// A span (or instant) of virtual time, in nanoseconds.
///
/// `Nanos` is used both as a duration and as an instant on the virtual
/// timeline (the instant is just the duration since simulation start).
///
/// ```
/// use hix_sim::Nanos;
/// let t = Nanos::from_micros(3) + Nanos::from_nanos(500);
/// assert_eq!(t.as_nanos(), 3_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// Zero time.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration expressed as (possibly fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This duration expressed as (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration expressed as (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction, clamping at zero.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.max(rhs.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.min(rhs.0))
    }

    /// The time to move `bytes` bytes at `bytes_per_sec` throughput,
    /// rounded up to a whole nanosecond.
    ///
    /// ```
    /// use hix_sim::Nanos;
    /// // 1 GiB/s moves 1 byte in ~1 ns.
    /// assert_eq!(Nanos::for_throughput(1, 1 << 30).as_nanos(), 1);
    /// ```
    pub fn for_throughput(bytes: u64, bytes_per_sec: u64) -> Nanos {
        assert!(bytes_per_sec > 0, "throughput must be positive");
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(bytes_per_sec as u128);
        Nanos(u64::try_from(ns).expect("virtual time overflow"))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.checked_add(rhs.0).expect("virtual time overflow"))
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.checked_sub(rhs.0).expect("virtual time underflow"))
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0.checked_mul(rhs).expect("virtual time overflow"))
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A shared, cheaply clonable virtual clock.
///
/// All simulator components hold a clone of the same clock; a move from
/// any handle is visible to every other handle. Durations are spent only
/// through [`Trace::charge`](crate::Trace::charge).
///
/// ```
/// use hix_sim::{Clock, EventKind, Nanos, Trace};
/// let (a, trace) = (Clock::new(), Trace::new());
/// let b = a.clone();
/// trace.charge(&a, Nanos::from_micros(5), EventKind::Dma, "HtoD");
/// assert_eq!(b.now(), trace.total(EventKind::Dma));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: Rc<Cell<u64>>,
}

impl Clock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Clock::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        Nanos(self.now.get())
    }

    /// Advances the clock by `dt` (see [`Trace::charge`](crate::Trace::charge)).
    pub(crate) fn advance(&self, dt: Nanos) {
        self.now.set(
            self.now
                .get()
                .checked_add(dt.0)
                .expect("virtual time overflow"),
        );
    }

    /// Moves the clock forward *to* `t` if `t` is in the future; does
    /// nothing if `t` is in the past. Returns the new current time.
    ///
    /// Charges nothing: only the transfer floors use it, until ROADMAP
    /// item 6 step 2 replaces them with charged chunk walks.
    pub fn advance_to(&self, t: Nanos) -> Nanos {
        if t.0 > self.now.get() {
            self.now.set(t.0);
        }
        self.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_constructors_agree() {
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1000));
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1000));
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_nanos(100);
        let b = Nanos::from_nanos(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!((a - b).as_nanos(), 60);
        assert_eq!((a * 3).as_nanos(), 300);
        assert_eq!((a / 4).as_nanos(), 25);
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn nanos_sub_underflow_panics() {
        let _ = Nanos::from_nanos(1) - Nanos::from_nanos(2);
    }

    #[test]
    fn throughput_rounds_up() {
        // 3 bytes at 2 B/s = 1.5 s, rounds up to 1_500_000_000 ns exactly.
        assert_eq!(Nanos::for_throughput(3, 2), Nanos::from_millis(1500));
        // Sub-nanosecond work still costs at least 1 ns.
        assert_eq!(Nanos::for_throughput(1, 1 << 40).as_nanos(), 1);
        assert_eq!(Nanos::for_throughput(0, 1000), Nanos::ZERO);
    }

    #[test]
    fn clock_shared_between_clones() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(Nanos::from_nanos(7));
        b.advance(Nanos::from_nanos(3));
        assert_eq!(a.now().as_nanos(), 10);
    }

    #[test]
    fn clock_advance_to_is_monotonic() {
        let c = Clock::new();
        c.advance(Nanos::from_nanos(100));
        c.advance_to(Nanos::from_nanos(50)); // past: no-op
        assert_eq!(c.now().as_nanos(), 100);
        c.advance_to(Nanos::from_nanos(150));
        assert_eq!(c.now().as_nanos(), 150);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Nanos::from_nanos(5).to_string(), "5ns");
        assert_eq!(Nanos::from_micros(5).to_string(), "5.000us");
        assert_eq!(Nanos::from_millis(5).to_string(), "5.000ms");
        assert_eq!(Nanos::from_secs(5).to_string(), "5.000s");
    }
}
