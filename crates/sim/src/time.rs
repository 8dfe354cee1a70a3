//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in integer nanoseconds since the start of the
/// simulation.
///
/// `Time` doubles as a duration type: subtracting two `Time`s yields a
/// `Time`, and durations are constructed with the same `from_*` helpers.
/// Integer nanoseconds keep all link-timing arithmetic exact — a 1500 B
/// frame on a 10 Gbps link is exactly 1200 ns — which in turn keeps event
/// ordering deterministic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The origin of simulated time.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant (used as an "infinite" deadline).
    pub const MAX: Time = Time(u64::MAX);

    /// A time/duration of `ns` nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// A time/duration of `us` microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// A time/duration of `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// A time/duration of `s` seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }

    /// This instant expressed in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in whole microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// This instant expressed in whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// This instant expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This instant expressed in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant expressed in fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction; `a.saturating_sub(b)` is zero when `b > a`.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// Scale a duration by an integer factor.
    #[inline]
    #[allow(clippy::should_implement_trait)] // deliberate: a `Mul<u64>` impl
                                             // would invite `Time * Time` confusion; an explicit method keeps call
                                             // sites self-documenting.
    pub fn mul(self, k: u64) -> Time {
        Time(self.0 * k)
    }

    /// The transmission (serialization) time of `bytes` at `bits_per_sec`,
    /// rounded up to the next nanosecond so that a link is never modeled as
    /// faster than its rate.
    #[inline]
    pub fn tx_time(bytes: u64, bits_per_sec: u64) -> Time {
        debug_assert!(bits_per_sec > 0, "link rate must be positive");
        // bytes × 8e9 fits `u64` up to 2.3 GB — any frame — so the
        // per-packet path is one 64-bit division; the 128-bit fallback
        // (a `__udivti3` call) is for bulk sizes only.
        match bytes.checked_mul(8_000_000_000) {
            Some(bit_ns) => Time(bit_ns.div_ceil(bits_per_sec)),
            None => Time::tx_time_wide(bytes, bits_per_sec),
        }
    }

    #[cold]
    fn tx_time_wide(bytes: u64, bits_per_sec: u64) -> Time {
        let bit_ns = bytes as u128 * 8_000_000_000;
        Time(bit_ns.div_ceil(bits_per_sec as u128) as u64)
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        debug_assert!(self.0 >= rhs.0, "time subtraction underflow");
        Time(self.0 - rhs.0)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Time {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Time::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Time::from_millis(3).as_micros(), 3_000);
        assert_eq!(Time::from_micros(7).as_nanos(), 7_000);
        assert_eq!(Time::from_nanos(1500).as_micros(), 1); // truncation
    }

    #[test]
    fn tx_time_exact_cases() {
        // 1500 B at 10 Gbps = 12000 bits / 10e9 bps = 1200 ns.
        assert_eq!(Time::tx_time(1500, 10_000_000_000), Time::from_nanos(1200));
        // 1500 B at 40 Gbps = 300 ns.
        assert_eq!(Time::tx_time(1500, 40_000_000_000), Time::from_nanos(300));
        // 64 B at 1 Gbps = 512 ns.
        assert_eq!(Time::tx_time(64, 1_000_000_000), Time::from_nanos(512));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 Gbps = 8/3 ns -> 3 ns.
        assert_eq!(Time::tx_time(1, 3_000_000_000), Time::from_nanos(3));
        // Zero bytes takes zero time.
        assert_eq!(Time::tx_time(0, 10_000_000_000), Time::ZERO);
    }

    #[test]
    fn tx_time_narrow_and_wide_paths_agree() {
        // Largest byte count whose bit-nanosecond product fits u64.
        let edge = u64::MAX / 8_000_000_000;
        assert!(edge.checked_mul(8_000_000_000).is_some());
        assert!((edge + 1).checked_mul(8_000_000_000).is_none());
        for (bytes, rate) in [
            (0, 10_000_000_000),
            (1, 3_000_000_000),
            (1500, 10_000_000_000),
            (1500, 40_000_000_000),
            (1500, 100_000_000_000),
            (edge - 1, 3_000_000_000),
            (edge, 3_000_000_000),
            (edge + 1, 3_000_000_000),
            (edge + 2, 10_000_000_000),
        ] {
            assert_eq!(
                Time::tx_time(bytes, rate),
                Time::tx_time_wide(bytes, rate),
                "{bytes} B at {rate} b/s"
            );
        }
        // The wide path is live past the edge: at 8 Gb/s a byte is a
        // nanosecond.
        assert_eq!(
            Time::tx_time(edge + 1, 8_000_000_000),
            Time::from_nanos(edge + 1)
        );
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_micros(5);
        let b = Time::from_micros(2);
        assert_eq!(a + b, Time::from_micros(7));
        assert_eq!(a - b, Time::from_micros(3));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(b.mul(3), Time::from_micros(6));
        let mut c = a;
        c += b;
        assert_eq!(c, Time::from_micros(7));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Time::from_nanos(12).to_string(), "12ns");
        assert_eq!(Time::from_micros(12).to_string(), "12.000us");
        assert_eq!(Time::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Time::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Time::from_nanos(1) < Time::from_nanos(2));
        assert!(Time::MAX > Time::from_secs(100));
    }
}
