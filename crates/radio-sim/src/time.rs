//! The simulator's virtual clock.
//!
//! An instant ([`SimTime`]) is the offset from the start of the run in
//! whole nanoseconds, one `u64`: an offset, so protocol code taking `now:
//! Duration` runs unchanged on hardware, which supplies uptime; an integer,
//! so an event-key compare or `now + airtime` is one instruction. Sums and
//! conversions saturate at `u64::MAX` ns (≈ 584.5 years), where `Duration`
//! panicked: [`SimTime::MAX`] is *never*, after every other instant, read
//! back as [`Duration::MAX`] so a firmware waiting for that sees it come.
//! `Debug` prints what the derive printed over a `Duration`: goldens hash it.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant of simulated time: nanoseconds since the start of the run,
/// totally ordered. Adding a [`Duration`] yields a later instant,
/// subtracting two instants yields the elapsed [`Duration`].
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The horizon: *never* (see the module docs).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// An instant `micros` microseconds after the start.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros.saturating_mul(1_000))
    }

    /// An instant `millis` milliseconds after the start.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis.saturating_mul(1_000_000))
    }

    /// An instant `secs` seconds after the start.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs.saturating_mul(1_000_000_000))
    }

    /// The offset from the start of the run in nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The offset from the start of the run ([`Duration::MAX`] for never).
    #[must_use]
    pub const fn as_duration(self) -> Duration {
        match self.0 {
            u64::MAX => Duration::MAX,
            ns => Duration::from_nanos(ns),
        }
    }

    /// The offset in whole microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u128 {
        self.as_duration().as_micros()
    }

    /// The offset in seconds as a float (for reporting).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.as_duration().as_secs_f64()
    }

    /// Elapsed time since `earlier`, saturating to zero if `earlier` is
    /// actually later.
    #[must_use]
    pub const fn since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl From<Duration> for SimTime {
    #[inline]
    fn from(d: Duration) -> Self {
        SimTime(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

impl From<SimTime> for Duration {
    fn from(t: SimTime) -> Self {
        t.as_duration()
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(SimTime::from(d).0))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub for SimTime {
    type Output = Duration;
    /// Elapsed time between two instants.
    ///
    /// # Panics
    ///
    /// Panics if `other` is later than `self`; use [`SimTime::since`] for
    /// a saturating version.
    fn sub(self, other: SimTime) -> Duration {
        let ns = self.0.checked_sub(other.0);
        Duration::from_nanos(ns.expect("overflow when subtracting instants"))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SimTime").field(&self.as_duration()).finish()
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_millis(10);
        let b = a + Duration::from_millis(5);
        assert!(b > a);
        assert_eq!(b - a, Duration::from_millis(5));
        assert_eq!(b.since(a), Duration::from_millis(5));
        assert_eq!(a.since(b), Duration::ZERO);
    }

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_micros(1_234_567);
        let d: Duration = t.into();
        assert_eq!(SimTime::from(d), t);
        assert_eq!(t.as_micros(), 1_234_567);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::ZERO;
        t += Duration::from_secs(2);
        assert_eq!(t, SimTime::from_secs(2));
    }

    #[test]
    fn an_instant_is_one_word() {
        assert_eq!(std::mem::size_of::<SimTime>(), 8);
    }

    #[test]
    fn display_format() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "t+1.500000s");
    }
}
