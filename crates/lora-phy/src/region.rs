//! Regional regulatory parameters and duty-cycle accounting.
//!
//! The LoRaMesher demo operates in the European 868 MHz ISM band, where
//! ETSI EN 300 220 limits each device to a *duty cycle* per sub-band —
//! 1 % in the g1 sub-band the library uses by default. The simulator
//! enforces this with a sliding-window [`DutyCycleTracker`], which is the
//! same mechanism a compliant firmware implements.

use alloc::collections::VecDeque;
use core::time::Duration;

use crate::power::Dbm;

/// An ISM sub-band with its regulatory limits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubBand {
    /// Lower edge in hertz.
    pub low_hz: u64,
    /// Upper edge in hertz.
    pub high_hz: u64,
    /// Maximum duty cycle as a fraction (0.01 = 1 %).
    pub duty_cycle: f64,
    /// Maximum radiated power.
    pub max_eirp: Dbm,
    /// Maximum duration of a single transmission (FCC dwell time in
    /// US915: 400 ms), or `None` where no dwell limit applies.
    pub max_dwell: Option<Duration>,
}

impl SubBand {
    /// Whether `freq_hz` lies inside this sub-band.
    #[must_use]
    pub fn contains(&self, freq_hz: u64) -> bool {
        (self.low_hz..=self.high_hz).contains(&freq_hz)
    }
}

/// A regulatory region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Region {
    /// European 863–870 MHz band (ETSI EN 300 220).
    Eu868,
    /// US 902–928 MHz band (FCC part 15: no duty cycle, 400 ms dwell).
    Us915,
    /// Unregulated — used by tests and stress experiments.
    Unlimited,
}

impl Region {
    /// The sub-bands of this region, with their duty-cycle limits.
    #[must_use]
    pub fn sub_bands(&self) -> &'static [SubBand] {
        const EU868: &[SubBand] = &[
            // g (863.0–868.0): 1 %
            SubBand {
                low_hz: 863_000_000,
                high_hz: 868_000_000,
                duty_cycle: 0.01,
                max_eirp: Dbm::new(14.0),
                max_dwell: None,
            },
            // g1 (868.0–868.6): 1 %
            SubBand {
                low_hz: 868_000_000,
                high_hz: 868_600_000,
                duty_cycle: 0.01,
                max_eirp: Dbm::new(14.0),
                max_dwell: None,
            },
            // g2 (868.7–869.2): 0.1 %
            SubBand {
                low_hz: 868_700_000,
                high_hz: 869_200_000,
                duty_cycle: 0.001,
                max_eirp: Dbm::new(14.0),
                max_dwell: None,
            },
            // g3 (869.4–869.65): 10 %
            SubBand {
                low_hz: 869_400_000,
                high_hz: 869_650_000,
                duty_cycle: 0.10,
                max_eirp: Dbm::new(27.0),
                max_dwell: None,
            },
        ];
        const US915: &[SubBand] = &[SubBand {
            low_hz: 902_000_000,
            high_hz: 928_000_000,
            duty_cycle: 1.0,
            max_eirp: Dbm::new(30.0),
            max_dwell: Some(Duration::from_millis(400)),
        }];
        const UNLIMITED: &[SubBand] = &[SubBand {
            low_hz: 0,
            high_hz: u64::MAX,
            duty_cycle: 1.0,
            max_eirp: Dbm::new(30.0),
            max_dwell: None,
        }];
        match self {
            Region::Eu868 => EU868,
            Region::Us915 => US915,
            Region::Unlimited => UNLIMITED,
        }
    }

    /// The sub-band containing `freq_hz`, if any.
    #[must_use]
    pub fn sub_band_for(&self, freq_hz: u64) -> Option<&'static SubBand> {
        self.sub_bands().iter().find(|b| b.contains(freq_hz))
    }

    /// The default LoRaMesher channel for this region.
    #[must_use]
    pub fn default_frequency_hz(&self) -> u64 {
        match self {
            Region::Eu868 => 868_100_000,
            Region::Us915 => 915_000_000,
            Region::Unlimited => 868_100_000,
        }
    }
}

/// Sliding-window duty-cycle accounting for one transmitter on one sub-band.
///
/// The tracker records each transmission and answers two questions a MAC
/// needs: *may I transmit a frame of this length now?* and *if not, when?*
/// Time is supplied by the caller as an offset from an arbitrary epoch,
/// which keeps the tracker usable both under the simulator's virtual clock
/// and a real one; it must not run backwards.
///
/// It holds one window of transmissions at most — every call first drops
/// those older than `now − window` — and none when the duty cycle is 1.0:
/// an *unregulated* tracker never refuses and only totals airtime.
///
/// ```
/// use std::time::Duration;
/// use lora_phy::region::DutyCycleTracker;
///
/// // 1 % duty cycle over a 1-hour window -> 36 s of airtime per hour.
/// let mut t = DutyCycleTracker::new(0.01, Duration::from_secs(3600));
/// let now = Duration::ZERO;
/// assert!(t.try_transmit(now, Duration::from_secs(10)));
/// assert!(t.try_transmit(now, Duration::from_secs(26)));
/// assert!(!t.try_transmit(now, Duration::from_secs(1)));
/// ```
#[derive(Clone, Debug)]
pub struct DutyCycleTracker {
    duty_cycle: f64,
    window: Duration,
    /// This window's transmissions as (start, airtime), oldest first.
    history: VecDeque<(Duration, Duration)>,
    /// Airtime spent inside the current window.
    spent: Duration,
    /// Total airtime ever spent (for statistics).
    total_spent: Duration,
}

impl DutyCycleTracker {
    /// Creates a tracker allowing `duty_cycle` (fraction) of each sliding
    /// `window`.
    ///
    /// # Panics
    ///
    /// Panics if `duty_cycle` is not in `(0, 1]` or the window is zero.
    #[must_use]
    pub fn new(duty_cycle: f64, window: Duration) -> Self {
        assert!(
            duty_cycle > 0.0 && duty_cycle <= 1.0,
            "duty cycle must be in (0, 1], got {duty_cycle}"
        );
        assert!(!window.is_zero(), "window must be non-zero");
        DutyCycleTracker {
            duty_cycle,
            window,
            history: VecDeque::new(),
            spent: Duration::ZERO,
            total_spent: Duration::ZERO,
        }
    }

    /// A tracker for the ETSI 1 % limit over the canonical 1-hour window.
    #[must_use]
    pub fn eu868_one_percent() -> Self {
        DutyCycleTracker::new(0.01, Duration::from_secs(3600))
    }

    /// A tracker that never refuses (100 % duty cycle).
    #[must_use]
    pub fn unlimited() -> Self {
        DutyCycleTracker::new(1.0, Duration::from_secs(3600))
    }

    /// The airtime budget per window.
    #[must_use]
    pub fn budget(&self) -> Duration {
        self.window.mul_f64(self.duty_cycle)
    }

    fn regulated(&self) -> bool {
        self.duty_cycle < 1.0
    }

    fn evict(&mut self, now: Duration) {
        let horizon = now.saturating_sub(self.window);
        while let Some(&(_, airtime)) = self.history.front().filter(|e| e.0 < horizon) {
            self.history.pop_front();
            self.spent = self.spent.saturating_sub(airtime);
        }
    }

    /// Whether a transmission of `airtime` starting at `now` is allowed.
    #[must_use]
    pub fn would_allow(&mut self, now: Duration, airtime: Duration) -> bool {
        self.evict(now);
        !self.regulated() || self.spent + airtime <= self.budget()
    }

    /// Records and permits a transmission if the budget allows it.
    ///
    /// Returns `false` (recording nothing) when the transmission would
    /// exceed the duty cycle.
    #[must_use]
    pub fn try_transmit(&mut self, now: Duration, airtime: Duration) -> bool {
        if !self.would_allow(now, airtime) {
            return false;
        }
        self.record(now, airtime);
        true
    }

    /// Unconditionally records a transmission (used when enforcement is the
    /// caller's responsibility).
    pub fn record(&mut self, now: Duration, airtime: Duration) {
        self.total_spent += airtime;
        if self.regulated() {
            self.evict(now);
            self.history.push_back((now, airtime));
            self.spent += airtime;
        }
    }

    /// Earliest time at or after `now` when a frame of `airtime` may be
    /// sent, or `None` when the frame can never fit the budget.
    #[must_use]
    pub fn next_allowed(&mut self, now: Duration, airtime: Duration) -> Option<Duration> {
        if self.would_allow(now, airtime) {
            return Some(now);
        }
        let budget = self.budget();
        if airtime > budget {
            return None;
        }
        // Budget frees only when an entry leaves the window, so the
        // candidate times are exactly {entry.start + window + ε}; `freed`
        // sums the entries (a prefix, ending at `oldest`) gone by then.
        let mut freed = Duration::ZERO;
        let mut oldest = self.history.iter().peekable();
        for &(start, _) in &self.history {
            let t = start + self.window + Duration::from_micros(1);
            while let Some(&(_, gone)) = oldest.next_if(|e| e.0 < t - self.window) {
                freed += gone;
            }
            if t >= now && self.spent - freed + airtime <= budget {
                return Some(t);
            }
        }
        None
    }

    /// Airtime used within the window ending at `now` (always zero when
    /// unregulated: nothing counts against a budget that does not exist).
    #[must_use]
    pub fn used(&mut self, now: Duration) -> Duration {
        self.evict(now);
        self.spent
    }

    /// Total airtime ever recorded (not windowed).
    #[must_use]
    pub fn total_airtime(&self) -> Duration {
        self.total_spent
    }

    #[doc(hidden)]
    pub fn history_len(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: Duration = Duration::from_secs(3600);

    #[test]
    fn eu868_sub_bands_cover_default_channel() {
        let r = Region::Eu868;
        let b = r.sub_band_for(r.default_frequency_hz()).expect("sub-band");
        assert!((b.duty_cycle - 0.01).abs() < 1e-12);
    }

    #[test]
    fn frequency_outside_bands_is_none() {
        assert!(Region::Eu868.sub_band_for(870_500_000).is_none());
        assert!(Region::Eu868.sub_band_for(868_650_000).is_none()); // between g1 and g2
    }

    #[test]
    fn us915_has_no_duty_cycle_but_a_dwell_limit() {
        let b = Region::Us915.sub_band_for(915_000_000).unwrap();
        assert!((b.duty_cycle - 1.0).abs() < 1e-12);
        assert_eq!(b.max_dwell, Some(Duration::from_millis(400)));
        // EU868 regulates by duty cycle instead.
        let eu = Region::Eu868.sub_band_for(868_100_000).unwrap();
        assert_eq!(eu.max_dwell, None);
    }

    #[test]
    fn budget_is_duty_times_window() {
        let t = DutyCycleTracker::eu868_one_percent();
        assert_eq!(t.budget(), Duration::from_secs(36));
    }

    #[test]
    fn refuses_beyond_budget() {
        let mut t = DutyCycleTracker::eu868_one_percent();
        assert!(t.try_transmit(Duration::ZERO, Duration::from_secs(36)));
        assert!(!t.try_transmit(Duration::from_secs(1), Duration::from_millis(1)));
    }

    #[test]
    fn budget_frees_after_window_slides() {
        let mut t = DutyCycleTracker::eu868_one_percent();
        assert!(t.try_transmit(Duration::ZERO, Duration::from_secs(36)));
        assert!(!t.try_transmit(HOUR - Duration::from_secs(1), Duration::from_secs(1)));
        assert!(t.try_transmit(HOUR + Duration::from_secs(1), Duration::from_secs(1)));
    }

    #[test]
    fn next_allowed_is_exact() {
        let mut t = DutyCycleTracker::eu868_one_percent();
        let start = Duration::from_secs(100);
        assert!(t.try_transmit(start, Duration::from_secs(36)));
        let when = t
            .next_allowed(Duration::from_secs(200), Duration::from_secs(1))
            .expect("should eventually be allowed");
        assert!(when > start + HOUR);
        assert!(when < start + HOUR + Duration::from_secs(1));
        assert!(t.would_allow(when, Duration::from_secs(1)));
    }

    #[test]
    fn next_allowed_now_when_idle() {
        let mut t = DutyCycleTracker::eu868_one_percent();
        let now = Duration::from_secs(5);
        assert_eq!(t.next_allowed(now, Duration::from_secs(1)), Some(now));
    }

    #[test]
    fn next_allowed_none_for_impossible_frame() {
        let mut t = DutyCycleTracker::eu868_one_percent();
        assert_eq!(
            t.next_allowed(Duration::ZERO, Duration::from_secs(37)),
            None
        );
    }

    #[test]
    fn unlimited_never_refuses() {
        let mut t = DutyCycleTracker::unlimited();
        for i in 0..100 {
            assert!(t.try_transmit(Duration::from_secs(i), Duration::from_secs(10)));
        }
    }

    #[test]
    fn used_and_total_track_separately() {
        let mut t = DutyCycleTracker::eu868_one_percent();
        assert!(t.try_transmit(Duration::ZERO, Duration::from_secs(10)));
        assert!(t.try_transmit(Duration::from_secs(10), Duration::from_secs(10)));
        assert_eq!(t.used(Duration::from_secs(20)), Duration::from_secs(20));
        // After the window slides past, `used` drops but `total` does not.
        assert_eq!(t.used(Duration::from_secs(8000)), Duration::ZERO);
        assert_eq!(t.total_airtime(), Duration::from_secs(20));
    }

    #[test]
    #[should_panic(expected = "duty cycle")]
    fn zero_duty_cycle_rejected() {
        let _ = DutyCycleTracker::new(0.0, HOUR);
    }
}
