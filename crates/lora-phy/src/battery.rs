//! Battery-lifetime estimation.
//!
//! Turns the radio's per-state time accounting
//! ([`crate::power::StateDurations`]) into deployment-planning numbers:
//! average current draw and expected lifetime on a given battery. This
//! quantifies the cost the LoRaMesher paper flags for future work — a
//! mesh router keeps its receiver on, which dominates consumption.

use core::time::Duration;

use crate::power::{EnergyModel, StateDurations};

/// A battery, described by its usable capacity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Battery {
    /// Usable capacity in milliamp-hours.
    pub capacity_mah: f64,
    /// Usable fraction of nominal capacity (self-discharge, cutoff
    /// voltage, temperature derating). 0.8 is a common planning figure.
    pub usable_fraction: f64,
}

impl Battery {
    /// A battery with the given nominal capacity and 80 % derating.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_mah` is not positive.
    #[must_use]
    pub fn new(capacity_mah: f64) -> Self {
        assert!(capacity_mah > 0.0, "capacity must be positive");
        Battery {
            capacity_mah,
            usable_fraction: 0.8,
        }
    }

    /// A single 18650 lithium cell (~3400 mAh).
    #[must_use]
    pub fn cell_18650() -> Self {
        Battery::new(3400.0)
    }

    /// Two AA alkaline cells (~2500 mAh at low drain).
    #[must_use]
    pub fn aa_pair() -> Self {
        Battery::new(2500.0)
    }

    /// Usable charge in milliamp-hours.
    #[must_use]
    pub fn usable_mah(&self) -> f64 {
        self.capacity_mah * self.usable_fraction
    }
}

/// Consumption profile derived from a measured (or simulated) interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConsumptionProfile {
    /// Average current in milliamps over the interval.
    pub average_milliamps: f64,
    /// Share of consumption spent transmitting (0–1).
    pub tx_share: f64,
    /// Share of consumption spent with the receiver on (listening or
    /// receiving).
    pub rx_share: f64,
}

impl ConsumptionProfile {
    /// Derives the profile from per-state durations under `model`.
    ///
    /// Returns `None` when `durations` covers no time at all.
    #[must_use]
    pub fn from_durations(model: &EnergyModel, durations: &StateDurations) -> Option<Self> {
        let total = durations.tx + durations.rx + durations.idle + durations.sleep;
        if total.is_zero() {
            return None;
        }
        let mj = model.energy_millijoules(durations);
        let avg_ma = mj / model.supply_volts / total.as_secs_f64();
        let share = |ma: f64, d: Duration| ma * model.supply_volts * d.as_secs_f64() / mj;
        Some(ConsumptionProfile {
            average_milliamps: avg_ma,
            tx_share: share(model.tx_milliamps, durations.tx),
            rx_share: share(model.rx_milliamps, durations.rx),
        })
    }

    /// Expected lifetime on `battery` at this average draw.
    #[must_use]
    pub fn lifetime_on(&self, battery: &Battery) -> Duration {
        let hours = battery.usable_mah() / self.average_milliamps;
        Duration::from_secs_f64(hours * 3600.0)
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "both sides of each comparison run the identical deterministic computation"
)]
mod tests {
    use super::*;

    fn model() -> EnergyModel {
        EnergyModel::default()
    }

    #[test]
    fn always_listening_node_draws_rx_current() {
        // 1 hour, receiver on the whole time.
        let d = StateDurations {
            rx: Duration::from_secs(3600),
            ..StateDurations::default()
        };
        let p = ConsumptionProfile::from_durations(&model(), &d).unwrap();
        assert!((p.average_milliamps - 12.0).abs() < 0.01, "{p:?}");
        assert!((p.rx_share - 1.0).abs() < 1e-9);
        assert_eq!(p.tx_share, 0.0);
        // 3400 mAh * 0.8 / 12 mA ≈ 226 h ≈ 9.4 days.
        let life = p.lifetime_on(&Battery::cell_18650());
        let days = life.as_secs_f64() / 86_400.0;
        assert!((9.0..10.0).contains(&days), "{days} days");
    }

    #[test]
    fn sleeping_node_lives_for_years() {
        let d = StateDurations {
            sleep: Duration::from_secs(3600),
            ..StateDurations::default()
        };
        let p = ConsumptionProfile::from_durations(&model(), &d).unwrap();
        let years = p.lifetime_on(&Battery::aa_pair()).as_secs_f64() / (365.25 * 86_400.0);
        assert!(years > 100.0, "sleep current only: {years} years");
    }

    #[test]
    fn tx_share_reflects_duty() {
        // 36 s of TX per hour (the EU868 1 % budget), receiver on otherwise.
        let d = StateDurations {
            tx: Duration::from_secs(36),
            rx: Duration::from_secs(3564),
            ..StateDurations::default()
        };
        let p = ConsumptionProfile::from_durations(&model(), &d).unwrap();
        // TX energy: 36*44 = 1584 mAs; RX: 3564*12 = 42768 mAs.
        assert!((p.tx_share - 1584.0 / (1584.0 + 42768.0)).abs() < 1e-9);
        assert!(p.average_milliamps > 12.0);
    }

    #[test]
    fn empty_interval_is_none() {
        assert!(ConsumptionProfile::from_durations(&model(), &StateDurations::default()).is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = Battery::new(0.0);
    }
}
