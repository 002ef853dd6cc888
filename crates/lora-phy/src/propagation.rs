//! Radio propagation (path-loss) models.
//!
//! The simulator places nodes on a 2-D plane (metres) and asks a
//! [`PathLossModel`] for the attenuation between two positions. Two
//! standard models are provided:
//!
//! * **Free space** — line-of-sight Friis loss, appropriate for open-field
//!   deployments like the rooftop links in the LoRaMesher demo.
//! * **Log-distance** — `PL(d) = PL(d0) + 10·n·log10(d/d0)`, the standard
//!   empirical model for urban/indoor LoRa, with a configurable exponent
//!   `n` (2 = free space, 2.7–3.5 urban, 4+ indoor obstructed).
//!
//! Deterministic per-link log-normal *shadowing* can be layered on top: a
//! zero-mean Gaussian offset with configurable σ that is fixed per link
//! (hashed from the endpoint pair and a seed), so that the same pair of
//! nodes always sees the same wall between them.

use core::fmt;

/// A position on the simulation plane, in metres.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Position {
    /// East-west coordinate in metres.
    pub x: f64,
    /// North-south coordinate in metres.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position in metres.
    #[must_use]
    pub fn distance(&self, other: &Position) -> f64 {
        crate::math::hypot(self.x - other.x, self.y - other.y)
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// Deterministic path-loss model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PathLossModel {
    /// Friis free-space loss at the given carrier frequency.
    FreeSpace {
        /// Carrier frequency in hertz (e.g. `868_100_000`).
        frequency_hz: f64,
    },
    /// Log-distance model relative to a reference distance.
    LogDistance {
        /// Path loss at the reference distance, in dB.
        reference_loss_db: f64,
        /// Reference distance in metres (commonly 1 m or 40 m).
        reference_distance_m: f64,
        /// Path-loss exponent `n`.
        exponent: f64,
    },
}

impl PathLossModel {
    /// Free-space loss at the centre of the EU868 band.
    #[must_use]
    pub fn free_space_868() -> Self {
        PathLossModel::FreeSpace {
            frequency_hz: 868.1e6,
        }
    }

    /// The log-distance parameters Petajajarvi et al. fitted for LoRa in an
    /// urban environment: `PL(40 m) = 127.41 dB`, `n = 2.32` — a common
    /// default for campus-scale LoRa studies.
    #[must_use]
    pub fn urban_868() -> Self {
        PathLossModel::LogDistance {
            reference_loss_db: 127.41,
            reference_distance_m: 40.0,
            exponent: 2.32,
        }
    }

    /// A harsher indoor/obstructed profile (`n = 3.5`, `PL(1 m) = 40 dB`).
    #[must_use]
    pub fn indoor() -> Self {
        PathLossModel::LogDistance {
            reference_loss_db: 40.0,
            reference_distance_m: 1.0,
            exponent: 3.5,
        }
    }

    /// Path loss in dB over `distance_m` metres.
    ///
    /// Distances below 1 m (or the reference distance) are clamped so the
    /// model never returns a gain.
    #[must_use]
    pub fn loss_db(&self, distance_m: f64) -> f64 {
        match *self {
            PathLossModel::FreeSpace { frequency_hz } => {
                let d = distance_m.max(1.0);
                // FSPL(dB) = 20 log10(d) + 20 log10(f) - 147.55
                20.0 * crate::math::log10(d) + 20.0 * crate::math::log10(frequency_hz) - 147.55
            }
            PathLossModel::LogDistance {
                reference_loss_db,
                reference_distance_m,
                exponent,
            } => {
                let d = distance_m.max(reference_distance_m);
                reference_loss_db + 10.0 * exponent * crate::math::log10(d / reference_distance_m)
            }
        }
    }

    /// The distance in metres at which [`loss_db`](Self::loss_db) reaches
    /// `loss_db`: the closed-form inverse of the model's logarithmic law,
    /// one `powf`.
    ///
    /// It inverts the formula, not its rounding: `loss_db` of the result
    /// lands within a few ulps of `loss_db`, so a caller that needs the
    /// exact float at which a `loss_db` predicate flips steps from here
    /// one float at a time. The clamp is not inverted either: a loss
    /// below the model's floor maps to a distance under the clamp
    /// distance, where `loss_db` is flat.
    #[must_use]
    pub fn distance_at_loss_db(&self, loss_db: f64) -> f64 {
        match *self {
            PathLossModel::FreeSpace { frequency_hz } => {
                // 20 log10(d) + 20 log10(f) = L + 147.55, so d·f = 10^((L + 147.55) / 20).
                crate::math::powf(10.0, (loss_db + 147.55) / 20.0) / frequency_hz
            }
            PathLossModel::LogDistance {
                reference_loss_db,
                reference_distance_m,
                exponent,
            } => {
                reference_distance_m
                    * crate::math::powf(10.0, (loss_db - reference_loss_db) / (10.0 * exponent))
            }
        }
    }
}

/// Log-normal shadowing that is *deterministic per link*.
///
/// Each unordered node pair gets a fixed Gaussian offset with standard
/// deviation `sigma_db`, derived by hashing the pair with `seed`. This
/// models stable obstructions (a building between two fixed nodes) while
/// keeping simulations exactly reproducible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shadowing {
    /// Standard deviation of the shadowing term in dB (0 disables it).
    pub sigma_db: f64,
    /// Seed mixed into the per-link hash.
    pub seed: u64,
}

impl Shadowing {
    /// The truncation point of the shadowing distribution, in standard
    /// deviations: [`offset_db`](Self::offset_db) never exceeds
    /// `MAX_OFFSET_SIGMA * sigma_db` in magnitude.
    ///
    /// Truncating at ±8σ keeps the distribution indistinguishable from a
    /// true Gaussian (P(|z| > 8) ≈ 1.2·10⁻¹⁵ per link) while making the
    /// maximum audible distance of any link *finite*, which the spatial
    /// shard partitioner relies on to bound a transmission's reach.
    pub const MAX_OFFSET_SIGMA: f64 = 8.0;

    /// No shadowing.
    #[must_use]
    pub fn none() -> Self {
        Shadowing {
            sigma_db: 0.0,
            seed: 0,
        }
    }

    /// Shadowing with the given σ and seed.
    #[must_use]
    pub fn new(sigma_db: f64, seed: u64) -> Self {
        Shadowing { sigma_db, seed }
    }

    /// The fixed shadowing offset in dB for the link between nodes `a` and
    /// `b` (order-independent).
    #[must_use]
    pub fn offset_db(&self, a: u16, b: u16) -> f64 {
        if self.sigma_db == 0.0 {
            return 0.0;
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for v in [u64::from(lo), u64::from(hi)] {
            h ^= v.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h = h.rotate_left(31).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        }
        // Two uniform samples from the hash -> Box-Muller standard normal.
        let u1 = ((h >> 11) as f64 + 1.0) / (((1u64 << 53) as f64) + 2.0);
        let h2 = h.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17);
        let u2 = ((h2 >> 11) as f64) / ((1u64 << 53) as f64);
        let z = crate::math::sqrt(-2.0 * crate::math::ln(u1))
            * crate::math::cos(core::f64::consts::TAU * u2);
        z.clamp(-Self::MAX_OFFSET_SIGMA, Self::MAX_OFFSET_SIGMA) * self.sigma_db
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "both sides of each comparison run the identical deterministic computation"
)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((b.distance(&a) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn free_space_matches_friis_at_1km() {
        // FSPL at 868 MHz over 1 km ≈ 91.2 dB.
        let loss = PathLossModel::free_space_868().loss_db(1000.0);
        assert!((loss - 91.2).abs() < 0.3, "got {loss}");
    }

    #[test]
    fn free_space_adds_6db_per_doubling() {
        let m = PathLossModel::free_space_868();
        let d1 = m.loss_db(500.0);
        let d2 = m.loss_db(1000.0);
        assert!((d2 - d1 - 6.02).abs() < 0.01);
    }

    #[test]
    fn log_distance_matches_reference_point() {
        let m = PathLossModel::urban_868();
        assert!((m.loss_db(40.0) - 127.41).abs() < 1e-9);
        // +23.2 dB per decade with n = 2.32
        assert!((m.loss_db(400.0) - 127.41 - 23.2).abs() < 1e-9);
    }

    #[test]
    fn loss_is_monotone_in_distance() {
        for model in [
            PathLossModel::free_space_868(),
            PathLossModel::urban_868(),
            PathLossModel::indoor(),
        ] {
            let mut last = f64::NEG_INFINITY;
            for d in [1.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0] {
                let l = model.loss_db(d);
                assert!(l >= last, "{model:?} at {d}");
                last = l;
            }
        }
    }

    #[test]
    fn distance_at_loss_inverts_loss() {
        for model in [
            PathLossModel::free_space_868(),
            PathLossModel::urban_868(),
            PathLossModel::indoor(),
        ] {
            for d in [50.0, 333.0, 1000.0, 12_345.0, 2.0e6] {
                let back = model.distance_at_loss_db(model.loss_db(d));
                assert!((back - d).abs() <= d * 1e-12, "{model:?}: {d} -> {back}");
            }
        }
    }

    #[test]
    fn short_distances_are_clamped() {
        let m = PathLossModel::urban_868();
        assert_eq!(m.loss_db(0.0), m.loss_db(40.0));
        let fs = PathLossModel::free_space_868();
        assert_eq!(fs.loss_db(0.0), fs.loss_db(1.0));
    }

    #[test]
    fn shadowing_is_symmetric_and_deterministic() {
        let s = Shadowing::new(6.0, 42);
        assert_eq!(s.offset_db(3, 9), s.offset_db(9, 3));
        assert_eq!(s.offset_db(3, 9), s.offset_db(3, 9));
        assert_ne!(s.offset_db(3, 9), s.offset_db(3, 10));
    }

    #[test]
    fn shadowing_zero_sigma_is_zero() {
        assert_eq!(Shadowing::none().offset_db(1, 2), 0.0);
    }

    #[test]
    fn shadowing_distribution_roughly_normal() {
        let s = Shadowing::new(6.0, 7);
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let n = 2000;
        for i in 0..n {
            let v = s.offset_db(i, i + 1);
            sum += v;
            sum_sq += v * v;
        }
        let mean = sum / f64::from(n);
        let std = (sum_sq / f64::from(n) - mean * mean).sqrt();
        assert!(mean.abs() < 0.5, "mean {mean}");
        assert!((std - 6.0).abs() < 0.5, "std {std}");
    }

    #[test]
    fn shadowing_offsets_are_bounded() {
        let s = Shadowing::new(6.0, 99);
        let bound = Shadowing::MAX_OFFSET_SIGMA * 6.0;
        for i in 0..5000 {
            let v = s.offset_db(i, i.wrapping_add(1));
            assert!(v.abs() <= bound, "offset {v} exceeds ±{bound}");
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = Shadowing::new(6.0, 1);
        let b = Shadowing::new(6.0, 2);
        assert_ne!(a.offset_db(1, 2), b.offset_db(1, 2));
    }
}
