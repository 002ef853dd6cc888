//! Host-speed calibration: a fixed piece of reference work, timed
//! beside everything the benchmark times.
//!
//! On a shared host the same binary on the same input runs 20–50 %
//! slower for seconds or minutes at a time (a busy hyperthread sibling,
//! a clock step), and no repeat count inside a run averages that out.
//! Most of it is common mode: it slows any code alike. So every child
//! interleaves its measured window with runs of [`reference`] and
//! reports `host.speed`, how fast the host ran the reference during the
//! window relative to [`NOMINAL_NS`]; host times are multiplied by it.
//! `host.speed`, `sim.run_s` and `sim.events` are all reported, so the
//! raw wall-clock is never hidden.
//!
//! The reference is compute-bound, so interference that hurts
//! memory-bound code more (cache, bandwidth) is only partly removed.
//! It is part of the benchmark's definition: changing it, or the
//! toolchain that compiles it, shifts every normalised number at once.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// What [`reference`] takes on the build host when nothing disturbs it.
pub const NOMINAL_NS: f64 = 450_000.0;

/// The reference work: a serial xorshift chain feeding a serial
/// floating-point sum, so neither vectorises nor overlaps; no memory.
fn reference() -> u64 {
    let start = Instant::now();
    let mut x: u64 = 88_172_645_463_325_252;
    let mut acc = 0.0f64;
    for j in 0..250_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += ((x >> 11) as f64 * 1e-9 + j as f64).sqrt();
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as u64
}

/// Accumulates reference timings; atomics, because `sweep_small`
/// samples from its worker threads.
#[derive(Default)]
pub struct HostSpeed {
    ns: AtomicU64,
    samples: AtomicU64,
}

impl HostSpeed {
    /// Runs the reference once and adds its time.
    pub fn sample(&self) {
        self.ns.fetch_add(reference(), Relaxed);
        self.samples.fetch_add(1, Relaxed);
    }

    /// Host seconds the samples so far took.
    pub fn seconds(&self) -> f64 {
        self.ns.load(Relaxed) as f64 * 1e-9
    }

    /// Nominal ÷ measured time of the samples so far: below 1 when the
    /// host was slower than nominal (1 when nothing was sampled).
    pub fn factor(&self) -> f64 {
        match self.ns.load(Relaxed) {
            0 => 1.0,
            ns => NOMINAL_NS * self.samples.load(Relaxed) as f64 / ns as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_nominal_over_measured() {
        let speed = HostSpeed::default();
        assert_eq!(speed.factor(), 1.0);
        speed.sample();
        speed.sample();
        let expected = NOMINAL_NS * 2.0 / (speed.seconds() * 1e9);
        assert!((speed.factor() / expected - 1.0).abs() < 1e-9);
        assert!(speed.factor() > 0.0 && speed.factor().is_finite());
    }
}
