//! Node movement models.
//!
//! Most LoRa mesh deployments are static, but the demo paper's motivation
//! (ad-hoc deployments on tiny nodes) includes movable nodes. The
//! simulator samples positions on a fixed tick; between ticks nodes move
//! in straight lines. Movement is deterministic given the seed.

use lora_phy::propagation::Position;

use crate::rng::SimRng;
use std::time::Duration;

/// A movement model for one node.
#[derive(Clone, Debug)]
pub enum Mobility {
    /// The node never moves.
    Static,
    /// Random-waypoint: pick a uniform destination in the area, travel at
    /// a uniform speed from the range, pause, repeat.
    RandomWaypoint {
        /// Area width in metres.
        width_m: f64,
        /// Area height in metres.
        height_m: f64,
        /// Minimum speed in m/s.
        min_speed: f64,
        /// Maximum speed in m/s.
        max_speed: f64,
        /// Pause at each waypoint.
        pause: Duration,
    },
}

impl Mobility {
    /// Whether every parameter is finite and every speed non-negative: a
    /// negative speed walks the node away from its waypoint forever.
    #[must_use]
    pub(crate) fn is_valid(&self) -> bool {
        match *self {
            Mobility::Static => true,
            Mobility::RandomWaypoint {
                width_m,
                height_m,
                min_speed,
                max_speed,
                ..
            } => {
                [width_m, height_m, min_speed, max_speed]
                    .iter()
                    .all(|v| v.is_finite())
                    && min_speed >= 0.0
                    && max_speed >= 0.0
            }
        }
    }
}

/// Per-node mobility state advanced on each tick.
#[derive(Clone, Debug)]
pub struct MobilityState {
    model: Mobility,
    /// Current destination and speed, when moving.
    leg: Option<(Position, f64)>,
    /// Remaining pause time, when paused.
    pause_left: Duration,
}

impl MobilityState {
    /// Creates state for the given model.
    #[must_use]
    pub fn new(model: Mobility) -> Self {
        MobilityState {
            model,
            leg: None,
            pause_left: Duration::ZERO,
        }
    }

    /// Whether the node can ever move.
    #[must_use]
    pub fn is_mobile(&self) -> bool {
        !matches!(self.model, Mobility::Static)
    }

    /// Advances the node from `pos` by `dt`, returning its new position.
    pub fn step(&mut self, pos: Position, dt: Duration, rng: &mut SimRng) -> Position {
        let Mobility::RandomWaypoint {
            width_m,
            height_m,
            min_speed,
            max_speed,
            pause,
        } = self.model
        else {
            return pos;
        };

        if !self.pause_left.is_zero() {
            self.pause_left = self.pause_left.saturating_sub(dt);
            return pos;
        }

        let (dest, speed) = match self.leg {
            Some(leg) => leg,
            None => {
                let dest = Position::new(rng.gen_f64() * width_m, rng.gen_f64() * height_m);
                let speed = min_speed + rng.gen_f64() * (max_speed - min_speed).max(0.0);
                self.leg = Some((dest, speed));
                (dest, speed)
            }
        };

        let dist = pos.distance(&dest);
        let travel = speed * dt.as_secs_f64();
        if travel >= dist {
            // Arrived: start the pause, next tick picks a new waypoint.
            self.leg = None;
            self.pause_left = pause;
            dest
        } else {
            let f = travel / dist;
            Position::new(pos.x + (dest.x - pos.x) * f, pos.y + (dest.y - pos.y) * f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_never_moves() {
        let mut s = MobilityState::new(Mobility::Static);
        let p = Position::new(3.0, 4.0);
        assert!(!s.is_mobile());
        let moved = s.step(p, Duration::from_secs(100), &mut SimRng::new(1));
        assert_eq!(moved, p);
    }

    fn waypoint() -> Mobility {
        Mobility::RandomWaypoint {
            width_m: 1000.0,
            height_m: 1000.0,
            min_speed: 1.0,
            max_speed: 2.0,
            pause: Duration::from_secs(5),
        }
    }

    #[test]
    fn waypoint_moves_at_bounded_speed() {
        let mut s = MobilityState::new(waypoint());
        let mut rng = SimRng::new(2);
        let mut pos = Position::new(500.0, 500.0);
        for _ in 0..50 {
            let next = s.step(pos, Duration::from_secs(1), &mut rng);
            let d = pos.distance(&next);
            assert!(d <= 2.0 + 1e-9, "moved {d} m in 1 s");
            pos = next;
        }
        assert!(pos.distance(&Position::new(500.0, 500.0)) > 0.0);
    }

    #[test]
    fn waypoint_stays_in_area() {
        let mut s = MobilityState::new(waypoint());
        let mut rng = SimRng::new(3);
        let mut pos = Position::new(0.0, 0.0);
        for _ in 0..2000 {
            pos = s.step(pos, Duration::from_secs(2), &mut rng);
            assert!((0.0..=1000.0).contains(&pos.x), "x {}", pos.x);
            assert!((0.0..=1000.0).contains(&pos.y), "y {}", pos.y);
        }
    }

    #[test]
    fn waypoint_pauses_on_arrival() {
        let mut s = MobilityState::new(Mobility::RandomWaypoint {
            width_m: 10.0,
            height_m: 10.0,
            min_speed: 100.0,
            max_speed: 100.0,
            pause: Duration::from_secs(10),
        });
        let mut rng = SimRng::new(4);
        // Fast node in a tiny area arrives within the first step.
        let p0 = Position::new(5.0, 5.0);
        let p1 = s.step(p0, Duration::from_secs(1), &mut rng);
        // Now paused: the next short step must not move it.
        let p2 = s.step(p1, Duration::from_secs(1), &mut rng);
        assert_eq!(p1, p2);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed| {
            let mut s = MobilityState::new(waypoint());
            let mut rng = SimRng::new(seed);
            let mut pos = Position::new(0.0, 0.0);
            for _ in 0..20 {
                pos = s.step(pos, Duration::from_secs(3), &mut rng);
            }
            pos
        };
        assert_eq!(run(7), run(7));
    }
}
