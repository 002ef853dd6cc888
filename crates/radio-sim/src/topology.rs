//! Node placement generators.
//!
//! The LoRaMesher demo arranges a handful of boards so that not every node
//! hears every other — that is what makes routing necessary. These
//! generators reproduce the standard layouts used in mesh evaluations:
//! lines (maximum hop count), grids, rings, stars, and uniform random
//! scatters, plus a helper that computes the radio range so spacings can
//! be chosen relative to it.

use lora_phy::link::{sensitivity, LinkBudget};
use lora_phy::propagation::Position;

use crate::grid::Grid;
use crate::medium::RfConfig;
use crate::rng::SimRng;

/// The distance at which a link under `config` stops closing (ignoring
/// shadowing): the last float in `[1 m, 1e7 m)` at which it still
/// closes, `0.0` when it fails at 1 m, and `1e7` when it still closes
/// there.
///
/// The path-loss inverse ([`PathLossModel::distance_at_loss_db`]) puts
/// the boundary within a few floats, and a walk one float at a time
/// against the link budget itself finds the exact one. That is the
/// float a bisection on the same predicate converges to, because the
/// loss — hence whether the link closes — is monotone in distance over
/// floats (`crates/radio-sim/tests/topology_model.rs` checks it
/// against a bisection bit for bit).
///
/// Topology builders use this to space nodes as "k × range" so that a
/// 100 m-range urban profile and a 10 km free-space profile produce the
/// same connectivity graph.
///
/// [`PathLossModel::distance_at_loss_db`]: lora_phy::propagation::PathLossModel::distance_at_loss_db
#[must_use]
pub fn radio_range_m(config: &RfConfig) -> f64 {
    const CAP: f64 = 1.0e7;
    let sens = sensitivity(
        config.modulation.spreading_factor,
        config.modulation.bandwidth,
    );
    let closes = |d: f64| {
        let budget = LinkBudget {
            tx_power: config.tx_power,
            tx_antenna_gain_db: config.antenna_gain_db,
            rx_antenna_gain_db: config.antenna_gain_db,
            path_loss_db: config.path_loss.loss_db(d),
        };
        budget.received_power() >= sens
    };
    if !closes(1.0) {
        return 0.0;
    }
    if closes(CAP) {
        return CAP;
    }
    let max_loss = config.tx_power.value() + 2.0 * config.antenna_gain_db - sens.value();
    // `max` first: it maps a NaN estimate to 1 m.
    let mut r = config
        .path_loss
        .distance_at_loss_db(max_loss)
        .max(1.0)
        .min(CAP.next_down());
    // Both walks stay in [1, CAP): the link closes at 1 m and not at CAP.
    while closes(r.next_up()) {
        r = r.next_up();
    }
    while !closes(r) {
        r = r.next_down();
    }
    r
}

/// `n` nodes on a straight line with the given spacing.
///
/// With spacing between 0.5× and 1× the radio range this produces a chain
/// where each node hears only its immediate neighbours — the worst case
/// for hop count.
#[must_use]
pub fn line(n: usize, spacing_m: f64) -> Vec<Position> {
    (0..n)
        .map(|i| Position::new(i as f64 * spacing_m, 0.0))
        .collect()
}

/// `nx × ny` nodes on a rectangular grid.
#[must_use]
pub fn grid(nx: usize, ny: usize, spacing_m: f64) -> Vec<Position> {
    let mut v = Vec::with_capacity(nx * ny);
    for j in 0..ny {
        for i in 0..nx {
            v.push(Position::new(i as f64 * spacing_m, j as f64 * spacing_m));
        }
    }
    v
}

/// `n` nodes evenly spaced on a circle of the given radius.
#[must_use]
pub fn ring(n: usize, radius_m: f64) -> Vec<Position> {
    (0..n)
        .map(|i| {
            let theta = core::f64::consts::TAU * i as f64 / n as f64;
            Position::new(radius_m * theta.cos(), radius_m * theta.sin())
        })
        .collect()
}

/// A hub at the origin plus `n - 1` spokes on a circle of the given
/// radius (LoRaWAN-like star; `n` must be at least 1).
#[must_use]
pub fn star(n: usize, radius_m: f64) -> Vec<Position> {
    let mut v = vec![Position::new(0.0, 0.0)];
    if n > 1 {
        v.extend(ring(n - 1, radius_m));
    }
    v
}

/// `n` nodes uniformly random in a `width × height` rectangle.
#[must_use]
pub fn random(n: usize, width_m: f64, height_m: f64, rng: &mut SimRng) -> Vec<Position> {
    draw(n, width_m, height_m, rng).collect()
}

/// The positions of one [`random`] draw, in the order it consumes the RNG.
fn draw(
    n: usize,
    width_m: f64,
    height_m: f64,
    rng: &mut SimRng,
) -> impl Iterator<Item = Position> + '_ {
    (0..n).map(move |_| Position::new(rng.gen_f64() * width_m, rng.gen_f64() * height_m))
}

/// Whether the geometric graph over `positions` with the given link range
/// is connected: nodes `i` and `j` are linked exactly when
/// `positions[i].distance(&positions[j]) <= range_m`.
///
/// The traversal costs O(n · local density) rather than O(n²), and
/// rarely evaluates a `hypot`; the relation it decides is still the
/// `distance` one, pair for pair (see `Connectivity`).
#[must_use]
pub fn is_connected(positions: &[Position], range_m: f64) -> bool {
    Connectivity::default().check(positions, range_m)
}

/// Relative slack of the squared-distance gate, and of the grid's cell
/// side over the link range. Both only need to exceed the few-ulp
/// rounding of the arithmetic they absorb (≈ 1e-15 relative) by a wide
/// margin.
const SLACK: f64 = 1e-9;

/// The connectivity check behind [`is_connected`], with its scratch (the
/// candidate grid, the `seen` flags and the DFS stack) kept between
/// calls, so [`connected_random`] allocates nothing after its first
/// draw.
///
/// **Exactness.** A pair is linked when `a.distance(&b) <= range_m`,
/// with `distance` a `hypot` of the coordinate differences `dx`, `dy`.
/// Two steps avoid evaluating that for almost every pair, and neither
/// changes a single verdict:
///
/// 1. **Grid.** Nodes are bucketed in a [`Grid`] whose cell side is at
///    least `range_m · (1 + SLACK)`, and a node's DFS step visits only
///    the 3×3 block of cells around it. `grid.rs` shows the block holds
///    every node within a cell side; the slack keeps that true when a
///    pair sits at exactly `range_m` and the cell-index arithmetic
///    rounds by a few ulps. Nodes outside the block are unlinked.
/// 2. **Gate.** For a candidate, `d2 = dx² + dy²` is computed with
///    the same `dx`, `dy` as `distance`. It carries a few ulps of
///    relative error, as does `hypot`, so with `r2 = range_m²`:
///    `d2 < r2 · (1 − SLACK)` proves `distance < range_m` (linked) and
///    `d2 > r2 · (1 + SLACK)` proves `distance > range_m` (unlinked).
///    Anything in between, NaN included, falls back to
///    `distance <= range_m` itself. The bounds hold only while `r2` is
///    a positive normal float — below that, squares lose their relative
///    precision to underflow, and above it they overflow — so for any
///    other `range_m` (≤ 0, tiny, huge, ±∞, NaN) every pair falls back.
///
/// So each pair is judged linked exactly when `distance` says so, the
/// graph is the same graph, and the answer is the same answer.
#[derive(Debug, Default)]
struct Connectivity {
    grid: Grid,
    seen: Vec<bool>,
    stack: Vec<usize>,
}

impl Connectivity {
    /// [`is_connected`] over this scratch.
    fn check(&mut self, positions: &[Position], range_m: f64) -> bool {
        let n = positions.len();
        if n <= 1 {
            return true;
        }
        let r2 = range_m * range_m;
        let (lo, hi) = if range_m > 0.0 && r2.is_normal() {
            (r2 * (1.0 - SLACK), r2 * (1.0 + SLACK))
        } else {
            (f64::NEG_INFINITY, f64::INFINITY)
        };
        let linked = |a: &Position, b: &Position| {
            let (dx, dy) = (a.x - b.x, a.y - b.y);
            let d2 = dx * dx + dy * dy;
            if d2 < lo {
                true
            } else if d2 > hi {
                false
            } else {
                a.distance(b) <= range_m
            }
        };

        let Connectivity { grid, seen, stack } = self;
        grid.rebuild(positions, range_m * (1.0 + SLACK));
        seen.clear();
        seen.resize(n, false);
        stack.clear();
        stack.reserve(n);
        stack.push(0);
        seen[0] = true;
        let mut count = 1;
        while count < n {
            let Some(i) = stack.pop() else {
                return false;
            };
            let p = &positions[i];
            grid.for_each_candidate(*p, |j| {
                if !seen[j] && linked(p, &positions[j]) {
                    seen[j] = true;
                    count += 1;
                    stack.push(j);
                }
            });
        }
        true
    }
}

/// Random placement resampled until the resulting geometric graph at
/// `range_m` is connected, up to `max_attempts` tries.
///
/// Returns `None` when no connected placement was found — callers should
/// enlarge the area, the range or the attempt budget.
#[must_use]
pub fn connected_random(
    n: usize,
    width_m: f64,
    height_m: f64,
    range_m: f64,
    rng: &mut SimRng,
    max_attempts: usize,
) -> Option<Vec<Position>> {
    let mut placement = Vec::with_capacity(n);
    let mut connectivity = Connectivity::default();
    for _ in 0..max_attempts {
        placement.clear();
        placement.extend(draw(n, width_m, height_m, rng));
        if connectivity.check(&placement, range_m) {
            return Some(placement);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_spacing() {
        let l = line(4, 100.0);
        assert_eq!(l.len(), 4);
        assert!((l[3].x - 300.0).abs() < 1e-9);
        assert!(l.iter().all(|p| p.y == 0.0));
    }

    #[test]
    fn grid_layout() {
        let g = grid(3, 2, 50.0);
        assert_eq!(g.len(), 6);
        assert_eq!(g[0], Position::new(0.0, 0.0));
        assert_eq!(g[5], Position::new(100.0, 50.0));
    }

    #[test]
    fn ring_is_equidistant_from_centre() {
        let r = ring(8, 200.0);
        let centre = Position::new(0.0, 0.0);
        for p in &r {
            assert!((p.distance(&centre) - 200.0).abs() < 1e-9);
        }
    }

    #[test]
    fn star_has_hub_at_origin() {
        let s = star(5, 300.0);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0], Position::new(0.0, 0.0));
        assert_eq!(star(1, 300.0).len(), 1);
    }

    #[test]
    fn random_stays_in_bounds_and_is_deterministic() {
        let mut rng = SimRng::new(5);
        let a = random(20, 1000.0, 500.0, &mut rng);
        assert!(a
            .iter()
            .all(|p| (0.0..1000.0).contains(&p.x) && (0.0..500.0).contains(&p.y)));
        let mut rng2 = SimRng::new(5);
        let b = random(20, 1000.0, 500.0, &mut rng2);
        assert_eq!(a, b);
    }

    #[test]
    fn connectivity_detection() {
        let connected = line(5, 90.0);
        assert!(is_connected(&connected, 100.0));
        // Break the chain.
        let mut broken = connected.clone();
        broken[4] = Position::new(10_000.0, 0.0);
        assert!(!is_connected(&broken, 100.0));
        assert!(is_connected(&[], 1.0));
        assert!(is_connected(&[Position::new(0.0, 0.0)], 1.0));
    }

    #[test]
    fn connected_random_respects_range() {
        let mut rng = SimRng::new(9);
        let p = connected_random(10, 500.0, 500.0, 250.0, &mut rng, 100).expect("placement");
        assert!(is_connected(&p, 250.0));
    }

    #[test]
    fn connected_random_gives_up() {
        let mut rng = SimRng::new(9);
        // 2 nodes in a huge area with tiny range: essentially impossible.
        assert!(connected_random(2, 1.0e6, 1.0e6, 1.0, &mut rng, 5).is_none());
    }

    #[test]
    fn radio_range_is_positive_and_monotone_in_sf() {
        use lora_phy::modulation::{Bandwidth, CodingRate, LoRaModulation, SpreadingFactor};
        let mut cfg = RfConfig {
            modulation: LoRaModulation::new(
                SpreadingFactor::Sf7,
                Bandwidth::Khz125,
                CodingRate::Cr4_5,
            ),
            ..RfConfig::default()
        };
        let r7 = radio_range_m(&cfg);
        cfg.modulation =
            LoRaModulation::new(SpreadingFactor::Sf12, Bandwidth::Khz125, CodingRate::Cr4_5);
        let r12 = radio_range_m(&cfg);
        assert!(r7 > 100.0, "SF7 range {r7}");
        assert!(r12 > r7, "SF12 range {r12} should exceed SF7 range {r7}");
    }

    #[test]
    fn radio_range_stops_bisecting_at_the_same_float() {
        use lora_phy::modulation::{Bandwidth, CodingRate, LoRaModulation, SpreadingFactor};
        use lora_phy::power::Dbm;
        use lora_phy::propagation::PathLossModel;
        // All 200 halvings of [1, 1e7], plus whether the link closes at
        // each end: the definition the inverse-and-walk must reproduce.
        let full = |config: &RfConfig| {
            let m = &config.modulation;
            let sens = sensitivity(m.spreading_factor, m.bandwidth);
            let closes = |d: f64| {
                let budget = LinkBudget {
                    tx_power: config.tx_power,
                    tx_antenna_gain_db: config.antenna_gain_db,
                    rx_antenna_gain_db: config.antenna_gain_db,
                    path_loss_db: config.path_loss.loss_db(d),
                };
                budget.received_power() >= sens
            };
            let (mut lo, mut hi) = (1.0, 1.0e7);
            for _ in 0..200 {
                let mid = (lo + hi) / 2.0;
                if closes(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            if !closes(1.0) {
                0.0
            } else if closes(1.0e7) {
                1.0e7
            } else {
                lo
            }
        };
        for sf in SpreadingFactor::ALL {
            for bw in Bandwidth::ALL {
                // −200 dBm fails at 1 m and 500 dBm closes past 1e7 m.
                for tx in [-200.0, -4.0, 2.0, 14.0, 20.0, 500.0] {
                    for path_loss in [
                        PathLossModel::urban_868(),
                        PathLossModel::indoor(),
                        PathLossModel::FreeSpace {
                            frequency_hz: 868_100_000.0,
                        },
                    ] {
                        for antenna_gain_db in [0.0, 2.15] {
                            let config = RfConfig {
                                modulation: LoRaModulation::new(sf, bw, CodingRate::Cr4_5),
                                path_loss,
                                tx_power: Dbm::new(tx),
                                antenna_gain_db,
                                ..RfConfig::default()
                            };
                            let r = radio_range_m(&config);
                            assert_eq!(r.to_bits(), full(&config).to_bits(), "{config:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn radio_range_boundary_is_tight() {
        let cfg = RfConfig::default();
        let r = radio_range_m(&cfg);
        let m = crate::medium::Medium::new(cfg);
        let at = |d: f64| {
            m.received_power(
                &Position::new(0.0, 0.0),
                &Position::new(d, 0.0),
                crate::firmware::NodeId(0),
                crate::firmware::NodeId(1),
            )
        };
        assert!(m.audible(at(r * 0.999)));
        assert!(!m.audible(at(r * 1.001)));
    }
}
