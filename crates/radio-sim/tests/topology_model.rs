//! Property tests for `topology::is_connected` against the brute-force
//! definition it must reproduce pair for pair: a DFS over all n² pairs
//! in which `i` and `j` are linked exactly when
//! `positions[i].distance(&positions[j]) <= range_m`.
//!
//! The inputs cover what the grid and the squared-distance gate could
//! get wrong:
//!
//! 1. **Random placements** from sparse to dense, at coordinate scales
//!    from 1e-300 to 1e300, so ranges whose square underflows or
//!    overflows take the exact fallback.
//! 2. **Boundary chains**: random walks whose longest step sets the
//!    range to exactly that step's `distance`, or one ulp either side,
//!    so the verdict hangs on the last bit of one pair — at scales where
//!    the squared steps are normal, subnormal or near overflow.
//! 3. **Co-located nodes and tiny sets**: n = 0, 1 and 2, duplicates,
//!    and ranges of 0, −0 and below.
//! 4. **Non-finite input**: NaN and ±∞ coordinates against finite,
//!    infinite and NaN ranges.
//!
//! `connected_random` is checked to accept the draw a plain
//! `random` + brute-force loop accepts.
//!
//! The two range functions, `topology::radio_range_m` and
//! `shard::max_audible_range`, start from the path-loss inverse and walk
//! one float at a time to the boundary. They are checked bit for bit
//! against the bisections that define them (kept here as
//! `bisected_radio_range` and `bisected_audible_range`) over a grid of
//! SF × bandwidth × path-loss model × tx power × antenna gain × σ, and
//! on every degenerate branch: a link that fails at 1 m, a range past
//! the caps, NaN budgets and sub-metre boundaries. Equality rests on
//! `loss_db` being monotone over floats on this host's libm; the
//! battery is what shows it. `ci.sh` runs it in `--release` too, where
//! the optimiser may reorder the float code.
//!
//! Hand mutants of `topology.rs` this file kills (each fails at least
//! one property at the default case count):
//!
//! - the gate without its exact fallback: the in-between band decided
//!   as `d2 <= r2`, as linked or as unlinked (boundary chains);
//! - the gate's slack sign flipped, so the band is decided by the gate
//!   (boundary chains);
//! - the grid built with a cell side below `range_m`, e.g. half of it
//!   (random placements, boundary chains);
//! - the gate applied to a range that is not positive (co-located
//!   nodes) or whose square is not a normal float (boundary chains).
//!
//! and of the range functions:
//!
//! - `radio_range_m` without its upward walk (preset grid, random
//!   budgets);
//! - `max_audible_range` without its downward walk (preset grid, random
//!   budgets), or without rounding sub-metre bounds up to its 2^-64 m
//!   grid (degenerate budgets, random budgets).

use lora_phy::link::{sensitivity, LinkBudget};
use lora_phy::modulation::{Bandwidth, CodingRate, LoRaModulation, SpreadingFactor};
use lora_phy::power::Dbm;
use lora_phy::propagation::{PathLossModel, Position, Shadowing};
use radio_sim::medium::RfConfig;
use radio_sim::rng::SimRng;
use radio_sim::shard::max_audible_range;
use radio_sim::topology::{connected_random, is_connected, radio_range_m, random};
use testkit::{forall, Gen};

/// The definition: DFS over every pair, linked iff `distance <= range_m`.
fn reference(positions: &[Position], range_m: f64) -> bool {
    let n = positions.len();
    if n <= 1 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 1;
    while let Some(i) = stack.pop() {
        for j in 0..n {
            if !seen[j] && positions[i].distance(&positions[j]) <= range_m {
                seen[j] = true;
                count += 1;
                stack.push(j);
            }
        }
    }
    count == n
}

fn agrees(positions: &[Position], range_m: f64) -> Result<(), String> {
    let (got, want) = (
        is_connected(positions, range_m),
        reference(positions, range_m),
    );
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "is_connected says {got}, the pairwise definition {want} (range {range_m:e})"
        ))
    }
}

#[test]
fn random_placements_match_brute_force() {
    forall(
        "random_placements_match_brute_force",
        |g| {
            let scale = g.choose(&[1e-300, 1e-160, 1e-3, 1.0, 1e3, 1e150, 1e300]);
            let n = g.len_in(0, 90);
            let side = scale * (1.0 + 999.0 * g.f64());
            let positions: Vec<Position> = (0..n)
                .map(|_| Position::new(side * g.f64(), side * g.f64()))
                .collect();
            // From well below the connectivity threshold to one cell.
            let range = side * (0.02 + 0.6 * g.f64());
            (positions, range)
        },
        |(positions, range)| agrees(positions, *range),
    );
}

/// A random walk of `n` steps of similar length plus its steps' exact
/// `distance`s. At the smallest scale the squared steps are subnormal,
/// at the largest they approach overflow.
fn walk(g: &mut Gen, n: usize) -> (Vec<Position>, Vec<f64>) {
    let scale = g.choose(&[1e-160, 1.0, 1e151]);
    let origin = Position::new(scale * (1e6 * g.f64() - 5e5), scale * (1e6 * g.f64() - 5e5));
    let step = scale * (1.0 + 1e3 * g.f64());
    let mut positions = vec![origin];
    for _ in 1..n {
        let last = positions[positions.len() - 1];
        // Axis-aligned steps now and then: the cell-index arithmetic is
        // tightest along an axis.
        let theta = if g.bool(0.25) {
            std::f64::consts::FRAC_PI_2 * g.usize_in(0, 3) as f64
        } else {
            std::f64::consts::TAU * g.f64()
        };
        let length = step * (0.9 + 0.1 * g.f64());
        positions.push(Position::new(
            last.x + length * theta.cos(),
            last.y + length * theta.sin(),
        ));
    }
    let steps = positions.windows(2).map(|w| w[0].distance(&w[1])).collect();
    (positions, steps)
}

#[test]
fn boundary_chains_match_brute_force() {
    forall(
        "boundary_chains_match_brute_force",
        |g| {
            let n = g.len_in(2, 16);
            let (mut positions, steps) = walk(g, n);
            let critical = steps.iter().copied().fold(0.0, f64::max);
            // Exactly the longest step, or one ulp below or above it.
            let range = match g.usize_in(0, 2) {
                0 => critical.next_down(),
                1 => critical,
                _ => critical.next_up(),
            };
            // The DFS starts at node 0; start it mid-chain too.
            let rotate = g.usize_in(0, n - 1);
            positions.rotate_left(rotate);
            (positions, range)
        },
        |(positions, range)| {
            agrees(positions, *range)?;
            // Every pair in the chain at its own exact distance, one
            // ulp either side: each verdict is a single bit.
            for w in positions.windows(2) {
                let d = w[0].distance(&w[1]);
                for r in [d.next_down(), d, d.next_up()] {
                    agrees(w, r)?;
                }
            }
            Ok(())
        },
    );
}

#[test]
fn co_located_nodes_and_tiny_sets_match_brute_force() {
    forall(
        "co_located_nodes_and_tiny_sets_match_brute_force",
        |g| {
            let n = g.len_in(0, 6);
            let spots: Vec<Position> = (0..2)
                .map(|_| Position::new(100.0 * g.f64(), 100.0 * g.f64()))
                .collect();
            let positions: Vec<Position> = (0..n).map(|_| g.choose(&spots)).collect();
            let gap = spots[0].distance(&spots[1]);
            let range = g.choose(&[0.0, -0.0, -1.0, 1e-300, gap, gap.next_down(), 1e9]);
            (positions, range)
        },
        |(positions, range)| agrees(positions, *range),
    );
}

#[test]
fn non_finite_coordinates_and_ranges_match_brute_force() {
    const SPECIAL: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    forall(
        "non_finite_coordinates_and_ranges_match_brute_force",
        |g| {
            let n = g.len_in(0, 12);
            let coordinate = |g: &mut Gen| {
                if g.bool(0.3) {
                    g.choose(&SPECIAL)
                } else {
                    1e3 * g.f64()
                }
            };
            let positions: Vec<Position> = (0..n)
                .map(|_| Position::new(coordinate(g), coordinate(g)))
                .collect();
            let range = g.choose(&[
                f64::INFINITY,
                f64::NAN,
                f64::NEG_INFINITY,
                f64::MAX,
                0.0,
                400.0,
                2e3,
            ]);
            (positions, range)
        },
        |(positions, range)| agrees(positions, *range),
    );
}

#[test]
fn connected_random_accepts_the_brute_force_draw() {
    forall(
        "connected_random_accepts_the_brute_force_draw",
        |g| {
            let n = g.len_in(0, 40);
            let side = 100.0 + 900.0 * g.f64();
            let range = side * (0.1 + 0.4 * g.f64());
            (n, side, range, g.usize_in(0, 12), g.u64())
        },
        |&(n, side, range, attempts, seed)| {
            let mut rng = SimRng::new(seed);
            let want = (0..attempts)
                .map(|_| random(n, side, side, &mut rng))
                .find(|p| reference(p, range));
            let got = connected_random(n, side, side, range, &mut SimRng::new(seed), attempts);
            if got == want {
                Ok(())
            } else {
                Err(format!("connected_random gave {got:?}, the loop {want:?}"))
            }
        },
    );
}

/// `radio_range_m` as a bisection on `[1, 1e7]` that stops when its
/// ends are adjacent floats.
fn bisected_radio_range(config: &RfConfig) -> f64 {
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
    let (mut lo, mut hi) = (1.0, 1.0e7);
    if closes(hi) {
        return hi;
    }
    for _ in 0..200 {
        let mid = (lo + hi) / 2.0;
        if mid == lo || mid == hi {
            break;
        }
        if closes(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// `max_audible_range` as an exponential search from 1 m, capped at
/// 2^40, then 64 halvings of `[0, hi]`.
fn bisected_audible_range(config: &RfConfig) -> f64 {
    let sens = sensitivity(
        config.modulation.spreading_factor,
        config.modulation.bandwidth,
    );
    let margin = config.tx_power.value() + 2.0 * config.antenna_gain_db - sens.value()
        + Shadowing::MAX_OFFSET_SIGMA * config.shadowing.sigma_db;
    if config.path_loss.loss_db(0.0) > margin {
        return 0.0;
    }
    let mut hi = 1.0;
    while config.path_loss.loss_db(hi) <= margin {
        hi *= 2.0;
        if hi >= 1.0e12 {
            return hi;
        }
    }
    let mut lo = 0.0;
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if config.path_loss.loss_db(mid) <= margin {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

fn rf(
    sf: SpreadingFactor,
    bw: Bandwidth,
    path_loss: PathLossModel,
    tx_dbm: f64,
    gain_db: f64,
    sigma_db: f64,
) -> RfConfig {
    RfConfig {
        modulation: LoRaModulation::new(sf, bw, CodingRate::Cr4_5),
        path_loss,
        shadowing: Shadowing::new(sigma_db, 1),
        tx_power: Dbm::new(tx_dbm),
        antenna_gain_db: gain_db,
        ..RfConfig::default()
    }
}

/// Both range functions against their bisections, bit for bit.
fn ranges_match_bisection(config: &RfConfig) -> Result<(), String> {
    let (got, want) = (radio_range_m(config), bisected_radio_range(config));
    if got.to_bits() != want.to_bits() {
        return Err(format!(
            "radio_range_m {got:e}, bisection {want:e}: {config:?}"
        ));
    }
    let (got, want) = (max_audible_range(config), bisected_audible_range(config));
    if got.to_bits() != want.to_bits() {
        return Err(format!(
            "max_audible_range {got:e}, bisection {want:e}: {config:?}"
        ));
    }
    Ok(())
}

/// Urban, indoor and free-space presets, a steeper urban fit and a
/// sub-metre reference distance.
fn path_loss_models() -> [PathLossModel; 5] {
    [
        PathLossModel::free_space_868(),
        PathLossModel::urban_868(),
        PathLossModel::indoor(),
        PathLossModel::LogDistance {
            reference_loss_db: 120.0,
            reference_distance_m: 40.0,
            exponent: 2.7,
        },
        PathLossModel::LogDistance {
            reference_loss_db: 25.0,
            reference_distance_m: 0.25,
            exponent: 3.1,
        },
    ]
}

#[test]
fn range_functions_match_their_bisections_on_the_preset_grid() {
    let mut checked = 0;
    for sf in SpreadingFactor::ALL {
        for bw in Bandwidth::ALL {
            for path_loss in path_loss_models() {
                // −4 to 30 dBm in 0.2 dB steps; the products are off
                // the decimal grid, so the last bits of the budget vary.
                for step in 0..=170 {
                    let tx = -4.0 + 0.2 * f64::from(step);
                    for gain in [0.0, 2.15, 5.0] {
                        for sigma in [0.0, 4.0] {
                            let config = rf(sf, bw, path_loss, tx, gain, sigma);
                            if let Err(e) = ranges_match_bisection(&config) {
                                panic!("{e}");
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(checked, 92_340);
}

#[test]
fn range_functions_match_their_bisections_on_random_budgets() {
    forall(
        "range_functions_match_their_bisections_on_random_budgets",
        |g| {
            let path_loss = if g.bool(0.3) {
                PathLossModel::FreeSpace {
                    frequency_hz: 1e8 + 3e9 * g.f64(),
                }
            } else {
                PathLossModel::LogDistance {
                    reference_loss_db: 150.0 * g.f64(),
                    reference_distance_m: g.choose(&[1e-6, 0.25, 1.0, 40.0, 1e3]),
                    exponent: 1.5 + 4.0 * g.f64(),
                }
            };
            rf(
                g.choose(&SpreadingFactor::ALL),
                g.choose(&Bandwidth::ALL),
                path_loss,
                -150.0 + 300.0 * g.f64(),
                6.0 * g.f64(),
                g.choose(&[0.0, 2.0, 6.0]),
            )
        },
        ranges_match_bisection,
    );
}

#[test]
fn range_functions_match_their_bisections_on_degenerate_budgets() {
    let (sf, bw) = (SpreadingFactor::Sf7, Bandwidth::Khz125);
    let sf7 = |path_loss, tx| rf(sf, bw, path_loss, tx, 0.0, 0.0);
    let urban = PathLossModel::urban_868();
    let cases = [
        // Fails at 1 m: both ranges are 0.
        (sf7(urban, -200.0), 0.0_f64, 0.0_f64),
        // Closes past the caps: 1e7 m and the 2^40 m power of two.
        (sf7(urban, 500.0), 1.0e7, 1_099_511_627_776.0),
        (sf7(urban, f64::INFINITY), 1.0e7, 1_099_511_627_776.0),
        // A NaN budget closes nowhere; the audible bound then halves
        // down to 2^-64 m.
        (
            sf7(urban, f64::NAN),
            0.0,
            1.0 / 18_446_744_073_709_551_616.0,
        ),
        (sf7(urban, f64::NEG_INFINITY), 0.0, 0.0),
    ];
    for (config, range, audible) in cases {
        ranges_match_bisection(&config).unwrap();
        assert_eq!(
            radio_range_m(&config).to_bits(),
            range.to_bits(),
            "{config:?}"
        );
        assert_eq!(
            max_audible_range(&config).to_bits(),
            audible.to_bits(),
            "{config:?}"
        );
    }
    // A 1 µm reference distance walks the audible bound from the 0
    // branch through boundaries under 2^-12 m (coarser than the floats
    // there), under 1 m and past it, and the radio range from 0 to
    // metres.
    let micro = PathLossModel::LogDistance {
        reference_loss_db: 0.0,
        reference_distance_m: 1e-6,
        exponent: 2.0,
    };
    let mut below_grid = 0;
    for step in 0..=400 {
        let config = sf7(micro, -130.0 + 0.25 * f64::from(step));
        ranges_match_bisection(&config).unwrap();
        let r = max_audible_range(&config);
        if r > 0.0 && r < 1.0 / 4096.0 {
            below_grid += 1;
        }
    }
    assert!(below_grid > 10, "only {below_grid} bounds under 2^-12 m");
}
