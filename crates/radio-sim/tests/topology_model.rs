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

use lora_phy::propagation::Position;
use radio_sim::rng::SimRng;
use radio_sim::topology::{connected_random, is_connected, random};
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
