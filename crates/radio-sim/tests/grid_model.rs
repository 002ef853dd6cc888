//! Property tests for the spatial candidate grid, checked against
//! brute-force references (same style as `tests/shard_model.rs`):
//!
//! 1. **Geometric soundness** — for random topologies and ranges, every
//!    node within `r_max` of a position appears in that position's
//!    candidate list, which stays ascending and duplicate-free;
//!    [`Grid::degree`] agrees with the candidate count, and the
//!    unordered visit [`Grid::for_each_candidate`] (what a link-row fill
//!    walks) reaches exactly that list's nodes, each once.
//! 2. **RF soundness** — with `r_max` taken from the engine's own
//!    [`max_audible_range`], the candidate set covers every *audible*
//!    node under random RF configs (shadowing included) — the exact
//!    property that lets a link-cache row omit non-candidates.
//! 3. **Mobility** — after random node displacements and a rebuild
//!    (the engine rebuilds on every mobility tick), soundness holds at
//!    the *new* positions.

use lora_phy::propagation::{Position, Shadowing};
use radio_sim::grid::Grid;
use radio_sim::medium::{Medium, RfConfig};
use radio_sim::shard::max_audible_range;
use radio_sim::NodeId;
use testkit::{forall, Gen};

fn gen_positions(g: &mut Gen) -> Vec<Position> {
    // Dense clusters plus lone far-away nodes, so cell occupancy is
    // wildly uneven and some 3×3 blocks are nearly empty.
    let n = g.len_in(1, 60);
    (0..n)
        .map(|_| {
            let cluster = g.int_in(0, 3) as f64 * 3_000.0;
            Position::new(
                cluster + g.int_in(0, 2_000) as f64,
                g.int_in(0, 1_500) as f64,
            )
        })
        .collect()
}

fn gen_r_max(g: &mut Gen) -> f64 {
    // Spans the interesting regimes: degenerate, smaller than a
    // cluster, cluster-sized, and bigger than the whole deployment
    // (single-cell collapse).
    [0.0, 15.0, 120.0, 800.0, 4_000.0, 1.0e7][g.usize_in(0, 5)]
}

/// Brute-force reference: indices of every position within `r` of `p`.
fn within(positions: &[Position], p: Position, r: f64) -> Vec<usize> {
    positions
        .iter()
        .enumerate()
        .filter(|(_, q)| p.distance(q) <= r)
        .map(|(j, _)| j)
        .collect()
}

fn check_sound_at(
    grid: &Grid,
    positions: &[Position],
    r_max: f64,
    label: &str,
) -> Result<(), String> {
    let (mut cand, mut visited) = (Vec::new(), Vec::new());
    for (i, &pi) in positions.iter().enumerate() {
        grid.candidates_into(pi, &mut cand);
        visited.clear();
        grid.for_each_candidate(pi, |j| visited.push(j));
        visited.sort_unstable();
        if visited != cand {
            return Err(format!(
                "{label}: node {i}'s visit reached {visited:?}, candidates are {cand:?}"
            ));
        }
        if !cand.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!(
                "{label}: candidates of node {i} not strictly ascending: {cand:?}"
            ));
        }
        if grid.degree(pi) != cand.len() {
            return Err(format!(
                "{label}: degree {} != candidate count {} at node {i}",
                grid.degree(pi),
                cand.len()
            ));
        }
        for j in within(positions, pi, r_max) {
            if cand.binary_search(&j).is_err() {
                return Err(format!(
                    "{label}: node {j} within r_max {r_max} of node {i} \
                     but missing from candidates {cand:?}"
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn candidates_cover_brute_force_on_random_topologies() {
    forall(
        "candidates_cover_brute_force_on_random_topologies",
        |g| (gen_positions(g), gen_r_max(g)),
        |(positions, r_max)| {
            let mut grid = Grid::new();
            grid.rebuild(positions, *r_max);
            check_sound_at(&grid, positions, *r_max, "static")
        },
    );
}

#[test]
fn candidates_cover_every_audible_node_under_random_rf() {
    forall(
        "candidates_cover_every_audible_node_under_random_rf",
        |g| {
            let mut rf = RfConfig::default();
            if g.bool(0.6) {
                let sigma = [2.0, 4.0, 6.0][g.usize_in(0, 2)];
                rf.shadowing = Shadowing::new(sigma, u64::from(g.u16()));
            }
            (rf, gen_positions(g))
        },
        |(rf, positions)| {
            let medium = Medium::new(rf.clone());
            let r_max = max_audible_range(rf);
            let mut grid = Grid::new();
            grid.rebuild(positions, r_max);
            let mut cand = Vec::new();
            for (i, pi) in positions.iter().enumerate() {
                grid.candidates_into(*pi, &mut cand);
                for (j, pj) in positions.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let power = medium.received_power(pi, pj, NodeId(i), NodeId(j));
                    if medium.audible(power) && cand.binary_search(&j).is_err() {
                        return Err(format!(
                            "audible node {j} missing from candidates of {i} \
                             (r_max {r_max}): {cand:?}"
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn candidates_stay_sound_after_node_movement_and_rebuild() {
    forall(
        "candidates_stay_sound_after_node_movement_and_rebuild",
        |g| {
            let positions = gen_positions(g);
            // Per-node displacements, some far beyond the original
            // bounding box (waypoint jumps, late joiners drifting off).
            let moves: Vec<(f64, f64)> = positions
                .iter()
                .map(|_| {
                    let scale = [5.0, 80.0, 2_500.0][g.usize_in(0, 2)];
                    (
                        (g.int_in(0, 200) as f64 - 100.0) / 100.0 * scale,
                        (g.int_in(0, 200) as f64 - 100.0) / 100.0 * scale,
                    )
                })
                .collect();
            (positions, moves, gen_r_max(g))
        },
        |(positions, moves, r_max)| {
            let mut grid = Grid::new();
            grid.rebuild(positions, *r_max);
            check_sound_at(&grid, positions, *r_max, "before move")?;
            let moved: Vec<Position> = positions
                .iter()
                .zip(moves)
                .map(|(p, &(dx, dy))| Position::new(p.x + dx, p.y + dy))
                .collect();
            // The engine rebuilds on every mobility tick; mirror that.
            grid.rebuild(&moved, *r_max);
            check_sound_at(&grid, &moved, *r_max, "after move")
        },
    );
}
