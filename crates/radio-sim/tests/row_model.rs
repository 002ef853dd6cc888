//! Property tests for the link-row model (same style as `grid_model.rs`
//! and `interference_model.rs`): a row is **exactly** its node's audible
//! set — `{ j ≠ i : audible(received_power(i, j)) }`, ascending, with
//! `power` and `power_mw` equal by bits to the brute-force values — and
//! every other node reads silent.
//!
//! 1. **Fill ≡ brute force** — over random RF configurations (both
//!    path-loss families, shadowing σ ∈ {0, 4, 8} dB) and placements:
//!    random ones, co-located nodes, nodes a hair inside and outside
//!    `max_audible_range` on an axis and on the diagonal, huge and
//!    infinite coordinates (NaN too where no grid is involved — the grid
//!    has never indexed NaN positions soundly); with the grid and
//!    without; before and after moves, refilling the same row buffers.
//! 2. **The edge, to the ulp** — a ring of nodes at the last float
//!    distance that is still audible, which coordinate rounding cuts
//!    roughly in half: the row holds exactly the audible half.
//! 3. **Cache validity** — `invalidate_row` forces exactly that row to
//!    refill from the new positions, into its old buffer.
//! 4. **Engine views agree** — rows filled lazily by the coordinator,
//!    by the parallel prefetch and by a band worker's overlay all equal
//!    brute force at the current positions, and workers leave the same
//!    rows valid as the coordinator alone.

use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::propagation::{PathLossModel, Position, Shadowing};
use radio_sim::firmware::{Context, Firmware};
use radio_sim::grid::Grid;
use radio_sim::link_cache::{LinkCache, LinkRow};
use radio_sim::medium::{Medium, RfConfig};
use radio_sim::mobility::Mobility;
use radio_sim::shard::max_audible_range;
use radio_sim::{NodeId, SimConfig, Simulator};
use testkit::{forall, prop_assert, prop_assert_eq, Gen};

fn gen_rf(g: &mut Gen) -> RfConfig {
    RfConfig {
        path_loss: g.choose(&[
            PathLossModel::urban_868(),
            PathLossModel::free_space_868(),
            PathLossModel::indoor(),
        ]),
        shadowing: Shadowing::new(g.choose(&[0.0, 4.0, 8.0]), g.u64()),
        ..RfConfig::default()
    }
}

/// `(node, power bits, mW bits)` of every node audible from `i`,
/// ascending — straight from the link budget, no gate, no grid.
fn brute(medium: &Medium, positions: &[Position], i: usize) -> Vec<(u32, u64, u64)> {
    (0..positions.len())
        .filter(|&j| j != i)
        .filter_map(|j| {
            let power = medium.received_power(&positions[i], &positions[j], NodeId(i), NodeId(j));
            medium.audible(power).then(|| {
                (
                    j as u32,
                    power.value().to_bits(),
                    power.to_milliwatts().value().to_bits(),
                )
            })
        })
        .collect()
}

fn bits(row: &LinkRow) -> Vec<(u32, u64, u64)> {
    row.audible
        .iter()
        .map(|n| (n.node, n.power.value().to_bits(), n.power_mw.to_bits()))
        .collect()
}

/// Row `i` is the brute-force audible set, and `get` agrees with it for
/// every node: the stored budget for members, silence for the rest.
fn check_row(
    row: &LinkRow,
    medium: &Medium,
    positions: &[Position],
    i: usize,
    label: &str,
) -> Result<(), String> {
    let expected = brute(medium, positions, i);
    prop_assert!(
        bits(row) == expected,
        "{label}: row {i} is {:?}, brute force says {expected:?}",
        bits(row)
    );
    let mut members = expected.iter().peekable();
    for j in 0..positions.len() {
        let link = row.get(j);
        if members.peek().is_some_and(|m| m.0 as usize == j) {
            let m = members.next().expect("peeked");
            prop_assert!(link.audible, "{label}: row {i} member {j} reads silent");
            prop_assert_eq!(link.power.value().to_bits(), m.1);
            prop_assert_eq!(link.power_mw.to_bits(), m.2);
        } else {
            prop_assert!(
                !link.audible && link.power_mw == 0.0 && row.heard(j).is_none(),
                "{label}: row {i} answers for absent node {j}"
            );
        }
    }
    Ok(())
}

/// Fills every row into `rows` (buffers reused across calls) through
/// the engine's routine and checks each against brute force.
fn check_world(
    rows: &mut Vec<LinkRow>,
    rf: &RfConfig,
    positions: &[Position],
    use_grid: bool,
    label: &str,
) -> Result<(), String> {
    let medium = Medium::new(rf.clone());
    let r_max = max_audible_range(rf);
    let mut grid = Grid::new();
    grid.rebuild(positions, r_max);
    rows.resize_with(positions.len(), LinkRow::default);
    for (i, row) in rows.iter_mut().enumerate() {
        let grid = use_grid.then_some(&grid);
        row.fill(i, positions.len(), |k| positions[k], &medium, grid, r_max);
        check_row(row, &medium, positions, i, label)?;
    }
    Ok(())
}

/// Random nodes within a few audible ranges of a random centre, plus the
/// placements that stress the gate: co-located pairs and nodes a hair
/// inside and outside `r_max` of node 0, on an axis and on the diagonal.
fn gen_positions(g: &mut Gen, r_max: f64) -> Vec<Position> {
    const HAIR: f64 = 1e-9;
    let centre = Position::new(g.f64() * 2.0e4 - 1.0e4, g.f64() * 2.0e4 - 1.0e4);
    let spread = r_max.clamp(1.0, 1.0e6) * g.choose(&[0.5, 2.0, 6.0]);
    let mut positions = g.vec_of(2, 40, |g| {
        Position::new(
            centre.x + (g.f64() - 0.5) * spread,
            centre.y + (g.f64() - 0.5) * spread,
        )
    });
    let origin = positions[0];
    let diag = std::f64::consts::FRAC_1_SQRT_2;
    for edge in [1.0 - HAIR, 1.0, 1.0 + HAIR] {
        for (ux, uy) in [(1.0, 0.0), (0.0, -1.0), (diag, diag), (-diag, diag)] {
            positions.push(Position::new(
                origin.x + ux * edge * r_max,
                origin.y + uy * edge * r_max,
            ));
        }
    }
    positions.push(origin);
    positions.push(positions[1]);
    positions
}

#[test]
fn fill_equals_brute_force_with_and_without_the_grid_before_and_after_moves() {
    forall(
        "fill_equals_brute_force_with_and_without_the_grid_before_and_after_moves",
        |g| {
            let rf = gen_rf(g);
            let positions = gen_positions(g, max_audible_range(&rf));
            // Displacements from a step to a jump across the world; a
            // third of the nodes stay put.
            let moves: Vec<(f64, f64)> = positions
                .iter()
                .map(|_| {
                    let scale = g.choose(&[0.0, 3.0, 400.0, 30_000.0]);
                    ((g.f64() - 0.5) * scale, (g.f64() - 0.5) * scale)
                })
                .collect();
            (rf, positions, moves)
        },
        |(rf, positions, moves)| {
            let moved: Vec<Position> = positions
                .iter()
                .zip(moves)
                .map(|(p, &(dx, dy))| Position::new(p.x + dx, p.y + dy))
                .collect();
            for use_grid in [true, false] {
                // One set of buffers for both epochs: a refill must not
                // leak anything the previous fill left behind.
                let mut rows = Vec::new();
                check_world(&mut rows, rf, positions, use_grid, "placed")?;
                check_world(&mut rows, rf, &moved, use_grid, "moved")?;
                check_world(&mut rows, rf, positions, use_grid, "moved back")?;
            }
            Ok(())
        },
    );
}

#[test]
fn degenerate_coordinates_fall_out_as_the_exact_math_says() {
    forall(
        "degenerate_coordinates_fall_out_as_the_exact_math_says",
        |g| {
            let rf = gen_rf(g);
            let mut positions = gen_positions(g, max_audible_range(&rf));
            let wild = [f64::INFINITY, f64::NEG_INFINITY, 1.0e300, -1.0e200, 1.0e155];
            for _ in 0..g.usize_in(1, 4) {
                positions.push(Position::new(g.choose(&wild), g.choose(&wild)));
                positions.push(Position::new(g.choose(&wild), positions[0].y));
            }
            (rf, positions, g.bool(0.5))
        },
        |(rf, positions, with_nan)| {
            let mut rows = Vec::new();
            check_world(&mut rows, rf, positions, true, "grid")?;
            check_world(&mut rows, rf, positions, false, "no grid")?;
            if *with_nan {
                // NaN distances are clamped to the reference distance by
                // the path-loss model, i.e. *audible*; the gate must not
                // be what decides otherwise.
                let mut positions = positions.clone();
                positions.push(Position::new(f64::NAN, 0.0));
                positions.push(Position::new(positions[0].x, f64::NAN));
                check_world(&mut rows, rf, &positions, false, "NaN, no grid")?;
            }
            Ok(())
        },
    );
}

/// The last float distance at which a σ = 0 link is still audible.
fn last_audible_distance(medium: &Medium, r_max: f64) -> f64 {
    let origin = Position::new(0.0, 0.0);
    let mut d = r_max;
    for _ in 0..8 {
        let power = medium.received_power(&origin, &Position::new(d, 0.0), NodeId(0), NodeId(1));
        if medium.audible(power) {
            return d;
        }
        d = f64::from_bits(d.to_bits() - 1);
    }
    panic!("max_audible_range {r_max} is not tight to 8 ulps");
}

#[test]
fn rows_are_exact_on_a_ring_at_the_last_audible_distance() {
    for path_loss in [PathLossModel::urban_868(), PathLossModel::free_space_868()] {
        let rf = RfConfig {
            path_loss,
            ..RfConfig::default()
        };
        let medium = Medium::new(rf.clone());
        let r_max = max_audible_range(&rf);
        let edge = last_audible_distance(&medium, r_max);
        let (mut heard, mut silent) = (0, 0);
        for origin in [Position::new(0.0, 0.0), Position::new(-7_321.7, 1_234.56)] {
            // Coordinate rounding scatters the ring a few ulps either
            // side of the edge, so it is cut roughly in half.
            let mut positions = vec![origin];
            positions.extend((0..2_048).map(|k| {
                let theta = f64::from(k) * 0.003_067_961_575_771_282_3;
                Position::new(origin.x + edge * theta.cos(), origin.y + edge * theta.sin())
            }));
            let mut grid = Grid::new();
            grid.rebuild(&positions, r_max);
            for grid in [Some(&grid), None] {
                let mut row = LinkRow::default();
                row.fill(0, positions.len(), |k| positions[k], &medium, grid, r_max);
                check_row(&row, &medium, &positions, 0, "ring").unwrap();
                heard += row.audible.len();
                silent += positions.len() - 1 - row.audible.len();
            }
        }
        assert!(
            heard > 100 && silent > 100,
            "{path_loss:?}: the ring does not straddle the edge ({heard} heard, {silent} silent)"
        );
    }
}

#[test]
fn invalidating_a_row_refills_exactly_that_row_from_the_new_positions() {
    let rf = RfConfig::default();
    let medium = Medium::new(rf.clone());
    let r_max = max_audible_range(&rf);
    let mut positions: Vec<Position> = (0..6)
        .map(|k| Position::new(f64::from(k) * 0.4 * r_max, 0.0))
        .collect();
    let mut cache = LinkCache::new();
    cache.resize(positions.len());
    let fill = |cache: &mut LinkCache, positions: &[Position], i: usize| {
        let n = positions.len();
        cache
            .ensure(i, |row| {
                row.fill(i, n, |k| positions[k], &medium, None, r_max)
            })
            .clone()
    };
    for i in 0..positions.len() {
        let row = fill(&mut cache, &positions, i);
        check_row(&row, &medium, &positions, i, "first fill").unwrap();
    }
    let rebuilds = cache.rebuilds();
    // Node 5 walks out of everyone's range; only rows 4 and 5 are told.
    let stale = positions.clone();
    positions[5] = Position::new(100.0 * r_max, 0.0);
    cache.invalidate_row(4);
    cache.invalidate_row(5);
    for i in 0..positions.len() {
        assert_eq!(cache.has_row(i), i < 4, "row {i}");
        let row = fill(&mut cache, &positions, i);
        let world = if i < 4 { &stale } else { &positions };
        check_row(&row, &medium, world, i, "after invalidate_row").unwrap();
    }
    assert!(cache.cached(5).expect("refilled").audible.is_empty());
    assert_eq!(cache.rebuilds(), rebuilds + 2);
    cache.invalidate_all();
    assert!((0..positions.len()).all(|i| !cache.has_row(i)));
}

/// Beacons every `period` from `phase` on; never listens for anything.
struct Beacon {
    next: Duration,
    period: Duration,
}

impl Firmware for Beacon {
    fn on_timer(&mut self, ctx: &mut Context) {
        if ctx.now() >= self.next {
            self.next += self.period;
            ctx.transmit(vec![0xB7; 8]);
        }
    }
    fn on_frame(&mut self, _b: &[u8], _q: SignalQuality, _ctx: &mut Context) {}
    fn next_wake(&self) -> Option<Duration> {
        Some(self.next)
    }
}

/// Every valid row of `sim` equals brute force at the current
/// positions; returns which rows are valid.
fn check_cached_rows(sim: &Simulator<Beacon>, rf: &RfConfig, label: &str) -> Vec<bool> {
    let medium = Medium::new(rf.clone());
    let positions: Vec<Position> = (0..sim.node_count())
        .map(|i| sim.position(NodeId(i)))
        .collect();
    (0..positions.len())
        .map(|i| {
            let row = sim.cached_row(NodeId(i));
            if let Some(row) = row {
                check_row(row, &medium, &positions, i, label).unwrap();
            }
            row.is_some()
        })
        .collect()
}

#[test]
fn coordinator_prefetch_and_worker_overlay_rows_all_equal_brute_force() {
    let rf = RfConfig {
        shadowing: Shadowing::new(4.0, 99),
        ..RfConfig::default()
    };
    let config = |shards: usize, threads: usize| SimConfig {
        rf: rf.clone(),
        shards,
        threads,
        rng_streams: true,
        commit_batch_min_events: 1,
        ..SimConfig::default()
    };
    let walk = Mobility::RandomWaypoint {
        width_m: 300.0,
        height_m: 300.0,
        min_speed: 5.0,
        max_speed: 20.0,
        pause: Duration::ZERO,
    };

    // Prefetch: enough rows to clear the fork-join gate, warmed by
    // `start` before any firmware has transmitted.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut sim = Simulator::new(config(1, 2), 5);
    for k in 0..320u32 {
        let pos = Position::new(f64::from(k % 20) * 90.0, f64::from(k / 20) * 90.0);
        let beacon = Beacon {
            next: Duration::from_secs(3_600),
            period: Duration::from_secs(3_600),
        };
        sim.add_node(beacon, pos);
    }
    sim.start();
    let valid = check_cached_rows(&sim, &rf, "prefetched");
    if cores >= 2 {
        assert!(
            valid.iter().all(|&v| v),
            "start() did not prefetch every row"
        );
        assert_eq!(sim.link_rebuilds(), 320);
    }

    // Coordinator vs band workers: far-apart clusters with aligned
    // phases so windows commit in parallel, one walker per cluster so
    // rows keep being invalidated and refilled — inside batches, into
    // worker overlays, when threaded.
    let run = |threads: usize| {
        let mut sim = Simulator::new(config(4, threads), 11);
        for c in 0..3u32 {
            for j in 0..6u32 {
                let pos = Position::new(
                    f64::from(c) * 1.0e5 + f64::from(j % 3) * 40.0,
                    f64::from(j / 3) * 40.0,
                );
                let beacon = Beacon {
                    next: Duration::from_millis(u64::from(70 * j + 5)),
                    period: Duration::from_millis(450),
                };
                if j == 0 {
                    sim.add_mobile_node(beacon, pos, walk.clone());
                } else {
                    sim.add_node(beacon, pos);
                }
            }
        }
        sim.run_for(Duration::from_millis(7_300));
        let valid = check_cached_rows(&sim, &rf, "after run");
        (valid, sim.link_rebuilds(), sim.commit_batches())
    };
    let (coordinator_valid, coordinator_rebuilds, _) = run(1);
    let (worker_valid, worker_rebuilds, batches) = run(2);
    assert!(batches > 0, "no parallel batch committed: no overlay rows");
    assert!(
        coordinator_valid.iter().any(|&v| v),
        "no row valid at the end"
    );
    assert_eq!(coordinator_valid, worker_valid);
    assert_eq!(coordinator_rebuilds, worker_rebuilds);
}
