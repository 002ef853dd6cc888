//! Spatial partitioning for the sharded event engine.
//!
//! The sharded engine splits the plane into contiguous *bands* along the
//! x-axis (a degenerate grid of range-sized cells: one column per
//! shard). The partition is sound because audibility is
//! *distance-bounded*: with the shadowing offset truncated at
//! ±[`Shadowing::MAX_OFFSET_SIGMA`]·σ, there is a finite
//! [`max_audible_range`] beyond which no link can ever exceed the
//! modulation's sensitivity. Whatever happens at `x` — a transmission,
//! a node moving — can therefore only be heard (or interfere audibly,
//! or trip a CAD scan, or change a link row) inside
//! `[x − r_max, x + r_max]`, so it only concerns the bands overlapping
//! that interval ([`Partitioner::reach`],
//! [`Partitioner::reach_interval`]); everything else is provably
//! band-local.
//!
//! On one thread that is all the bands are for: a mobility tick
//! invalidates link rows only in the bands its movers can reach. Band
//! *queues* — one event queue per band, merged in `(time, seq)` order —
//! exist only when band workers do (`threads > 1`), and the matching
//! *temporal* bound is theirs: [`min_lookahead`]. Every frame is on the
//! air for at least one preamble, so an event processed at `t` can only
//! create events in *other* bands (an `RxEnd` at a receiver homed
//! elsewhere) at `t + preamble` or later. The merge loop uses this
//! window to drain one band's queue in batches without consulting the
//! others, and the parallel commit to run several at once (see
//! `sim.rs`).
//!
//! Band edges are chosen once — quantiles of the node x-coordinates at
//! `start()` — and never move, so `band_of` is a pure function for the
//! whole run and every engine shape agrees on it forever.

use std::time::Duration;

use lora_phy::link::sensitivity;
use lora_phy::propagation::{Position, Shadowing};

use crate::medium::RfConfig;

/// The farthest distance (metres) at which any link under `config` can
/// be audible, shadowing included.
///
/// A link is audible when `tx_power + 2·antenna_gain − loss(d) + shadow`
/// reaches the SF/BW sensitivity; the best case is the maximum shadowing
/// offset `+MAX_OFFSET_SIGMA·σ`. The result is the first distance at
/// which even that best case is inaudible, so every audible distance is
/// strictly below it. The path-loss inverse
/// ([`PathLossModel::distance_at_loss_db`]) puts it within a few floats,
/// and a walk one float at a time against `loss(d) ≤ margin` finds the
/// exact one — the float a bisection converges to, because path loss is
/// monotone in distance over floats
/// (`crates/radio-sim/tests/topology_model.rs` checks it against the
/// bisection bit for bit).
///
/// Returns `0.0` when even adjacent nodes can never hear each other (a
/// degenerate but safe partition: every audibility claim is then
/// vacuous), and `2^40` when `2^39` m is still audible — a cap that only
/// pathological configs reach.
///
/// [`PathLossModel::distance_at_loss_db`]: lora_phy::propagation::PathLossModel::distance_at_loss_db
#[must_use]
pub fn max_audible_range(config: &RfConfig) -> f64 {
    /// The farthest probe: the range is capped at twice this (≥ 1e12).
    const LAST_PROBE: f64 = 549_755_813_888.0; // 2^39
    /// Below 1 m the range is a multiple of this, rounded up: the
    /// resolution of the 64-halving bisection that defines the bound
    /// there (a boundary under 2^-12 m needs a sub-millimetre
    /// reference distance).
    const GRID: f64 = 1.0 / 18_446_744_073_709_551_616.0; // 2^-64
    let sens = sensitivity(
        config.modulation.spreading_factor,
        config.modulation.bandwidth,
    );
    // Maximum tolerable path loss for an audible link.
    let margin = config.tx_power.value() + 2.0 * config.antenna_gain_db - sens.value()
        + Shadowing::MAX_OFFSET_SIGMA * config.shadowing.sigma_db;
    if config.path_loss.loss_db(0.0) > margin {
        return 0.0;
    }
    let audible = |d: f64| config.path_loss.loss_db(d) <= margin;
    if audible(LAST_PROBE) {
        return 2.0 * LAST_PROBE;
    }
    #[expect(
        clippy::manual_clamp,
        reason = "`max` first maps a NaN estimate to the grid; `clamp` would keep the NaN"
    )]
    let mut hi = config
        .path_loss
        .distance_at_loss_db(margin)
        .max(GRID)
        .min(LAST_PROBE);
    // Up to the first inaudible float (LAST_PROBE is one), then down
    // while the float below is inaudible too.
    while audible(hi) {
        hi = hi.next_up();
    }
    while hi > GRID && !audible(hi.next_down()) {
        hi = hi.next_down();
    }
    if hi < 1.0 {
        hi = (hi / GRID).ceil() * GRID;
    }
    hi
}

/// The range gate: `true` when `a` and `b` are farther apart than `r_max`
/// ([`max_audible_range`]) along either axis — hence in distance — so no
/// link between them can be audible. The same proof obligation the band
/// partition and [`crate::grid`] rest on, in its cheapest conservative
/// form (two subtractions, no squares to round), for hot loops that want
/// to skip a far transmission before touching the link cache. `|`, not
/// `||`: both tests are cheaper than the unpredictable branch between
/// them, taken once per frame in flight per transmission.
#[inline]
#[must_use]
pub fn beyond_range(r_max: f64, a: Position, b: Position) -> bool {
    ((a.x - b.x).abs() > r_max) | ((a.y - b.y).abs() > r_max)
}

/// The conservative lookahead window of the sharded engine: the shortest
/// possible airtime under `config`, which is one preamble
/// (`time_on_air(n) = preamble_time() + payload time` for every `n`).
#[must_use]
pub fn min_lookahead(config: &RfConfig) -> Duration {
    config.modulation.preamble_time()
}

/// Fixed partition of the x-axis into contiguous bands.
///
/// `shards` bands are separated by `shards − 1` edges placed at
/// quantiles of the initial node x-coordinates — snapped to the widest
/// nearby inter-node gap — so load balances even for clustered
/// topologies and distant clusters land in distinct bands. Edges never
/// move after construction.
#[derive(Clone, Debug)]
pub struct Partitioner {
    /// Ascending interior band boundaries (`bands() == edges.len() + 1`).
    edges: Vec<f64>,
    /// Maximum audible distance (metres) used for reach computations.
    r_max: f64,
}

/// Neighbourhood searched by [`gap_snapped_edges`], in inter-node gaps:
/// a fraction of the per-band node count, floored so tiny topologies
/// can still reach a cluster gap a couple of nodes away.
fn gap_window(len: usize, shards: usize) -> usize {
    (len / (4 * shards)).max(3)
}

/// Snaps tentative cut positions to the widest inter-node gap in a
/// small neighbourhood and places each edge at the gap's midpoint.
///
/// `cuts` are ascending indices into `sorted`, each meaning "the first
/// node of the next band". Quantile placement puts edges *at node
/// coordinates*, which can weld two distant clusters into one band
/// whenever a cut lands a node or two past the gap between them; such a
/// straddling band serializes both clusters under the parallel batch
/// planner (its metre span covers everything in between) and bloats
/// every reach computation across the gap. Searching the `window`
/// nearest gaps keeps the split within a few nodes of the quantile —
/// preserving balance — while strongly preferring natural cluster
/// boundaries. On uniform topologies every nearby gap ties and the
/// tie-break (closest to the quantile) reproduces the plain quantile
/// split, so band membership is unchanged where it already was good.
fn gap_snapped_edges(sorted: &[f64], cuts: &[usize], window: usize) -> Vec<f64> {
    let mut edges = Vec::with_capacity(cuts.len());
    if sorted.len() < 2 {
        return edges;
    }
    // Gaps below this index are already claimed by an earlier cut;
    // keeping cuts on distinct gaps keeps the edges strictly increasing
    // and every band non-empty.
    let mut min_gap = 0usize;
    for &c in cuts {
        let ideal = c.saturating_sub(1);
        let lo = ideal.saturating_sub(window).max(min_gap);
        let hi = (ideal + window).min(sorted.len() - 2);
        // (gap, dist, j, midpoint) of the best gap seen so far.
        let mut best: Option<(f64, usize, usize, f64)> = None;
        let candidates = sorted.get(lo..=hi.saturating_add(1)).unwrap_or(&[]);
        for (off, pair) in candidates.windows(2).enumerate() {
            let &[x0, x1] = pair else { continue };
            let j = lo + off;
            let gap = x1 - x0;
            let dist = ideal.abs_diff(j);
            if best.is_none_or(|(bg, bd, _, _)| gap > bg || (gap == bg && dist < bd)) {
                best = Some((gap, dist, j, 0.5 * (x0 + x1)));
            }
        }
        if let Some((gap, _, j, mid)) = best {
            // Every candidate gap is zero-width (duplicate coordinates):
            // dropping the cut merges the would-be empty band, exactly
            // like the old duplicate-edge dedup.
            if gap > 0.0 {
                edges.push(mid);
                min_gap = j + 1;
            }
        }
    }
    edges
}

impl Partitioner {
    /// Builds a partition of `shards` bands from the given node
    /// x-coordinates. With no nodes (or `shards <= 1`) the partition
    /// degenerates to a single band, which is always sound. Cuts start
    /// at count quantiles and snap to the widest nearby inter-node gap
    /// (see `gap_snapped_edges`).
    #[must_use]
    pub fn new(xs: &[f64], shards: usize, r_max: f64) -> Self {
        let mut edges = Vec::new();
        if shards > 1 && !xs.is_empty() {
            let mut sorted = xs.to_vec();
            sorted.sort_by(f64::total_cmp);
            let cuts: Vec<usize> = (1..shards).map(|k| k * sorted.len() / shards).collect();
            edges = gap_snapped_edges(&sorted, &cuts, gap_window(sorted.len(), shards));
        }
        Partitioner { edges, r_max }
    }

    /// Builds an **occupancy-weighted** partition: edges split the
    /// x-axis into `shards` bands of near-equal *summed weight* instead
    /// of equal node count. With the audible-degree weights from
    /// [`crate::grid::Grid`], a band's weight tracks the event-dispatch
    /// work it will actually see (fan-out, interferer seeding and row
    /// fills all scale with local density), so clustered topologies no
    /// longer starve some workers while drowning others — the cause of
    /// the 16384-node shards=8 regression the count-quantile split had.
    ///
    /// Edge placement only changes *which queue hosts whose events*,
    /// never the merged `(time, seq)` order, so any weighting is
    /// behaviourally transparent (tests/shard_diff.rs runs on this).
    /// `weights` is indexed like `xs`; missing or zero weights count
    /// as 1 so every node retains nonzero mass.
    #[must_use]
    pub fn weighted(xs: &[f64], weights: &[usize], shards: usize, r_max: f64) -> Self {
        let mut edges = Vec::new();
        if shards > 1 && !xs.is_empty() {
            let mut order: Vec<usize> = (0..xs.len()).collect();
            order.sort_by(|&a, &b| {
                let (xa, xb) = (xs.get(a), xs.get(b));
                match (xa, xb) {
                    (Some(xa), Some(xb)) => xa.total_cmp(xb),
                    _ => a.cmp(&b),
                }
            });
            let weight_of =
                |i: usize| -> u64 { weights.get(i).copied().max(Some(1)).map_or(1, |w| w as u64) };
            let total: u64 = order.iter().map(|&i| weight_of(i)).sum();
            let sorted: Vec<f64> = order.iter().filter_map(|&i| xs.get(i).copied()).collect();
            let mut cuts = Vec::new();
            let mut cumulative = 0u64;
            let mut next_cut = 1u64;
            for (si, &i) in order.iter().enumerate() {
                if cuts.len() + 1 >= shards {
                    break;
                }
                cumulative += weight_of(i);
                // Cut each time the running weight crosses the next
                // k·total/shards threshold; a single heavy node can
                // cross several, collapsing the bands between them.
                while cuts.len() + 1 < shards && cumulative * shards as u64 >= next_cut * total {
                    cuts.push(si);
                    next_cut += 1;
                }
            }
            // Collapsed cuts would create empty bands; dropping the
            // duplicates merges them instead.
            cuts.dedup();
            edges = gap_snapped_edges(&sorted, &cuts, gap_window(sorted.len(), shards));
        }
        Partitioner { edges, r_max }
    }

    /// Number of bands.
    #[must_use]
    pub fn bands(&self) -> usize {
        self.edges.len() + 1
    }

    /// The audible-range bound the partition was built with.
    #[must_use]
    pub fn r_max(&self) -> f64 {
        self.r_max
    }

    /// The band containing coordinate `x`. Band `b` covers
    /// `[edges[b-1], edges[b])` with unbounded first and last bands.
    #[must_use]
    pub fn band_of(&self, x: f64) -> usize {
        self.edges.partition_point(|e| *e <= x)
    }

    /// The inclusive band range a transmission originating at `x` can
    /// reach: every band overlapping `[x − r_max, x + r_max]`.
    #[must_use]
    pub fn reach(&self, x: f64) -> (usize, usize) {
        self.reach_interval(x, x)
    }

    /// The inclusive band range within `r_max` of the x-interval
    /// `[lo, hi]` — used to scope link-cache invalidation to the bands a
    /// node's move could affect.
    #[must_use]
    pub fn reach_interval(&self, lo: f64, hi: f64) -> (usize, usize) {
        (self.band_of(lo - self.r_max), self.band_of(hi + self.r_max))
    }

    /// Whether a node at `x` is *interior* to its band: no transmission
    /// from `x` can be heard outside the band, and nothing audible at
    /// `x` can originate outside it.
    #[must_use]
    pub fn is_interior(&self, x: f64) -> bool {
        let (lo, hi) = self.reach(x);
        lo == hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::propagation::PathLossModel;

    #[test]
    fn range_bound_is_conservative_and_finite() {
        let config = RfConfig::default();
        let r = max_audible_range(&config);
        assert!(r.is_finite() && r > 0.0, "r_max = {r}");
        // The float below is audible and the bound itself is not: the
        // walk stopped at the edge.
        let sens = sensitivity(
            config.modulation.spreading_factor,
            config.modulation.bandwidth,
        );
        let margin = config.tx_power.value() + 2.0 * config.antenna_gain_db - sens.value();
        assert!(config.path_loss.loss_db(r.next_down()) <= margin);
        assert!(config.path_loss.loss_db(r) > margin);
    }

    #[test]
    fn shadowing_widens_the_range_bound() {
        let base = RfConfig::default();
        let shadowed = RfConfig {
            shadowing: Shadowing::new(4.0, 7),
            ..RfConfig::default()
        };
        assert!(max_audible_range(&shadowed) > max_audible_range(&base));
    }

    #[test]
    fn hopeless_link_budget_gives_zero_range() {
        // Reference loss far beyond any link budget.
        let config = RfConfig {
            path_loss: PathLossModel::LogDistance {
                reference_loss_db: 500.0,
                reference_distance_m: 1.0,
                exponent: 2.0,
            },
            ..RfConfig::default()
        };
        assert_eq!(max_audible_range(&config), 0.0);
    }

    #[test]
    fn lookahead_is_the_preamble_and_bounds_every_airtime() {
        let config = RfConfig::default();
        let la = min_lookahead(&config);
        assert!(la > Duration::ZERO);
        for len in [0, 1, 16, 255] {
            assert!(config.modulation.time_on_air(len) >= la);
        }
    }

    #[test]
    fn quantile_edges_balance_a_uniform_line() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let p = Partitioner::new(&xs, 4, 5.0);
        assert_eq!(p.bands(), 4);
        let mut counts = [0usize; 4];
        for &x in &xs {
            counts[p.band_of(x)] += 1;
        }
        assert_eq!(counts, [25, 25, 25, 25]);
    }

    #[test]
    fn weighted_edges_balance_summed_weight_not_node_count() {
        // A dense cluster of 80 heavy nodes and a sparse tail of 20
        // light ones. Count quantiles put 3 of 4 edges inside the
        // cluster *by count*; weight quantiles must split so each band
        // carries ~¼ of the total weight.
        let mut xs: Vec<f64> = (0..80).map(|i| f64::from(i) * 1.0).collect();
        xs.extend((0..20).map(|i| 1000.0 + f64::from(i) * 50.0));
        let mut weights = vec![80usize; 80];
        weights.extend(vec![1usize; 20]);
        let p = Partitioner::weighted(&xs, &weights, 4, 10.0);
        assert_eq!(p.bands(), 4);
        let total: usize = weights.iter().sum();
        let mut band_weight = vec![0usize; p.bands()];
        for (x, w) in xs.iter().zip(&weights) {
            band_weight[p.band_of(*x)] += *w;
        }
        for (b, w) in band_weight.iter().enumerate() {
            assert!(
                *w * 4 <= total * 2,
                "band {b} carries {w} of {total} — not balanced: {band_weight:?}"
            );
        }
    }

    #[test]
    fn uniform_weights_degenerate_to_near_count_quantiles() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let p = Partitioner::weighted(&xs, &vec![3; 100], 4, 5.0);
        assert_eq!(p.bands(), 4);
        let mut counts = [0usize; 4];
        for &x in &xs {
            counts[p.band_of(x)] += 1;
        }
        for c in counts {
            assert!((20..=30).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn weighted_handles_missing_weights_and_heavy_singletons() {
        // Short weight vector: missing entries count as 1.
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let p = Partitioner::weighted(&xs, &[5, 5], 2, 1.0);
        assert_eq!(p.bands(), 2);
        // One node holding nearly all weight: its crossing may collapse
        // several cuts; the partition must stay valid (≤ shards bands,
        // strictly increasing edges).
        let p = Partitioner::weighted(&xs, &[1, 1, 1, 1000, 1, 1, 1, 1, 1, 1], 8, 1.0);
        assert!(p.bands() <= 8 && p.bands() >= 1);
        let mut last = 0;
        for &x in &xs {
            let b = p.band_of(x);
            assert!(b >= last && b < p.bands());
            last = b;
        }
    }

    #[test]
    fn band_of_is_monotone_and_total() {
        let p = Partitioner::new(&[0.0, 10.0, 20.0, 30.0], 4, 1.0);
        let mut last = 0;
        for x in [-1.0e9, -5.0, 3.0, 11.0, 29.0, 1.0e9] {
            let b = p.band_of(x);
            assert!(b >= last);
            assert!(b < p.bands());
            last = b;
        }
    }

    #[test]
    fn reach_covers_every_band_within_r_max() {
        let xs: Vec<f64> = (0..64).map(|i| f64::from(i) * 10.0).collect();
        let p = Partitioner::new(&xs, 8, 35.0);
        for &x in &xs {
            let (lo, hi) = p.reach(x);
            assert!(lo <= p.band_of(x) && p.band_of(x) <= hi);
            for &y in &xs {
                if (x - y).abs() <= 35.0 {
                    let b = p.band_of(y);
                    assert!(
                        (lo..=hi).contains(&b),
                        "{y} within reach of {x} but band {b} outside {lo}..={hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn interior_nodes_cannot_reach_other_bands() {
        let xs: Vec<f64> = (0..64).map(|i| f64::from(i) * 10.0).collect();
        let p = Partitioner::new(&xs, 4, 15.0);
        let interior: Vec<f64> = xs.iter().copied().filter(|&x| p.is_interior(x)).collect();
        assert!(!interior.is_empty(), "some nodes must be interior");
        for &x in &interior {
            assert_eq!(p.band_of(x - 15.0), p.band_of(x + 15.0));
        }
    }

    #[test]
    fn degenerate_partitions_are_single_band() {
        assert_eq!(Partitioner::new(&[], 8, 10.0).bands(), 1);
        assert_eq!(Partitioner::new(&[1.0, 2.0], 1, 10.0).bands(), 1);
    }

    #[test]
    fn bands_narrower_than_r_max_reach_multiple_neighbors() {
        // Dense cluster: every band is narrower than r_max, so reach must
        // span several bands, not just adjacent ones.
        let xs: Vec<f64> = (0..80).map(|i| f64::from(i) * 1.0).collect();
        let p = Partitioner::new(&xs, 8, 50.0);
        let (lo, hi) = p.reach(40.0);
        assert!(hi - lo >= 4, "reach {lo}..={hi} too narrow");
    }
}
