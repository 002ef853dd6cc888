//! Per-node cache of **audible sets**: for each sender, the nodes that
//! can hear it, ascending, with the link budget toward each.
//!
//! Path-loss and shadowing math is deterministic in the endpoint
//! positions, so [`LinkCache`] computes a sender's links once per
//! *fill* — lazily, on its first transmission (or CAD/interferer
//! lookup) after something within its reach moved — and answers later
//! frames from the row. A row holds what its two readers consume —
//! fan-out walks [`LinkRow::audible`], interferer seeding and CAD ask
//! [`LinkRow::heard`] about one pair — and nothing else.
//!
//! **Absent ≡ silent.** A node not in the row is inaudible, and an
//! inaudible link's power is never read (interference sums are
//! audibility-gated — DESIGN.md, "Sharded engine"), so a node no
//! candidate scan ever visits reads exactly like one that was visited
//! and found too weak.
//!
//! [`LinkRow::fill`] is the one fill routine (coordinator, parallel
//! prefetch and band workers all call it), and it makes a row a pure
//! function of the positions: who fills it, in which order and on which
//! thread cannot matter. Links are symmetric, but rows do not borrow
//! entries from each other: the lookups cost more than the arithmetic
//! they saved, and would make a row depend on which others are cached.
//!
//! Rows keep their buffers across invalidation, so a mobile world's
//! refills allocate nothing. The cache holds *values*, never decisions:
//! the simulator invalidates every row on a node addition or explicit
//! position change, and on a mobility tick either every row or, on the
//! sharded engine, exactly the rows of bands a mover could reach. Every
//! valid row equals a brute-force scan of the link budget
//! (`crates/radio-sim/tests/row_model.rs`).

use lora_phy::power::Dbm;
use lora_phy::propagation::Position;

use crate::firmware::NodeId;
use crate::grid::Grid;
use crate::medium::Medium;

/// The budget of one directed link (symmetric in practice).
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// Received power in dBm.
    pub power: Dbm,
    /// Received power in linear milliwatts (interference sums).
    pub power_mw: f64,
    /// Whether the power exceeds the shared modulation's sensitivity.
    pub audible: bool,
}

impl Link {
    /// A self-link / inaudible placeholder carrying no power.
    #[must_use]
    pub fn silent() -> Self {
        Link {
            power: Dbm::new(f64::NEG_INFINITY),
            power_mw: 0.0,
            audible: false,
        }
    }
}

/// One audible neighbour of a row's node.
#[derive(Clone, Copy, Debug)]
pub struct Neighbour {
    /// The neighbour's node index (node count < 2³² by construction).
    pub node: u32,
    /// Received power in dBm.
    pub power: Dbm,
    /// Received power in linear milliwatts.
    pub power_mw: f64,
}

impl Neighbour {
    /// The entry as an (audible) [`Link`].
    #[must_use]
    pub fn link(&self) -> Link {
        Link {
            power: self.power,
            power_mw: self.power_mw,
            audible: true,
        }
    }
}

/// Slack of the squared-distance gate in [`LinkRow::fill`]: a candidate
/// is skipped only when `dx² + dy² > r_max² · GATE_SLACK`. The rounding
/// of two squares, a sum and the bound is a few 10⁻¹⁶, so a skipped pair
/// is farther than `r_max` in exact arithmetic and by `hypot` alike —
/// the proof obligation [`crate::shard::beyond_range`] and the grid
/// rest on, in a form that costs no square root.
const GATE_SLACK: f64 = 1.0 + 1e-9;

/// One node's audible set.
#[derive(Clone, Debug, Default)]
pub struct LinkRow {
    /// The nodes that can hear this node, ascending by index.
    pub audible: Vec<Neighbour>,
    /// The [`LinkCache`] epoch this row was filled in; the row is valid
    /// while the two match (0 = never filled or invalidated).
    filled: u64,
}

impl LinkRow {
    /// The entry for node `j` if it can hear this node.
    #[must_use]
    pub fn heard(&self, j: usize) -> Option<&Neighbour> {
        let j = u32::try_from(j).ok()?;
        let k = self.audible.binary_search_by_key(&j, |n| n.node).ok()?;
        self.audible.get(k)
    }

    /// The link toward node `j`; [`Link::silent`] when `j` is not in the
    /// audible set.
    #[must_use]
    pub fn get(&self, j: usize) -> Link {
        self.heard(j).map_or_else(Link::silent, Neighbour::link)
    }

    /// Refills the row with node `i`'s audible set among `n` nodes at
    /// positions `at(·)`, reusing the row's buffer. Candidates come from
    /// `grid` (which must have been built over the same positions with
    /// `r_max`) or, without one, are all of `0..n`; `r_max` is
    /// [`crate::shard::max_audible_range`] of `medium`'s configuration.
    ///
    /// Everything the distance gate keeps goes through the exact
    /// [`Medium::received_power`]/[`Medium::audible`] math, so the result
    /// equals a brute-force scan of every node bit for bit (a non-finite
    /// squared distance is never skipped; it takes the exact path).
    pub fn fill(
        &mut self,
        i: usize,
        n: usize,
        at: impl Fn(usize) -> Position,
        medium: &Medium,
        grid: Option<&Grid>,
        r_max: f64,
    ) {
        let (here, limit) = (at(i), r_max * r_max * GATE_SLACK);
        let audible = &mut self.audible;
        audible.clear();
        let mut consider = |j: usize| {
            let there = at(j);
            let (dx, dy) = (here.x - there.x, here.y - there.y);
            if j == i || dx * dx + dy * dy > limit {
                return;
            }
            let power = medium.received_power(&here, &there, NodeId(i), NodeId(j));
            if medium.audible(power) {
                audible.push(Neighbour {
                    node: j as u32,
                    power,
                    power_mw: power.to_milliwatts().value(),
                });
            }
        };
        match grid {
            Some(grid) => grid.for_each_candidate(here, consider),
            None => (0..n).for_each(&mut consider),
        }
        // Ascending order is what keeps fan-out and interferer-sum order
        // — hence every float sum — independent of the visit order.
        audible.sort_unstable_by_key(|n| n.node);
    }

    /// Refills the row from explicit candidates: the audible links among
    /// `compute(j)` for `j` in `cands` (ascending), `i` itself excluded.
    fn collect(&mut self, i: usize, cands: &[usize], mut compute: impl FnMut(usize) -> Link) {
        self.audible.clear();
        for &j in cands.iter().filter(|&&j| j != i) {
            let link = compute(j);
            if link.audible {
                self.audible.push(Neighbour {
                    node: j as u32,
                    power: link.power,
                    power_mw: link.power_mw,
                });
            }
        }
    }
}

/// Lazily filled audible sets, one row per node. Invalidation is O(1)
/// for all rows (an epoch bump) or one row, and never frees a buffer.
#[derive(Debug, Default)]
pub struct LinkCache {
    rows: Vec<LinkRow>,
    /// Rows filled in this epoch are valid. At least 1 once rows exist
    /// ([`LinkCache::resize`] bumps it), so a row's 0 is never valid.
    epoch: u64,
    /// Rows filled since construction (cache-rebuild accounting for the
    /// scoped-invalidation regression tests; not part of any metric).
    rebuilds: u64,
}

impl LinkCache {
    /// An empty cache for a simulation with no nodes yet.
    #[must_use]
    pub fn new() -> Self {
        LinkCache::default()
    }

    /// Number of nodes the cache is sized for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the cache is sized for zero nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Resizes for `n` nodes and invalidates every row (a new node
    /// changes neighbor lists). Growing by one is amortised O(1).
    pub fn resize(&mut self, n: usize) {
        self.rows.resize_with(n, LinkRow::default);
        self.invalidate_all();
    }

    /// Invalidates every row. Called on any event that may move a node
    /// (mobility tick, explicit position change).
    pub fn invalidate_all(&mut self) {
        self.epoch += 1;
    }

    /// Invalidates one node's row, leaving the others in place. The
    /// sharded engine calls this for exactly the rows a mobility tick
    /// could have changed: a row it leaves valid belongs to a node no
    /// mover came within reach of, so its audible set and every power
    /// in it are still exact.
    pub fn invalidate_row(&mut self, i: usize) {
        if let Some(row) = self.rows.get_mut(i) {
            row.filled = 0;
        }
    }

    /// Whether row `i` is currently valid (prefetch planning).
    #[must_use]
    #[inline]
    pub fn has_row(&self, i: usize) -> bool {
        self.cached(i).is_some()
    }

    /// Row `i`, if it is valid.
    #[must_use]
    #[inline]
    pub fn cached(&self, i: usize) -> Option<&LinkRow> {
        self.rows.get(i).filter(|row| row.filled == self.epoch)
    }

    /// Number of row fills since construction — how many times a
    /// (re-)computation of some node's links actually ran.
    #[must_use]
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Row `i`, refilled in place by `fill` first unless it is valid.
    ///
    /// # Panics
    ///
    /// Panics if the cache is not sized for node `i`.
    #[inline]
    pub fn ensure(&mut self, i: usize, fill: impl FnOnce(&mut LinkRow)) -> &LinkRow {
        let row = &mut self.rows[i];
        if row.filled != self.epoch {
            fill(row);
            row.filled = self.epoch;
            self.rebuilds += 1;
        }
        row
    }

    /// Row `i`, computed on first access from explicit candidates: the
    /// audible links among `compute(j)` for `j` in the ascending `cands`.
    /// For callers that bring their own link function (the benchmark's
    /// kernels, unit tests); the engine fills through [`LinkRow::fill`].
    pub fn row(
        &mut self,
        i: usize,
        cands: &[usize],
        compute: impl FnMut(usize) -> Link,
    ) -> &LinkRow {
        self.ensure(i, |row| row.collect(i, cands, compute))
    }

    /// Installs a row filled elsewhere (parallel prefetch, a band
    /// worker's overlay). Counts as a rebuild; a valid row is left
    /// untouched, so an install can never clobber a fresher fill.
    pub fn install(&mut self, i: usize, row: LinkRow) {
        self.ensure(i, |slot| slot.audible = row.audible);
    }

    /// [`LinkCache::row`]'s value as a free-standing row, without
    /// touching the cache.
    #[must_use]
    pub fn compute_row(
        &self,
        i: usize,
        cands: &[usize],
        compute: impl FnMut(usize) -> Link,
    ) -> LinkRow {
        let mut row = LinkRow::default();
        row.collect(i, cands, compute);
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(power_dbm: f64, audible: bool) -> Link {
        Link {
            power: Dbm::new(power_dbm),
            power_mw: Dbm::new(power_dbm).to_milliwatts().value(),
            audible,
        }
    }

    fn all(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    fn nodes(row: &LinkRow) -> Vec<u32> {
        row.audible.iter().map(|n| n.node).collect()
    }

    #[test]
    fn rows_fill_lazily_and_independently() {
        let mut cache = LinkCache::new();
        cache.resize(4);
        let mut computed = Vec::new();
        let row0 = cache.row(0, &all(4), |j| {
            computed.push(j);
            link(-80.0 - j as f64, true)
        });
        assert_eq!(nodes(row0), vec![1, 2, 3]);
        assert_eq!(computed, vec![1, 2, 3], "the self-link is never computed");

        // Row 1 is its own function of the candidates: nothing is
        // borrowed from row 0.
        let mut computed = Vec::new();
        let row1 = cache.row(1, &all(4), |j| {
            computed.push(j);
            link(-90.0, j == 0)
        });
        assert_eq!(computed, vec![0, 2, 3]);
        assert_eq!(nodes(row1), vec![0]);
        assert_eq!(row1.get(0).power.value().to_bits(), (-90.0f64).to_bits());

        // A second access computes nothing.
        let _ = cache.row(0, &all(4), |_| panic!("row 0 is cached"));
    }

    #[test]
    fn absent_nodes_read_silent() {
        let mut cache = LinkCache::new();
        cache.resize(5);
        // Row 2's candidates are {1, 2, 3}; 3 is too weak to hear it.
        let row = cache.row(2, &[1, 2, 3], |j| link(-70.0, j == 1));
        assert_eq!(nodes(row), vec![1]);
        assert!(row.get(1).audible);
        assert!(row.heard(1).is_some());
        for j in [0, 2, 3, 4, usize::MAX] {
            assert!(row.heard(j).is_none());
            assert!(!row.get(j).audible, "node {j} must read silent");
            assert_eq!(row.get(j).power_mw, 0.0);
        }
    }

    #[test]
    fn invalidate_row_is_scoped_and_counted() {
        let mut cache = LinkCache::new();
        cache.resize(3);
        let _ = cache.row(0, &all(3), |_| link(-80.0, true));
        let _ = cache.row(1, &all(3), |_| link(-85.0, true));
        assert_eq!(cache.rebuilds(), 2);
        cache.invalidate_row(0);
        assert!(!cache.has_row(0));
        // Row 1 must survive; row 0 must refill (one more rebuild) with
        // the new values, not what its retained buffer held.
        let _ = cache.row(1, &all(3), |_| panic!("row 1 was not invalidated"));
        let row0 = cache.row(0, &all(3), |j| link(-60.0, j == 2));
        assert_eq!(nodes(row0), vec![2]);
        assert_eq!(row0.get(2).power.value().to_bits(), (-60.0f64).to_bits());
        assert_eq!(cache.rebuilds(), 3);
    }

    #[test]
    fn resize_and_invalidate_all_drop_every_row() {
        let mut cache = LinkCache::new();
        cache.resize(2);
        let _ = cache.row(1, &all(2), |_| link(-80.0, true));
        cache.resize(3);
        assert_eq!(cache.len(), 3);
        let mut calls = 0;
        let row = cache.row(1, &all(3), |_| {
            calls += 1;
            link(-120.0, false)
        });
        assert_eq!(calls, 2, "old rows must not survive a resize");
        assert!(row.audible.is_empty());
        cache.invalidate_all();
        assert!(cache.cached(1).is_none());
        let _ = cache.row(1, &all(3), |_| link(-80.0, true));
        assert_eq!(cache.rebuilds(), 3);
    }

    #[test]
    fn compute_row_matches_lazy_fill_bit_for_bit() {
        let budget = |j: usize| link(-70.0 - j as f64, !j.is_multiple_of(3));
        let bits = |row: &LinkRow| -> Vec<(u32, u64, u64)> {
            let entry = |n: &Neighbour| (n.node, n.power.value().to_bits(), n.power_mw.to_bits());
            row.audible.iter().map(entry).collect()
        };
        let mut lazy = LinkCache::new();
        lazy.resize(5);
        let expected = bits(lazy.row(2, &all(5), budget));

        let mut pre = LinkCache::new();
        pre.resize(5);
        let computed = pre.compute_row(2, &all(5), budget);
        pre.install(2, computed);
        let row = pre.row(2, &all(5), |_| panic!("row 2 was installed"));
        assert_eq!(bits(row), expected);
        assert_eq!(nodes(row), vec![1, 4]);
        assert_eq!(pre.rebuilds(), lazy.rebuilds());
    }

    #[test]
    fn install_never_clobbers_a_cached_row() {
        let mut cache = LinkCache::new();
        cache.resize(2);
        let _ = cache.row(0, &all(2), |_| link(-60.0, true));
        let stale = cache.compute_row(0, &all(2), |_| link(-120.0, false));
        cache.install(0, stale);
        assert!(cache.row(0, &all(2), |_| panic!("cached")).get(1).audible);
        assert_eq!(cache.rebuilds(), 1);
    }
}
