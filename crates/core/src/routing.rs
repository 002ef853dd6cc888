//! The distance-vector routing table.
//!
//! This is the heart of LoRaMesher: each node stores, per known
//! destination, the hop-count metric and the neighbour (`via`) through
//! which it is reached. Tables are learned entirely from the periodic
//! Hello broadcasts:
//!
//! * hearing *any* packet from a neighbour establishes (or refreshes) a
//!   direct route to it with metric 1;
//! * each entry `(dst, m)` advertised by neighbour `v` is a candidate
//!   route `dst via v` with metric `m + 1`, adopted when it is new or
//!   strictly better, and always refreshed when it comes from the
//!   neighbour we already route through (so a worsening path updates
//!   rather than sticks);
//! * entries not refreshed within the route timeout are purged.
//!
//! Metrics are capped at [`RoutingTable::INFINITY_METRIC`]; a route at or
//! beyond the cap is treated as unreachable, which bounds count-to-infinity
//! in the classic Bellman–Ford way.
//!
//! # Layout
//!
//! The table is one `Vec<Route>` sorted by destination, because its
//! inner loop is applying a hello: up to 61 adverts from every
//! neighbour, for ever, against a table of at most a few hundred
//! 24-byte routes. Hellos are emitted in address order
//! ([`RoutingTable::routes`]), so applying one is a merge of two
//! sorted sequences: a cursor remembers how many routes sort at or
//! before the previous advert, and the next advert is looked for in the
//! slot right there — a sequential read of a table prefix, no search. The
//! guess missing costs one binary search of the tail beyond it; an
//! advert that is *not* ascending (a duplicate, or a hello no honest
//! table produced) costs one binary search of the whole table and
//! re-seats the cursor, so hostile order is slower per entry but never
//! wrong and never worse than a lookup per advert. Point queries
//! (`route`, `next_hop`, the direct-neighbour refresh) binary-search;
//! `purge`/`drop_via` are one `retain` pass. What the flat layout gives
//! up is O(log n) insertion: a new destination shifts the routes after it
//! (at most 6 KiB for a full 256-node table) — paid once per route
//! *learned*, during formation and after churn, against a lookup per
//! advert *heard* in the steady state. A full vector grows by a quarter
//! of its length plus four routes, not by doubling: a table keeps the
//! capacity it reached for its whole life, and formation overshoots
//! the steady-state route count, so doubling would leave up to half of
//! that peak unused for good.
//!
//! # Repeats
//!
//! The hello is periodic, so in a converged mesh almost every hello is a
//! byte-for-byte copy of what the same neighbour said one interval
//! earlier, and applying it changes nothing but timestamps and link
//! SNRs. The table remembers, per neighbour, the last hello whose
//! apply was such a no-op and applies an exact repeat of it in one pass
//! over its routes instead of the advert-by-advert merge. A record is
//! stored at the end of a full apply only when all of these hold:
//!
//! * the SNR tie-break is off ([`RoutingPolicy::snr_tiebreak`]), so
//!   `prefer` compares the route's metric with the candidate's and
//!   reads no link state;
//! * the adverts were strictly ascending, so no route is refreshed twice;
//! * the advert loop left the table's `version` unchanged: no route was
//!   added, removed, or rewritten in metric or role;
//! * the hello refreshed every route through the neighbour, except the
//!   neighbour's own route.
//!
//! A later hello from that neighbour is a repeat when its role, the
//! table's `version` and its digest all match the record. Without the
//! tie-break a next hop never changes alone: a direct observation
//! replaces only a multi-hop route (no advert yields a metric below 2),
//! and an adopted candidate is strictly shorter. So an unchanged
//! `version` also means no route moved to another next hop, and the
//! full apply would find every advertised route in place; a route through
//! the neighbour already has the candidate metric and the advertised
//! role, so it would only refresh its `last_seen` and `snr`; `prefer`
//! was false for every route through another node at record time, and
//! none of its inputs has changed; and the completeness condition makes
//! "routes through the neighbour" the same set as "routes this hello
//! refreshes". So the repeat sets `last_seen` and `snr` on exactly those
//! routes, to the values the full apply stores, re-derives
//! `earliest_seen` as the exact minimum in the same pass, and changes
//! nothing else.
//!
//! The record keeps a 128-bit digest of the hello rather than a copy:
//! two independent 64-bit multiply–rotate lanes over every advert's four
//! wire bytes in wire order, closed with the advert count. A false hit
//! needs two hellos from the same neighbour, at the same table version,
//! to collide in both lanes; and its effect is exactly that of the
//! recorded hello arriving again, which any node that can send under the
//! neighbour's address can already cause.
//! Records are sorted by neighbour, hold no heap data, and are dropped
//! with their neighbour's route.

use alloc::vec::Vec;
use core::cmp::Ordering;
use core::time::Duration;

use crate::addr::Address;
use crate::packet::RouteEntry;

/// An instant on the table's clock, as whole nanoseconds in a `u64`.
///
/// Saturation: an instant at or past `u64::MAX` ns (≈ 584 years) is
/// stamped as `u64::MAX` ns, so a route heard that late reads as heard at
/// the cap. Where a stamp meets a caller's clock in arithmetic (a route's
/// age in [`RoutingTable::purge`], the deadline of
/// [`RoutingTable::next_expiry`]) it is converted back to a [`Duration`]
/// first, so a clock past the cap never wraps: such a route ages from
/// the cap. Below the cap the round trip is exact.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp(u64);

impl Stamp {
    /// `now`, saturated at `u64::MAX` ns.
    #[must_use]
    pub fn at(now: Duration) -> Self {
        Stamp(u64::try_from(now.as_nanos()).unwrap_or(u64::MAX))
    }
}

impl From<Stamp> for Duration {
    fn from(stamp: Stamp) -> Duration {
        Duration::from_nanos(stamp.0)
    }
}

impl core::fmt::Debug for Stamp {
    /// As the [`Duration`] it stands for.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        Duration::from(*self).fmt(f)
    }
}

/// One route: how to reach `destination`. 24 bytes; a table is a
/// vector of them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Route {
    /// The destination node.
    pub destination: Address,
    /// The neighbour to forward through (equals `destination` for
    /// direct neighbours).
    pub via: Address,
    /// Hop count (1 = direct neighbour).
    pub metric: u8,
    /// Role bits advertised by the destination.
    pub role: u8,
    /// When this route was last confirmed (see [`Stamp`] for the
    /// saturation rule).
    pub last_seen: Stamp,
    /// SNR of the last packet from the `via` neighbour, in dB (receiver
    /// side bookkeeping; 0 until measured).
    pub snr: f64,
}

impl Route {
    /// What a Hello advertises of this route.
    #[must_use]
    pub fn as_entry(&self) -> RouteEntry {
        RouteEntry {
            address: self.destination,
            metric: self.metric,
            role: self.role,
        }
    }
}

/// Whether re-stamping a route's `last_seen` from `old` to `now` can
/// raise the table minimum `earliest`: only when the route held that
/// minimum and the stamp actually moves (a fresh insert, or a second
/// frame in the same instant, carries `now` already).
fn vacates(earliest: Option<Stamp>, old: Stamp, now: Stamp) -> bool {
    earliest == Some(old) && old != now
}

/// Minimum SNR advantage (dB) before the SNR tie-break switches an
/// equal-metric route.
pub const SNR_HYSTERESIS_DB: f64 = 3.0;

/// Route-selection policy: the demo paper's hop count, with an optional
/// SNR tie-break. [`RoutingTable::with_policy`] takes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoutingPolicy {
    /// Break metric ties in favour of the next hop with the better
    /// last-heard SNR (requires a margin of [`SNR_HYSTERESIS_DB`] to
    /// switch, so equal-quality paths do not flap). Off by default —
    /// hop count only, as in the demo paper's prototype.
    pub snr_tiebreak: bool,
}

impl RoutingPolicy {
    /// Whether the candidate route — reaching `current.destination`
    /// through `neighbour` with `candidate_metric` hops, heard at `snr`
    /// dB — is strictly preferable to the `current` route.
    ///
    /// Only consulted for competing routes: the table always follows a
    /// candidate from the current next hop, so worsening paths are
    /// noticed.
    #[must_use]
    pub fn prefer(
        &self,
        current: &Route,
        candidate_metric: u8,
        neighbour: Address,
        snr: f64,
    ) -> bool {
        let better_metric = candidate_metric < current.metric;
        // Optional SNR tie-break: same hop count, audibly stronger
        // neighbour (beyond the hysteresis margin).
        let better_snr = self.snr_tiebreak
            && candidate_metric == current.metric
            && neighbour != current.via
            && snr > current.snr + SNR_HYSTERESIS_DB;
        better_metric || better_snr
    }
}

/// Per digest lane: seed, odd multiplier, rotation.
const DIGEST_LANES: [(u64, u64, u32); 2] = [
    (0x243F_6A88_85A3_08D3, 0x9E37_79B9_7F4A_7C15, 27),
    (0x1319_8A2E_0370_7344, 0xC2B2_AE3D_27D4_EB4F, 31),
];

/// A 128-bit fingerprint of a hello's adverts (see "Repeats" in the
/// module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Digest([u64; 2]);

impl Digest {
    fn new() -> Self {
        Digest(DIGEST_LANES.map(|(seed, ..)| seed))
    }

    fn push(&mut self, word: u64) {
        for (lane, (_, mul, rot)) in self.0.iter_mut().zip(DIGEST_LANES) {
            *lane = (*lane ^ word).wrapping_mul(mul).rotate_left(rot);
        }
    }

    /// Mixes in one advert's four wire bytes.
    fn advert(&mut self, e: &RouteEntry) {
        let [lo, hi] = e.address.value().to_le_bytes();
        self.push(u64::from(u32::from_le_bytes([lo, hi, e.metric, e.role])));
    }

    /// Closes the digest of `count` adverts. The count word has its high
    /// half set, so it is no advert's word.
    fn finish(mut self, count: u64) -> Self {
        self.push(!count);
        self
    }

    /// The digest of a whole hello.
    fn of(entries: impl Iterator<Item = RouteEntry>) -> Self {
        let mut digest = Digest::new();
        let mut count = 0;
        for e in entries {
            digest.advert(&e);
            count += 1;
        }
        digest.finish(count)
    }
}

/// A neighbour's last hello whose apply was a no-op: a repeat of it at
/// the same table `version` is applied in one pass.
#[derive(Clone, Copy, Debug)]
struct Repeat {
    neighbour: Address,
    role: u8,
    version: u64,
    digest: Digest,
}

/// The LoRaMesher routing table.
///
/// ```
/// use loramesher::routing::RoutingTable;
/// use loramesher::packet::RouteEntry;
/// use loramesher::Address;
/// use std::time::Duration;
///
/// let me = Address::new(1);
/// let neighbour = Address::new(2);
/// let mut table = RoutingTable::new();
/// // A hello from node 2 advertising a route to node 3 at 1 hop:
/// table.apply_hello(
///     me,
///     neighbour,
///     0,
///     &[RouteEntry { address: Address::new(3), metric: 1, role: 0 }],
///     5.0,
///     Duration::from_secs(10),
/// );
/// assert_eq!(table.next_hop(Address::new(2)), Some(neighbour));
/// assert_eq!(table.next_hop(Address::new(3)), Some(neighbour));
/// assert_eq!(table.route(Address::new(3)).unwrap().metric, 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RoutingTable {
    /// Sorted by `destination`, one route per destination.
    routes: Vec<Route>,
    policy: RoutingPolicy,
    /// Bumped whenever the Hello-visible content of the table — the set
    /// of `(destination, metric, role)` tuples — changes. Refreshes that
    /// only touch timestamps or link SNRs do not count, so an unchanged
    /// `version` guarantees [`RoutingTable::routes`] advertises the same
    /// entries and lets callers cache their encoding. What
    /// a [`Repeat`] is valid for.
    version: u64,
    /// At most one record per neighbour, sorted by neighbour.
    repeats: Vec<Repeat>,
    /// The smallest `last_seen` over `routes` (`None` when empty): the
    /// state behind [`RoutingTable::next_expiry`]. Exact, not a bound —
    /// hosts schedule timers from it. Owned by the four mutators
    /// (`heard_from`, `apply_hello`, `purge`, `drop_via`): each keeps it
    /// current on insert and re-derives it with one walk only when a
    /// route that held the minimum was refreshed or removed in that call.
    earliest_seen: Option<Stamp>,
}

impl RoutingTable {
    /// Metric value treated as unreachable.
    ///
    /// Bounds count-to-infinity while still admitting the deepest
    /// topologies the evaluation uses (a 24-node line has 23-hop routes).
    pub const INFINITY_METRIC: u8 = 32;

    /// An empty table with the default (hop-count-only) policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with the given selection policy.
    #[must_use]
    pub fn with_policy(policy: RoutingPolicy) -> Self {
        RoutingTable {
            policy,
            ..Self::default()
        }
    }

    /// The Hello-content generation: unchanged between two calls if and
    /// only if no `(destination, metric, role)` tuple was added, removed
    /// or rewritten in between (timestamp/SNR refreshes don't count).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Marks the Hello-visible content as changed.
    fn touch(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    /// The active selection policy.
    #[must_use]
    pub fn policy(&self) -> &RoutingPolicy {
        &self.policy
    }

    /// Number of known destinations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether no destinations are known.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The route to `dst`, if known.
    #[must_use]
    pub fn route(&self, dst: Address) -> Option<&Route> {
        self.routes.get(self.find(dst).ok()?)
    }

    /// The next hop toward `dst`, if a usable route exists.
    #[must_use]
    pub fn next_hop(&self, dst: Address) -> Option<Address> {
        self.route(dst)
            .filter(|r| r.metric < RoutingTable::INFINITY_METRIC)
            .map(|r| r.via)
    }

    /// Iterates over all routes in address order (deterministic).
    pub fn routes(&self) -> impl Iterator<Item = &Route> {
        self.routes.iter()
    }

    /// The slot `dst` occupies (`Ok`) or would be inserted at (`Err`).
    fn find(&self, dst: Address) -> Result<usize, usize> {
        self.routes.binary_search_by_key(&dst, |r| r.destination)
    }

    /// [`RoutingTable::find`] for the next advert of a hello, where
    /// `below` routes sort at or before `last`, the advert looked up
    /// before it: an ascending advert can only be at slot `below` or
    /// beyond, and in a converged mesh it is exactly there.
    fn seek(&self, dst: Address, last: Option<Address>, below: usize) -> Result<usize, usize> {
        debug_assert_eq!(
            below,
            self.routes.partition_point(|r| Some(r.destination) <= last)
        );
        if Some(dst) <= last {
            // Not ascending: the cursor says nothing about where `dst` is.
            return self.find(dst);
        }
        let Some(next) = self.routes.get(below) else {
            return Err(below);
        };
        match next.destination.cmp(&dst) {
            Ordering::Equal => Ok(below),
            Ordering::Greater => Err(below),
            Ordering::Less => {
                let from = below + 1;
                let tail = self.routes.get(from..).unwrap_or_default();
                tail.binary_search_by_key(&dst, |r| r.destination)
                    .map(|i| from + i)
                    .map_err(|i| from + i)
            }
        }
    }

    /// Inserts `route` at `slot`, which a search for its destination
    /// just returned as `Err`. The table's only growth point: a full
    /// vector grows by a quarter of its length plus four (see "Layout").
    fn insert_at(&mut self, slot: usize, route: Route) {
        debug_assert_eq!(self.find(route.destination), Err(slot));
        if self.routes.len() == self.routes.capacity() {
            self.routes.reserve_exact(self.routes.len() / 4 + 4);
        }
        self.routes.insert(slot, route);
    }

    /// Records that a packet was heard directly from `neighbour`,
    /// creating or refreshing its metric-1 route.
    pub fn heard_from(&mut self, neighbour: Address, snr: f64, now: Duration) {
        let now = Stamp::at(now);
        let (_, stale) = self.refresh_direct(neighbour, snr, now);
        self.settle_earliest(stale, now);
    }

    /// [`RoutingTable::heard_from`] minus the `earliest_seen` upkeep:
    /// returns the neighbour's slot and whether the refreshed route held
    /// the table minimum, for the calling mutator to pass to
    /// [`RoutingTable::settle_earliest`].
    fn refresh_direct(&mut self, neighbour: Address, snr: f64, now: Stamp) -> (usize, bool) {
        debug_assert!(!neighbour.is_broadcast());
        let slot = match self.find(neighbour) {
            Ok(slot) => slot,
            Err(slot) => {
                self.insert_at(
                    slot,
                    Route {
                        destination: neighbour,
                        via: neighbour,
                        metric: 1,
                        role: 0,
                        last_seen: now,
                        snr,
                    },
                );
                self.touch();
                // Stamped `now`, so it vacates no minimum.
                return (slot, false);
            }
        };
        let Some(entry) = self.routes.get_mut(slot) else {
            debug_assert!(false, "slot {slot} was just found");
            return (slot, false);
        };
        // Promoted from a multi-hop metric: the Hello-visible tuple
        // changed.
        let advertised_change = entry.metric != 1;
        // A direct observation always beats any multi-hop route.
        let rerouted = entry.via != neighbour;
        let stale = vacates(self.earliest_seen, entry.last_seen, now);
        entry.via = neighbour;
        entry.metric = 1;
        entry.last_seen = now;
        entry.snr = snr;
        // A metric-1 route goes via its destination, so a next-hop
        // change here is a promotion from a multi-hop metric.
        debug_assert!(advertised_change || !rerouted);
        if advertised_change {
            self.touch();
        }
        (slot, stale)
    }

    /// Closes a mutator call that stamped `now` into at least one route:
    /// `stale` says a route that held `earliest_seen` was refreshed or
    /// removed, so the minimum is re-derived by one walk; otherwise the
    /// only candidate below the old minimum is `now` itself.
    fn settle_earliest(&mut self, stale: bool, now: Stamp) {
        self.earliest_seen = if stale {
            self.scan_earliest()
        } else {
            Some(self.earliest_seen.map_or(now, |e| e.min(now)))
        };
    }

    /// The minimum `last_seen` by walking the table.
    fn scan_earliest(&self) -> Option<Stamp> {
        self.routes.iter().map(|r| r.last_seen).min()
    }

    /// Applies a Hello broadcast heard from `neighbour` advertising
    /// `role` for itself and `entries` from its table. `me` filters out
    /// routes to ourselves. Returns the number of entries that changed.
    pub fn apply_hello(
        &mut self,
        me: Address,
        neighbour: Address,
        role: u8,
        entries: &[RouteEntry],
        snr: f64,
        now: Duration,
    ) -> usize {
        self.apply_adverts(me, neighbour, role, entries.iter().copied(), snr, now)
    }

    /// [`RoutingTable::apply_hello`] over any source of entries, so the
    /// receive path can feed a [`crate::codec::HelloView`] straight from
    /// the wire bytes.
    pub(crate) fn apply_adverts(
        &mut self,
        me: Address,
        neighbour: Address,
        role: u8,
        entries: impl Iterator<Item = RouteEntry> + Clone,
        snr: f64,
        now: Duration,
    ) -> usize {
        let now = Stamp::at(now);
        if self.replay(neighbour, role, entries.clone(), snr, now) {
            return 0;
        }
        let mut changed = 0;
        let (slot, mut stale) = self.refresh_direct(neighbour, snr, now);
        let earliest = self.earliest_seen;
        if let Some(r) = self.routes.get_mut(slot) {
            if r.role != role {
                r.role = role;
                changed += 1;
                self.touch();
            }
        }
        // What a record of this hello needs (see "Repeats"): the version
        // the loop must leave alone, strict ascent, the routes through
        // `neighbour` it refreshed, and the digest.
        let version = self.version;
        let mut ascending = true;
        let mut followed = 0;
        let mut digest = Digest::new();
        let mut count = 0;
        // The merge cursor (see `seek`): `below` routes sort at or before
        // `last`, the previous advert looked up.
        let mut last = None;
        let mut below = 0;
        for e in entries {
            digest.advert(&e);
            count += 1;
            // Nothing to learn about ourselves or the sender, and no
            // table holds its owner, so metric 0 is no honest advert:
            // adopted, it would be a metric-1 "neighbour" never heard.
            if e.address == me
                || e.address == neighbour
                || e.address.is_broadcast()
                || e.metric == 0
            {
                continue;
            }
            let candidate_metric = e
                .metric
                .saturating_add(1)
                .min(RoutingTable::INFINITY_METRIC);
            let found = self.seek(e.address, last, below);
            ascending &= Some(e.address) > last;
            last = Some(e.address);
            let slot = match found {
                Ok(slot) => slot,
                Err(slot) => {
                    below = slot;
                    if candidate_metric < RoutingTable::INFINITY_METRIC {
                        self.insert_at(
                            slot,
                            Route {
                                destination: e.address,
                                via: neighbour,
                                metric: candidate_metric,
                                role: e.role,
                                last_seen: now,
                                snr,
                            },
                        );
                        below = slot + 1;
                        changed += 1;
                        self.touch();
                    }
                    continue;
                }
            };
            below = slot + 1;
            let Some(r) = self.routes.get_mut(slot) else {
                debug_assert!(false, "slot {slot} was just found");
                continue;
            };
            // Strictly better: adopt. Otherwise a candidate from the same
            // next hop is followed, so a degraded path is noticed.
            let adopt = self.policy.prefer(r, candidate_metric, neighbour, snr);
            if !adopt && r.via != neighbour {
                continue; // a competing route that is no better
            }
            if !adopt && candidate_metric >= RoutingTable::INFINITY_METRIC {
                // Our own next hop reports the destination unreachable:
                // the route is gone — remove it rather than keeping
                // infinity clutter that would be re-advertised.
                stale |= earliest == Some(r.last_seen);
                self.routes.remove(slot);
                below = slot;
                changed += 1;
                self.touch();
                continue;
            }
            let rerouted = r.via != neighbour;
            let visible = r.metric != candidate_metric || r.role != e.role;
            if rerouted || r.metric != candidate_metric {
                changed += 1;
            }
            stale |= vacates(earliest, r.last_seen, now);
            r.via = neighbour;
            r.metric = candidate_metric;
            r.role = e.role;
            r.last_seen = now;
            r.snr = snr;
            // Only the tie-break moves a route at equal metric and role.
            debug_assert!(visible || !rerouted || self.policy.snr_tiebreak);
            if visible {
                self.touch();
            } else if !rerouted {
                followed += 1;
            }
        }
        self.settle_earliest(stale, now);
        if self.version == version
            && ascending
            && !self.policy.snr_tiebreak
            && followed == self.routes_via(neighbour)
        {
            self.remember(Repeat {
                neighbour,
                role,
                version,
                digest: digest.finish(count),
            });
        }
        changed
    }

    /// The routes through `neighbour` other than its own.
    fn routes_via(&self, neighbour: Address) -> usize {
        self.routes
            .iter()
            .filter(|r| r.via == neighbour && r.destination != neighbour)
            .count()
    }

    /// Stores `memo` as its neighbour's record, replacing any older one.
    fn remember(&mut self, memo: Repeat) {
        match self
            .repeats
            .binary_search_by_key(&memo.neighbour, |m| m.neighbour)
        {
            Ok(k) => {
                if let Some(old) = self.repeats.get_mut(k) {
                    *old = memo;
                }
            }
            Err(k) => self.repeats.insert(k, memo),
        }
    }

    /// The repeat path: when this hello repeats `neighbour`'s recorded
    /// one at the recorded version, refreshes every route through
    /// `neighbour` — all the full apply would do — and re-derives
    /// `earliest_seen` in the same pass. Returns whether it was a repeat.
    fn replay(
        &mut self,
        neighbour: Address,
        role: u8,
        entries: impl Iterator<Item = RouteEntry>,
        snr: f64,
        now: Stamp,
    ) -> bool {
        let found = self
            .repeats
            .binary_search_by_key(&neighbour, |m| m.neighbour);
        let Some(memo) = found.ok().and_then(|k| self.repeats.get(k)) else {
            return false;
        };
        if memo.version != self.version || memo.role != role || memo.digest != Digest::of(entries) {
            return false;
        }
        // The neighbour's own route is among those refreshed, so `now`
        // bounds the new minimum from above.
        let mut earliest = now;
        for r in &mut self.routes {
            if r.via == neighbour {
                r.last_seen = now;
                r.snr = snr;
            } else {
                earliest = earliest.min(r.last_seen);
            }
        }
        self.earliest_seen = Some(earliest);
        true
    }

    /// Removes routes not refreshed within `timeout` and unreachable
    /// (metric-capped) routes, returning the purged destinations.
    pub fn purge(&mut self, now: Duration, timeout: Duration) -> Vec<Address> {
        self.remove_where(|r| {
            now.saturating_sub(r.last_seen.into()) >= timeout
                || r.metric >= RoutingTable::INFINITY_METRIC
        })
    }

    /// Removes every route through `via` (used when a neighbour is deemed
    /// lost), returning the affected destinations.
    pub fn drop_via(&mut self, via: Address) -> Vec<Address> {
        self.remove_where(|r| r.via == via)
    }

    /// `purge` and `drop_via`: one pass that drops the `dead` routes and
    /// returns their destinations (address order).
    fn remove_where(&mut self, dead: impl Fn(&Route) -> bool) -> Vec<Address> {
        let mut removed = Vec::new();
        let earliest = self.earliest_seen;
        let mut stale = false;
        self.routes.retain(|r| {
            let dead = dead(r);
            if dead {
                stale |= earliest == Some(r.last_seen);
                removed.push(r.destination);
            }
            !dead
        });
        if stale {
            self.earliest_seen = self.scan_earliest();
        }
        if !removed.is_empty() {
            self.touch();
            self.repeats
                .retain(|m| removed.binary_search(&m.neighbour).is_err());
        }
        removed
    }

    /// The earliest instant at which some route will time out, given the
    /// configured timeout — the node's next purge deadline. A field read
    /// (see `earliest_seen`); a deadline beyond what `Duration` can
    /// hold — `timeout` near `Duration::MAX`, "never expire" — is no
    /// deadline.
    #[must_use]
    pub fn next_expiry(&self, timeout: Duration) -> Option<Duration> {
        Duration::from(self.earliest_seen?).checked_add(timeout)
    }
}

impl core::fmt::Display for RoutingTable {
    /// A human-readable dump, one route per line:
    /// `dst via next_hop metric=N role=R snr=S age@T`.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.routes.is_empty() {
            return writeln!(f, "(no routes)");
        }
        for r in &self.routes {
            writeln!(
                f,
                "{} via {}  metric={:<2} role={:#04x} snr={:+.1} seen@{:.0}s",
                r.destination,
                r.via,
                r.metric,
                r.role,
                r.snr,
                Duration::from(r.last_seen).as_secs_f64(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOW: Duration = Duration::from_secs(100);
    const ME: Address = Address::new(0x0001);
    const N2: Address = Address::new(0x0002);
    const N3: Address = Address::new(0x0003);
    const N4: Address = Address::new(0x0004);

    fn entry(addr: Address, metric: u8) -> RouteEntry {
        RouteEntry {
            address: addr,
            metric,
            role: 0,
        }
    }

    /// A table is a vector of these, so its size is the table's.
    #[test]
    fn a_route_is_24_bytes() {
        assert_eq!(core::mem::size_of::<Route>(), 24);
    }

    #[test]
    fn heard_from_creates_direct_route() {
        let mut t = RoutingTable::new();
        t.heard_from(N2, 5.5, NOW);
        let r = t.route(N2).unwrap();
        assert_eq!(r.via, N2);
        assert_eq!(r.metric, 1);
        assert_eq!(r.snr, 5.5);
        assert_eq!(t.next_hop(N2), Some(N2));
    }

    #[test]
    fn direct_observation_beats_multi_hop() {
        let mut t = RoutingTable::new();
        // Learn N3 via N2 at 2 hops first.
        t.apply_hello(ME, N2, 0, &[entry(N3, 1)], 0.0, NOW);
        assert_eq!(t.route(N3).unwrap().metric, 2);
        // Then hear N3 directly.
        t.heard_from(N3, 1.0, NOW + Duration::from_secs(1));
        let r = t.route(N3).unwrap();
        assert_eq!(r.metric, 1);
        assert_eq!(r.via, N3);
    }

    #[test]
    fn hello_learns_and_improves_routes() {
        let mut t = RoutingTable::new();
        let changed = t.apply_hello(ME, N2, 0, &[entry(N3, 2), entry(N4, 1)], 0.0, NOW);
        assert_eq!(changed, 2);
        assert_eq!(t.route(N3).unwrap().metric, 3);
        assert_eq!(t.route(N4).unwrap().metric, 2);
        // A better path to N3 through N4.
        let changed = t.apply_hello(ME, N4, 0, &[entry(N3, 1)], 0.0, NOW);
        assert_eq!(changed, 1);
        let r = t.route(N3).unwrap();
        assert_eq!((r.via, r.metric), (N4, 2));
    }

    #[test]
    fn worse_route_from_other_neighbour_is_ignored() {
        let mut t = RoutingTable::new();
        t.apply_hello(ME, N2, 0, &[entry(N4, 1)], 0.0, NOW);
        let before = *t.route(N4).unwrap();
        let changed = t.apply_hello(ME, N3, 0, &[entry(N4, 5)], 0.0, NOW);
        assert_eq!(changed, 0);
        assert_eq!(*t.route(N4).unwrap(), before);
    }

    #[test]
    fn same_via_tracks_degradation() {
        let mut t = RoutingTable::new();
        t.apply_hello(ME, N2, 0, &[entry(N4, 1)], 0.0, NOW);
        assert_eq!(t.route(N4).unwrap().metric, 2);
        // N2 now reports N4 further away: we must follow it.
        t.apply_hello(
            ME,
            N2,
            0,
            &[entry(N4, 4)],
            0.0,
            NOW + Duration::from_secs(1),
        );
        assert_eq!(t.route(N4).unwrap().metric, 5);
    }

    #[test]
    fn routes_to_self_and_broadcast_are_ignored() {
        let mut t = RoutingTable::new();
        t.apply_hello(
            ME,
            N2,
            0,
            &[entry(ME, 3), entry(Address::BROADCAST, 1)],
            0.0,
            NOW,
        );
        assert!(t.route(ME).is_none());
        assert!(t.route(Address::BROADCAST).is_none());
        // Only the neighbour itself was learned.
        assert_eq!(t.len(), 1);
    }

    /// No table holds its owner, so no honest hello carries metric 0;
    /// adopting one would list a never-heard node as a direct neighbour.
    #[test]
    fn metric_zero_adverts_are_ignored() {
        let mut t = RoutingTable::new();
        assert_eq!(t.apply_hello(ME, N2, 0, &[entry(N3, 0)], 0.0, NOW), 0);
        assert!(t.route(N3).is_none());
        // Nor does one rewrite a route already held through the sender.
        t.apply_hello(ME, N2, 0, &[entry(N3, 2)], 0.0, NOW);
        let before = *t.route(N3).unwrap();
        assert_eq!(t.apply_hello(ME, N2, 0, &[entry(N3, 0)], 0.0, NOW), 0);
        assert_eq!(*t.route(N3).unwrap(), before);
        let direct: Vec<Address> = t
            .routes()
            .filter(|r| r.metric == 1)
            .map(|r| r.destination)
            .collect();
        assert_eq!(direct, vec![N2]);
    }

    #[test]
    fn metric_saturates_at_infinity() {
        let mut t = RoutingTable::new();
        t.apply_hello(
            ME,
            N2,
            0,
            &[entry(N3, RoutingTable::INFINITY_METRIC - 1)],
            0.0,
            NOW,
        );
        // 15 + 1 = 16 = infinity: not usable, not inserted.
        assert!(t.route(N3).is_none());
        assert_eq!(t.next_hop(N3), None);
    }

    #[test]
    fn unreachable_report_from_next_hop_removes_route() {
        let mut t = RoutingTable::new();
        t.apply_hello(ME, N2, 0, &[entry(N3, 1)], 0.0, NOW);
        assert!(t.next_hop(N3).is_some());
        // Our next hop now reports N3 unreachable: the route disappears
        // immediately instead of lingering as infinity clutter.
        let changed = t.apply_hello(
            ME,
            N2,
            0,
            &[entry(N3, RoutingTable::INFINITY_METRIC)],
            0.0,
            NOW,
        );
        assert_eq!(changed, 1);
        assert!(t.route(N3).is_none());
        // Other neighbours' unreachable reports do not touch our route.
        t.apply_hello(ME, N2, 0, &[entry(N3, 1)], 0.0, NOW);
        t.apply_hello(
            ME,
            N4,
            0,
            &[entry(N3, RoutingTable::INFINITY_METRIC)],
            0.0,
            NOW,
        );
        assert!(t.next_hop(N3).is_some());
    }

    #[test]
    fn purge_removes_stale_routes() {
        let mut t = RoutingTable::new();
        t.heard_from(N2, 0.0, NOW);
        t.heard_from(N3, 0.0, NOW + Duration::from_secs(100));
        let purged = t.purge(NOW + Duration::from_secs(650), Duration::from_secs(600));
        assert_eq!(purged, vec![N2]);
        assert!(t.route(N2).is_none());
        assert!(t.route(N3).is_some());
    }

    #[test]
    fn drop_via_removes_dependents() {
        let mut t = RoutingTable::new();
        t.apply_hello(ME, N2, 0, &[entry(N3, 1), entry(N4, 2)], 0.0, NOW);
        let dropped = t.drop_via(N2);
        assert_eq!(dropped.len(), 3); // N2 itself + N3 + N4
        assert!(t.is_empty());
    }

    #[test]
    fn next_expiry_is_earliest() {
        let mut t = RoutingTable::new();
        assert_eq!(t.next_expiry(Duration::from_secs(600)), None);
        t.heard_from(N2, 0.0, Duration::from_secs(10));
        t.heard_from(N3, 0.0, Duration::from_secs(50));
        assert_eq!(
            t.next_expiry(Duration::from_secs(600)),
            Some(Duration::from_secs(610))
        );
    }

    /// A clock at or past `u64::MAX` ns stamps the cap (see [`Stamp`]):
    /// the route reads as heard at the cap in `Display` and
    /// `next_expiry`, and a purge on a clock past the cap ages it from
    /// there, never wrapping. Below the cap a stamp is exact.
    #[test]
    fn a_stamp_saturates_at_the_cap() {
        let cap = Duration::from_nanos(u64::MAX);
        let past = cap + Duration::from_secs(1_000);
        let mut t = RoutingTable::new();
        t.heard_from(N2, 0.0, past);
        t.heard_from(N3, 0.0, cap - Duration::from_nanos(1));
        assert_eq!(t.route(N2).unwrap().last_seen, Stamp::at(cap));
        assert_eq!(Stamp::at(Duration::MAX), Stamp::at(cap));
        assert_eq!(
            Duration::from(t.route(N3).unwrap().last_seen),
            cap - Duration::from_nanos(1)
        );
        assert_eq!(
            t.next_expiry(Duration::from_secs(600)),
            Some(cap - Duration::from_nanos(1) + Duration::from_secs(600))
        );
        let s = t.to_string();
        assert!(
            s.contains("0002 via 0002  metric=1  role=0x00 snr=+0.0 seen@18446744074s"),
            "{s}"
        );
        // At `past`, N2 is 1 000 s old and N3 a nanosecond more.
        let just_over = Duration::from_secs(1_000) + Duration::from_nanos(1);
        assert_eq!(t.purge(past, just_over), vec![N3]);
        assert_eq!(t.next_expiry(Duration::ZERO), Some(cap));
        assert!(t.purge(past, Duration::from_secs(1_001)).is_empty());
        assert_eq!(
            t.purge(past + Duration::from_secs(1), Duration::from_secs(1_001)),
            vec![N2]
        );
        // The largest clock there is: no wrap, no overflow.
        t.heard_from(N2, 0.0, Duration::MAX);
        assert!(t.purge(Duration::MAX, Duration::MAX).is_empty());
        assert_eq!(t.next_expiry(Duration::MAX), None);
        assert_eq!(t.purge(Duration::MAX, Duration::from_secs(600)), vec![N2]);
    }

    #[test]
    fn routes_advertise_metrics_and_roles_in_address_order() {
        let mut t = RoutingTable::new();
        t.apply_hello(ME, N2, 7, &[entry(N3, 1)], 0.0, NOW);
        let entries: Vec<RouteEntry> = t.routes().map(Route::as_entry).collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].address, N2);
        assert_eq!(entries[0].metric, 1);
        assert_eq!(entries[0].role, 7);
        assert_eq!(entries[1].address, N3);
        assert_eq!(entries[1].metric, 2);
    }

    #[test]
    fn snr_tiebreak_prefers_stronger_equal_metric_path() {
        let mut t = RoutingTable::with_policy(RoutingPolicy { snr_tiebreak: true });
        // N4 reachable at 2 hops via N2 (weak link, -5 dB).
        t.apply_hello(ME, N2, 0, &[entry(N4, 1)], -5.0, NOW);
        assert_eq!(t.route(N4).unwrap().via, N2);
        // N3 offers the same 2-hop path over a +2 dB link: switch.
        t.apply_hello(ME, N3, 0, &[entry(N4, 1)], 2.0, NOW);
        let r = *t.route(N4).unwrap();
        assert_eq!(r.via, N3);
        assert_eq!(r.metric, 2);
        assert_eq!(r.snr, 2.0);
        // A third path only 1 dB better than the current: hysteresis
        // keeps the route stable.
        t.apply_hello(ME, Address::new(9), 0, &[entry(N4, 1)], 3.0, NOW);
        assert_eq!(t.route(N4).unwrap().via, N3);
    }

    #[test]
    fn snr_tiebreak_disabled_by_default() {
        let mut t = RoutingTable::new();
        assert!(!t.policy().snr_tiebreak);
        t.apply_hello(ME, N2, 0, &[entry(N4, 1)], -20.0, NOW);
        t.apply_hello(ME, N3, 0, &[entry(N4, 1)], 10.0, NOW);
        // Hop-count-only: the first learned route wins ties.
        assert_eq!(t.route(N4).unwrap().via, N2);
    }

    #[test]
    fn snr_refreshes_on_same_via_updates() {
        let mut t = RoutingTable::new();
        t.apply_hello(ME, N2, 0, &[entry(N4, 1)], -5.0, NOW);
        t.apply_hello(
            ME,
            N2,
            0,
            &[entry(N4, 1)],
            4.0,
            NOW + Duration::from_secs(1),
        );
        assert_eq!(t.route(N4).unwrap().snr, 4.0);
    }

    #[test]
    fn only_the_hello_sender_becomes_a_direct_route() {
        let mut t = RoutingTable::new();
        t.apply_hello(ME, N2, 0, &[entry(N3, 1)], 5.0, NOW);
        let direct: Vec<Address> = t
            .routes()
            .filter(|r| r.metric == 1)
            .map(|r| r.destination)
            .collect();
        assert_eq!(direct, vec![N2]);
    }

    #[test]
    fn via_switch_restarts_link_statistics() {
        let mut t = RoutingTable::new();
        // Route to N4 via N2 with poor SNR...
        t.apply_hello(ME, N2, 0, &[entry(N4, 2)], -10.0, NOW);
        // ...replaced by a strictly better path via N3: the route now
        // carries the new link's SNR.
        t.apply_hello(ME, N3, 0, &[entry(N4, 1)], 6.0, NOW);
        let r = t.route(N4).unwrap();
        assert_eq!(r.via, N3);
        assert_eq!(r.snr, 6.0);
    }

    #[test]
    fn display_lists_routes() {
        let mut t = RoutingTable::new();
        assert_eq!(t.to_string(), "(no routes)\n");
        t.apply_hello(ME, N2, 0, &[entry(N3, 1)], 4.5, NOW);
        let s = t.to_string();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("0002 via 0002"), "{s}");
        assert!(s.contains("0003 via 0002"), "{s}");
        assert!(s.contains("metric=2"), "{s}");
    }

    #[test]
    fn version_tracks_hello_visible_changes_only() {
        let mut t = RoutingTable::new();
        let v0 = t.version();
        // New direct route: bump.
        t.heard_from(N2, 0.0, NOW);
        let v1 = t.version();
        assert_ne!(v1, v0);
        // Pure refresh (same metric, same role): no bump.
        t.heard_from(N2, 3.0, NOW + Duration::from_secs(1));
        assert_eq!(t.version(), v1);
        let same = [entry(N3, 1)];
        // New multi-hop route: bump.
        t.apply_hello(ME, N2, 0, &same, 0.0, NOW + Duration::from_secs(2));
        let v2 = t.version();
        assert_ne!(v2, v1);
        // Identical re-advertisement: timestamps move, content doesn't.
        t.apply_hello(ME, N2, 0, &same, 0.0, NOW + Duration::from_secs(3));
        assert_eq!(t.version(), v2);
        // Same-via metric degradation: bump.
        t.apply_hello(
            ME,
            N2,
            0,
            &[entry(N3, 4)],
            0.0,
            NOW + Duration::from_secs(4),
        );
        let v3 = t.version();
        assert_ne!(v3, v2);
        // Role change on an existing entry: bump.
        t.apply_hello(
            ME,
            N2,
            0,
            &[entry(N3, 4)],
            0.0,
            NOW + Duration::from_secs(5),
        );
        assert_eq!(t.version(), v3);
        t.apply_hello(
            ME,
            N2,
            0,
            &[RouteEntry {
                address: N3,
                metric: 4,
                role: 9,
            }],
            0.0,
            NOW + Duration::from_secs(6),
        );
        let v4 = t.version();
        assert_ne!(v4, v3);
        // Purge with nothing stale: no bump.
        assert!(t
            .purge(NOW + Duration::from_secs(7), Duration::from_secs(600))
            .is_empty());
        assert_eq!(t.version(), v4);
        // Purge that removes routes: bump.
        assert!(!t
            .purge(NOW + Duration::from_secs(900), Duration::from_secs(600))
            .is_empty());
        assert_ne!(t.version(), v4);
    }

    #[test]
    fn version_bumps_on_neighbour_role_change_and_drop_via() {
        let mut t = RoutingTable::new();
        t.apply_hello(ME, N2, 0, &[entry(N3, 1)], 0.0, NOW);
        let v = t.version();
        // Neighbour's own role flips: bump even with unchanged entries.
        t.apply_hello(ME, N2, 5, &[entry(N3, 1)], 0.0, NOW);
        let v2 = t.version();
        assert_ne!(v2, v);
        // Dropping a via removes routes: bump.
        t.drop_via(N2);
        assert_ne!(t.version(), v2);
        // drop_via on an empty table: no bump.
        let v3 = t.version();
        t.drop_via(N2);
        assert_eq!(t.version(), v3);
    }

    #[test]
    fn role_updates_count_as_changes() {
        let mut t = RoutingTable::new();
        assert_eq!(t.apply_hello(ME, N2, 0, &[], 0.0, NOW), 0);
        assert_eq!(t.apply_hello(ME, N2, 1, &[], 0.0, NOW), 1);
        assert_eq!(t.route(N2).unwrap().role, 1);
    }
}
