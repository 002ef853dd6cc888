//! Model equivalence for [`RoutingTable`].
//!
//! The table is a flat address-sorted vector and applies a hello by a
//! merge walk: a cursor guesses each advert's slot from where the
//! previous one landed and falls back to a binary search when the guess
//! misses or the hello is not ascending. The reference here is the
//! structure that walk replaced: a `BTreeMap` that applies the
//! documented per-advert rules one independent lookup at a time, so
//! order, duplicates, inserts and removals cannot interact. Random
//! streams of the four mutators drive both — hellos ascending,
//! descending, shuffled and with duplicate addresses; adverts for
//! ourselves, the sender and broadcast; withdrawals (a removal under the
//! cursor) and unknown destinations (an insert under the cursor) in the
//! middle of a hello — and after every call everything a caller can
//! observe must agree: the `routes()` sequence field by field (floats by
//! bit pattern), `version()`, the returned `changed` count or removed
//! list, `next_expiry`, and `next_hop` for every address in play.
//!
//! Cost under hostile order needs no timing: every advert runs exactly
//! one `seek`, which has no loop and at most one binary search, and in
//! debug builds (what `cargo test` runs) `seek` asserts on entry that
//! the cursor equals the number of routes at or before the previous
//! advert — so a cursor left behind after an insert, which costs a
//! search per advert but no wrong answer, fails here too.
//!
//! Hand mutants of `routing.rs`, each applied and run against this file,
//! each failing: `below` not advanced after an insert (the cursor
//! assertion); `below` not pulled back after the in-hello remove (wrong
//! table); `seek` without the not-ascending fallback (wrong table);
//! `remove_where` without the `earliest_seen` re-scan (`next_expiry`).
//!
//! Uses the in-repo `testkit` harness: failures print a replayable
//! `TESTKIT_SEED` and a shrunk counterexample.

use std::collections::BTreeMap;
use std::fmt::{Debug, Display};
use std::time::Duration;

use loramesher::packet::RouteEntry;
use loramesher::routing::{Route, RouteMetric, RoutingPolicy};
use loramesher::{Address, RoutingTable};
use testkit::{forall, prop_assert, Gen};

const ME: Address = Address::new(1);
const INFINITY: u8 = RoutingTable::INFINITY_METRIC;

/// The link-SNR smoothing the table documents (α = 0.25).
fn ewma(old: f64, new: f64) -> f64 {
    0.75 * old + 0.25 * new
}

/// The reference: one map lookup per rule application, minimum by
/// brute force.
struct Model {
    routes: BTreeMap<Address, Route>,
    policy: RoutingPolicy,
    version: u64,
}

impl Model {
    fn new(policy: RoutingPolicy) -> Self {
        Model {
            routes: BTreeMap::new(),
            policy,
            version: 0,
        }
    }

    fn heard_from(&mut self, neighbour: Address, snr: f64, now: Duration) {
        match self.routes.get_mut(&neighbour) {
            None => {
                self.routes.insert(
                    neighbour,
                    Route {
                        destination: neighbour,
                        via: neighbour,
                        metric: 1,
                        role: 0,
                        last_seen: now,
                        snr,
                        // A new link's average starts at its first sample
                        // and is then smoothed with it.
                        snr_ewma: ewma(snr, snr),
                        heard_count: 1,
                    },
                );
                self.version += 1;
            }
            Some(r) => {
                if r.metric != 1 {
                    self.version += 1;
                }
                r.snr_ewma = if r.via == neighbour {
                    ewma(r.snr_ewma, snr)
                } else {
                    snr
                };
                r.via = neighbour;
                r.metric = 1;
                r.last_seen = now;
                r.snr = snr;
                r.heard_count += 1;
            }
        }
    }

    fn apply_hello(
        &mut self,
        neighbour: Address,
        role: u8,
        entries: &[RouteEntry],
        snr: f64,
        now: Duration,
    ) -> usize {
        let mut changed = 0;
        self.heard_from(neighbour, snr, now);
        let direct = self.routes.get_mut(&neighbour).expect("just heard");
        if direct.role != role {
            direct.role = role;
            changed += 1;
            self.version += 1;
        }
        for e in entries {
            if e.address == ME
                || e.address == neighbour
                || e.address.is_broadcast()
                || e.metric == 0
            {
                continue;
            }
            let metric = e.metric.saturating_add(1).min(INFINITY);
            let Some(r) = self.routes.get_mut(&e.address) else {
                if metric < INFINITY {
                    self.routes.insert(
                        e.address,
                        Route {
                            destination: e.address,
                            via: neighbour,
                            metric,
                            role: e.role,
                            last_seen: now,
                            snr,
                            snr_ewma: snr,
                            heard_count: 1,
                        },
                    );
                    changed += 1;
                    self.version += 1;
                }
                continue;
            };
            let adopt = self.policy.prefer(r, metric, neighbour, snr);
            if !adopt && r.via != neighbour {
                continue; // a competing route that is no better
            }
            if !adopt && metric >= INFINITY {
                // Our next hop withdrew the destination.
                self.routes.remove(&e.address);
                changed += 1;
                self.version += 1;
                continue;
            }
            if r.via != neighbour || r.metric != metric {
                changed += 1;
            }
            if r.metric != metric || r.role != e.role {
                self.version += 1;
            }
            r.snr_ewma = if r.via == neighbour {
                ewma(r.snr_ewma, snr)
            } else {
                snr
            };
            r.via = neighbour;
            r.metric = metric;
            r.role = e.role;
            r.last_seen = now;
            r.snr = snr;
            r.heard_count += 1;
        }
        changed
    }

    fn remove_where(&mut self, dead: impl Fn(&Route) -> bool) -> Vec<Address> {
        let removed: Vec<Address> = self
            .routes
            .values()
            .filter(|r| dead(r))
            .map(|r| r.destination)
            .collect();
        for d in &removed {
            self.routes.remove(d);
        }
        if !removed.is_empty() {
            self.version += 1;
        }
        removed
    }

    fn purge(&mut self, now: Duration, timeout: Duration) -> Vec<Address> {
        self.remove_where(|r| now.saturating_sub(r.last_seen) >= timeout || r.metric >= INFINITY)
    }

    fn drop_via(&mut self, via: Address) -> Vec<Address> {
        self.remove_where(|r| r.via == via)
    }

    fn next_expiry(&self, timeout: Duration) -> Option<Duration> {
        let earliest = self.routes.values().map(|r| r.last_seen).min()?;
        earliest.checked_add(timeout)
    }
}

#[derive(Debug)]
enum Op {
    Heard {
        neighbour: Address,
        snr: f64,
        now: Duration,
    },
    Hello {
        neighbour: Address,
        role: u8,
        entries: Vec<RouteEntry>,
        snr: f64,
        now: Duration,
    },
    Purge {
        now: Duration,
        timeout: Duration,
    },
    DropVia(Address),
}

/// Destinations come from 2..=`POOL`: more than a table holds at any
/// time (purges and `drop_via`s keep thinning it), so a hello mixes
/// refreshes with inserts between them.
const POOL: u16 = 90;

fn arb_neighbour(g: &mut Gen) -> Address {
    Address::new(g.int_in(2, 6) as u16)
}

fn arb_instant(g: &mut Gen) -> Duration {
    Duration::from_secs(g.int_in(0, 40))
}

fn arb_snr(g: &mut Gen) -> f64 {
    g.f64() * 30.0 - 15.0
}

fn arb_entry(g: &mut Gen) -> RouteEntry {
    let address = match g.usize_in(0, 19) {
        0 => ME,
        1 => Address::BROADCAST,
        _ => Address::new(g.int_in(2, u64::from(POOL)) as u16),
    };
    // One advert in five withdraws (a removal when it comes from the
    // route's next hop); metric 0 is the advert no honest node sends.
    let metric = match g.usize_in(0, 9) {
        0 | 1 => g.choose(&[INFINITY - 1, INFINITY, 255]),
        2 => 0,
        _ => g.int_in(1, 4) as u8,
    };
    RouteEntry {
        address,
        metric,
        role: g.int_in(0, 1) as u8,
    }
}

/// Up to a full hello, in one of the orders a receiver can be handed.
fn arb_entries(g: &mut Gen) -> Vec<RouteEntry> {
    let mut entries = g.vec_of(0, 61, arb_entry);
    match g.usize_in(0, 4) {
        // What `as_entries` produces: ascending, one advert per address.
        0 => {
            entries.sort_by_key(|e| e.address);
            entries.dedup_by_key(|e| e.address);
        }
        // Ascending with the duplicates left in.
        1 => entries.sort_by_key(|e| e.address),
        // Descending: every advert misses the cursor.
        2 => entries.sort_by_key(|e| std::cmp::Reverse(e.address)),
        // As drawn: shuffled, duplicates included.
        3 => {}
        // Ascending runs: the cursor is re-seated at each break.
        _ => {
            let run = g.usize_in(1, 8);
            for chunk in entries.chunks_mut(run) {
                chunk.sort_by_key(|e| e.address);
            }
        }
    }
    entries
}

fn arb_op(g: &mut Gen) -> Op {
    match g.usize_in(0, 11) {
        0..=1 => Op::Heard {
            neighbour: arb_neighbour(g),
            snr: arb_snr(g),
            now: arb_instant(g),
        },
        2..=8 => Op::Hello {
            neighbour: arb_neighbour(g),
            role: g.int_in(0, 1) as u8,
            entries: arb_entries(g),
            snr: arb_snr(g),
            now: arb_instant(g),
        },
        9..=10 => Op::Purge {
            now: arb_instant(g),
            timeout: Duration::from_secs(g.int_in(0, 45)),
        },
        _ => Op::DropVia(arb_neighbour(g)),
    }
}

/// Every field, floats by bit pattern.
fn same(a: &Route, b: &Route) -> bool {
    (a.destination, a.via, a.metric, a.role) == (b.destination, b.via, b.metric, b.role)
        && (a.last_seen, a.heard_count) == (b.last_seen, b.heard_count)
        && a.snr.to_bits() == b.snr.to_bits()
        && a.snr_ewma.to_bits() == b.snr_ewma.to_bits()
}

/// One observable, read from both.
fn agree<T: PartialEq + Debug>(table: T, model: T, what: impl Display) -> Result<(), String> {
    prop_assert!(
        table == model,
        "{what}: table says {table:?}, reference {model:?}"
    );
    Ok(())
}

fn compare(table: &RoutingTable, model: &Model, at: &str) -> Result<(), String> {
    agree(table.len(), model.routes.len(), format_args!("{at}: len"))?;
    for (t, m) in table.routes().zip(model.routes.values()) {
        prop_assert!(same(t, m), "{at}: table has {t:?}, reference {m:?}");
    }
    agree(
        table.version(),
        model.version,
        format_args!("{at}: version"),
    )?;
    for timeout in [Duration::ZERO, Duration::from_secs(600), Duration::MAX] {
        agree(
            table.next_expiry(timeout),
            model.next_expiry(timeout),
            format_args!("{at}: next_expiry({timeout:?})"),
        )?;
    }
    for a in (1..=POOL + 1).chain([0xFFFF]).map(Address::new) {
        let known = model.routes.get(&a);
        agree(
            table.route(a).map(|r| r.destination),
            known.map(|r| r.destination),
            format_args!("{at}: route({a})"),
        )?;
        agree(
            table.next_hop(a),
            known.filter(|r| r.metric < INFINITY).map(|r| r.via),
            format_args!("{at}: next_hop({a})"),
        )?;
    }
    Ok(())
}

fn run(policy: RoutingPolicy, ops: &[Op]) -> Result<(), String> {
    let mut table = RoutingTable::with_policy(policy);
    let mut model = Model::new(policy);
    for (step, op) in ops.iter().enumerate() {
        let at = format!("step {step} ({op:?})");
        match op {
            Op::Heard {
                neighbour,
                snr,
                now,
            } => {
                table.heard_from(*neighbour, *snr, *now);
                model.heard_from(*neighbour, *snr, *now);
            }
            Op::Hello {
                neighbour,
                role,
                entries,
                snr,
                now,
            } => agree(
                table.apply_hello(ME, *neighbour, *role, entries, *snr, *now),
                model.apply_hello(*neighbour, *role, entries, *snr, *now),
                format_args!("{at}: changed"),
            )?,
            Op::Purge { now, timeout } => agree(
                table.purge(*now, *timeout),
                model.purge(*now, *timeout),
                format_args!("{at}: purged"),
            )?,
            Op::DropVia(via) => agree(
                table.drop_via(*via),
                model.drop_via(*via),
                format_args!("{at}: dropped"),
            )?,
        }
        compare(&table, &model, &at)?;
    }
    Ok(())
}

#[test]
fn table_equals_the_map_reference_under_hop_count() {
    forall(
        "table_model_hop_count",
        |g| g.vec_of(1, 40, arb_op),
        |ops| run(RoutingPolicy::default(), ops),
    );
}

#[test]
fn table_equals_the_map_reference_under_snr_tiebreak() {
    let policy = RoutingPolicy {
        snr_tiebreak: true,
        snr_hysteresis_db: 3.0,
    };
    forall(
        "table_model_snr_tiebreak",
        |g| g.vec_of(1, 40, arb_op),
        move |ops| run(policy, ops),
    );
}

/// Full 61-entry hellos against a table several times their size, in
/// the orders an attacker (or a bug) could pick: exact, whatever the
/// order.
#[test]
fn full_hellos_in_hostile_order_match_the_reference() {
    let policy = RoutingPolicy::default();
    let mut table = RoutingTable::with_policy(policy);
    let mut model = Model::new(policy);
    let (n2, n3) = (Address::new(2), Address::new(3));
    let advert = |a: u16, metric: u8| RouteEntry {
        address: Address::new(a),
        metric,
        role: (a % 2) as u8,
    };
    // Formation: even addresses through N2, ascending, 61 at a time.
    let evens: Vec<RouteEntry> = (2..250).map(|k| advert(2 * k, 3)).collect();
    let ascending: Vec<RouteEntry> = (100..161).map(|a| advert(a, 2)).collect();
    let mut descending = ascending.clone();
    descending.reverse();
    // Odd and even halves interleaved the wrong way round: every second
    // advert steps backwards.
    let zigzag: Vec<RouteEntry> = (0..61)
        .map(|k| advert(if k % 2 == 0 { 300 + k } else { 100 + k }, 1))
        .collect();
    let one_address: Vec<RouteEntry> = (0..61)
        .map(|k| advert(140, if k % 3 == 2 { INFINITY } else { 1 + k % 3 }))
        .collect();
    let withdrawals: Vec<RouteEntry> = (100..161)
        .rev()
        .map(|a| advert(a, if a % 4 == 0 { INFINITY } else { 2 }))
        .collect();
    let hellos: Vec<(Address, &[RouteEntry])> = evens
        .chunks(61)
        .map(|c| (n2, c))
        .chain([
            (n3, &descending[..]),
            (n2, &zigzag[..]),
            (n3, &one_address[..]),
            (n3, &withdrawals[..]),
            (n3, &ascending[..]),
        ])
        .collect();
    for (i, (neighbour, entries)) in hellos.into_iter().enumerate() {
        assert!(entries.len() <= 61, "hello {i} does not fit a frame");
        let now = Duration::from_secs(i as u64);
        let changed = table.apply_hello(ME, neighbour, 0, entries, 1.5, now);
        assert_eq!(changed, model.apply_hello(neighbour, 0, entries, 1.5, now));
        assert_eq!(table.version(), model.version, "hello {i}");
        assert_eq!(table.len(), model.routes.len(), "hello {i}");
        for (t, m) in table.routes().zip(model.routes.values()) {
            assert!(same(t, m), "hello {i}: table has {t:?}, reference {m:?}");
        }
    }
    assert!(table.len() > 250, "only {} routes", table.len());
}
