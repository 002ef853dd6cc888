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
//! Repeats: about a third of the hellos replay the sender's last hello
//! (`Op::Repeat`), and the other hellos are often one of the sender's
//! recent hellos or its last one moved by one advert, so the table's
//! repeat memo is recorded, hit, and missed by a digest that differs in
//! one byte, all between the other mutators. The reference has no memo:
//! every repeat is a full apply there. Records are keyed on the table's
//! `version` and stored only with the SNR tie-break off; in debug builds
//! the table asserts on every hello that nothing else moves a route to
//! another next hop without a `version` bump. A pinned sequence has a
//! better route through another neighbour retire a record.
//!
//! Hand mutants of `routing.rs`, each applied and run against this file,
//! each failing: `below` not advanced after an insert (the cursor
//! assertion); `below` not pulled back after the in-hello remove (wrong
//! table); `seek` without the not-ascending fallback (wrong table);
//! `remove_where` without the `earliest_seen` re-scan (`next_expiry`).
//! Of the repeat memo: the hit path skipping `r.snr = snr`, the hit path
//! skipping `r.last_seen = now`, a record stored without the
//! completeness check, the hit path keeping the old `earliest_seen`
//! (each a wrong table under hop count; the last also `next_expiry` in
//! `expiry_oracle.rs`); a record stored under `snr_tiebreak` (wrong
//! table under snr-tiebreak), and the digest leaving out the role byte
//! (wrong table); `replay` ignoring `version` (wrong table under hop
//! count, and in
//! `a_better_route_through_another_neighbour_retires_older_records`).
//!
//! Uses the in-repo `testkit` harness: failures print a replayable
//! `TESTKIT_SEED` and a shrunk counterexample.

use std::collections::BTreeMap;
use std::fmt::{Debug, Display};
use std::time::Duration;

use loramesher::packet::RouteEntry;
use loramesher::routing::{Route, RoutingPolicy, Stamp};
use loramesher::{Address, RoutingTable};
use testkit::{forall, prop_assert, Gen};

const ME: Address = Address::new(1);
const INFINITY: u8 = RoutingTable::INFINITY_METRIC;

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
                        last_seen: Stamp::at(now),
                        snr,
                    },
                );
                self.version += 1;
            }
            Some(r) => {
                if r.metric != 1 {
                    self.version += 1;
                }
                r.via = neighbour;
                r.metric = 1;
                r.last_seen = Stamp::at(now);
                r.snr = snr;
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
                            last_seen: Stamp::at(now),
                            snr,
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
            r.via = neighbour;
            r.metric = metric;
            r.role = e.role;
            r.last_seen = Stamp::at(now);
            r.snr = snr;
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
        self.remove_where(|r| {
            now.saturating_sub(r.last_seen.into()) >= timeout || r.metric >= INFINITY
        })
    }

    fn drop_via(&mut self, via: Address) -> Vec<Address> {
        self.remove_where(|r| r.via == via)
    }

    fn next_expiry(&self, timeout: Duration) -> Option<Duration> {
        let earliest = self.routes.values().map(|r| r.last_seen).min()?;
        Duration::from(earliest).checked_add(timeout)
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
    /// The neighbour's last hello again, same role and entries (an empty
    /// role-0 hello if it sent none yet).
    Repeat {
        neighbour: Address,
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
        // What an honest table sends: ascending, one advert per address.
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

/// A neighbour's last hello moved by one advert: one metric or role
/// changed, one advert dropped, or one added anywhere — a table that
/// changed by one route.
fn arb_variant(g: &mut Gen, last: &[RouteEntry]) -> Vec<RouteEntry> {
    let mut entries = last.to_vec();
    let k = g.usize_in(0, entries.len());
    match (g.usize_in(0, 3), entries.get_mut(k)) {
        (0, Some(e)) => e.metric = g.int_in(1, 4) as u8,
        (1, Some(e)) => e.role ^= 1,
        (2, Some(_)) => {
            entries.remove(k);
        }
        _ => entries.insert(k, arb_entry(g)),
    }
    entries
}

/// Who sends the next hello: the latest sender three times in four, so one
/// neighbour's hellos come in runs.
fn arb_sender(g: &mut Gen, latest: Option<Address>) -> Address {
    match latest {
        Some(n) if g.bool(0.75) => n,
        _ => arb_neighbour(g),
    }
}

/// The operations of one case. A hello is drawn fresh (in any order, or
/// ascending as an honest table sends it), or is one of the sender's
/// last few hellos (a flapping table), its last one moved by one
/// advert, or the last hello of another neighbour (a shared table:
/// under the SNR tie-break, a wave of equal-metric next-hop switches).
/// About a third of hellos are [`Op::Repeat`]s, in bursts of up to three
/// from one sender, so that runs reach a record and then hit it.
fn arb_ops(g: &mut Gen) -> Vec<Op> {
    let mut sent: BTreeMap<Address, Vec<(u8, Vec<RouteEntry>)>> = BTreeMap::new();
    let mut latest = None;
    // Repeats the latest sender still owes its burst.
    let mut burst = 0;
    g.vec_of(1, 40, |g| {
        if let (Some(neighbour), 1..) = (latest, burst) {
            burst -= 1;
            return Op::Repeat {
                neighbour,
                snr: arb_snr(g),
                now: arb_instant(g),
            };
        }
        match g.usize_in(0, 13) {
            0..=1 => Op::Heard {
                neighbour: arb_neighbour(g),
                snr: arb_snr(g),
                now: arb_instant(g),
            },
            2..=8 => {
                let neighbour = arb_sender(g, latest);
                let other = sent.get(&arb_neighbour(g)).and_then(|h| h.last()).cloned();
                let history = sent.entry(neighbour).or_default();
                let recent = &history[history.len().saturating_sub(3)..];
                let (role, entries) = match (g.usize_in(0, 9), history.last()) {
                    (0..=1, _) => (g.int_in(0, 1) as u8, arb_entries(g)),
                    (4..=6, Some((role, last))) => (*role, arb_variant(g, last)),
                    (7..=8, Some(_)) => g.choose(recent),
                    (9, _) if other.is_some() => other.unwrap_or_default(),
                    _ => {
                        let mut entries = g.vec_of(0, 61, arb_entry);
                        entries.sort_by_key(|e| e.address);
                        entries.dedup_by_key(|e| e.address);
                        (g.int_in(0, 1) as u8, entries)
                    }
                };
                history.push((role, entries.clone()));
                latest = Some(neighbour);
                Op::Hello {
                    neighbour,
                    role,
                    entries,
                    snr: arb_snr(g),
                    now: arb_instant(g),
                }
            }
            9..=10 => {
                let neighbour = arb_sender(g, latest);
                latest = Some(neighbour);
                burst = g.usize_in(0, 2);
                Op::Repeat {
                    neighbour,
                    snr: arb_snr(g),
                    now: arb_instant(g),
                }
            }
            11..=12 => Op::Purge {
                now: arb_instant(g),
                timeout: Duration::from_secs(g.int_in(0, 45)),
            },
            _ => Op::DropVia(arb_neighbour(g)),
        }
    })
}

/// Every field, floats by bit pattern.
fn same(a: &Route, b: &Route) -> bool {
    (a.destination, a.via, a.metric, a.role) == (b.destination, b.via, b.metric, b.role)
        && a.last_seen == b.last_seen
        && a.snr.to_bits() == b.snr.to_bits()
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
    // Each neighbour's last hello, for `Op::Repeat`.
    let mut last: BTreeMap<Address, (u8, Vec<RouteEntry>)> = BTreeMap::new();
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
            } => {
                last.insert(*neighbour, (*role, entries.clone()));
                agree(
                    table.apply_hello(ME, *neighbour, *role, entries, *snr, *now),
                    model.apply_hello(*neighbour, *role, entries, *snr, *now),
                    format_args!("{at}: changed"),
                )?;
            }
            Op::Repeat {
                neighbour,
                snr,
                now,
            } => {
                let (role, entries) = last.entry(*neighbour).or_default();
                agree(
                    table.apply_hello(ME, *neighbour, *role, entries, *snr, *now),
                    model.apply_hello(*neighbour, *role, entries, *snr, *now),
                    format_args!("{at}: changed"),
                )?;
            }
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
    forall("table_model_hop_count", arb_ops, |ops| {
        run(RoutingPolicy::default(), ops)
    });
}

#[test]
fn table_equals_the_map_reference_under_snr_tiebreak() {
    let policy = RoutingPolicy { snr_tiebreak: true };
    forall("table_model_snr_tiebreak", arb_ops, move |ops| {
        run(policy, ops)
    });
}

/// A record outlives every change the table makes elsewhere unless
/// it is keyed on `version`. Y's hello is recorded; Z then advertises a
/// strictly better route to Y's destination 10, which moves there (a
/// `version` bump), and a later hello from Z puts 10 further away than
/// Y's advert does (another). Y's recorded hello, arriving again, must
/// take the full apply and move 10 back to Y: a hit would only refresh
/// the routes still through Y. Without Z's second hello the hit and the
/// full apply agree, as both skip the route through Z.
#[test]
fn a_better_route_through_another_neighbour_retires_older_records() {
    let (y, z) = (Address::new(2), Address::new(3));
    let advert = |a: u16, metric| RouteEntry {
        address: Address::new(a),
        metric,
        role: 0,
    };
    let hello = |neighbour, entries: &[RouteEntry], secs| Op::Hello {
        neighbour,
        role: 0,
        entries: entries.to_vec(),
        snr: 1.0,
        now: Duration::from_secs(secs),
    };
    let repeat = |secs| Op::Repeat {
        neighbour: y,
        snr: 2.0,
        now: Duration::from_secs(secs),
    };
    let ops = [
        hello(y, &[advert(10, 2), advert(11, 1)], 1),
        repeat(2),
        hello(z, &[advert(10, 1)], 3),
        hello(z, &[advert(10, 4)], 4),
        repeat(5),
    ];
    assert_eq!(run(RoutingPolicy::default(), &ops), Ok(()));
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
