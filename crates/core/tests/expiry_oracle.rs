//! Deadline oracle for [`RoutingTable::next_expiry`].
//!
//! The table answers `next_expiry` from one cached field that its four
//! mutators keep current, and hosts schedule timers from the answer, so
//! it has to be *exact*, not a bound. This property drives random
//! sequences of the mutators — clocks that jump backwards, INFINITY
//! adverts that remove routes, adverts for ourselves and for broadcast,
//! purges and `drop_via`s that empty the table, and repeats of a
//! neighbour's last hello, which the table may apply in one pass that
//! re-derives the minimum itself — and after every step
//! compares the cached answer with the brute-force minimum over
//! `routes()`. A mutator that forgets the cache fails it.
//!
//! The table stamps routes in whole nanoseconds saturating at `u64::MAX`
//! ns, so the property runs on two clocks: 0–40 s, and the last 40 s
//! below that cap, where every stamp is within 40 s of saturating and
//! `next_expiry`'s addition and `purge`'s subtraction work next to the
//! largest stamp there is.
//!
//! Uses the in-repo `testkit` harness: failures print a replayable
//! `TESTKIT_SEED` and a shrunk counterexample.

use std::collections::BTreeMap;
use std::time::Duration;

use loramesher::packet::RouteEntry;
use loramesher::{Address, RoutingTable};
use testkit::{forall, prop_assert, Gen};

const ME: Address = Address::new(1);

#[derive(Debug)]
enum Op {
    Heard {
        neighbour: Address,
        now: Duration,
    },
    Hello {
        neighbour: Address,
        role: u8,
        entries: Vec<RouteEntry>,
        now: Duration,
    },
    /// The neighbour's last hello again (an empty one if none yet).
    Repeat {
        neighbour: Address,
        now: Duration,
    },
    Purge {
        now: Duration,
        timeout: Duration,
    },
    DropVia(Address),
}

/// Three neighbours and (below) eight destinations: tables stay small,
/// so refreshes, via switches and removals keep hitting the one route
/// that holds the minimum.
fn arb_neighbour(g: &mut Gen) -> Address {
    Address::new(g.int_in(2, 4) as u16)
}

/// Where a leg's instants are drawn from.
type Clock = fn(&mut Gen) -> Duration;

/// Clocks are drawn independently per step: time is not monotone, and
/// equal instants are common.
fn arb_instant(g: &mut Gen) -> Duration {
    Duration::from_secs(g.int_in(0, 40))
}

/// The same draw, as the last 40 s below the stamp's cap.
fn arb_instant_below_the_cap(g: &mut Gen) -> Duration {
    Duration::from_nanos(u64::MAX) - Duration::from_secs(g.int_in(0, 40))
}

fn arb_entry(g: &mut Gen) -> RouteEntry {
    let address = match g.usize_in(0, 9) {
        0 => ME,
        1 => Address::BROADCAST,
        _ => Address::new(g.int_in(2, 9) as u16),
    };
    // One advert in three is at or past the cap, which removes the
    // route when it comes from the current next hop.
    let metric = match g.usize_in(0, 2) {
        0 => g.int_in(u64::from(RoutingTable::INFINITY_METRIC) - 1, 255) as u8,
        _ => g.int_in(0, 3) as u8,
    };
    RouteEntry {
        address,
        metric,
        role: g.int_in(0, 1) as u8,
    }
}

fn arb_op(g: &mut Gen, clock: Clock) -> Op {
    match g.usize_in(0, 11) {
        0..=2 => Op::Heard {
            neighbour: arb_neighbour(g),
            now: clock(g),
        },
        3..=6 => Op::Hello {
            neighbour: arb_neighbour(g),
            role: g.int_in(0, 1) as u8,
            entries: g.vec_of(0, 5, arb_entry),
            now: clock(g),
        },
        7..=8 => Op::Repeat {
            neighbour: arb_neighbour(g),
            now: clock(g),
        },
        // Timeouts as short as the clock range, so purges bite — down to
        // zero, which empties the table.
        9..=10 => Op::Purge {
            now: clock(g),
            timeout: Duration::from_secs(g.int_in(0, 30)),
        },
        _ => Op::DropVia(arb_neighbour(g)),
    }
}

#[test]
fn next_expiry_is_the_brute_force_minimum_after_every_mutation() {
    oracle("next_expiry_oracle", arb_instant);
}

#[test]
fn next_expiry_is_the_brute_force_minimum_just_below_the_stamp_cap() {
    oracle("next_expiry_oracle_cap", arb_instant_below_the_cap);
}

fn oracle(name: &str, clock: Clock) {
    forall(
        name,
        move |g| g.vec_of(1, 60, |g| arb_op(g, clock)),
        |ops| {
            let mut table = RoutingTable::new();
            let mut last: BTreeMap<Address, (u8, &[RouteEntry])> = BTreeMap::new();
            for (step, op) in ops.iter().enumerate() {
                match op {
                    Op::Heard { neighbour, now } => table.heard_from(*neighbour, 0.0, *now),
                    Op::Hello {
                        neighbour,
                        role,
                        entries,
                        now,
                    } => {
                        last.insert(*neighbour, (*role, entries));
                        table.apply_hello(ME, *neighbour, *role, entries, 0.0, *now);
                    }
                    Op::Repeat { neighbour, now } => {
                        let (role, entries) = last.get(neighbour).copied().unwrap_or((0, &[]));
                        table.apply_hello(ME, *neighbour, role, entries, 0.0, *now);
                    }
                    Op::Purge { now, timeout } => {
                        table.purge(*now, *timeout);
                    }
                    Op::DropVia(via) => {
                        table.drop_via(*via);
                    }
                }
                let earliest = table.routes().map(|r| Duration::from(r.last_seen)).min();
                // `Duration::MAX` overflows (no deadline) unless the earliest
                // route dates from instant zero.
                for timeout in [Duration::ZERO, Duration::from_secs(600), Duration::MAX] {
                    let cached = table.next_expiry(timeout);
                    let oracle = earliest.and_then(|e| e.checked_add(timeout));
                    prop_assert!(
                        cached == oracle,
                        "step {step} ({op:?}), timeout {timeout:?}: table says {cached:?}, \
                         brute force says {oracle:?}"
                    );
                }
            }
            Ok(())
        },
    );
}
