//! Property tests for the sharded engine's model, checked against
//! brute-force references (same style as `tests/queue_model.rs`):
//!
//! 1. **Partition soundness** — for random topologies and RF configs,
//!    no audible pair is ever split across bands without a boundary
//!    channel: every node a transmission can reach lies in a band
//!    within its reach ([`Partitioner::reach`]).
//! 2. **Temporal soundness** — [`min_lookahead`] really is a lower
//!    bound on every airtime, so an event can never create cross-shard
//!    work earlier than one lookahead after itself.
//! 3. **Merge order** — random event schedules distributed over
//!    several shard queues (seqs drawn from one coordinator counter,
//!    pops spawning airtime-delayed cross-queue work exactly like
//!    `RxEnd`, and same-instant same-queue work like clamped timers)
//!    drain in *exactly* the `(time, seq)` order of a single reference
//!    queue, batched under the engine's lookahead bound — FIFO
//!    tie-break included, and no event released before a cross-shard
//!    dependency scheduled beneath the horizon.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

use lora_phy::propagation::{Position, Shadowing};
use radio_sim::event::{EventQueue, SimEvent};
use radio_sim::medium::{Medium, RfConfig};
use radio_sim::shard::{max_audible_range, min_lookahead, Partitioner};
use radio_sim::time::SimTime;
use radio_sim::NodeId;
use testkit::{forall, Gen};

// ---------------------------------------------------------------------
// 1. Partition soundness
// ---------------------------------------------------------------------

fn gen_rf(g: &mut Gen) -> RfConfig {
    let mut rf = RfConfig::default();
    if g.bool(0.6) {
        let sigma = [2.0, 4.0, 6.0][g.usize_in(0, 2)];
        rf.shadowing = Shadowing::new(sigma, u64::from(g.u16()));
    }
    rf
}

fn gen_positions(g: &mut Gen) -> Vec<Position> {
    // A mix of dense clusters and lone far-away nodes, so some bands
    // end up narrower than the audible range and some pairs are only
    // audible through a lucky shadowing draw.
    let n = g.len_in(4, 40);
    (0..n)
        .map(|_| {
            let cluster = g.int_in(0, 3) as f64 * 2_500.0;
            Position::new(
                cluster + g.int_in(0, 2_000) as f64,
                g.int_in(0, 1_500) as f64,
            )
        })
        .collect()
}

#[test]
fn audible_pairs_are_never_split_across_unreachable_bands() {
    forall(
        "audible_pairs_are_never_split_across_unreachable_bands",
        |g| (gen_rf(g), gen_positions(g), g.usize_in(1, 8)),
        |(rf, positions, shards)| {
            let medium = Medium::new(rf.clone());
            let r_max = max_audible_range(rf);
            let xs: Vec<f64> = positions.iter().map(|p| p.x).collect();
            let parts = Partitioner::new(&xs, *shards, r_max);
            for (a, pa) in positions.iter().enumerate() {
                let (lo, hi) = parts.reach(pa.x);
                for (b, pb) in positions.iter().enumerate() {
                    if a == b {
                        continue;
                    }
                    let power = medium.received_power(pa, pb, NodeId(a), NodeId(b));
                    if medium.audible(power) {
                        let band = parts.band_of(pb.x);
                        if !(lo..=hi).contains(&band) {
                            return Err(format!(
                                "audible pair {a}->{b} split: band {band} outside \
                                 reach {lo}..={hi} (r_max {r_max}, {shards} shards)"
                            ));
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// 2. Temporal soundness
// ---------------------------------------------------------------------

#[test]
fn lookahead_bounds_every_airtime() {
    forall(
        "lookahead_bounds_every_airtime",
        |g| (gen_rf(g), g.len_in(0, 255)),
        |(rf, len)| {
            let la = min_lookahead(rf);
            if la.is_zero() {
                return Err("lookahead must be positive".into());
            }
            let toa = rf.modulation.time_on_air(*len);
            if toa < la {
                return Err(format!(
                    "payload {len}: time_on_air {toa:?} beats lookahead {la:?}"
                ));
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// 3. Merge order
// ---------------------------------------------------------------------

/// The lookahead used by the merge harness (stands in for one preamble).
const DELTA: Duration = Duration::from_millis(10);

/// What a popped event spawns, scripted up front so the merged system
/// and the reference perform identical creations in lockstep.
#[derive(Clone, Debug)]
enum Spawn {
    /// Nothing.
    None,
    /// `RxEnd`-style: lands in another queue at `at + DELTA + extra`.
    Cross { queue_offset: usize, extra_ms: u64 },
    /// Timer-style: lands in the *same* queue at `at + extra` (possibly
    /// the same instant — the FIFO case).
    Local { extra_ms: u64 },
}

#[derive(Clone, Debug)]
struct MergeCase {
    queues: usize,
    /// Initial events: (millis, queue index; `queues` = coordinator).
    initial: Vec<(u64, usize)>,
    /// Spawn script, consumed one entry per pop.
    spawns: Vec<Spawn>,
}

fn gen_merge_case(g: &mut Gen) -> MergeCase {
    let queues = g.usize_in(1, 6);
    let initial = g.vec_of(1, 60, |g| {
        // Cluster times on shared instants to force FIFO ties.
        let at = g.int_in(0, 12) * 8 + g.int_in(0, 3);
        (at, g.usize_in(0, queues))
    });
    let spawns = g.vec_of(200, 200, |g| match g.int_in(0, 9) {
        0..=3 => Spawn::None,
        4..=6 => Spawn::Cross {
            queue_offset: g.usize_in(1, 6),
            extra_ms: g.int_in(0, 30),
        },
        _ => Spawn::Local {
            extra_ms: if g.bool(0.4) { 0 } else { g.int_in(1, 15) },
        },
    });
    MergeCase {
        queues,
        initial,
        spawns,
    }
}

/// Reference: one global `(time, seq)` min-heap fed the same inserts.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
}

impl Reference {
    fn push(&mut self, at: SimTime, seq: u64, tag: u64) {
        self.heap.push(Reverse((at, seq, tag)));
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|Reverse((at, _, tag))| (at, tag))
    }
}

/// Drains coordinator + shard queues with the engine's batching rule,
/// spawning scripted work on every pop, and checks the drain order
/// against the reference at every step.
fn check_merge(case: &MergeCase) -> Result<(), String> {
    let mut coord = EventQueue::new();
    let mut shards: Vec<EventQueue> = (0..case.queues).map(|_| EventQueue::new()).collect();
    let mut reference = Reference::default();
    let mut tag = 0u64;
    let mut schedule = |coord: &mut EventQueue,
                        shards: &mut Vec<EventQueue>,
                        reference: &mut Reference,
                        at: SimTime,
                        qi: usize| {
        let t = tag;
        tag += 1;
        let event = SimEvent::App(NodeId(qi), t);
        if qi == case.queues {
            // Coordinator events keep the queue's own counter in play;
            // mirror the seq it used.
            coord.schedule(at, event);
            reference.push(at, coord.alloc_seq() - 1, t);
        } else {
            let seq = coord.alloc_seq();
            shards[qi].schedule_at_seq(at, seq, event);
            reference.push(at, seq, t);
        }
        t
    };
    for &(ms, qi) in &case.initial {
        schedule(
            &mut coord,
            &mut shards,
            &mut reference,
            SimTime::from_millis(ms),
            qi,
        );
    }

    let mut pops = 0usize;
    let mut on_pop = |at: SimTime,
                      from: usize,
                      coord: &mut EventQueue,
                      shards: &mut Vec<EventQueue>,
                      reference: &mut Reference| {
        let spawn = case.spawns[pops % case.spawns.len()].clone();
        pops += 1;
        match spawn {
            Spawn::None => {}
            Spawn::Cross {
                queue_offset,
                extra_ms,
            } => {
                let target = (from + queue_offset) % case.queues;
                let when = at + DELTA + Duration::from_millis(extra_ms);
                schedule(coord, shards, reference, when, target);
            }
            Spawn::Local { extra_ms } => {
                let when = at + Duration::from_millis(extra_ms);
                schedule(coord, shards, reference, when, from);
            }
        }
    };

    // The engine's merge loop (sim.rs `run_merged`), specialised to the
    // harness: coordinator events one at a time, shard batches bounded
    // by min(pre-batch second-best head, t0 + DELTA).
    loop {
        let mut best = coord.peek_key();
        let mut from = usize::MAX;
        let mut second: Option<(SimTime, u64)> = None;
        for (qi, q) in shards.iter_mut().enumerate() {
            let Some(k) = q.peek_key() else { continue };
            if best.is_none_or(|b| k < b) {
                second = best;
                best = Some(k);
                from = qi;
            } else if second.is_none_or(|s| k < s) {
                second = Some(k);
            }
        }
        let Some((t0, _)) = best else { break };
        if from == usize::MAX {
            let (at, event) = coord.pop().expect("peeked");
            let SimEvent::App(_, got) = event else {
                return Err("unexpected event kind".into());
            };
            let want = reference.pop();
            if want != Some((at, got)) {
                return Err(format!(
                    "coordinator pop ({at:?}, {got}) but reference {want:?}"
                ));
            }
            // Coordinator events may spawn anywhere, including beneath
            // the horizon — which is exactly why they never batch.
            on_pop(at, 0, &mut coord, &mut shards, &mut reference);
            continue;
        }
        let horizon = t0 + DELTA;
        while let Some(k) = shards[from].peek_key() {
            if k.0 >= horizon || second.is_some_and(|s| k >= s) {
                break;
            }
            let (at, event) = shards[from].pop().expect("peeked");
            let SimEvent::App(_, got) = event else {
                return Err("unexpected event kind".into());
            };
            let want = reference.pop();
            if want != Some((at, got)) {
                return Err(format!(
                    "batch pop ({at:?}, {got}) from queue {from} but reference {want:?}"
                ));
            }
            on_pop(at, from, &mut coord, &mut shards, &mut reference);
        }
    }
    if let Some(left) = reference.pop() {
        return Err(format!(
            "merge finished early; reference still has {left:?}"
        ));
    }
    Ok(())
}

#[test]
fn sharded_merge_preserves_global_fifo_order() {
    forall(
        "sharded_merge_preserves_global_fifo_order",
        gen_merge_case,
        check_merge,
    );
}
