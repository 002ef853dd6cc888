//! Property test: the timing-wheel [`EventQueue`] is observationally
//! equivalent to a deliberately naive reference model — a single global
//! `BinaryHeap` keyed on `(time, seq)` with the same timer-generation
//! rules. Random interleavings of schedules, timer reschedules,
//! cancellations, pops (plain and bounded) and peeks must agree on
//! every observable: popped events (FIFO within same-instant ties), peeked
//! keys, lengths with and without tombstones, and the stale-drop counter.
//! Times span several level-1 buckets and reach beyond the level-1 window
//! (hours, centuries, `Duration::MAX`), cluster inside single level-0
//! buckets in descending and shuffled arrival order, and arrive under
//! externally allocated sequence numbers that are not ascending, so
//! sorted inserts, re-filing, parking and past-event folding are all
//! crossed repeatedly — with the cached head live across all of them.
//! Frame-end bursts (`schedule_burst`), which the model schedules one
//! event at a time, are filed on every one of those paths and drained
//! under bounded pops, peeks and inserts that sort before them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

use radio_sim::event::{EventQueue, FrameId, SimEvent};
use radio_sim::time::SimTime;
use radio_sim::NodeId;
use testkit::{forall, Gen};

const NODES: usize = 5;

/// The reference: a global `(time, seq)` min-heap plus per-node timer
/// generations, dropping stale stamps lazily exactly like the real
/// queue claims to.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    events: Vec<(SimTime, SimEvent)>,
    gen: [u64; NODES],
    dropped: u64,
}

impl Model {
    fn is_live(&self, event: &SimEvent) -> bool {
        match event {
            SimEvent::Timer(n, g) => self.gen.get(n.0).copied() == Some(*g),
            _ => true,
        }
    }

    fn event_at(&self, seq: u64) -> (SimTime, SimEvent) {
        self.events
            .get(usize::try_from(seq).unwrap_or(usize::MAX))
            .cloned()
            .expect("model heap references a recorded event")
    }

    fn schedule(&mut self, at: SimTime, event: SimEvent) {
        let seq = self.events.len() as u64;
        self.events.push((at, event));
        self.heap.push(Reverse((at, seq)));
    }

    fn schedule_timer(&mut self, at: SimTime, node: NodeId) {
        if let Some(g) = self.gen.get_mut(node.0) {
            *g = g.wrapping_add(1);
        }
        let stamp = self.gen.get(node.0).copied().unwrap_or(0);
        self.schedule(at, SimEvent::Timer(node, stamp));
    }

    fn cancel_timer(&mut self, node: NodeId) {
        if let Some(g) = self.gen.get_mut(node.0) {
            *g = g.wrapping_add(1);
        }
    }

    fn pop(&mut self) -> Option<(SimTime, SimEvent)> {
        while let Some(Reverse((_, seq))) = self.heap.pop() {
            let (at, event) = self.event_at(seq);
            if self.is_live(&event) {
                return Some((at, event));
            }
            self.dropped += 1;
        }
        None
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((at, seq))) = self.heap.peek() {
            let (_, event) = self.event_at(seq);
            if self.is_live(&event) {
                return Some(at);
            }
            self.heap.pop();
            self.dropped += 1;
        }
        None
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn live_len(&self) -> usize {
        self.heap
            .iter()
            .filter(|Reverse((_, seq))| self.is_live(&self.event_at(*seq).1))
            .count()
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// A non-timer event (never tombstoned).
    App {
        node: usize,
        at: SimTime,
    },
    /// The invalidate-and-restamp path.
    ScheduleTimer {
        node: usize,
        at: SimTime,
    },
    /// Invalidate without rescheduling.
    CancelTimer {
        node: usize,
    },
    /// Raw `schedule` of a timer with the node's *current* stamp (the
    /// legacy engine's path: live until the next invalidation).
    RawLiveTimer {
        node: usize,
        at: SimTime,
    },
    /// Raw `schedule` of a timer with an unreachable stamp: a tombstone
    /// from birth.
    RawStaleTimer {
        node: usize,
        at: SimTime,
    },
    Pop,
    /// The run loop's bounded pop: only when the head is due by `until`.
    PopUntil {
        until: SimTime,
    },
    Peek,
    /// Several events within a millisecond of `base`, handed over in the
    /// order given (descending or shuffled, repeats allowed). With
    /// `external`, their sequence numbers are reserved up front and
    /// assigned in reverse arrival order through `schedule_at_seq`.
    Cluster {
        node: usize,
        base: SimTime,
        offsets_us: Vec<u64>,
        external: bool,
    },
    /// A frame's end: one `TxEnd` and `len - 1` `RxEnd`s through
    /// `schedule_burst`, which the model schedules one by one.
    Burst {
        at: BurstAt,
        len: usize,
    },
    /// `pop_until` at the instant last popped (`of_burst`: of the last
    /// burst scheduled), or 1 ns before it.
    PopUntilNear {
        of_burst: bool,
        early: bool,
    },
    /// Peek (so the head is cached), then cancel the timer of the node
    /// that owns the head, if the head is a timer.
    CancelHead,
    /// Several pops in a row.
    Drain {
        pops: usize,
    },
}

/// Instants beyond the level-1 window (≈ 4.9 h): one re-file away, many
/// windows away, past `u64` nanoseconds, and the largest there is.
const BEYOND: [Duration; 4] = [
    Duration::from_secs(6 * 3600),
    Duration::from_secs(400 * 86_400),
    Duration::from_secs(600 * 365 * 86_400),
    Duration::MAX,
];

/// Times cluster on shared instants (to force FIFO ties) and on shared
/// level-0 buckets (quarter-millisecond steps), span several level-1
/// buckets (≈ 4.3 s each), occasionally jump a minute ahead and rarely
/// beyond the level-1 window, so every insert path (level 0 / level 1 /
/// parked / folded past) gets traffic.
fn gen_time(g: &mut Gen) -> SimTime {
    if g.bool(0.03) {
        return SimTime::from(g.choose(&BEYOND));
    }
    let base = g.int_in(0, 4) * 5_000;
    let jitter = g.int_in(0, 8) * 400;
    let far = if g.bool(0.1) { 60_000 } else { 0 };
    SimTime::from_micros((base + jitter + far) * 1_000 + g.int_in(0, 3) * 250)
}

/// Where a burst lands: every place its one wheel entry can be filed.
#[derive(Clone, Copy, Debug)]
enum BurstAt {
    /// The instant last popped, or a few µs after it: the cursor bucket,
    /// possibly mid-drain of another burst at the same instant.
    Cursor { after_us: u64 },
    /// This long after the instant last popped: past level 0's ≈ 4.3 s,
    /// so the entry is re-filed from level 1 — a frame that long is an
    /// SF12 frame of a hundred bytes or more.
    Later { ms: u64 },
    /// The instant of a pending event (singles and timers alike).
    Pending { pick: usize },
    /// Anywhere [`gen_time`] reaches, beyond the level-1 window included.
    At(SimTime),
}

fn gen_burst(g: &mut Gen) -> Op {
    let at = match g.int_in(0, 4) {
        0 => BurstAt::Cursor {
            after_us: g.choose(&[0, 0, 3, 700]),
        },
        1 => BurstAt::Later {
            ms: g.choose(&[4_400, 6_100, 9_000, 20_000]),
        },
        2 => BurstAt::Pending {
            pick: g.usize_in(0, 1_000),
        },
        3 => BurstAt::At(SimTime::from(g.choose(&BEYOND))),
        _ => BurstAt::At(gen_time(g)),
    };
    Op::Burst {
        at,
        len: g.usize_in(1, 8),
    }
}

fn gen_pop_near(g: &mut Gen) -> Op {
    Op::PopUntilNear {
        of_burst: g.bool(0.5),
        early: g.bool(0.5),
    }
}

fn gen_op(g: &mut Gen) -> Op {
    let node = g.usize_in(0, NODES - 1);
    match g.int_in(0, 14) {
        0 | 1 => Op::App {
            node,
            at: gen_time(g),
        },
        2 | 3 => Op::ScheduleTimer {
            node,
            at: gen_time(g),
        },
        4 => Op::CancelTimer { node },
        5 => Op::RawLiveTimer {
            node,
            at: gen_time(g),
        },
        6 => Op::RawStaleTimer {
            node,
            at: gen_time(g),
        },
        7 => Op::Pop,
        8 => Op::PopUntil { until: gen_time(g) },
        9 => Op::Peek,
        10 => {
            let mut offsets_us = g.vec_of(2, 8, |g| g.int_in(0, 12) * 70);
            if g.bool(0.5) {
                offsets_us.sort_unstable_by(|a, b| b.cmp(a));
            }
            Op::Cluster {
                node,
                base: gen_time(g),
                offsets_us,
                external: g.bool(0.5),
            }
        }
        11 => Op::CancelHead,
        13 => gen_burst(g),
        14 => gen_pop_near(g),
        _ => Op::Drain {
            pops: g.usize_in(2, 12),
        },
    }
}

/// The queue and the model, driven in lockstep.
#[derive(Default)]
struct Pair {
    q: EventQueue,
    m: Model,
    /// The instant last popped and that of the last burst scheduled.
    last: SimTime,
    burst_at: SimTime,
}

impl Pair {
    fn schedule(&mut self, at: SimTime, event: SimEvent) {
        self.q.schedule(at, event.clone());
        self.m.schedule(at, event);
    }

    /// The model's head `(time, seq)`; its sequence numbers are the
    /// queue's own, both counting schedules from zero.
    fn model_head(&mut self) -> Option<(SimTime, u64)> {
        self.m.peek_time()?;
        self.m.heap.peek().map(|&Reverse(key)| key)
    }

    fn peek(&mut self, step: usize) -> Result<(), String> {
        let (got, want) = (self.q.peek_key(), self.model_head());
        if got != want {
            return Err(format!("step {step}: peek {got:?}, model {want:?}"));
        }
        Ok(())
    }

    fn pop(&mut self, step: usize) -> Result<Option<(SimTime, SimEvent)>, String> {
        let (got, want) = (self.q.pop(), self.m.pop());
        if got != want {
            return Err(format!("step {step}: pop {got:?}, model {want:?}"));
        }
        self.last = got.as_ref().map_or(self.last, |&(at, _)| at);
        Ok(got)
    }

    fn pop_until(&mut self, step: usize, until: SimTime) -> Result<(), String> {
        let due = self.m.peek_time().is_some_and(|at| at <= until);
        let want = if due { self.m.pop() } else { None };
        let got = self.q.pop_until(until);
        if got != want {
            return Err(format!(
                "step {step}: pop_until({until:?}) {got:?}, model {want:?}"
            ));
        }
        self.last = got.map_or(self.last, |(at, _)| at);
        Ok(())
    }

    /// Resolves where a burst lands against the current state.
    fn burst_instant(&self, at: BurstAt) -> SimTime {
        let after = |d: Duration| SimTime::from(self.last.as_duration().saturating_add(d));
        match at {
            BurstAt::Cursor { after_us } => after(Duration::from_micros(after_us)),
            BurstAt::Later { ms } => after(Duration::from_millis(ms)),
            BurstAt::Pending { pick } => {
                let pending = self.m.heap.len().max(1);
                let nth = self.m.heap.iter().nth(pick % pending);
                nth.map_or(self.last, |&Reverse((at, _))| at)
            }
            BurstAt::At(at) => at,
        }
    }

    fn apply(&mut self, step: usize, op: &Op) -> Result<(), String> {
        match *op {
            Op::App { node, at } => self.schedule(at, SimEvent::App(NodeId(node), step as u64)),
            Op::ScheduleTimer { node, at } => {
                self.q.schedule_timer(at, NodeId(node));
                self.m.schedule_timer(at, NodeId(node));
            }
            Op::CancelTimer { node } => {
                self.q.cancel_timer(NodeId(node));
                self.m.cancel_timer(NodeId(node));
            }
            Op::RawLiveTimer { node, at } => {
                let stamp = self.q.timer_generation(NodeId(node));
                let model_stamp = self.m.gen.get(node).copied().unwrap_or(0);
                if stamp != model_stamp {
                    return Err(format!(
                        "step {step}: generation skew {stamp} vs {model_stamp}"
                    ));
                }
                self.schedule(at, SimEvent::Timer(NodeId(node), stamp));
            }
            Op::RawStaleTimer { node, at } => {
                let stamp = self.q.timer_generation(NodeId(node)).wrapping_add(100_000);
                self.schedule(at, SimEvent::Timer(NodeId(node), stamp));
            }
            Op::Pop => {
                self.pop(step)?;
            }
            Op::PopUntil { until } => self.pop_until(step, until)?,
            Op::Peek => self.peek(step)?,
            Op::Burst { at, len } => {
                let at = self.burst_instant(at);
                let frame = FrameId(step as u64);
                let events: Vec<SimEvent> = (0..len)
                    .map(|k| match k {
                        0 => SimEvent::TxEnd(NodeId(0), frame),
                        _ => SimEvent::RxEnd(NodeId(k), frame),
                    })
                    .collect();
                for event in &events {
                    self.m.schedule(at, event.clone());
                }
                self.q.schedule_burst(at, events);
                self.burst_at = at;
            }
            Op::PopUntilNear { of_burst, early } => {
                let at = if of_burst { self.burst_at } else { self.last };
                let before = at.as_duration().saturating_sub(Duration::from_nanos(1));
                self.pop_until(step, if early { SimTime::from(before) } else { at })?;
            }
            Op::Cluster {
                node,
                base,
                ref offsets_us,
                external,
            } => {
                // Reserved up front, like the sharded engine's coordinator
                // counter; the model indexes its events by the same numbers.
                let first = self.m.events.len();
                if external {
                    for _ in offsets_us {
                        let _ = self.q.alloc_seq();
                        self.m.events.push((SimTime::ZERO, SimEvent::MobilityTick));
                    }
                }
                for (arrival, &us) in offsets_us.iter().enumerate() {
                    let offset = Duration::from_micros(us);
                    let at = SimTime::from(base.as_duration().saturating_add(offset));
                    let event = SimEvent::App(NodeId(node), (step * 100 + arrival) as u64);
                    if external {
                        let seq = first + offsets_us.len() - 1 - arrival;
                        self.q.schedule_at_seq(at, seq as u64, event.clone());
                        self.m.events[seq] = (at, event);
                        self.m.heap.push(Reverse((at, seq as u64)));
                    } else {
                        self.schedule(at, event);
                    }
                }
            }
            Op::CancelHead => {
                self.peek(step)?;
                let head = self.model_head().map(|(_, seq)| self.m.event_at(seq).1);
                if let Some(SimEvent::Timer(owner, _)) = head {
                    self.q.cancel_timer(owner);
                    self.m.cancel_timer(owner);
                }
            }
            Op::Drain { pops } => {
                for _ in 0..pops {
                    self.pop(step)?;
                }
            }
        }
        Ok(())
    }

    /// Everything observable without disturbing either side.
    fn check(&self, step: usize) -> Result<(), String> {
        let (q, m) = (&self.q, &self.m);
        if q.len() != m.len() || q.live_len() != m.live_len() {
            return Err(format!(
                "step {step}: len {}/{} vs model {}/{}",
                q.len(),
                q.live_len(),
                m.len(),
                m.live_len()
            ));
        }
        if q.stale_timers_dropped() != m.dropped {
            return Err(format!(
                "step {step}: stale drops {} vs model {}",
                q.stale_timers_dropped(),
                m.dropped
            ));
        }
        if q.is_empty() != (m.len() == 0) {
            return Err(format!("step {step}: is_empty disagrees"));
        }
        Ok(())
    }

    /// Drains both to the end: the full remaining order must match.
    fn drain(&mut self) -> Result<(), String> {
        while self.pop(usize::MAX)?.is_some() {}
        self.check(usize::MAX)
    }
}

/// Applies `ops` to a fresh pair, checking after each (and peeking
/// between each when asked), then drains both to the end.
fn run_ops(peek_between: bool, ops: &[Op]) -> Result<(), String> {
    let mut pair = Pair::default();
    for (step, op) in ops.iter().enumerate() {
        pair.apply(step, op)?;
        pair.check(step)?;
        if peek_between {
            pair.peek(step)?;
            pair.check(step)?;
        }
    }
    pair.drain()
}

#[test]
fn calendar_queue_matches_reference_model() {
    forall(
        "calendar_queue_matches_reference_model",
        // Peeking settles the queue and caches its head, so a run that
        // peeks between every pair of operations is a regime of its own.
        |g| (g.bool(0.5), g.vec_of(1, 240, gen_op)),
        |(peek_between, ops)| run_ops(*peek_between, ops),
    );
}

/// Frame ends as bursts, densely: in the cursor bucket (mid-drain of an
/// earlier burst included), re-filed from level 1, beyond the level-1
/// window and on the instants of pending singles and timers — against
/// pops bounded at the burst's instant and 1 ns before it, peeks while
/// a burst drains, and inserts that sort before a draining burst's next
/// follower (past instants, reserved sequence numbers).
#[test]
fn frame_end_bursts_match_reference_model() {
    forall(
        "frame_end_bursts_match_reference_model",
        |g| {
            let ops = g.vec_of(1, 160, |g| match g.int_in(0, 9) {
                0..=2 => gen_burst(g),
                3 | 4 => gen_pop_near(g),
                5 => Op::Pop,
                6 => Op::Peek,
                _ => gen_op(g),
            });
            (g.bool(0.5), ops)
        },
        |(peek_between, ops)| run_ops(*peek_between, ops),
    );
}

/// A long drain with the cursor in motion: events spread over half a
/// minute (seven level-1 spans) plus a few beyond the level-1 window are
/// popped to the end while every third pop schedules a follow-up relative
/// to the instant just popped — same tick, next tick, next span, past.
#[test]
fn drain_across_level_one_spans_matches_reference_model() {
    const FOLLOW_UPS_US: [i64; 6] = [0, 300, 1_100, 4_400_000, 9_000_000, -2_000_000];
    forall(
        "drain_across_level_one_spans_matches_reference_model",
        |g| {
            let ops = g.vec_of(20, 200, |g| {
                let node = g.usize_in(0, NODES - 1);
                let at = if g.bool(0.02) {
                    SimTime::from(g.choose(&BEYOND))
                } else {
                    SimTime::from_micros(g.int_in(0, 30_000_000))
                };
                if g.bool(0.3) {
                    Op::ScheduleTimer { node, at }
                } else {
                    Op::App { node, at }
                }
            });
            let follow_ups = g.vec_of(1, 40, |g| g.choose(&FOLLOW_UPS_US));
            (ops, follow_ups)
        },
        |(ops, follow_ups)| {
            let mut pair = Pair::default();
            // Anchors: the drain starts at zero and runs past 15 s.
            pair.schedule(SimTime::ZERO, SimEvent::MobilityTick);
            pair.schedule(SimTime::from_secs(15), SimEvent::MobilityTick);
            for (step, op) in ops.iter().enumerate() {
                pair.apply(step, op)?;
            }
            let mut follow_ups = follow_ups.iter();
            let mut times = Vec::new();
            for step in 0.. {
                let Some((at, _)) = pair.pop(step)? else {
                    break;
                };
                times.push(at);
                pair.check(step)?;
                if step % 3 == 0 && at < SimTime::from_secs(3600) {
                    if let Some(&us) = follow_ups.next() {
                        let micros = i64::try_from(at.as_micros()).unwrap_or(i64::MAX);
                        let then = SimTime::from_micros(micros.saturating_add(us).max(0) as u64);
                        pair.schedule(then, SimEvent::App(NodeId(0), step as u64));
                        pair.peek(step)?;
                    }
                }
            }
            pair.check(usize::MAX)?;
            let spans = |at: &SimTime| at.as_duration().as_nanos() >> 32;
            let crossed = times.last().map_or(0, spans) - times.first().map_or(0, spans);
            if crossed < 2 {
                return Err(format!("drain crossed only {crossed} level-1 spans"));
            }
            Ok(())
        },
    );
}

/// Instants beyond `u64` nanoseconds saturate to one *never* that sorts
/// after everything else. The reference here keeps the `Duration`s and
/// saturates for itself: the pop order must be its stable sort by
/// (`min(instant, 2^64 − 1 ns)`, arrival) over the entries still live —
/// near events, events on both sides of the horizon and superseded
/// timers (tombstones) mixed.
#[test]
fn instants_beyond_the_horizon_pop_last_in_arrival_order() {
    const HORIZON: Duration = Duration::from_nanos(u64::MAX);
    forall(
        "instants_beyond_the_horizon_pop_last_in_arrival_order",
        |g| {
            g.vec_of(1, 120, |g| {
                let at = match g.int_in(0, 3) {
                    0 => Duration::from_micros(g.int_in(0, 20_000_000)),
                    1 => HORIZON - Duration::from_nanos(g.int_in(0, 2)),
                    2 => HORIZON + Duration::from_nanos(g.int_in(0, 2)),
                    _ => g.choose(&BEYOND),
                };
                (at, g.bool(0.3).then(|| g.usize_in(0, NODES - 1)))
            })
        },
        |entries| {
            let mut q = EventQueue::new();
            // (saturated instant, arrival, timer owner)
            let mut model: Vec<(u128, usize, Option<usize>)> = Vec::new();
            for (k, &(at, timer)) in entries.iter().enumerate() {
                match timer {
                    Some(node) => {
                        q.schedule_timer(SimTime::from(at), NodeId(node));
                        model.retain(|&(_, _, owner)| owner != Some(node));
                    }
                    None => q.schedule(SimTime::from(at), SimEvent::App(NodeId(0), k as u64)),
                }
                model.push((at.as_nanos().min(HORIZON.as_nanos()), k, timer));
            }
            if (q.len(), q.live_len()) != (entries.len(), model.len()) {
                return Err(format!("len {}/{}", q.len(), q.live_len()));
            }
            model.sort();
            for &(ns, k, timer) in &model {
                let got = q.pop();
                let same = match (&got, timer) {
                    (Some((_, SimEvent::Timer(n, _))), Some(node)) => n.0 == node,
                    (Some((_, SimEvent::App(_, tag))), None) => *tag == k as u64,
                    _ => false,
                };
                if !same || got.as_ref().map(|(at, _)| u128::from(at.as_nanos())) != Some(ns) {
                    return Err(format!("entry {k} due at {ns} ns: popped {got:?}"));
                }
            }
            let tombstones = (entries.len() - model.len()) as u64;
            if q.pop().is_some() || !q.is_empty() || q.stale_timers_dropped() != tombstones {
                return Err(format!(
                    "{} drops, not {tombstones}",
                    q.stale_timers_dropped()
                ));
            }
            Ok(())
        },
    );
}
