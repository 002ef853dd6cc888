//! Property test: folding a node's `schedule_app` calls into runs is
//! invisible. Random interleavings of app calls, kills, revives, bounded
//! runs and single steps drive the [`Simulator`] and an eager reference
//! that files one plain [`EventQueue`] entry per call, as the simulator
//! did before it folded runs. A recording firmware must see the same
//! `(now, tag)` sequence of `on_app` calls, and both must have processed
//! the same number of events, after every operation.
//!
//! The calls cover what can break a fold: periodic streams on several
//! nodes, interleaved round by round so their sends tie at equal
//! instants; streams whose step breaks in time, tag or sequence number
//! (an extra call, a skipped one); one-off calls that repeat a stream's
//! send, before or after it, which the run's queued send cannot be told
//! from; streams that count backwards and one-off calls at unsorted
//! instants, some already past and clamped to now; streams continued
//! after a `run_until` that fired part of them; and kills and revives in
//! the middle of a stream. Periods of an hour
//! carry runs past the queue's level-1 window. The shard and thread
//! counts vary too: app events ride the coordinator queue, whose pops
//! the sharded merge and `step` serve through their own paths.

use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::propagation::Position;
use radio_sim::event::{EventQueue, SimEvent};
use radio_sim::firmware::{Context, Firmware};
use radio_sim::time::SimTime;
use radio_sim::{NodeId, SimConfig, Simulator};
use testkit::{forall, Gen};

const NODES: usize = 4;

/// Records every `on_app` call: the instant and the tag.
#[derive(Default)]
struct Recorder(Vec<(Duration, u64)>);

impl Firmware for Recorder {
    fn on_frame(&mut self, _: &[u8], _: SignalQuality, _: &mut Context) {}
    fn on_app(&mut self, tag: u64, ctx: &mut Context) {
        self.0.push((ctx.now(), tag));
    }
    fn next_wake(&self) -> Option<Duration> {
        None
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    App { node: usize, at_ms: u64, tag: u64 },
    Kill { node: usize, at_ms: u64 },
    Revive { node: usize, at_ms: u64 },
    RunUntil { at_ms: u64 },
    Step,
}

/// The eager schedule: one queue entry per call, popped in `(time, seq)`
/// order, with the simulator's clamping and liveness rules.
struct Eager {
    queue: EventQueue,
    now: SimTime,
    alive: [bool; NODES],
    processed: u64,
    log: [Vec<(Duration, u64)>; NODES],
}

impl Eager {
    fn new() -> Self {
        Eager {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            alive: [true; NODES],
            processed: 0,
            log: Default::default(),
        }
    }

    fn schedule(&mut self, at: Duration, event: SimEvent) {
        self.queue.schedule(SimTime::from(at).max(self.now), event);
    }

    fn dispatch(&mut self, at: SimTime, event: SimEvent) {
        self.now = at;
        self.processed += 1;
        match event {
            SimEvent::App(n, tag) if self.alive[n.0] => self.log[n.0].push((at.as_duration(), tag)),
            SimEvent::App(..) => {}
            SimEvent::Kill(n) => self.alive[n.0] = false,
            SimEvent::Revive(n) => self.alive[n.0] = true,
            other => panic!("the reference queues no {other:?}"),
        }
    }

    fn run_until(&mut self, until: Duration) {
        let until = SimTime::from(until);
        while let Some((at, event)) = self.queue.pop_until(until) {
            self.dispatch(at, event);
        }
        self.now = self.now.max(until);
    }

    fn step(&mut self) -> bool {
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        self.dispatch(at, event);
        true
    }
}

/// One stream's calls: `count` sends from `start` every `period` (or
/// counting back by it), tags from `tag` by `dtag`.
#[derive(Clone, Copy)]
struct Stream {
    node: usize,
    start: u64,
    period: u64,
    backwards: bool,
    tag: u64,
    dtag: u64,
}

impl Stream {
    fn call(&self, k: u64) -> Op {
        let offset = k * self.period;
        let at_ms = if self.backwards {
            self.start.saturating_sub(offset)
        } else {
            self.start + offset
        };
        let tag = self.tag.wrapping_add(k.wrapping_mul(self.dtag));
        Op::App {
            node: self.node,
            at_ms,
            tag,
        }
    }
}

/// A block of streams on random nodes, emitted round by round in one
/// fixed order (so each stream's sequence numbers step evenly), with
/// breaks, faults, runs and steps sprinkled between calls.
fn streams(g: &mut Gen, base: u64, ops: &mut Vec<Op>) -> u64 {
    let k = g.usize_in(1, 3);
    let any = g.int_in(0, 60_000);
    let start = base + g.choose(&[0, 0, 500, any]);
    let any = g.int_in(1, 20_000);
    let period = g.choose(&[0, 1_000, 1_000, 3_000, 3_600_000, any]);
    let list: Vec<Stream> = (0..k)
        .map(|_| {
            let (any_offset, any_tag) = (g.int_in(0, 5_000), g.u64());
            Stream {
                node: g.usize_in(0, NODES - 1),
                start: start + g.choose(&[0, 0, 1_000, any_offset]),
                period,
                backwards: g.bool(0.1),
                tag: g.u64() >> g.choose(&[0, 32, 60]),
                dtag: g.choose(&[0, 1, 1 << 32, any_tag]),
            }
        })
        .collect();
    let rounds = g.len_in(1, 40) as u64;
    let span = rounds * period.max(1);
    // A one-off made first that repeats a later send of a stream: same
    // node, instant and tag, an earlier sequence number.
    if g.bool(0.3) {
        let s = g.choose(&list);
        ops.push(s.call(g.int_in(0, rounds)));
    }
    for round in 0..rounds {
        for s in &list {
            let mut call = s.call(round);
            match g.usize_in(0, 39) {
                // Breaks: an instant or a tag off by one, an extra call
                // of the node (the next call's sequence number jumps), a
                // skipped call (every component jumps two steps).
                0 => {
                    if let Op::App { at_ms, .. } = &mut call {
                        *at_ms += 1;
                    }
                }
                1 => {
                    if let Op::App { tag, .. } = &mut call {
                        *tag = tag.wrapping_add(1);
                    }
                }
                2 => ops.push(s.call(round + 1000)),
                3 => continue,
                // A fault of the node in the middle of its stream.
                4 => ops.push(Op::Kill {
                    node: s.node,
                    at_ms: start + g.int_in(0, span),
                }),
                5 => ops.push(Op::Revive {
                    node: s.node,
                    at_ms: start + g.int_in(0, span),
                }),
                // Part of the stream fires before its remaining calls
                // are made; some of those then clamp to now.
                6 => ops.push(Op::RunUntil {
                    at_ms: start + g.int_in(0, span),
                }),
                7 => ops.push(Op::Step),
                // A one-off that repeats an earlier, maybe still folded,
                // send of the stream.
                8 => ops.push(s.call(round.saturating_sub(g.int_in(1, 3)))),
                _ => {}
            }
            ops.push(call);
        }
    }
    start + span
}

fn gen_ops(g: &mut Gen) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut base = 0;
    for _ in 0..g.len_in(1, 8) {
        match g.usize_in(0, 9) {
            0..=5 => base = streams(g, base, &mut ops).max(base),
            // One-off calls at unsorted instants, past ones clamped.
            6 => {
                for _ in 0..g.len_in(1, 10) {
                    ops.push(Op::App {
                        node: g.usize_in(0, NODES - 1),
                        at_ms: g.int_in(0, base + 10_000),
                        tag: g.u64(),
                    });
                }
            }
            7 => ops.push(Op::RunUntil {
                at_ms: g.int_in(0, base + 10_000),
            }),
            8 => ops.push(Op::Step),
            _ => ops.push(Op::Kill {
                node: g.usize_in(0, NODES - 1),
                at_ms: g.int_in(0, base + 10_000),
            }),
        }
    }
    ops
}

/// Runs `ops` on a simulator built with `config` and on the reference,
/// comparing after every operation and once both have drained.
fn check(ops: &[Op], config: &SimConfig) -> Result<(), String> {
    let mut sim: Simulator<Recorder> = Simulator::new(config.clone(), 1);
    let ids: Vec<NodeId> = (0..NODES)
        .map(|i| sim.add_node(Recorder::default(), Position::new(i as f64 * 1e6, 0.0)))
        .collect();
    let mut eager = Eager::new();
    let ms = Duration::from_millis;
    let tail = ops.iter().copied().chain([Op::RunUntil {
        at_ms: u64::MAX / 2_000_000,
    }]);
    for (i, op) in tail.enumerate() {
        match op {
            Op::App { node, at_ms, tag } => {
                sim.schedule_app(ms(at_ms), ids[node], tag);
                eager.schedule(ms(at_ms), SimEvent::App(NodeId(node), tag));
            }
            Op::Kill { node, at_ms } => {
                sim.schedule_kill(ms(at_ms), ids[node]);
                eager.schedule(ms(at_ms), SimEvent::Kill(NodeId(node)));
            }
            Op::Revive { node, at_ms } => {
                sim.schedule_revive(ms(at_ms), ids[node]);
                eager.schedule(ms(at_ms), SimEvent::Revive(NodeId(node)));
            }
            Op::RunUntil { at_ms } => {
                sim.run_until(ms(at_ms));
                eager.run_until(ms(at_ms));
            }
            Op::Step => {
                let (a, b) = (sim.step(), eager.step());
                if a != b {
                    return Err(format!("op {i}: step returned {a}, reference {b}"));
                }
            }
        }
        if sim.events_processed() != eager.processed || sim.now() != eager.now.as_duration() {
            return Err(format!(
                "op {i} ({op:?}): {} events at {:?}, reference {} at {:?}",
                sim.events_processed(),
                sim.now(),
                eager.processed,
                eager.now.as_duration()
            ));
        }
        for (n, &id) in ids.iter().enumerate() {
            let (seen, want) = (&sim.node(id).0, &eager.log[n]);
            if seen != want {
                let k = seen.iter().zip(want).take_while(|(a, b)| a == b).count();
                return Err(format!(
                    "op {i} ({op:?}): node {n}'s on_app call {k} is {:?}, reference {:?} \
                     ({} calls, reference {})",
                    seen.get(k),
                    want.get(k),
                    seen.len(),
                    want.len()
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn app_runs_fire_as_the_eager_schedule() {
    forall("app_runs_fire_as_the_eager_schedule", gen_ops, |ops| {
        check(ops, &SimConfig::default())
    });
}

#[test]
fn app_runs_fire_as_the_eager_schedule_on_the_sharded_engine() {
    let configs = [
        SimConfig {
            shards: 4,
            ..SimConfig::default()
        },
        SimConfig {
            shards: 4,
            threads: 2,
            rng_streams: true,
            ..SimConfig::default()
        },
    ];
    forall("app_runs_sharded", gen_ops, |ops| {
        configs.iter().try_for_each(|config| check(ops, config))
    });
}

/// A periodic stream of 1 000 sends, all but three of them folded into
/// one run, fires every send at its instant with its tag.
#[test]
fn a_periodic_stream_of_1000_sends_fires_every_send() {
    let mut sim: Simulator<Recorder> = Simulator::new(SimConfig::default(), 1);
    let n = sim.add_node(Recorder::default(), Position::new(0.0, 0.0));
    for k in 0..1_000u64 {
        sim.schedule_app(Duration::from_secs(60 * (k + 1)), n, k << 32);
    }
    sim.run_until(Duration::from_secs(60 * 1_000));
    let seen = &sim.node(n).0;
    assert_eq!(seen.len(), 1_000);
    assert!(seen
        .iter()
        .zip(1u64..)
        .all(|(&(at, tag), k)| at == Duration::from_secs(60 * k) && tag == (k - 1) << 32));
    assert_eq!(sim.events_processed(), 1_000);
}
