//! Property tests for the arguments that bound the radio state
//! machine's per-frame work by the audible neighbourhood (same style as
//! `queue_model.rs` and `grid_model.rs`):
//!
//! 1. **Gate soundness** — over random RF configurations (path-loss
//!    model, shadowing σ ∈ {0, 4, 8} dB) and placements, a pair
//!    [`beyond_range`] skips is never [`Medium::audible`], including
//!    placements a hair inside and outside `max_audible_range`; the
//!    bound is tight (without shadowing a pair just inside it *is*
//!    audible, so a narrower gate would be caught) and the gate is the
//!    per-axis box it is documented to be (it keeps the corners).
//! 2. **Pruning equivalence** — over random interleavings of frame
//!    starts, ends, sender kills and re-locks, a [`Reception`] that
//!    prunes ended frames immediately before each add reaches the same
//!    `peak_interference_mw`, bit for bit, with the same live interferer
//!    order, as one told about every end the moment it happens.
//! 3. **Engine views agree** — the coordinator prunes against the
//!    medium's registry, a band worker against its window view (its own
//!    `ended` list, staged frames, the frozen registry). On random dense
//!    ALOHA clusters with kills and revives, where receptions routinely
//!    outlive several interferers, both yield the same traces and
//!    metrics.
//! 4. **Gather soundness** — a transmission gathers the frames on the
//!    air once, within `2·r_max` of its origin, and every receiver it
//!    locks filters that list. Over RF configurations, random and
//!    boundary placements (receiver a hair inside `r_max` of the sender
//!    with an interferer a hair inside `r_max` beyond it: on an axis,
//!    where the `2·r_max` box is tight, on the diagonal and round the
//!    corner), co-located nodes and senders moved mid-frame, on one band
//!    and on four, every lock seeds exactly the list — ids, order, powers
//!    and `peak_interference_mw` by bits — a scan of every frame on the
//!    air against the link budget seeds; every CAD scan starts busy
//!    exactly when that scan finds a frame from another sender audible at
//!    the scanner; and band workers, which gather from their window view,
//!    leave every reception as the single queue leaves it.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::propagation::{PathLossModel, Position, Shadowing};
use radio_sim::event::FrameId;
use radio_sim::firmware::{Context, Firmware};
use radio_sim::medium::{Medium, RfConfig};
use radio_sim::radio::{RadioState, Reception};
use radio_sim::shard::{beyond_range, max_audible_range};
use radio_sim::time::SimTime;
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

/// Offsets from the origin, in units of the audible range: random ones
/// across and around the box, and the boundary placements — on an axis,
/// on the diagonal and in the corner, each a hair inside and outside.
fn gen_offsets(g: &mut Gen) -> Vec<(f64, f64)> {
    const HAIR: f64 = 1e-9;
    let mut offsets = g.vec_of(4, 24, |g| (g.f64() * 4.0 - 2.0, g.f64() * 4.0 - 2.0));
    let diag = std::f64::consts::FRAC_1_SQRT_2;
    for edge in [1.0 - HAIR, 1.0 + HAIR] {
        for (ux, uy) in [(1.0, 0.0), (0.0, -1.0), (diag, diag), (-1.0, 1.0)] {
            offsets.push((ux * edge, uy * edge));
        }
    }
    offsets
}

#[test]
fn gate_never_skips_an_audible_pair() {
    forall(
        "gate_never_skips_an_audible_pair",
        |g| {
            let origin = Position::new(g.f64() * 2.0e4 - 1.0e4, g.f64() * 2.0e4 - 1.0e4);
            let ids = (usize::from(g.u16()), usize::from(g.u16()));
            (gen_rf(g), origin, ids, gen_offsets(g))
        },
        |(rf, origin, (a, b), offsets)| {
            let medium = Medium::new(rf.clone());
            let r = max_audible_range(rf);
            let audible_at = |p: &Position| {
                medium.audible(medium.received_power(origin, p, NodeId(*a), NodeId(*b)))
            };
            for &(ux, uy) in offsets {
                let p = Position::new(origin.x + ux * r, origin.y + uy * r);
                let skipped = beyond_range(r, *origin, p);
                prop_assert!(
                    !(skipped && audible_at(&p)),
                    "gate skipped an audible pair at offset ({ux}, {uy})·{r}"
                );
                prop_assert_eq!(skipped, beyond_range(r, p, *origin));
            }
            // The gate is the per-axis box: what it keeps includes the
            // corners, well outside the audible disc.
            let corner = 1.0 - 1e-9;
            let p = Position::new(origin.x + corner * r, origin.y - corner * r);
            prop_assert!(!beyond_range(r, *origin, p), "gate skipped inside its box");
            // And the bound it gates at is tight: with no shadowing a
            // pair a hair inside it is audible, so gating any closer
            // would skip an audible pair.
            if rf.shadowing.sigma_db == 0.0 {
                let p = Position::new(origin.x + corner * r, origin.y);
                prop_assert!(audible_at(&p), "range bound {r} is not tight");
            }
            Ok(())
        },
    );
}

/// One step of the pruning model.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A new frame goes on the air with this received power (mW).
    Start(f64),
    /// The `k`-th frame on the air (mod count) ends — or its sender is
    /// killed mid-frame, which an interferer set cannot tell apart.
    End(usize),
    /// The receiver re-locks (capture, or a fresh reception): a new
    /// `Reception` seeded from everything on the air.
    Relock,
}

fn gen_ops(g: &mut Gen) -> Vec<Op> {
    g.vec_of(1, 80, |g| match g.usize_in(0, 9) {
        0..=4 => Op::Start(g.f64() * 1.0e-9 + 1.0e-13),
        5..=8 => Op::End(g.usize_in(0, 7)),
        _ => Op::Relock,
    })
}

fn fresh(on_air: &[(FrameId, f64)]) -> Reception {
    let mut rec = Reception::new(
        FrameId(u64::MAX),
        NodeId(0),
        SignalQuality::ideal(),
        1.0e-9,
        vec![],
    );
    for &(f, p) in on_air {
        rec.add_interferer(f, p);
    }
    rec
}

#[test]
fn pruning_at_add_equals_eager_removal() {
    forall("pruning_at_add_equals_eager_removal", gen_ops, |ops| {
        // Frames on the air, ascending by id, with their powers here.
        let mut on_air: Vec<(FrameId, f64)> = Vec::new();
        let mut next_id = 0u64;
        // `eager` hears about every end at once; `lazy` never does and
        // prunes against the on-air set before each add instead.
        let (mut eager, mut lazy) = (fresh(&on_air), fresh(&on_air));
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Start(power) => {
                    let frame = FrameId(next_id);
                    next_id += 1;
                    on_air.push((frame, power));
                    eager.add_interferer(frame, power);
                    lazy.prune_interferers(|f| on_air.iter().any(|&(a, _)| a == f));
                    lazy.add_interferer(frame, power);
                    prop_assert_eq!(&lazy.interferers, &eager.interferers);
                }
                Op::End(k) if !on_air.is_empty() => {
                    let (frame, _) = on_air.remove(k % on_air.len());
                    eager.interferers.retain(|&(f, _)| f != frame);
                }
                Op::End(_) => {}
                Op::Relock => {
                    eager = fresh(&on_air);
                    lazy = fresh(&on_air);
                }
            }
            prop_assert!(
                lazy.peak_interference_mw.to_bits() == eager.peak_interference_mw.to_bits(),
                "step {step} ({op:?}): peak {} pruned at add vs {} removed eagerly",
                lazy.peak_interference_mw,
                eager.peak_interference_mw
            );
            // Between adds the lazy list may hold ended frames, but its
            // live part is the eager list, in order.
            let live: Vec<_> = lazy
                .interferers
                .iter()
                .copied()
                .filter(|&(f, _)| on_air.iter().any(|&(a, _)| a == f))
                .collect();
            prop_assert_eq!(&live, &eager.interferers);
        }
        Ok(())
    });
}

/// ALOHA beacon: transmits on its own schedule whatever the radio is
/// doing (aborting a reception if need be), frame lengths cycling from
/// a few to a couple of hundred bytes — so long receptions sit through
/// several short interferers that start and end while they last.
struct Aloha {
    next: Duration,
    period: Duration,
    frames: Vec<Arc<[u8]>>,
    sent: usize,
    heard: u64,
}

impl Firmware for Aloha {
    fn on_timer(&mut self, ctx: &mut Context) {
        if ctx.now() >= self.next {
            self.next += self.period;
            ctx.transmit(self.frames[self.sent % self.frames.len()].clone());
            self.sent += 1;
        }
    }
    fn on_frame(&mut self, _b: &[u8], _q: SignalQuality, _ctx: &mut Context) {
        self.heard += 1;
    }
    fn next_wake(&self) -> Option<Duration> {
        Some(self.next)
    }
}

/// A world of two dense clusters far outside each other's range (so a
/// threaded run commits them in parallel windows), described by value
/// so both engines build the identical thing.
#[derive(Clone, Debug)]
struct World {
    seed: u64,
    nodes: Vec<Station>,
    /// Kill and revive instants (ms) for a few nodes.
    faults: Vec<(usize, u64, u64)>,
}

#[derive(Clone, Debug)]
struct Station {
    cluster: usize,
    /// Position within the cluster (m).
    at: (f64, f64),
    phase_ms: u64,
    period_ms: u64,
    frame_lens: Vec<usize>,
}

fn gen_world(g: &mut Gen) -> World {
    let n = g.usize_in(8, 20);
    let nodes: Vec<_> = (0..n)
        .map(|i| Station {
            cluster: i % 2,
            at: (g.f64() * 160.0, g.f64() * 160.0),
            phase_ms: g.int_in(1, 400),
            period_ms: g.int_in(90, 700),
            frame_lens: g.vec_of(1, 3, |g| g.choose(&[6usize, 10, 16, 40, 120, 200])),
        })
        .collect();
    let faults = g.vec_of(0, 3, |g| {
        let at = g.int_in(200, 3_000);
        (g.usize_in(0, n - 1), at, at + g.int_in(50, 1_500))
    });
    World {
        seed: g.u64(),
        nodes,
        faults,
    }
}

fn run_world(w: &World, shards: usize, threads: usize) -> Simulator<Aloha> {
    let cfg = SimConfig {
        trace_capacity: 1 << 16,
        shards,
        threads,
        rng_streams: true,
        // Every window with two busy clusters commits in parallel.
        commit_batch_min_events: 1,
        ..SimConfig::default()
    };
    let mut s = Simulator::new(cfg, w.seed);
    for n in &w.nodes {
        s.add_node(
            Aloha {
                next: Duration::from_millis(n.phase_ms),
                period: Duration::from_millis(n.period_ms),
                frames: n.frame_lens.iter().map(|&l| vec![0xA1; l].into()).collect(),
                sent: 0,
                heard: 0,
            },
            Position::new(n.cluster as f64 * 2.0e5 + n.at.0, n.at.1),
        );
    }
    for &(node, kill, revive) in &w.faults {
        s.schedule_kill(Duration::from_millis(kill), NodeId(node));
        s.schedule_revive(Duration::from_millis(revive), NodeId(node));
    }
    s.run_for(Duration::from_secs(5));
    s
}

#[test]
fn coordinator_and_worker_prune_views_agree_on_dense_overlap() {
    // Summed over all cases, so the property is not vacuous: frames
    // collided, and band workers really committed windows.
    let (collisions, batches) = (Cell::new(0u64), Cell::new(0u64));
    forall(
        "coordinator_and_worker_prune_views_agree_on_dense_overlap",
        gen_world,
        |w| {
            let fingerprint = |s: &Simulator<Aloha>| {
                let mut metrics = s.metrics().clone();
                // The one engine-dependent counter (tests/shard_diff.rs).
                metrics.stale_timers_dropped = 0;
                let heard: Vec<u64> = (0..s.node_count())
                    .map(|i| s.node(NodeId(i)).heard)
                    .collect();
                (
                    s.trace().entries().cloned().collect::<Vec<_>>(),
                    metrics,
                    heard,
                )
            };
            let reference = run_world(w, 1, 1);
            collisions.set(collisions.get() + reference.metrics().lost_collision);
            for (shards, threads) in [(4, 1), (4, 2)] {
                let other = run_world(w, shards, threads);
                batches.set(batches.get() + other.commit_batches());
                prop_assert!(
                    fingerprint(&other) == fingerprint(&reference),
                    "shards={shards} threads={threads} diverged from the sequential engine"
                );
            }
            Ok(())
        },
    );
    assert!(collisions.get() > 0, "no case produced a collision");
    assert!(batches.get() > 0, "no case committed a parallel batch");
}

/// Transmits `sends` — `(instant, frame length)`, ascending — whatever
/// the radio is doing, and starts a CAD scan at each of `scans`
/// (ascending; a scan due with a send goes first).
struct Script {
    sends: Vec<(Duration, usize)>,
    next: usize,
    scans: Vec<Duration>,
    next_scan: usize,
}

impl Firmware for Script {
    fn on_timer(&mut self, ctx: &mut Context) {
        if self
            .scans
            .get(self.next_scan)
            .is_some_and(|&at| ctx.now() >= at)
        {
            self.next_scan += 1;
            ctx.start_cad();
        } else if let Some(&(at, len)) = self.sends.get(self.next) {
            if ctx.now() >= at {
                self.next += 1;
                ctx.transmit(vec![0xB7; len]);
            }
        }
    }
    fn on_frame(&mut self, _b: &[u8], _q: SignalQuality, _ctx: &mut Context) {}
    fn next_wake(&self) -> Option<Duration> {
        let send = self.sends.get(self.next).map(|s| s.0);
        let scan = self.scans.get(self.next_scan).copied();
        send.into_iter().chain(scan).min()
    }
}

/// A node's position, `(instant, frame length)` sends and scan instants.
type ScriptNode = (Position, Vec<(Duration, usize)>, Vec<Duration>);

/// Two far-apart clusters (so band workers commit them side by side),
/// each a boundary trio in a quiet first half second, then random ALOHA
/// traffic with senders teleported mid-frame and CAD scans among it.
#[derive(Clone, Debug)]
struct GatherWorld {
    rf: RfConfig,
    seed: u64,
    nodes: Vec<ScriptNode>,
    /// `(instant, node, new position)`, ascending by instant.
    moves: Vec<(Duration, usize, Position)>,
}

const GATHER_RUN: Duration = Duration::from_millis(2_500);

fn gen_gather_world(g: &mut Gen) -> GatherWorld {
    const HAIR: f64 = 1e-9;
    let ms = Duration::from_millis;
    let rf = gen_rf(g);
    let r = max_audible_range(&rf);
    let rho = r * (1.0 - HAIR);
    let short = rf.modulation.time_on_air(6);
    let mut nodes: Vec<ScriptNode> = Vec::new();
    let mut moves = Vec::new();
    for cluster in 0..2 {
        let base = Position::new(f64::from(cluster) * 60.0 * r, 0.0);
        let within = |g: &mut Gen| {
            Position::new(
                base.x + (g.f64() * 2.4 - 1.2) * r,
                base.y + (g.f64() * 2.4 - 1.2) * r,
            )
        };
        // The boundary trio. The receiver transmits a short frame and
        // so misses the start of the interferer's long one; once idle
        // again it locks onto the sender's frame with the interferer —
        // a hair inside its own range, up to two ranges from the
        // sender — already on the air.
        let diag = std::f64::consts::FRAC_1_SQRT_2;
        let (u, v) = g.choose(&[
            ((1.0, 0.0), (1.0, 0.0)),
            ((0.0, -1.0), (0.0, -1.0)),
            ((diag, diag), (diag, diag)),
            ((1.0, 0.0), (0.0, 1.0)),
        ]);
        let sender = base;
        let receiver = Position::new(sender.x + u.0 * rho, sender.y + u.1 * rho);
        let interferer = Position::new(receiver.x + v.0 * rho, receiver.y + v.1 * rho);
        let t0 = ms(50);
        let first = nodes.len();
        nodes.push((sender, vec![(t0 + short + ms(3), 24)], Vec::new()));
        nodes.push((receiver, vec![(t0, 6)], Vec::new()));
        nodes.push((interferer, vec![(t0 + ms(2), 200)], Vec::new()));
        if g.bool(0.5) {
            // Co-located with the interferer, and on the air as well.
            nodes.push((interferer, vec![(t0 + ms(4), 200)], Vec::new()));
        }
        if g.bool(0.5) {
            // Co-located with the receiver: a second lock, same list.
            nodes.push((receiver, Vec::new(), Vec::new()));
        }
        if g.bool(0.5) {
            // A scanner beside the receiver: a scan before anything is on
            // the air, then the receiver's short frame, then a scan with
            // the interferer's frame — a hair inside range — on the air.
            let scans = vec![t0 - ms(20), t0 + short + ms(1)];
            nodes.push((receiver, vec![(t0, 6)], scans));
        }
        if g.bool(0.3) {
            // The interferer leaves while its frame stays where it began.
            moves.push((t0 + ms(3), first + 2, within(g)));
        }
        for _ in 0..g.usize_in(5, 9) {
            let (phase, period) = (g.int_in(600, 1_000), g.int_in(90, 500));
            let sends: Vec<_> = (0..)
                .map(|k| ms(phase + k * period))
                .take_while(|&at| at < GATHER_RUN)
                .map(|at| (at, g.choose(&[6usize, 10, 16, 40, 120, 200])))
                .collect();
            if g.bool(0.4) {
                let (at, _) = g.choose(&sends);
                moves.push((at + ms(2), nodes.len(), within(g)));
            }
            let mut scans = g.vec_of(0, 4, |g| ms(g.int_in(500, 2_400)));
            scans.sort();
            nodes.push((within(g), sends, scans));
        }
    }
    moves.sort_by_key(|m| m.0);
    GatherWorld {
        rf,
        seed: g.u64(),
        nodes,
        moves,
    }
}

fn build_gather_world(w: &GatherWorld, cfg: SimConfig) -> Simulator<Script> {
    let cfg = SimConfig {
        rf: w.rf.clone(),
        rng_streams: true,
        ..cfg
    };
    let mut s = Simulator::new(cfg, w.seed);
    for (at, sends, scans) in &w.nodes {
        let script = Script {
            sends: sends.clone(),
            next: 0,
            scans: scans.clone(),
            next_scan: 0,
        };
        s.add_node(script, *at);
    }
    s
}

/// What the leg saw, summed over all cases so it cannot pass vacuously.
#[derive(Default)]
struct GatherTally {
    locks: Cell<u64>,
    seeded: Cell<u64>,
    /// Interferers more than `1.9·r_max` from the locked frame's origin
    /// along an axis: a gather any tighter than `2·r_max` loses them.
    tight: Cell<u64>,
    /// Interferers whose sender had moved away from the frame's origin.
    moved: Cell<u64>,
    batches: Cell<u64>,
    /// CAD scans entered with the channel busy, and idle.
    busy_scans: Cell<u64>,
    idle_scans: Cell<u64>,
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

/// An interferer list with its powers by bits.
fn power_bits(list: &[(FrameId, f64)]) -> Vec<(FrameId, u64)> {
    list.iter().map(|&(f, p)| (f, p.to_bits())).collect()
}

/// Steps one engine shape through the world event by event, checking
/// every fresh lock against a scan of everything on the air — and every
/// CAD scan, as it starts, against the same scan: busy exactly when a
/// frame from another sender is audible at the scanner from where that
/// frame began.
fn check_locks_against_full_scan(
    w: &GatherWorld,
    cfg: SimConfig,
    tally: &GatherTally,
) -> Result<(), String> {
    let medium = Medium::new(w.rf.clone());
    let r = max_audible_range(&w.rf);
    let mut s = build_gather_world(w, cfg);
    let mut at: Vec<Position> = w.nodes.iter().map(|n| n.0).collect();
    // Frames on the air, ascending: sender and where it stood at start.
    let mut on_air: BTreeMap<FrameId, (usize, Position)> = BTreeMap::new();
    let mut locked: Vec<Option<FrameId>> = vec![None; at.len()];
    let mut scanning: Vec<Option<SimTime>> = vec![None; at.len()];
    let mut moves = w.moves.iter().peekable();
    while s.now() < GATHER_RUN && s.step() {
        on_air.retain(|&f, &mut (i, _)| {
            matches!(s.radio(NodeId(i)).state(), RadioState::Tx { frame, .. } if *frame == f)
        });
        for (i, origin) in at.iter().enumerate() {
            if let RadioState::Tx { frame, .. } = s.radio(NodeId(i)).state() {
                on_air.entry(*frame).or_insert((i, *origin));
            }
        }
        for j in 0..at.len() {
            let RadioState::Cad { until, busy_seen } = *s.radio(NodeId(j)).state() else {
                scanning[j] = None;
                continue;
            };
            if scanning[j].replace(until) == Some(until) {
                continue;
            }
            let busy = on_air.values().any(|&(i, origin)| {
                i != j
                    && medium.audible(medium.received_power(&origin, &at[j], NodeId(i), NodeId(j)))
            });
            prop_assert!(
                busy_seen == busy,
                "node {j} began a scan at {:?} reading busy={busy_seen}, the air says {busy}",
                s.now()
            );
            bump(
                if busy {
                    &tally.busy_scans
                } else {
                    &tally.idle_scans
                },
                1,
            );
        }
        for j in 0..at.len() {
            let RadioState::Rx { frame, .. } = *s.radio(NodeId(j)).state() else {
                locked[j] = None;
                continue;
            };
            if locked[j].replace(frame) == Some(frame) {
                continue;
            }
            let rec = s.radio(NodeId(j)).reception.as_ref().expect("Rx state");
            let lock_origin = on_air[&frame].1;
            let mut expected = Reception::new(frame, rec.sender, rec.quality, 0.0, vec![]);
            for (&f, &(i, origin)) in &on_air {
                let power = medium.received_power(&origin, &at[j], NodeId(i), NodeId(j));
                if f != frame && i != j && medium.audible(power) {
                    expected.add_interferer(f, power.to_milliwatts().value());
                    bump(
                        &tally.tight,
                        u64::from(beyond_range(1.9 * r, origin, lock_origin)),
                    );
                    bump(&tally.moved, u64::from(origin != at[i]));
                }
            }
            prop_assert_eq!(
                power_bits(&rec.interferers),
                power_bits(&expected.interferers)
            );
            prop_assert_eq!(
                rec.peak_interference_mw.to_bits(),
                expected.peak_interference_mw.to_bits()
            );
            bump(&tally.locks, 1);
            bump(&tally.seeded, expected.interferers.len() as u64);
        }
        while let Some(&&(_, i, to)) = moves.peek().filter(|m| m.0 <= s.now()) {
            s.set_position(NodeId(i), to);
            at[i] = to;
            moves.next();
        }
    }
    Ok(())
}

/// Every reception as it stands at each pause of a run, with the final
/// trace and metrics: what two engines must agree on.
fn receptions_at_pauses(w: &GatherWorld, cfg: SimConfig) -> (Vec<String>, u64) {
    let mut s = build_gather_world(
        w,
        SimConfig {
            trace_capacity: 1 << 16,
            ..cfg
        },
    );
    let mut seen = Vec::new();
    let mut moves = w.moves.iter().peekable();
    let mut until = Duration::ZERO;
    while until < GATHER_RUN {
        // Longer than a lookahead window, so band workers stage, end
        // and lock inside one window.
        until += Duration::from_millis(25);
        s.run_until(until);
        while let Some(&&(_, i, to)) = moves.peek().filter(|m| m.0 <= until) {
            s.set_position(NodeId(i), to);
            moves.next();
        }
        for j in 0..s.node_count() {
            if let Some(rec) = &s.radio(NodeId(j)).reception {
                seen.push(format!(
                    "{until:?} node {j}: {:?} {:?} peak {:x} corrupted {}",
                    rec.frame,
                    power_bits(&rec.interferers),
                    rec.peak_interference_mw.to_bits(),
                    rec.corrupted
                ));
            }
        }
    }
    let mut metrics = s.metrics().clone();
    metrics.stale_timers_dropped = 0;
    seen.push(format!("{metrics:?}"));
    seen.extend(s.trace().entries().map(|e| format!("{e:?}")));
    (seen, s.commit_batches())
}

#[test]
fn gather_then_filter_seeds_what_a_scan_of_every_frame_seeds() {
    let tally = GatherTally::default();
    forall(
        "gather_then_filter_seeds_what_a_scan_of_every_frame_seeds",
        gen_gather_world,
        |w| {
            for shards in [1, 4] {
                let cfg = SimConfig {
                    shards,
                    ..SimConfig::default()
                };
                check_locks_against_full_scan(w, cfg, &tally)
                    .map_err(|e| format!("shards={shards}: {e}"))?;
            }
            let cfg = |shards, threads| SimConfig {
                shards,
                threads,
                commit_batch_min_events: 1,
                ..SimConfig::default()
            };
            let (reference, _) = receptions_at_pauses(w, cfg(1, 1));
            let (workers, batches) = receptions_at_pauses(w, cfg(4, 2));
            bump(&tally.batches, batches);
            prop_assert!(
                workers == reference,
                "band workers left a reception the single queue did not"
            );
            Ok(())
        },
    );
    assert!(tally.locks.get() > 0, "no lock was checked");
    assert!(tally.seeded.get() > 0, "no lock seeded an interferer");
    assert!(tally.tight.get() > 0, "no interferer near 2·r_max away");
    assert!(tally.moved.get() > 0, "no interferer with a moved sender");
    assert!(tally.batches.get() > 0, "no parallel batch committed");
    assert!(
        tally.busy_scans.get() > 0,
        "no scan began on a busy channel"
    );
    assert!(
        tally.idle_scans.get() > 0,
        "no scan began on an idle channel"
    );
}
