//! Parallel batch commit: per-band worker execution of lookahead batches.
//!
//! The sharded run loop drains one band's queue per lookahead window on
//! the coordinator. This module promotes that window to a unit of
//! *parallel* work: several zone-disjoint bands commit their entire
//! batches concurrently — firmware dispatch, radio state machines,
//! medium bookkeeping and all — and the coordinator then replays their
//! buffered side effects in the global `(time, seq)` order, so every
//! observable output (traces, metrics, RNG draws, queue contents,
//! `events_processed`) is byte-identical to the sequential engine.
//!
//! # The planner
//!
//! A batch window is `[t0, H)` where `H = min(t0 + lookahead,
//! coordinator head, until + 1ns)`. Every band with homed nodes gets a
//! *span*: the x-interval within `r_max` of its extent (the interval
//! spanned by its homed nodes' current positions and the origins of
//! in-flight transmissions by its homed senders — everything a batch
//! over that band can touch). Bands whose spans overlap are merged into
//! *groups*; group spans are pairwise disjoint in metres by
//! construction, which is the actual physical isolation criterion —
//! band *indices* routinely collide (two far-apart clusters both reach
//! into the one empty band between them) while their metre spans stay
//! a hundred kilometres apart. A group is runnable when one of its
//! member queues has a head before `H`; if more groups are runnable
//! than workers, the earliest-headed ones run and `H` shrinks to the
//! first excluded head, so the batch still consumes *exactly* the set
//! of events before `H` — a contiguous prefix of the global order.
//! Within a window, cross-band effects are impossible by the lookahead
//! argument (see [`crate::shard`]), and span disjointness makes each
//! worker's writes — radios, RNG streams, link rows — touch only nodes
//! it owns (ownership is by current position: the group whose span
//! contains the node's x-coordinate). The medium's in-flight registry
//! is *frozen* during the window: workers read it (minus the frames
//! they ended, plus their own staged overlay — remote groups' in-window
//! frames would be filtered by the distance bound anyway) and the merge
//! walk performs every begin and end in global order, exactly like the
//! sequential engine.
//!
//! # Determinism
//!
//! * **Sequence numbers.** Workers never touch the coordinator's seq
//!   counter. A worker records each event it creates with a *local*
//!   index; the merge walk allocates real seqs from
//!   [`EventQueue::alloc_seq`] in global replay order, which is exactly
//!   the order the sequential engine would have allocated them.
//! * **Frame ids.** A worker registers transmissions under provisional
//!   ids (bit 63 set, worker index + local counter below). The merge
//!   walk calls [`Medium::begin_tx`] in global order, so real ids come
//!   out identical to the sequential run; provisional ids in radios,
//!   traces and flushed events are then rewritten. Provisional
//!   ids sort above all real ids and ascend per worker, so every
//!   ordered structure stays ordered across the rewrite and interferer
//!   float sums are bit-identical.
//! * **RNG.** Parallel commit requires [`super::SimConfig::rng_streams`]
//!   (enforced at [`Simulator::start`]): per-node generators are
//!   pre-minted, each worker gets `&mut` access to exactly its owned
//!   nodes' streams, and draw order per stream is band-local.
//! * **Timers.** A worker owns its band's queue, so generation
//!   tombstoning works unchanged; in-window timers live in a local
//!   `(at, local idx)` min-heap, which replays the same order the
//!   queue would have (pre-window seqs all precede in-window ones).
//!
//! The closure run by [`par::commit_bands`] is a meshlint `p1` commit
//! region: it must not reach coordinator-only state (the global seq
//! counter, the live trace writer, the shared `Medium` registry's
//! mutable half).

use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Duration;

use lora_phy::modulation::LoRaModulation;
use lora_phy::propagation::Position;

use super::{audible_mw, Lock, NodeSlot, NodeState, Simulator, GATHER_REACH};
use crate::event::{EventQueue, FrameId, SimEvent};
use crate::firmware::{Context, Firmware, NodeId, RadioCommand};
use crate::grid::Grid;
use crate::link_cache::{Link, LinkCache, LinkRow};
use crate::medium::{Medium, RxOutcome};
use crate::metrics::Metrics;
use crate::par;
use crate::radio::{RadioState, Reception};
use crate::rng::SimRng;
use crate::shard::{beyond_range, Partitioner};
use crate::time::SimTime;
use crate::trace::TraceEvent;

/// Provisional frame ids set bit 63 — above every real id the medium
/// will ever allocate, so a worker's view of the frames on the air (the
/// registry, then its staged overlay) ascends by id like the registry.
const PROVISIONAL: u64 = 1 << 63;
/// Bits 40..63 carry the worker index, bits 0..40 the staging counter.
const WORKER_SHIFT: u32 = 40;
const COUNTER_MASK: u64 = (1 << WORKER_SHIFT) - 1;

/// No owner: the node's band is outside every accepted zone this batch.
const NO_OWNER: u8 = u8::MAX;

/// Where a buffered record's sequence number comes from.
#[derive(Clone, Copy, Debug)]
enum SeqSrc {
    /// A pre-batch event popped from the band queue: its real seq.
    Real(u64),
    /// An in-window creation: the worker-local creation index, resolved
    /// to a real seq by the merge walk.
    Local(u32),
}

/// One dispatched event and the counts of side-channel entries it
/// appended (consumed in order by the merge walk).
#[derive(Clone, Copy, Debug)]
struct Rec {
    at: SimTime,
    src: SeqSrc,
    trace_n: u32,
    creat_n: u32,
    staged_n: u32,
    ended_n: u32,
}

/// An event created in-window, flushed to its home queue after the
/// batch unless consumed in-window (`consumed` flag in the scratch).
#[derive(Clone, Debug)]
struct Creation {
    at: SimTime,
    node: u32,
    ev: SimEvent,
}

/// A transmission begun in-window under a provisional id; the merge
/// walk performs the real [`Medium::begin_tx`] in global order.
#[derive(Clone, Debug)]
struct Staged {
    sender: NodeId,
    origin: Position,
    start: SimTime,
    payload: Arc<[u8]>,
}

/// An in-window creation that may fire within the same window: ordered
/// by `(at, local idx)`, which equals `(time, seq)` order because
/// in-window seqs are allocated in creation order and all exceed every
/// pre-batch seq.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Pending {
    at: SimTime,
    k: u32,
    ev: SimEvent,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.at.cmp(&self.at).then_with(|| other.k.cmp(&self.k))
    }
}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-worker buffers, pooled in [`CommitScratch`] and reused batch to
/// batch. Firmware-free so the pool lives in the non-generic
/// [`super::ShardState`].
#[derive(Debug, Default)]
pub(super) struct WorkerScratch {
    records: Vec<Rec>,
    trace: Vec<(SimTime, TraceEvent)>,
    creations: Vec<Creation>,
    consumed: Vec<bool>,
    staged: Vec<Staged>,
    ended: Vec<FrameId>,
    rows: Vec<(usize, LinkRow)>,
    metrics: Metrics,
    events: u64,
    pending: BinaryHeap<Pending>,
    commands: Vec<RadioCommand>,
    fanout: Vec<(usize, Link)>,
    roster: Vec<(FrameId, NodeId, Position)>,
}

impl WorkerScratch {
    fn reset(&mut self) {
        self.records.clear();
        self.trace.clear();
        self.creations.clear();
        self.consumed.clear();
        self.staged.clear();
        self.ended.clear();
        self.rows.clear();
        self.metrics = Metrics::new();
        self.events = 0;
        self.pending.clear();
        self.fanout.clear();
        self.roster.clear();
    }
}

/// A *band group*: the unit one worker commits. Bands whose spans
/// overlap in metres are merged into one group (a dense cluster split
/// across several narrow bands is the common case), so group spans are
/// pairwise disjoint by construction and same-instant heads inside a
/// cluster never force the horizon shut.
#[derive(Clone, Copy, Debug)]
struct Group {
    /// Member bands: `members[mstart..mend]`. All of the group's bands,
    /// whether or not their queues have work this window — a worker may
    /// cancel or schedule timers on any member queue.
    mstart: usize,
    mend: usize,
    /// Inclusive span in metres the group's batch may touch.
    zlo: f64,
    zhi: f64,
    /// Earliest member head before the horizon — the group's place in
    /// the global order; `None` when no member has due work.
    head: Option<(SimTime, u64)>,
}

/// Planner + merge scratch, pooled in [`super::ShardState`].
#[derive(Debug, Default)]
pub(super) struct CommitScratch {
    workers: Vec<WorkerScratch>,
    /// Per band: x-extent of homed nodes and in-flight homed origins.
    extent: Vec<(f64, f64)>,
    /// Band → queue-head key when due before the horizon.
    heads: Vec<Option<(SimTime, u64)>>,
    /// Band spans `(lo_m, hi_m, band)`, sorted so overlapping spans are
    /// adjacent.
    zorder: Vec<(f64, f64, usize)>,
    /// Accepted band groups, sorted by span for ownership lookup.
    groups: Vec<Group>,
    /// Flat member-band storage the groups index into.
    members: Vec<usize>,
    /// Node → owning worker by current position (`NO_OWNER` if none).
    owner: Vec<u8>,
    /// Node → index into its owner's owned-slot list.
    oslot: Vec<u32>,
    /// Per worker: local creation index → real seq (merge walk).
    seq_maps: Vec<Vec<u64>>,
    /// Per worker: staging counter → real frame id (merge walk).
    frame_maps: Vec<Vec<FrameId>>,
}

/// The state every band worker reads *shared* during a batch. All of it
/// is immutable while workers run: positions, liveness, the medium's
/// in-flight registry, the link cache and the grid only change on
/// coordinator events, which are never inside a window.
struct Shared<'a> {
    medium: &'a Medium,
    cache: &'a LinkCache,
    grid: &'a Grid,
    state: &'a [NodeState],
    link_loss: &'a std::collections::BTreeMap<(usize, usize), f64>,
    parts: &'a Partitioner,
    home: &'a [usize],
    owner: &'a [u8],
    oslot: &'a [u32],
    /// The exclusive batch horizon `H`.
    limit: SimTime,
    preamble: Duration,
    cad_duration: Duration,
}

/// One band group's executor: drains its member queues (plus in-window
/// creations) up to the horizon with a k-way `(time, seq)` merge,
/// buffering every side effect for the coordinator's merge walk.
struct BandWorker<'a, F: Firmware> {
    /// This worker's index (provisional-id namespace).
    w: u32,
    /// The group's member band queues, `(band, queue)`.
    queues: Vec<(usize, &'a mut EventQueue)>,
    owned_slots: Vec<&'a mut NodeSlot<F>>,
    owned_rngs: Vec<&'a mut SimRng>,
    scratch: &'a mut WorkerScratch,
    ctx: &'a Shared<'a>,
    now: SimTime,
}

impl<F: Firmware> BandWorker<'_, F> {
    fn slot(&mut self, i: usize) -> &mut NodeSlot<F> {
        debug_assert_eq!(u32::from(self.ctx.owner[i]), self.w, "node {i} not owned");
        self.owned_slots[self.ctx.oslot[i] as usize]
    }

    fn rng(&mut self, i: usize) -> &mut SimRng {
        debug_assert_eq!(u32::from(self.ctx.owner[i]), self.w, "node {i} not owned");
        self.owned_rngs[self.ctx.oslot[i] as usize]
    }

    /// The member queue owning `band` (every dispatch target and every
    /// in-window creation is homed in a member band).
    fn queue_for(&mut self, band: usize) -> &mut EventQueue {
        let qi = self
            .queues
            .iter()
            .position(|&(b, _)| b == band)
            .expect("home band not in this worker's group");
        self.queues[qi].1
    }

    /// Drains the group up to the horizon: pre-batch events k-way
    /// merged across member queues by `(time, seq)`, interleaved with
    /// in-window creations by `(time, creation idx)` — real before
    /// local at equal times, because every pre-batch seq precedes every
    /// in-window one.
    fn drain(&mut self) {
        loop {
            let mut qk: Option<(SimTime, u64, usize)> = None;
            for (qi, (_, q)) in self.queues.iter_mut().enumerate() {
                if let Some((at, seq)) = q.peek_key() {
                    if qk.is_none_or(|(bt, bs, _)| (at, seq) < (bt, bs)) {
                        qk = Some((at, seq, qi));
                    }
                }
            }
            let pk = self.scratch.pending.peek().map(|p| (p.at, p.k));
            let take_q = match (qk, pk) {
                (Some((qt, _, _)), Some((pt, _))) => qt <= pt,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_q {
                let (at, seq, qi) = qk.expect("matched Some");
                if at >= self.ctx.limit {
                    break;
                }
                let (at, ev) = self.queues[qi].1.pop().expect("peeked");
                self.dispatch_w(at, SeqSrc::Real(seq), ev);
            } else {
                let (at, _) = pk.expect("matched Some");
                if at >= self.ctx.limit {
                    break;
                }
                let p = self.scratch.pending.pop().expect("peeked");
                self.scratch.consumed[p.k as usize] = true;
                if let SimEvent::Timer(node, gen) = p.ev {
                    // Tombstoned while pending (reschedule or cancel):
                    // the queue would have dropped it the same way.
                    if gen != self.queue_for(self.ctx.home[node.0]).timer_generation(node) {
                        continue;
                    }
                }
                self.dispatch_w(p.at, SeqSrc::Local(p.k), p.ev);
            }
        }
    }

    /// Advances the local clock and handles one event, recording the
    /// side-channel deltas it produced.
    fn dispatch_w(&mut self, at: SimTime, src: SeqSrc, event: SimEvent) {
        debug_assert!(at >= self.now, "time went backwards in batch");
        self.now = at;
        self.scratch.events += 1;
        let t0 = self.scratch.trace.len();
        let c0 = self.scratch.creations.len();
        let s0 = self.scratch.staged.len();
        let e0 = self.scratch.ended.len();
        match event {
            SimEvent::Timer(node, _) => self.handle_timer_w(node),
            SimEvent::TxEnd(node, frame) => self.handle_tx_end_w(node, frame),
            SimEvent::RxEnd(node, frame) => self.handle_rx_end_w(node, frame),
            SimEvent::CadEnd(node) => self.handle_cad_end_w(node),
            SimEvent::CadBusyReport(node) => {
                if self.ctx.state[node.0].alive {
                    self.scratch.metrics.record_cad(node, true);
                    self.fire_w(node.0, |fw, ctx| fw.on_cad_done(true, ctx));
                }
            }
            // Externally injected events live on the coordinator queue
            // and are never handed to a band worker.
            SimEvent::App(..) | SimEvent::Kill(_) | SimEvent::Revive(_) => {
                unreachable!("coordinator event in a band batch")
            }
            SimEvent::MobilityTick => unreachable!("coordinator event in a band batch"),
        }
        let rec = Rec {
            at,
            src,
            trace_n: (self.scratch.trace.len() - t0) as u32,
            creat_n: (self.scratch.creations.len() - c0) as u32,
            staged_n: (self.scratch.staged.len() - s0) as u32,
            ended_n: (self.scratch.ended.len() - e0) as u32,
        };
        self.scratch.records.push(rec);
    }

    /// Buffers an event creation; events due inside the window also go
    /// to the local pending heap (they are always group-local: the only
    /// sub-lookahead creations are a node's own timers and CAD endings).
    fn create(&mut self, at: SimTime, node: usize, ev: SimEvent) {
        let k = self.scratch.creations.len() as u32;
        let in_window = at < self.ctx.limit;
        if in_window {
            debug_assert!(
                self.queues.iter().any(|&(b, _)| b == self.ctx.home[node]),
                "in-window creation must stay on the worker's own queues"
            );
            self.scratch.pending.push(Pending {
                at,
                k,
                ev: ev.clone(),
            });
        }
        self.scratch.creations.push(Creation {
            at,
            node: node as u32,
            ev,
        });
        self.scratch.consumed.push(false);
    }

    /// [`Simulator::fire`], worker edition: runs a firmware callback on
    /// an owned node and processes its commands.
    fn fire_w<R>(&mut self, i: usize, f: impl FnOnce(&mut F, &mut Context) -> R) -> R {
        let now = self.now;
        let buffer = std::mem::take(&mut self.scratch.commands);
        let slot = self.slot(i);
        let mut ctx = Context::with_buffer(now.as_duration(), buffer);
        let result = f(&mut slot.firmware, &mut ctx);
        let mut commands = ctx.take_requests();
        for cmd in commands.drain(..) {
            match cmd {
                RadioCommand::Transmit(bytes) => self.start_tx_w(i, bytes),
                RadioCommand::StartCad => self.start_cad_w(i),
            }
        }
        self.scratch.commands = commands;
        self.sync_wake_w(i);
        result
    }

    /// [`Simulator::sync_wake`], worker edition. The node's home-band
    /// queue (a group member) owns its generation table, so tombstoning
    /// works unchanged: cancel-then-stamp here equals the sequential
    /// `schedule_timer_seq` (one bump, fresh stamp), with the enqueue
    /// deferred to the flush (or the pending heap when due in-window).
    fn sync_wake_w(&mut self, i: usize) {
        if !self.ctx.state[i].alive {
            return;
        }
        let now = self.now;
        let home = self.ctx.home[i];
        let slot = self.slot(i);
        let wake = slot.firmware.next_wake().map(SimTime::from);
        if let Some(t) = wake {
            if slot.scheduled_wake != Some(t) {
                slot.scheduled_wake = Some(t);
                let at = t.max(now);
                let node = NodeId(i);
                let q = self.queue_for(home);
                q.cancel_timer(node);
                let gen = q.timer_generation(node);
                self.create(at, i, SimEvent::Timer(node, gen));
            }
        } else {
            if self.slot(i).scheduled_wake.is_some() {
                self.queue_for(home).cancel_timer(NodeId(i));
            }
            self.slot(i).scheduled_wake = None;
        }
    }

    fn handle_timer_w(&mut self, node: NodeId) {
        if !self.ctx.state[node.0].alive {
            return;
        }
        let now = self.now;
        debug_assert!(
            self.slot(node.0)
                .firmware
                .next_wake()
                .is_some_and(|t| SimTime::from(t) <= now),
            "live timer fired before its firmware wake time"
        );
        self.slot(node.0).scheduled_wake = None;
        self.fire_w(node.0, |fw, ctx| fw.on_timer(ctx));
    }

    /// When `frame` went on the air, or `None` if it no longer is — the
    /// worker view of `medium.get(..)`: frames staged this window
    /// (which all outlive it) are on the air, frames this worker ended
    /// this window are not, and the frozen registry answers for the
    /// rest (an in-window end by *another* worker is more than `r_max`
    /// away and in no reception here).
    fn on_air_since(&self, frame: FrameId) -> Option<SimTime> {
        if frame.0 & PROVISIONAL != 0 {
            debug_assert_eq!((frame.0 >> WORKER_SHIFT) & 0x7F_FFFF, u64::from(self.w));
            return Some(self.scratch.staged[(frame.0 & COUNTER_MASK) as usize].start);
        }
        if self.scratch.ended.contains(&frame) {
            return None;
        }
        self.ctx.medium.get(frame).map(|tx| tx.start)
    }

    /// Node `i`'s link row: from the shared cache when it was valid
    /// before the batch, else from this worker's overlay, filled on
    /// first use. A row is a pure function of the positions
    /// ([`LinkRow::fill`]), which are frozen during the window, so an
    /// overlay row is the value the sequential lazy fill would produce.
    fn row_w(&mut self, i: usize) -> &LinkRow {
        let ctx = self.ctx;
        if let Some(row) = ctx.cache.cached(i) {
            return row;
        }
        let rows = &mut self.scratch.rows;
        let k = rows.iter().position(|&(k, _)| k == i).unwrap_or_else(|| {
            let mut row = LinkRow::default();
            let (state, grid) = (ctx.state, Some(ctx.grid));
            let at = |k: usize| state[k].position;
            row.fill(i, state.len(), at, ctx.medium, grid, ctx.parts.r_max());
            rows.push((i, row));
            rows.len() - 1
        });
        &rows[k].1
    }

    /// [`Simulator::active_tx_mw`], worker edition.
    fn active_tx_mw_w(&mut self, sender: usize, origin: Position, rx: usize) -> Option<f64> {
        if self.ctx.state[sender].position == origin {
            self.row_w(sender).heard(rx).map(|n| n.power_mw)
        } else {
            audible_mw(
                self.ctx.medium,
                origin,
                self.ctx.state[rx].position,
                sender,
                rx,
            )
        }
    }

    /// Provisional id of this worker's `k`-th staged transmission.
    fn staged_id(&self, k: usize) -> FrameId {
        FrameId(PROVISIONAL | (u64::from(self.w) << WORKER_SHIFT) | k as u64)
    }

    /// [`Simulator::in_flight_near`], worker edition. The medium's
    /// registry is frozen for the whole window (the merge walk performs
    /// every begin and end in global order afterwards), so the frozen
    /// registry minus this worker's in-window ends, plus its own staged
    /// overlay, yields the same audible set in the same scan order as
    /// the live registry: remote groups' in-window frames (and their
    /// ended pre-window frames) all originate more than `r_max` away,
    /// so the audibility filter drops them either way, and this
    /// worker's own additions ascend in creation order — exactly their
    /// merged frame-id order.
    fn in_flight_near_w(
        &self,
        at: Position,
        range: f64,
        mut visit: impl FnMut(FrameId, NodeId, Position),
    ) {
        for tx in self.ctx.medium.active() {
            if !beyond_range(range, tx.origin, at) && !self.scratch.ended.contains(&tx.frame) {
                visit(tx.frame, tx.sender, tx.origin);
            }
        }
        for (k, st) in self.scratch.staged.iter().enumerate() {
            if !beyond_range(range, st.origin, at) {
                visit(self.staged_id(k), st.sender, st.origin);
            }
        }
    }

    /// [`Simulator::channel_busy`], worker edition.
    fn channel_busy_w(&mut self, i: usize) -> bool {
        let mut roster = std::mem::take(&mut self.scratch.roster);
        roster.clear();
        let (at, range) = (self.ctx.state[i].position, self.ctx.parts.r_max());
        self.in_flight_near_w(at, range, |f, s, origin| {
            if s.0 != i {
                roster.push((f, s, origin));
            }
        });
        let busy = roster
            .iter()
            .any(|&(_, s, origin)| self.active_tx_mw_w(s.0, origin, i).is_some());
        self.scratch.roster = roster;
        busy
    }

    /// [`Simulator::start_tx`], worker edition: the transmission is
    /// staged under a provisional frame id; the merge walk performs the
    /// real registration in global order.
    fn start_tx_w(&mut self, i: usize, bytes: Arc<[u8]>) {
        if bytes.len() > LoRaModulation::MAX_PHY_PAYLOAD {
            self.scratch.metrics.tx_oversized += 1;
            return;
        }
        if !self.ctx.state[i].alive {
            self.scratch.metrics.tx_while_dead += 1;
            return;
        }
        let now = self.now;
        match *self.slot(i).radio.state() {
            RadioState::Idle => {}
            RadioState::Rx { .. } => {
                self.scratch.metrics.rx_aborted_by_tx += 1;
                self.slot(i).radio.to_idle(now);
            }
            RadioState::Tx { .. } | RadioState::Cad { .. } | RadioState::Off => {
                self.scratch.metrics.tx_while_busy += 1;
                return;
            }
        }
        let sender = NodeId(i);
        let origin = self.ctx.state[i].position;
        let len = bytes.len();
        let airtime = self.ctx.medium.airtime(len);
        let frame = self.staged_id(self.scratch.staged.len());
        let end = now + airtime;
        self.scratch.staged.push(Staged {
            sender,
            origin,
            start: now,
            payload: bytes.clone(),
        });
        let lock = Lock {
            frame,
            sender,
            payload: &bytes,
            end,
        };
        self.slot(i).radio.begin_tx(now, frame, end);
        // airtime ≥ preamble = lookahead, so the TxEnd always lands at
        // or beyond the horizon: a creation, never a pending event.
        debug_assert!(end >= self.ctx.limit);
        self.create(end, i, SimEvent::TxEnd(sender, frame));
        // Registration happens in the merge walk (the registry is
        // frozen); until then the staged overlay stands in for it.
        self.scratch.metrics.record_tx(sender, airtime);
        self.scratch.trace.push((
            now,
            TraceEvent::TxStart {
                node: sender,
                frame,
                len,
            },
        ));

        // Fan-out, audible receivers only, which keeps the worker's
        // writes inside its zone: audible ⇒ within r_max of the origin
        // ⇒ owned.
        let mut fanout = std::mem::take(&mut self.scratch.fanout);
        fanout.clear();
        let row = self.row_w(i);
        fanout.extend(row.audible.iter().map(|n| (n.node as usize, n.link())));
        let mut near = std::mem::take(&mut self.scratch.roster);
        near.clear();
        let reach = GATHER_REACH * self.ctx.parts.r_max();
        self.in_flight_near_w(origin, reach, |f, s, at| {
            if f != frame {
                near.push((f, s, at));
            }
        });
        for &(j, link) in &fanout {
            if j == i || !self.ctx.state[j].alive {
                continue;
            }
            let receiver = NodeId(j);
            match *self.slot(j).radio.state() {
                RadioState::Idle => {
                    if link.audible {
                        self.lock_receiver_w(j, &lock, link, &near);
                    }
                }
                RadioState::Rx { frame: current, .. } => {
                    let steal = link.audible && {
                        let capture = self.ctx.medium.capture_ratio_linear();
                        let in_preamble = self
                            .on_air_since(current)
                            .is_some_and(|start| now.since(start) < self.ctx.preamble);
                        let mut rec = self
                            .slot(j)
                            .radio
                            .reception
                            .take()
                            .expect("Rx state implies a reception");
                        rec.prune_interferers(|f| self.on_air_since(f).is_some());
                        debug_assert!(
                            rec.interferers.iter().all(|&(f, _)| f.0 & PROVISIONAL != 0
                                || !self.scratch.ended.contains(&f)
                                    && self.ctx.medium.active().any(|tx| tx.frame == f)),
                            "an ended frame survived the prune at node {j}"
                        );
                        rec.add_interferer(frame, link.power_mw);
                        let stronger = link.power_mw >= rec.signal_mw * capture;
                        self.slot(j).radio.reception = Some(rec);
                        stronger && in_preamble
                    };
                    if steal {
                        self.scratch
                            .metrics
                            .record_loss(receiver, crate::medium::LossReason::Truncated);
                        self.scratch.trace.push((
                            now,
                            TraceEvent::Lost {
                                node: receiver,
                                frame: current,
                                reason: crate::medium::LossReason::Truncated,
                            },
                        ));
                        self.lock_receiver_w(j, &lock, link, &near);
                    }
                }
                RadioState::Cad { .. } => {
                    if link.audible {
                        self.slot(j).radio.note_cad_activity();
                    }
                }
                RadioState::Tx { .. } | RadioState::Off => {}
            }
        }
        self.scratch.fanout = fanout;
        self.scratch.roster = near;
    }

    /// [`Simulator::lock_receiver`], worker edition.
    fn lock_receiver_w(
        &mut self,
        j: usize,
        lock: &Lock,
        link: Link,
        near: &[(FrameId, NodeId, Position)],
    ) {
        let receiver = NodeId(j);
        let mut reception = Reception::new(
            lock.frame,
            lock.sender,
            self.ctx.medium.quality(link.power),
            link.power_mw,
            lock.payload.clone(),
        );
        let (at, range) = (self.ctx.state[j].position, self.ctx.parts.r_max());
        for &(f, s, origin) in near {
            if s != receiver && !beyond_range(range, origin, at) {
                if let Some(p) = self.active_tx_mw_w(s.0, origin, j) {
                    reception.add_interferer(f, p);
                }
            }
        }
        debug_assert!(
            self.seeded_like_ungated_scan_w(j, &reception),
            "range gate or link cache changed node {j}'s interferer set"
        );
        let now = self.now;
        self.slot(j).radio.begin_rx(now, reception, lock.end);
        debug_assert!(lock.end >= self.ctx.limit);
        self.create(lock.end, j, SimEvent::RxEnd(receiver, lock.frame));
    }

    /// [`Simulator::seeded_like_ungated_scan`], worker edition.
    fn seeded_like_ungated_scan_w(&self, j: usize, reception: &Reception) -> bool {
        let (receiver, at) = (NodeId(j), self.ctx.state[j].position);
        let medium = self.ctx.medium;
        let mut seeded = reception.interferers.iter().map(|&(f, _)| f);
        let mut same = true;
        self.in_flight_near_w(at, f64::INFINITY, |f, s, origin| {
            if f != reception.frame
                && s != receiver
                && medium.audible(medium.received_power(&origin, &at, s, receiver))
            {
                same &= seeded.next() == Some(f);
            }
        });
        same && seeded.next().is_none()
    }

    /// [`Simulator::handle_tx_end`], worker edition: the removal from
    /// the medium is deferred to the merge walk (the registry is
    /// shared-read during the batch — the `ended` list makes this
    /// worker's own readers, interferer pruning included, skip the
    /// frame meanwhile).
    fn handle_tx_end_w(&mut self, node: NodeId, frame: FrameId) {
        // In-window TxEnds are always pre-batch frames (a staged frame's
        // end lands beyond the horizon), so a missing registry entry
        // means the sender was killed mid-frame before the window.
        debug_assert_eq!(frame.0 & PROVISIONAL, 0);
        if self.on_air_since(frame).is_none() {
            return;
        }
        self.scratch.ended.push(frame);
        let now = self.now;
        self.scratch
            .trace
            .push((now, TraceEvent::TxEnd { node, frame }));
        if self.ctx.state[node.0].alive
            && matches!(self.slot(node.0).radio.state(), RadioState::Tx { frame: f, .. } if *f == frame)
        {
            self.slot(node.0).radio.to_idle(now);
            self.fire_w(node.0, |fw, ctx| fw.on_tx_done(ctx));
        }
    }

    /// [`Simulator::handle_rx_end`], worker edition. In-window RxEnds
    /// lock pre-batch frames only (an in-window lock ends beyond the
    /// horizon), so the reception's ids are all real.
    fn handle_rx_end_w(&mut self, node: NodeId, frame: FrameId) {
        if !self.ctx.state[node.0].alive
            || !matches!(self.slot(node.0).radio.state(), RadioState::Rx { frame: f, .. } if *f == frame)
        {
            return; // stale: the lock moved on
        }
        let reception = self
            .slot(node.0)
            .radio
            .reception
            .take()
            .expect("Rx state implies a reception");
        let now = self.now;
        self.slot(node.0).radio.to_idle(now);
        let ctx = self.ctx;
        let mut outcome = ctx.medium.judge(&reception, self.rng(node.0));
        if matches!(outcome, RxOutcome::Delivered(_)) {
            let key = (
                reception.sender.0.min(node.0),
                reception.sender.0.max(node.0),
            );
            if let Some(&p) = ctx.link_loss.get(&key) {
                if self.rng(node.0).gen_bool(p) {
                    outcome = RxOutcome::Lost(crate::medium::LossReason::Injected);
                }
            }
        }
        match outcome {
            RxOutcome::Delivered(quality) => {
                self.scratch.metrics.record_delivery(node);
                self.scratch
                    .trace
                    .push((now, TraceEvent::Delivered { node, frame }));
                let payload = reception.payload;
                self.fire_w(node.0, |fw, ctx| fw.on_frame(&payload, quality, ctx));
            }
            RxOutcome::Lost(reason) => {
                self.scratch.metrics.record_loss(node, reason);
                self.scratch.trace.push((
                    now,
                    TraceEvent::Lost {
                        node,
                        frame,
                        reason,
                    },
                ));
            }
        }
    }

    /// [`Simulator::start_cad`], worker edition.
    fn start_cad_w(&mut self, i: usize) {
        if !self.ctx.state[i].alive {
            return;
        }
        let now = self.now;
        let duration = self.ctx.cad_duration;
        if !self.slot(i).radio.is_idle() {
            let at = now + duration;
            self.create(at, i, SimEvent::CadBusyReport(NodeId(i)));
            return;
        }
        let node = NodeId(i);
        let busy_now = self.channel_busy_w(i);
        let until = now + duration;
        self.slot(i).radio.begin_cad(now, until, busy_now);
        self.create(until, i, SimEvent::CadEnd(node));
    }

    /// [`Simulator::handle_cad_end`], worker edition.
    fn handle_cad_end_w(&mut self, node: NodeId) {
        if !self.ctx.state[node.0].alive {
            return;
        }
        let now = self.now;
        let RadioState::Cad { until, busy_seen } = *self.slot(node.0).radio.state() else {
            return; // stale (killed+revived mid-scan)
        };
        if until != now {
            return;
        }
        let busy = busy_seen || self.channel_busy_w(node.0);
        self.slot(node.0).radio.to_idle(now);
        self.scratch.metrics.record_cad(node, busy);
        self.fire_w(node.0, |fw, ctx| fw.on_cad_done(busy, ctx));
    }
}

/// Resolves a possibly provisional frame id through the per-worker maps
/// filled by the merge walk.
fn resolve(frame_maps: &[Vec<FrameId>], f: FrameId) -> FrameId {
    if f.0 & PROVISIONAL == 0 {
        return f;
    }
    let w = ((f.0 >> WORKER_SHIFT) & 0x7F_FFFF) as usize;
    frame_maps[w][(f.0 & COUNTER_MASK) as usize]
}

fn remap_trace(frame_maps: &[Vec<FrameId>], ev: TraceEvent) -> TraceEvent {
    match ev {
        TraceEvent::TxStart { node, frame, len } => TraceEvent::TxStart {
            node,
            frame: resolve(frame_maps, frame),
            len,
        },
        TraceEvent::TxEnd { node, frame } => TraceEvent::TxEnd {
            node,
            frame: resolve(frame_maps, frame),
        },
        TraceEvent::Delivered { node, frame } => TraceEvent::Delivered {
            node,
            frame: resolve(frame_maps, frame),
        },
        TraceEvent::Lost {
            node,
            frame,
            reason,
        } => TraceEvent::Lost {
            node,
            frame: resolve(frame_maps, frame),
            reason,
        },
        ev @ (TraceEvent::Killed { .. } | TraceEvent::Revived { .. }) => ev,
    }
}

fn remap_event(frame_maps: &[Vec<FrameId>], ev: SimEvent) -> SimEvent {
    match ev {
        SimEvent::TxEnd(node, frame) => SimEvent::TxEnd(node, resolve(frame_maps, frame)),
        SimEvent::RxEnd(node, frame) => SimEvent::RxEnd(node, resolve(frame_maps, frame)),
        other => other,
    }
}

impl<F: Firmware + Send> Simulator<F> {
    /// Attempts one parallel commit batch at window start `t0`. Returns
    /// `false` (having changed nothing) when the window is not worth —
    /// or not safe to — parallelise: fewer than two zone-disjoint
    /// candidate bands, or too little queued work to beat the
    /// coordinator's allocation-free sequential drain.
    pub(super) fn commit_batch(&mut self, t0: SimTime, until: SimTime) -> bool {
        let Some(mut sh) = self.shard.take() else {
            return false;
        };
        // The exclusive horizon H: the lookahead bound, capped by the
        // coordinator's head (coordinator events replay one at a time)
        // and the caller's end time (inclusive, hence +1ns).
        let mut limit = t0 + sh.lookahead;
        if let Some((ct, _)) = self.queue.peek_key() {
            limit = limit.min(ct);
        }
        limit = limit.min(until + Duration::from_nanos(1));
        if limit <= t0 {
            self.shard = Some(sh);
            return false;
        }

        // Cheap gate before any allocation: enough queued work across
        // enough candidate bands?
        let mut n_cand = 0usize;
        let mut queued = 0usize;
        for q in &mut sh.queues {
            if q.peek_key().is_some_and(|(at, _)| at < limit) {
                n_cand += 1;
                queued += q.live_len();
            }
        }
        if n_cand < 2 || queued < self.config.commit_batch_min_events {
            self.shard = Some(sh);
            return false;
        }

        self.ensure_grid();
        let mut cs = std::mem::take(&mut sh.commit);
        let bands = sh.parts.bands();
        let n = self.state.len();

        // Band extents: positions of homed nodes plus origins of
        // in-flight transmissions by homed senders — everything a
        // band's batch may touch is within r_max of this interval.
        cs.extent.clear();
        cs.extent.resize(bands, (f64::INFINITY, f64::NEG_INFINITY));
        for (i, st) in self.state.iter().enumerate() {
            let e = &mut cs.extent[sh.home[i]];
            e.0 = e.0.min(st.position.x);
            e.1 = e.1.max(st.position.x);
        }
        for tx in self.medium.active() {
            let e = &mut cs.extent[sh.home[tx.sender.0]];
            e.0 = e.0.min(tx.origin.x);
            e.1 = e.1.max(tx.origin.x);
        }

        // Band spans → band groups. Bands whose spans overlap in metres
        // merge into one group (overlapping spans sorted by their low
        // edge are adjacent, so a single run-merge suffices); group
        // spans are pairwise disjoint by construction. Every band with
        // homed nodes joins a group — even ones with no due work — so a
        // worker holds the home queue of every node it can touch.
        // Nothing shrinks H here: same-instant heads inside one cluster
        // simply share a worker.
        cs.heads.clear();
        cs.heads.resize(bands, None);
        for (b, q) in sh.queues.iter_mut().enumerate() {
            if let Some(k) = q.peek_key() {
                if k.0 < limit {
                    cs.heads[b] = Some(k);
                }
            }
        }
        let r_max = sh.parts.r_max();
        cs.zorder.clear();
        for b in 0..bands {
            let (lo_x, hi_x) = cs.extent[b];
            if lo_x > hi_x {
                debug_assert!(
                    cs.heads[b].is_none(),
                    "band {b} has work but no homed nodes"
                );
                continue;
            }
            cs.zorder.push((lo_x - r_max, hi_x + r_max, b));
        }
        cs.zorder
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        cs.groups.clear();
        cs.members.clear();
        for &(zlo, zhi, b) in &cs.zorder {
            let head = cs.heads[b];
            match cs.groups.last_mut() {
                Some(g) if zlo <= g.zhi => {
                    g.mend += 1;
                    if zhi > g.zhi {
                        g.zhi = zhi;
                    }
                    g.head = match (g.head, head) {
                        (Some(a), Some(k)) => Some(a.min(k)),
                        (a, k) => a.or(k),
                    };
                }
                _ => cs.groups.push(Group {
                    mstart: cs.members.len(),
                    mend: cs.members.len() + 1,
                    zlo,
                    zhi,
                    head,
                }),
            }
            cs.members.push(b);
        }
        // Runnable groups only; then, with more groups than workers, run
        // the earliest-headed ones and shrink H to the first excluded
        // head, so the batch is still exactly the set of events before
        // H — a contiguous prefix of the global (time, seq) order.
        cs.groups.retain(|g| g.head.is_some());
        let max_workers = self.config.threads;
        if cs.groups.len() > max_workers {
            cs.groups.sort_unstable_by_key(|g| g.head);
            limit = limit.min(cs.groups[max_workers].head.expect("runnable groups only").0);
            cs.groups.truncate(max_workers);
            cs.groups
                .retain(|g| g.head.expect("runnable groups only").0 < limit);
        }
        if cs.groups.len() < 2 {
            sh.commit = cs;
            self.shard = Some(sh);
            return false;
        }
        // Worker index = span rank: group spans are disjoint intervals,
        // so sorting by the low edge makes the ownership lookup below a
        // single binary search.
        cs.groups.sort_unstable_by(|a, b| a.zlo.total_cmp(&b.zlo));
        let nw = cs.groups.len();

        // Ownership map: a node belongs to the worker whose metre span
        // contains its *current* position, making every dispatch target
        // and every fan-out receiver of a batch exclusively one
        // worker's. (Member extents include every homed node's
        // position, wherever it has wandered, so a member queue's
        // dispatch targets always fall inside the group span; and an
        // owned node's home-band extent intersects the span, so its
        // home queue is always a group member.)
        cs.owner.clear();
        cs.owner.resize(n, NO_OWNER);
        cs.oslot.clear();
        cs.oslot.resize(n, 0);
        for (i, st) in self.state.iter().enumerate() {
            let x = st.position.x;
            let gi = cs.groups.partition_point(|g| g.zlo <= x);
            if gi > 0 && x <= cs.groups[gi - 1].zhi {
                // The planner caps groups at the worker count, far below
                // `NO_OWNER`; an overflowing index degrades to unowned
                // (committed on the coordinator) rather than mis-owned.
                cs.owner[i] = u8::try_from(gi - 1).unwrap_or(NO_OWNER);
            }
        }

        while cs.workers.len() < nw {
            cs.workers.push(WorkerScratch::default());
        }
        let preamble = self.medium.config().modulation.preamble_time();
        let cad_duration = self.cad_duration;

        {
            // Split the mutable state between the workers: each gets its
            // group's member queues and its owned nodes' slots and RNG
            // streams; everything else — the registry included — is shared `&`.
            let owner = &cs.owner[..];
            let mut queues: Vec<Vec<(usize, &mut EventQueue)>> =
                (0..nw).map(|_| Vec::new()).collect();
            for (b, q) in sh.queues.iter_mut().enumerate() {
                let Some((w, _)) = cs
                    .groups
                    .iter()
                    .enumerate()
                    .find(|(_, g)| cs.members[g.mstart..g.mend].contains(&b))
                else {
                    continue;
                };
                queues[w].push((b, q));
            }
            debug_assert_eq!(
                queues.iter().map(Vec::len).sum::<usize>(),
                cs.groups.iter().map(|g| g.mend - g.mstart).sum::<usize>(),
                "every kept group member must get its queue"
            );
            let mut owned_slots: Vec<Vec<&mut NodeSlot<F>>> = (0..nw).map(|_| Vec::new()).collect();
            let mut owned_rngs: Vec<Vec<&mut SimRng>> = (0..nw).map(|_| Vec::new()).collect();
            for ((i, slot), rng) in self.nodes.iter_mut().enumerate().zip(self.rngs.iter_mut()) {
                let w = owner[i];
                if w != NO_OWNER {
                    cs.oslot[i] = owned_slots[w as usize].len() as u32;
                    owned_slots[w as usize].push(slot);
                    owned_rngs[w as usize].push(rng);
                }
            }
            for ws in cs.workers.iter_mut().take(nw) {
                ws.reset();
            }
            let ctx = Shared {
                medium: &self.medium,
                cache: &self.link_cache,
                grid: &self.grid,
                state: &self.state,
                link_loss: &self.link_loss,
                parts: &sh.parts,
                home: &sh.home,
                owner,
                oslot: &cs.oslot,
                limit,
                preamble,
                cad_duration,
            };
            let mut band_workers: Vec<BandWorker<F>> = Vec::with_capacity(nw);
            {
                let mut scratches = cs.workers[..nw].iter_mut();
                let mut queues_it = queues.into_iter();
                let mut slots_it = owned_slots.into_iter();
                let mut rngs_it = owned_rngs.into_iter();
                for w in 0..nw {
                    band_workers.push(BandWorker {
                        w: w as u32,
                        queues: queues_it.next().expect("one queue set per worker"),
                        owned_slots: slots_it.next().expect("one slot set per worker"),
                        owned_rngs: rngs_it.next().expect("one rng set per worker"),
                        scratch: scratches.next().expect("one scratch per worker"),
                        ctx: &ctx,
                        now: t0,
                    });
                }
            }
            par::commit_bands(&mut band_workers, |bw| bw.drain());
        }

        // ---- Merge walk: replay buffered side effects in the global
        // (time, seq) order, allocating real seqs and frame ids exactly
        // as the sequential engine would have.
        while cs.seq_maps.len() < nw {
            cs.seq_maps.push(Vec::new());
        }
        while cs.frame_maps.len() < nw {
            cs.frame_maps.push(Vec::new());
        }
        for m in cs.seq_maps.iter_mut().take(nw) {
            m.clear();
        }
        for m in cs.frame_maps.iter_mut().take(nw) {
            m.clear();
        }
        let mut rec_i = vec![0usize; nw];
        let mut trace_i = vec![0usize; nw];
        let mut creat_i = vec![0usize; nw];
        let mut staged_i = vec![0usize; nw];
        let mut ended_i = vec![0usize; nw];
        let mut walked = 0u64;
        loop {
            let mut best: Option<(SimTime, u64, usize)> = None;
            for (w, (ws, &ri)) in cs.workers.iter().zip(rec_i.iter()).enumerate() {
                let Some(r) = ws.records.get(ri) else {
                    continue;
                };
                let seq = match r.src {
                    SeqSrc::Real(s) => s,
                    // The creator record precedes this one in the same
                    // worker, so its seq is already resolved.
                    SeqSrc::Local(k) => cs.seq_maps[w][k as usize],
                };
                if best.is_none_or(|(at, s, _)| (r.at, seq) < (at, s)) {
                    best = Some((r.at, seq, w));
                }
            }
            let Some((at, _, w)) = best else { break };
            let r = cs.workers[w].records[rec_i[w]];
            rec_i[w] += 1;
            for _ in 0..r.ended_n {
                let f = cs.workers[w].ended[ended_i[w]];
                ended_i[w] += 1;
                debug_assert_eq!(f.0 & PROVISIONAL, 0);
                let ended = self.medium.end_tx(f);
                debug_assert!(ended.is_some(), "worker ended a frame twice");
            }
            for _ in 0..r.staged_n {
                let s = &cs.workers[w].staged[staged_i[w]];
                staged_i[w] += 1;
                let frame = self
                    .medium
                    .begin_tx(s.sender, s.origin, s.start, s.payload.clone())
                    .frame;
                // Registration in walk order is exactly the sequential
                // engine's, so real ids come out identical.
                cs.frame_maps[w].push(frame);
            }
            for _ in 0..r.creat_n {
                creat_i[w] += 1;
                cs.seq_maps[w].push(self.queue.alloc_seq());
            }
            for _ in 0..r.trace_n {
                let (tat, ev) = cs.workers[w].trace[trace_i[w]].clone();
                trace_i[w] += 1;
                self.trace.push(tat, remap_trace(&cs.frame_maps, ev));
            }
            debug_assert!(at >= self.now, "merge walked backwards");
            self.now = at;
            walked += 1;
        }
        self.events_processed += walked;
        debug_assert_eq!(
            walked,
            cs.workers.iter().take(nw).map(|ws| ws.events).sum::<u64>()
        );

        // ---- Flush: unconsumed creations to their home queues (under
        // their walk-allocated seqs), per-band metrics, overlay link
        // rows, and the provisional→real frame rewrite in owned radios
        // (the registry already carries real ids — the walk began them).
        for w in 0..nw {
            let ws = &cs.workers[w];
            for (k, c) in ws.creations.iter().enumerate() {
                if ws.consumed[k] {
                    continue;
                }
                debug_assert!(c.at >= limit, "unconsumed creation inside the window");
                let ev = remap_event(&cs.frame_maps, c.ev.clone());
                let node = c.node as usize;
                sh.queues[sh.home[node]].schedule_at_seq(c.at, cs.seq_maps[w][k], ev);
            }
            self.metrics.absorb(&ws.metrics);
        }
        for ws in cs.workers.iter_mut().take(nw) {
            for (i, row) in ws.rows.drain(..) {
                self.link_cache.install(i, row);
            }
        }
        for (i, slot) in self.nodes.iter_mut().enumerate() {
            if cs.owner[i] != NO_OWNER {
                slot.radio.remap_frames(|f| resolve(&cs.frame_maps, f));
            }
        }
        sh.commit = cs;
        self.shard = Some(sh);
        self.commit_batches += 1;
        true
    }
}
