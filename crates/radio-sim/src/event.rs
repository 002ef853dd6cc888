//! The deterministic event queue at the heart of the simulator.
//!
//! Events are ordered by `(time, sequence)`: ties at the same instant are
//! broken by insertion order, never by container internals, so runs are
//! exactly reproducible.
//!
//! # Timing wheel
//!
//! Pending events live in one slab (a `Vec` of 40-byte nodes plus a free
//! list); two levels of 4096 buckets thread intrusive lists through it.
//! A node stores its event packed — a kind byte, a `u32` node index and
//! one `u64` argument, 16 bytes where a [`SimEvent`] takes 24 — and the
//! queue unpacks it only where it pops or tests it for a tombstone.
//! **Level 0** is a ring of `2^20` ns (≈ 1 ms) buckets covering ≈ 4.3 s
//! from the cursor on, each a list kept ascending by `(time, seq)` with
//! a tail index: in-order arrivals — the common case, and every run of
//! same-instant schedules — append in O(1), anything else walks the bucket's
//! few entries. **Level 1** is a ring of `2^32` ns (≈ 4.3 s) buckets
//! covering the ≈ 4.9 h after that. Its lists are unordered: when the
//! cursor enters a bucket's span the bucket is re-filed through the same
//! `EventQueue::link` routine, which sorts each entry into level 0.
//! Instants beyond that window park in its last bucket and are re-filed
//! again from there. A bitmap per level finds the next occupied bucket.
//! Draining the cursor bucket before advancing yields exactly the global
//! `(time, seq)` order; events in the past of the cursor fold into the
//! cursor bucket, whose sorted list still pops them first. The queue
//! caches the key of its earliest live event, dropped at the three points
//! that can change it: a pop, an insert that sorts before it, and the
//! invalidation of a node that has a live timer.
//!
//! # Bursts
//!
//! [`EventQueue::schedule_burst`] queues k events at one instant (a
//! frame's `TxEnd` and its locked receivers' `RxEnd`s) under the next k
//! sequence numbers as **one** wheel entry: the first event's node, whose
//! `burst` field holds the `u32` slab index of a chain of the other k − 1,
//! linked in no bucket. Popping the head arms a drain cursor that
//! `peek_key` and `pop_until` serve the followers from, one per call.
//! Nothing can sort between them: an entry sorting before the head popped
//! before it, a later one at the instant takes a larger sequence number.
//! An insert that still would (a past instant, a reserved sequence
//! number) first files the next follower as the head of the chain's rest.
//! So a burst pops as its events scheduled one by one would, taking the
//! same slab nodes; `len` counts each, and timers never join one.
//!
//! # Timer tombstones
//!
//! [`SimEvent::Timer`] carries a per-node generation stamp. The queue
//! owns the generation table: [`EventQueue::schedule_timer`] bumps the
//! node's generation (invalidating every previously queued timer for it)
//! and enqueues a fresh stamp; [`EventQueue::cancel_timer`] bumps without
//! enqueueing. Stale stamps are discarded in O(1) when they reach the
//! head of the queue — never surfacing to the simulator — and counted in
//! [`EventQueue::stale_timers_dropped`]. Because tombstones still occupy
//! queue slots, [`EventQueue::len`] includes them; use
//! [`EventQueue::live_len`] for the number of events that will actually
//! fire.

use crate::firmware::NodeId;
use crate::time::SimTime;

/// Identifies one transmission on the medium.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub u64);

/// Something scheduled to happen at a point in simulated time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimEvent {
    /// A node's requested wake-up timer fires. The second field is the
    /// node's timer generation at scheduling time; stamps that no longer
    /// match the current generation are tombstones and are dropped
    /// inside the queue (see the module docs).
    Timer(NodeId, u64),
    /// A transmission ends at the sender.
    TxEnd(NodeId, FrameId),
    /// A reception attempt concludes at a receiver.
    RxEnd(NodeId, FrameId),
    /// A channel-activity-detection scan concludes.
    CadEnd(NodeId),
    /// A CAD requested while the radio was busy (receiving or
    /// transmitting) completes: the result is unconditionally "busy",
    /// mirroring real hardware where CAD during activity reports it.
    CadBusyReport(NodeId),
    /// An application-level event (workload injection) for a node.
    App(NodeId, u64),
    /// Fault injection: the node's radio and firmware stop.
    Kill(NodeId),
    /// Fault injection: the node restarts.
    Revive(NodeId),
    /// A mobility step: recompute positions of mobile nodes.
    MobilityTick,
}

/// Width of a level-0 bucket as a power-of-two nanosecond count.
const TICK_SHIFT: u32 = 20;
/// Buckets per level as a power of two: a level-1 bucket spans one full
/// level-0 ring, ≈ 4.3 s — wider than the 3 s hello/beacon cadence,
/// keeping steady-state traffic out of level 1.
const SLOT_BITS: u32 = 12;
const SLOTS: usize = 1 << SLOT_BITS;
/// The furthest a bucket can sit ahead of the cursor within its level.
const REACH: u64 = SLOTS as u64 - 1;
/// "No node": list terminator and empty free list.
const NIL: u32 = u32::MAX;

/// Ring slot of an absolute level-0 tick or level-1 span.
fn slot_of(n: u64) -> usize {
    (n & REACH) as usize
}

/// Which [`SimEvent`] variant a [`Packed`] event is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Timer,
    TxEnd,
    RxEnd,
    CadEnd,
    CadBusyReport,
    App,
    Kill,
    Revive,
    MobilityTick,
}

/// A [`SimEvent`] as the slab stores it: every variant is at most a node
/// and one 64-bit argument (timer stamp, frame id or app tag), so 16
/// bytes hold any of them where the enum takes 24.
#[derive(Clone, Copy, Debug)]
struct Packed {
    arg: u64,
    node: u32,
    kind: Kind,
}

impl Packed {
    fn new(event: SimEvent) -> Packed {
        let (kind, node, arg) = match event {
            SimEvent::Timer(n, gen) => (Kind::Timer, n, gen),
            SimEvent::TxEnd(n, f) => (Kind::TxEnd, n, f.0),
            SimEvent::RxEnd(n, f) => (Kind::RxEnd, n, f.0),
            SimEvent::CadEnd(n) => (Kind::CadEnd, n, 0),
            SimEvent::CadBusyReport(n) => (Kind::CadBusyReport, n, 0),
            SimEvent::App(n, tag) => (Kind::App, n, tag),
            SimEvent::Kill(n) => (Kind::Kill, n, 0),
            SimEvent::Revive(n) => (Kind::Revive, n, 0),
            SimEvent::MobilityTick => (Kind::MobilityTick, NodeId(0), 0),
        };
        // A simulator holds a few thousand nodes; four billion would
        // need terabytes of per-node state before this could wrap.
        let node = u32::try_from(node.0);
        debug_assert!(node.is_ok(), "node index beyond u32");
        let node = node.unwrap_or(u32::MAX);
        Packed { arg, node, kind }
    }

    fn node_id(self) -> NodeId {
        NodeId(self.node as usize)
    }

    fn event(self) -> SimEvent {
        let (n, arg) = (self.node_id(), self.arg);
        match self.kind {
            Kind::Timer => SimEvent::Timer(n, arg),
            Kind::TxEnd => SimEvent::TxEnd(n, FrameId(arg)),
            Kind::RxEnd => SimEvent::RxEnd(n, FrameId(arg)),
            Kind::CadEnd => SimEvent::CadEnd(n),
            Kind::CadBusyReport => SimEvent::CadBusyReport(n),
            Kind::App => SimEvent::App(n, arg),
            Kind::Kill => SimEvent::Kill(n),
            Kind::Revive => SimEvent::Revive(n),
            Kind::MobilityTick => SimEvent::MobilityTick,
        }
    }
}

/// One pending event, linked into a bucket list (or the free list).
#[derive(Debug)]
struct Node {
    key: (SimTime, u64),
    event: Packed,
    next: u32,
    /// First follower of the burst it heads, else [`NIL`]; the followers
    /// chain through `next`, outside every bucket.
    burst: u32,
}

// meshlint::allow(r1): a compile-time size check, never a run-time panic
const _: () = assert!(std::mem::size_of::<Node>() <= 40);

/// Sort key of slab node `idx`; `None` past the end of a list.
fn key_of(slab: &[Node], idx: u32) -> Option<(SimTime, u64)> {
    slab.get(idx as usize).map(|n| n.key)
}

fn next_of(slab: &[Node], idx: u32) -> u32 {
    slab.get(idx as usize).map_or(NIL, |n| n.next)
}

fn set_next(slab: &mut [Node], idx: u32, next: u32) {
    if let Some(node) = slab.get_mut(idx as usize) {
        node.next = next;
    }
}

/// Which of a level's buckets are non-empty: one bit per bucket, plus a
/// summary word with bit `w` set iff `words[w] != 0`.
#[derive(Debug)]
struct Occupancy {
    words: [u64; SLOTS / 64],
    summary: u64,
}

impl Occupancy {
    fn mark(&mut self, slot: usize, occupied: bool) {
        if let Some(word) = self.words.get_mut(slot / 64) {
            *word = *word & !(1 << (slot % 64)) | u64::from(occupied) << (slot % 64);
            self.summary =
                self.summary & !(1 << (slot / 64)) | u64::from(*word != 0) << (slot / 64);
        }
    }

    /// Cyclic distance (`0..SLOTS`) from slot `from` to the first
    /// occupied slot at or after it, wrapping past the last slot.
    fn distance_from(&self, from: usize) -> Option<u64> {
        let (w, bit) = (from / 64, from % 64);
        let here = self.words.get(w)? >> bit;
        if here != 0 {
            return Some(u64::from(here.trailing_zeros()));
        }
        // Rotated so that word w+1 is bit 0, the summary's first set bit is
        // the next occupied word going round; word `w` itself comes last.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "w < 64: a word of the 64-word occupancy bitmap"
        )]
        let rot = self.summary.rotate_right((w as u32 + 1) % 64);
        if rot == 0 {
            return None;
        }
        let w = (w + 1 + rot.trailing_zeros() as usize) % 64;
        let slot = w * 64 + self.words.get(w)?.trailing_zeros() as usize;
        Some(((slot + SLOTS - from) % SLOTS) as u64)
    }
}

/// A level-0 list, ascending by `(time, seq)`; `tail` is stale while empty.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// A time-ordered queue of [`SimEvent`]s with deterministic tie-breaking.
///
/// See the module docs for the wheel's layout and the tombstone rules.
#[derive(Debug)]
pub struct EventQueue {
    /// Every list below chains indices into it; `free` chains the vacant.
    slab: Vec<Node>,
    free: u32,
    /// Level 0, indexed by `tick % SLOTS`: ticks `cursor..=cursor + REACH`.
    near: Vec<Bucket>,
    near_occupied: Occupancy,
    /// Level 1 heads, indexed by `span % SLOTS`: the next [`REACH`] spans.
    far: Vec<u32>,
    far_occupied: Occupancy,
    /// Absolute level-0 tick being drained.
    cursor: u64,
    /// Key of the earliest live event while known: the queue is then
    /// settled, with that event first in the cursor bucket.
    head: Option<(SimTime, u64)>,
    /// The burst being served once its head has popped: the slab node of
    /// its next follower and that follower's key.
    drain: Option<(u32, (SimTime, u64))>,
    next_seq: u64,
    /// Total pending events, including stale timer tombstones.
    len: usize,
    /// Current timer generation per node.
    timer_gen: Vec<u64>,
    /// Pending timers per node whose stamp matches the current generation.
    live_timers: Vec<u32>,
    /// Pending timers whose stamp is stale (tombstones awaiting drop).
    stale_pending: usize,
    /// Stale timers silently discarded so far.
    stale_dropped: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        let (head, tail, words, summary) = (NIL, NIL, [0; SLOTS / 64], 0);
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            near: vec![Bucket { head, tail }; SLOTS],
            near_occupied: Occupancy { words, summary },
            far: vec![NIL; SLOTS],
            far_occupied: Occupancy { words, summary },
            cursor: 0,
            head: None,
            drain: None,
            next_seq: 0,
            len: 0,
            timer_gen: Vec::new(),
            live_timers: Vec::new(),
            stale_pending: 0,
            stale_dropped: 0,
        }
    }

    /// Absolute level-0 tick of an instant.
    #[inline]
    fn tick_of(at: SimTime) -> u64 {
        at.as_nanos() >> TICK_SHIFT
    }

    /// Files slab node `idx` into the bucket its instant belongs to: the
    /// one insert routine, for new events and re-filed level-1 entries.
    #[inline]
    fn link(&mut self, idx: u32, key: (SimTime, u64)) {
        // Past instants fold into the cursor bucket: it holds the global
        // minimum and is sorted by (time, seq), so they still pop first.
        let tick = Self::tick_of(key.0).max(self.cursor);
        let near = self.near.get_mut(slot_of(tick));
        let Some(bucket) = near.filter(|_| tick - self.cursor <= REACH) else {
            // Level 1 is unordered: re-filing sorts it later. Spans beyond
            // its window park in the window's last bucket.
            let span = (tick >> SLOT_BITS).min((self.cursor >> SLOT_BITS) + REACH);
            if let Some(head) = self.far.get_mut(slot_of(span)) {
                set_next(&mut self.slab, idx, std::mem::replace(head, idx));
                self.far_occupied.mark(slot_of(span), true);
            }
            return;
        };
        // An in-order arrival goes straight after the tail; anything else
        // walks from the head to the first entry that sorts after it.
        let (mut prev, mut cur) = (NIL, bucket.head);
        if cur != NIL && key_of(&self.slab, bucket.tail) < Some(key) {
            (prev, cur) = (bucket.tail, NIL);
        }
        while key_of(&self.slab, cur).is_some_and(|k| k < key) {
            (prev, cur) = (cur, next_of(&self.slab, cur));
        }
        set_next(&mut self.slab, idx, cur);
        match prev {
            NIL => bucket.head = idx,
            _ => set_next(&mut self.slab, prev, idx),
        }
        if cur == NIL {
            bucket.tail = idx;
        }
        self.near_occupied.mark(slot_of(tick), true);
    }

    /// Moves the cursor off its empty bucket to the next occupied level-0
    /// bucket or, if it starts no later, the next occupied level-1 span,
    /// whose bucket is re-filed through [`Self::link`] into level 0 (or, if
    /// parked, a later level-1 bucket). `None` when both levels are empty.
    fn advance(&mut self) -> Option<()> {
        let near = self.near_occupied.distance_from(slot_of(self.cursor));
        let near = near.map(|d| self.cursor + d);
        let span = (self.cursor >> SLOT_BITS) + 1;
        let far = self.far_occupied.distance_from(slot_of(span));
        let Some(d) = far.filter(|d| near.is_none_or(|t| (span + d) << SLOT_BITS <= t)) else {
            debug_assert!(near.is_some(), "pending events outside both levels");
            return near.map(|tick| self.cursor = tick);
        };
        let slot = slot_of(span + d);
        let head = self.far.get_mut(slot);
        let head = head.map_or(NIL, |head| std::mem::replace(head, NIL));
        self.far_occupied.mark(slot, false);
        let (mut idx, mut earliest) = (head, u64::MAX);
        while let Some((at, _)) = key_of(&self.slab, idx).filter(|_| near.is_none()) {
            earliest = earliest.min(Self::tick_of(at));
            idx = next_of(&self.slab, idx);
        }
        // With level 0 empty (all the scan is for), entries parked from afar
        // are not worth a stop: they re-park from where the cursor is, so such
        // groups merge in the window's last bucket — and from there, the only
        // one left, the cursor jumps to the earliest, not a window at a time.
        if near.is_some() || earliest >> SLOT_BITS == span + d {
            self.cursor = (span + d) << SLOT_BITS;
        } else if d == REACH - 1 {
            self.cursor = earliest;
        }
        let mut idx = head;
        while let Some(key) = key_of(&self.slab, idx) {
            let next = next_of(&self.slab, idx);
            self.link(idx, key);
            idx = next;
        }
        Some(())
    }

    /// Positions the cursor on the bucket holding the earliest live
    /// event, discarding stale timer tombstones encountered on the way,
    /// and caches that event's key. `None` when no live event remains.
    #[inline]
    fn settle(&mut self) -> Option<(SimTime, u64)> {
        while self.len != 0 {
            let slot = slot_of(self.cursor);
            let idx = self.near.get(slot).map_or(NIL, |b| b.head);
            let Some(node) = self.slab.get(idx as usize) else {
                self.advance()?;
                continue;
            };
            let e = node.event;
            if e.kind != Kind::Timer || self.timer_is_live(e.node_id(), e.arg) {
                self.head = Some(node.key);
                return self.head;
            }
            self.unlink_head(slot);
            self.stale_dropped += 1;
            self.stale_pending = self.stale_pending.saturating_sub(1);
        }
        None
    }

    /// Unlinks the first entry of level-0 bucket `slot` and frees its
    /// node, returning its key, event and first burst follower.
    #[inline]
    fn unlink_head(&mut self, slot: usize) -> Option<((SimTime, u64), SimEvent, u32)> {
        let bucket = self.near.get_mut(slot)?;
        let node = self.slab.get_mut(bucket.head as usize)?;
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = std::mem::replace(&mut bucket.head, next);
        self.near_occupied.mark(slot, next != NIL);
        self.len -= 1;
        Some((node.key, node.event.event(), node.burst))
    }

    /// Unlinks the draining burst's next follower from its chain and
    /// frees its node.
    #[inline]
    fn next_follower(&mut self) -> Option<(SimTime, SimEvent)> {
        let (idx, (at, seq)) = self.drain.take()?;
        let node = self.slab.get_mut(idx as usize)?;
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = idx;
        self.drain = (next != NIL).then_some((next, (at, seq + 1)));
        self.len -= 1;
        Some((at, node.event.event()))
    }

    #[inline]
    fn ensure_node(&mut self, node: NodeId) {
        if node.0 >= self.timer_gen.len() {
            self.timer_gen.resize(node.0 + 1, 0);
            self.live_timers.resize(node.0 + 1, 0);
        }
    }

    #[inline]
    fn timer_is_live(&self, node: NodeId, gen: u64) -> bool {
        self.timer_gen.get(node.0).copied().unwrap_or(0) == gen
    }

    /// The node's current timer generation — the stamp a
    /// [`SimEvent::Timer`] must carry to fire rather than be dropped as
    /// a tombstone.
    #[must_use]
    pub fn timer_generation(&mut self, node: NodeId) -> u64 {
        self.ensure_node(node);
        self.timer_gen.get(node.0).copied().unwrap_or(0)
    }

    /// Schedules a wake-up timer for `node` at `at`, invalidating any
    /// timer previously queued for it (at most one live timer per node).
    #[inline]
    pub fn schedule_timer(&mut self, at: SimTime, node: NodeId) {
        let seq = self.alloc_seq();
        self.schedule_timer_seq(at, node, seq);
    }

    /// Invalidates every queued timer for `node` without scheduling a new
    /// one: its generation is bumped and the entries become tombstones.
    #[inline]
    pub fn cancel_timer(&mut self, node: NodeId) {
        self.ensure_node(node);
        if let Some(live) = self.live_timers.get_mut(node.0).filter(|live| **live != 0) {
            self.stale_pending += std::mem::take(live) as usize;
            // The cached head may be one of them.
            self.head = None;
        }
        if let Some(gen) = self.timer_gen.get_mut(node.0) {
            *gen = gen.wrapping_add(1);
        }
    }

    /// Schedules `event` at time `at`.
    ///
    /// A [`SimEvent::Timer`] passed here is booked against its stamp
    /// as-is: live if the stamp matches the node's current generation,
    /// a tombstone otherwise. Use [`EventQueue::schedule_timer`] for the
    /// invalidate-and-restamp flow.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: SimEvent) {
        let seq = self.alloc_seq();
        self.schedule_at_seq(at, seq, event);
    }

    /// Reserves the next sequence number without enqueueing anything.
    ///
    /// The sharded engine keeps the `(time, seq)` total order *global*
    /// across its per-shard queues by allocating every sequence number
    /// from one designated coordinator queue and inserting into shard
    /// queues via [`EventQueue::schedule_at_seq`].
    #[must_use]
    #[inline]
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at `at` under an externally allocated sequence
    /// number (see [`EventQueue::alloc_seq`]). Timer stamps are booked
    /// exactly as in [`EventQueue::schedule`]. The caller must keep the
    /// supplied numbers unique and creation-ordered; this queue's own
    /// counter is not consulted or advanced.
    #[inline]
    pub fn schedule_at_seq(&mut self, at: SimTime, seq: u64, event: SimEvent) {
        if let SimEvent::Timer(node, gen) = event {
            self.ensure_node(node);
            let live = self.timer_is_live(node, gen);
            match self.live_timers.get_mut(node.0).filter(|_| live) {
                Some(live) => *live = live.saturating_add(1),
                None => self.stale_pending += 1,
            }
        }
        let idx = self.take_node((at, seq), event);
        self.file(idx, (at, seq));
    }

    /// Schedules `events` at `at` exactly as one [`EventQueue::schedule`]
    /// each, in order, would, but as one wheel entry: the first event's,
    /// with the rest chained to it (see "Bursts" in the module docs).
    /// Timers never join a burst.
    pub fn schedule_burst(&mut self, at: SimTime, events: impl IntoIterator<Item = SimEvent>) {
        let (mut head, mut tail) = (NIL, NIL);
        for event in events {
            debug_assert!(
                !matches!(event, SimEvent::Timer(..)),
                "timers are booked singly"
            );
            let key = (at, self.alloc_seq());
            let idx = self.take_node(key, event);
            match self.slab.get_mut(tail as usize) {
                Some(node) if tail == head => node.burst = idx,
                Some(node) => node.next = idx,
                None => head = idx,
            }
            tail = idx;
        }
        if let Some(node) = self.slab.get(head as usize) {
            self.file(head, node.key);
        }
    }

    /// Takes a vacant slab node (or a new one) for `event` at `key`.
    #[inline]
    fn take_node(&mut self, key: (SimTime, u64), event: SimEvent) -> u32 {
        self.len += 1;
        let (next, burst, mut idx) = (NIL, NIL, self.free);
        let node = Node {
            key,
            event: Packed::new(event),
            next,
            burst,
        };
        if let Some(vacant) = self.slab.get_mut(idx as usize) {
            self.free = std::mem::replace(vacant, node).next;
        } else {
            idx = u32::try_from(self.slab.len()).unwrap_or(NIL);
            debug_assert!(idx != NIL, "event slab outgrew its u32 indices");
            self.slab.push(node);
        }
        idx
    }

    /// Files node `idx` into the wheel. An entry that sorts before the
    /// draining burst's next follower first files that follower as the
    /// head of the burst's rest, so a drain only serves the global minimum.
    #[inline]
    fn file(&mut self, idx: u32, key: (SimTime, u64)) {
        if self.drain.is_some_and(|(_, next)| key < next) {
            self.refile_drain();
        }
        self.head = self.head.filter(|&head| head <= key);
        self.link(idx, key);
    }

    /// Files the drain's next follower as the head of the chain's rest.
    #[cold]
    fn refile_drain(&mut self) {
        let Some((idx, key)) = self.drain.take() else {
            return;
        };
        if let Some(node) = self.slab.get_mut(idx as usize) {
            node.burst = std::mem::replace(&mut node.next, NIL);
            self.head = self.head.filter(|&head| head <= key);
            self.link(idx, key);
        }
    }

    /// [`EventQueue::schedule_timer`] under an externally allocated
    /// sequence number.
    #[inline]
    pub fn schedule_timer_seq(&mut self, at: SimTime, node: NodeId, seq: u64) {
        self.cancel_timer(node);
        let gen = self.timer_gen.get(node.0).copied().unwrap_or(0);
        self.schedule_at_seq(at, seq, SimEvent::Timer(node, gen));
    }

    /// Removes and returns the earliest live event, if any. Stale timer
    /// tombstones encountered on the way are discarded silently.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, SimEvent)> {
        self.pop_until(SimTime::MAX)
    }

    /// [`EventQueue::pop`], but only when the earliest live event is due
    /// at or before `until` — the run loop's peek-then-pop in one call.
    #[inline]
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, SimEvent)> {
        self.peek_time().filter(|&at| at <= until)?;
        if self.drain.is_some() {
            return self.next_follower();
        }
        // Settled: the head of the cursor bucket is the event peeked.
        self.head = None;
        let ((at, seq), event, burst) = self.unlink_head(slot_of(self.cursor))?;
        self.drain = (burst != NIL).then_some((burst, (at, seq + 1)));
        if let SimEvent::Timer(node, _) = event {
            if let Some(live) = self.live_timers.get_mut(node.0) {
                *live = live.saturating_sub(1);
            }
        }
        Some((at, event))
    }

    /// The time of the earliest live pending event. Takes `&mut self`
    /// because stale tombstones ahead of it are discarded.
    #[must_use]
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(at, _)| at)
    }

    /// The full `(time, seq)` key of the earliest live pending event, which
    /// the sharded engine's k-way merge compares across queues. Takes
    /// `&mut self` because stale tombstones ahead of it are discarded.
    #[must_use]
    #[inline]
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        match self.drain {
            Some((_, next)) => Some(next),
            None => self.head.or_else(|| self.settle()),
        }
    }

    /// Number of pending events, including stale timer tombstones that
    /// will be dropped rather than fire.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of pending events that will actually fire (tombstones
    /// excluded).
    #[must_use]
    pub fn live_len(&self) -> usize {
        self.len.saturating_sub(self.stale_pending)
    }

    /// Whether no events are pending (tombstones included).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stale timer tombstones discarded so far.
    #[must_use]
    pub fn stale_timers_dropped(&self) -> u64 {
        self.stale_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: u32) -> NodeId {
        NodeId(i as usize)
    }

    #[test]
    fn every_event_packs_and_unpacks_unchanged() {
        let n = node(u32::MAX);
        for event in [
            SimEvent::Timer(n, u64::MAX),
            SimEvent::TxEnd(n, FrameId(u64::MAX)),
            SimEvent::RxEnd(node(0), FrameId(7)),
            SimEvent::CadEnd(n),
            SimEvent::CadBusyReport(n),
            SimEvent::App(n, u64::MAX),
            SimEvent::Kill(n),
            SimEvent::Revive(node(3)),
            SimEvent::MobilityTick,
        ] {
            assert_eq!(Packed::new(event.clone()).event(), event);
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), SimEvent::App(node(3), 0));
        q.schedule(SimTime::from_millis(10), SimEvent::App(node(1), 0));
        q.schedule(SimTime::from_millis(20), SimEvent::App(node(2), 0));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![
                SimTime::from_millis(10),
                SimTime::from_millis(20),
                SimTime::from_millis(30)
            ]
        );
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule(t, SimEvent::App(node(i), u64::from(i)));
        }
        for i in 0..10 {
            let (_, e) = q.pop().unwrap();
            assert_eq!(e, SimEvent::App(node(i), u64::from(i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(1), SimEvent::MobilityTick);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), SimEvent::App(node(0), 0));
        q.schedule(SimTime::from_millis(5), SimEvent::App(node(1), 0));
        assert_eq!(q.pop().unwrap().0, SimTime::from_millis(5));
        q.schedule(SimTime::from_millis(1), SimEvent::App(node(2), 0));
        assert_eq!(q.pop().unwrap().0, SimTime::from_millis(1));
        assert_eq!(q.pop().unwrap().0, SimTime::from_millis(10));
    }

    #[test]
    fn events_far_beyond_the_ring_horizon_pop_in_order() {
        // Level 0 spans ~4.3 s; these wait in level 1 and must be
        // re-filed without disturbing global order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), SimEvent::App(node(0), 0));
        q.schedule(SimTime::from_millis(1), SimEvent::App(node(1), 1));
        q.schedule(SimTime::from_secs(6), SimEvent::App(node(2), 2));
        q.schedule(SimTime::from_secs(10), SimEvent::App(node(3), 3));
        q.schedule(SimTime::from_secs(100), SimEvent::App(node(4), 4));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec![
                SimEvent::App(node(1), 1),
                SimEvent::App(node(2), 2),
                SimEvent::App(node(0), 0),
                SimEvent::App(node(3), 3),
                SimEvent::App(node(4), 4),
            ]
        );
    }

    #[test]
    fn same_instant_ties_hold_across_the_level_boundary() {
        // Two events at the same far-future instant, one scheduled while
        // the instant is beyond the horizon (level 1) and one after the
        // cursor advanced near it (level 0): FIFO must still hold.
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(30);
        q.schedule(far, SimEvent::App(node(0), 0));
        q.schedule(SimTime::from_secs(28), SimEvent::App(node(9), 9));
        assert_eq!(q.pop().unwrap().1, SimEvent::App(node(9), 9));
        // Cursor is now within level 0's reach of `far`.
        q.schedule(far, SimEvent::App(node(1), 1));
        assert_eq!(q.pop().unwrap().1, SimEvent::App(node(0), 0));
        assert_eq!(q.pop().unwrap().1, SimEvent::App(node(1), 1));
    }

    #[test]
    fn past_events_clamp_into_the_cursor_bucket() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(100), SimEvent::App(node(0), 0));
        assert_eq!(q.pop().unwrap().0, SimTime::from_millis(100));
        // Scheduling in the past (the simulator clamps to `now`, but the
        // queue itself must tolerate it) still pops, with its own time.
        q.schedule(SimTime::from_millis(10), SimEvent::App(node(1), 1));
        q.schedule(SimTime::from_millis(120), SimEvent::App(node(2), 2));
        assert_eq!(q.pop().unwrap().0, SimTime::from_millis(10));
        assert_eq!(q.pop().unwrap().0, SimTime::from_millis(120));
    }

    #[test]
    fn rescheduling_a_timer_turns_the_old_one_into_a_tombstone() {
        let mut q = EventQueue::new();
        q.schedule_timer(SimTime::from_millis(10), node(0));
        q.schedule_timer(SimTime::from_millis(20), node(0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.live_len(), 1);
        let (at, event) = q.pop().unwrap();
        assert_eq!(at, SimTime::from_millis(20));
        assert!(matches!(event, SimEvent::Timer(n, _) if n == node(0)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.stale_timers_dropped(), 1);
        assert!(q.is_empty());
        assert_eq!(q.live_len(), 0);
    }

    #[test]
    fn cancelling_a_timer_leaves_a_tombstone_without_rescheduling() {
        let mut q = EventQueue::new();
        q.schedule_timer(SimTime::from_millis(10), node(0));
        q.schedule(SimTime::from_millis(30), SimEvent::MobilityTick);
        q.cancel_timer(node(0));
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(30)));
        assert_eq!(q.pop().unwrap().1, SimEvent::MobilityTick);
        assert_eq!(q.pop(), None);
        assert_eq!(q.stale_timers_dropped(), 1);
    }

    #[test]
    fn raw_schedule_with_current_generation_stays_live() {
        // Legacy-engine mode stamps timers with the current generation
        // and never invalidates: multiple timers per node all fire.
        let mut q = EventQueue::new();
        let gen = q.timer_generation(node(7));
        q.schedule(SimTime::from_millis(1), SimEvent::Timer(node(7), gen));
        q.schedule(SimTime::from_millis(2), SimEvent::Timer(node(7), gen));
        assert_eq!(q.live_len(), 2);
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert_eq!(q.stale_timers_dropped(), 0);
    }

    #[test]
    fn raw_schedule_with_stale_generation_is_a_tombstone() {
        let mut q = EventQueue::new();
        let gen = q.timer_generation(node(0));
        q.cancel_timer(node(0));
        q.schedule(SimTime::from_millis(1), SimEvent::Timer(node(0), gen));
        assert_eq!(q.len(), 1);
        assert_eq!(q.live_len(), 0);
        assert_eq!(q.pop(), None);
        assert_eq!(q.stale_timers_dropped(), 1);
    }

    #[test]
    fn stale_timers_do_not_block_peek() {
        let mut q = EventQueue::new();
        q.schedule_timer(SimTime::from_millis(5), node(0));
        q.schedule(SimTime::from_millis(10), SimEvent::MobilityTick);
        q.cancel_timer(node(0));
        // peek must skip the tombstone at 5 ms and report the live event.
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
        assert_eq!(q.stale_timers_dropped(), 1);
    }

    #[test]
    fn peek_key_exposes_the_insertion_sequence() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), SimEvent::App(node(0), 0));
        q.schedule(SimTime::from_millis(5), SimEvent::App(node(1), 1));
        let (at, seq) = q.peek_key().unwrap();
        assert_eq!(at, SimTime::from_millis(5));
        q.pop();
        let (_, seq2) = q.peek_key().unwrap();
        assert!(seq2 > seq, "ties must expose ascending seq");
    }

    #[test]
    fn external_seqs_merge_across_queues_in_global_order() {
        // Two shard queues fed from one coordinator counter: merging by
        // peek_key must reproduce the exact interleaved creation order.
        let mut coord = EventQueue::new();
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let t = SimTime::from_millis(9);
        for i in 0..12u32 {
            let seq = coord.alloc_seq();
            let q = if i % 3 == 0 { &mut a } else { &mut b };
            q.schedule_at_seq(t, seq, SimEvent::App(node(i), u64::from(i)));
        }
        let mut merged = Vec::new();
        loop {
            let ka = a.peek_key();
            let kb = b.peek_key();
            let from_a = match (ka, kb) {
                (Some(x), Some(y)) => x < y,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let q = if from_a { &mut a } else { &mut b };
            merged.push(q.pop().unwrap().1);
        }
        let expected: Vec<_> = (0..12u32)
            .map(|i| SimEvent::App(node(i), u64::from(i)))
            .collect();
        assert_eq!(merged, expected);
    }

    #[test]
    fn schedule_timer_seq_tombstones_like_schedule_timer() {
        let mut coord = EventQueue::new();
        let mut q = EventQueue::new();
        let s1 = coord.alloc_seq();
        q.schedule_timer_seq(SimTime::from_millis(10), node(0), s1);
        let s2 = coord.alloc_seq();
        q.schedule_timer_seq(SimTime::from_millis(20), node(0), s2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.live_len(), 1);
        let (at, event) = q.pop().unwrap();
        assert_eq!(at, SimTime::from_millis(20));
        assert!(matches!(event, SimEvent::Timer(n, _) if n == node(0)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.stale_timers_dropped(), 1);
    }

    #[test]
    fn many_nodes_interleaved_timers_keep_global_order() {
        let mut q = EventQueue::new();
        for i in 0..32u32 {
            let at = SimTime::from_millis(u64::from(i % 8) * 40);
            q.schedule_timer(at, node(i));
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
            count += 1;
        }
        assert_eq!(count, 32);
        assert_eq!(q.stale_timers_dropped(), 0);
    }

    fn at_tick(tick: u64, nanos: u64) -> SimTime {
        SimTime::from(std::time::Duration::from_nanos(
            (tick << TICK_SHIFT) + nanos,
        ))
    }

    #[test]
    fn occupancy_search_wraps_from_the_last_slot_to_the_first() {
        let mut occupied = Occupancy {
            words: [0; SLOTS / 64],
            summary: 0,
        };
        assert_eq!(occupied.distance_from(17), None);
        occupied.mark(0, true);
        assert_eq!(occupied.distance_from(0), Some(0));
        assert_eq!(occupied.distance_from(4095), Some(1));
        // All the way round, back into the word the search started in.
        assert_eq!(occupied.distance_from(1), Some(4095));
        occupied.mark(4095, true);
        assert_eq!(occupied.distance_from(1), Some(4094));
        assert_eq!(occupied.distance_from(4095), Some(0));
        occupied.mark(70, true);
        assert_eq!(occupied.distance_from(64), Some(6));
        assert_eq!(occupied.distance_from(71), Some(4024));
        for slot in [0, 70, 4095] {
            occupied.mark(slot, false);
        }
        assert_eq!((occupied.summary, occupied.distance_from(70)), (0, None));
    }

    #[test]
    fn the_ring_wraps_under_a_moving_cursor() {
        let mut q = EventQueue::new();
        q.schedule(at_tick(4095, 0), SimEvent::App(node(0), 0));
        assert_eq!(q.pop().unwrap().1, SimEvent::App(node(0), 0));
        assert_eq!(q.cursor, 4095);
        // Both within reach of the cursor, in slots 4094 and 5.
        q.schedule(at_tick(4095 + 4095, 0), SimEvent::App(node(1), 1));
        q.schedule(at_tick(4096 + 5, 0), SimEvent::App(node(2), 2));
        assert_eq!(q.far_occupied.summary, 0);
        assert_eq!(q.pop().unwrap().1, SimEvent::App(node(2), 2));
        assert_eq!(q.pop().unwrap().1, SimEvent::App(node(1), 1));
        assert_eq!(q.cursor, 4095 + 4095);
    }

    #[test]
    fn a_refiled_entry_can_land_in_the_cursor_bucket() {
        // Level 1 lists are unordered (and here reversed): re-filing at the
        // span's first tick must sort them, same-instant ties included.
        let mut q = EventQueue::new();
        let first_tick = 2 << SLOT_BITS;
        q.schedule(at_tick(first_tick, 1), SimEvent::App(node(2), 2));
        q.schedule(at_tick(first_tick, 0), SimEvent::App(node(0), 0));
        q.schedule(at_tick(first_tick, 0), SimEvent::App(node(1), 1));
        q.schedule(at_tick(first_tick + 9, 0), SimEvent::App(node(3), 3));
        assert_eq!(q.near_occupied.summary, 0);
        assert_eq!(q.peek_time(), Some(at_tick(first_tick, 0)));
        assert_eq!((q.cursor, q.far_occupied.summary), (first_tick, 0));
        for i in [0, 1, 2, 3] {
            assert_eq!(q.pop().unwrap().1, SimEvent::App(node(i), u64::from(i)));
        }
    }

    #[test]
    fn instants_beyond_the_level_one_window_park_and_bounce() {
        let hours = |h: u64| SimTime::from_secs(h * 3600);
        let span_of = |at: SimTime| EventQueue::tick_of(at) >> SLOT_BITS;
        let mut q = EventQueue::new();
        // The window ends after ≈ 4.9 h: 5 h and 6 h park in its last
        // bucket, whatever their own spans.
        for h in [6, 5, 1, 4] {
            q.schedule(hours(h), SimEvent::App(node(0), h));
        }
        assert!(span_of(hours(5)) > REACH);
        assert_eq!(q.far.get(slot_of(span_of(hours(5)))), Some(&NIL));
        assert_ne!(q.far.get(slot_of(REACH)), Some(&NIL));
        // Stopping at 4 h puts 5 h and 6 h inside the window; the cursor
        // still has to stop at the bucket they were parked in and re-file
        // them from there.
        assert_eq!(q.pop().unwrap().1, SimEvent::App(node(0), 1));
        assert_eq!(q.pop().unwrap().1, SimEvent::App(node(0), 4));
        q.schedule(hours(400 * 24), SimEvent::App(node(0), 9_600));
        assert_eq!(q.pop().unwrap().1, SimEvent::App(node(0), 5));
        assert_eq!(q.pop().unwrap().1, SimEvent::App(node(0), 6));
        // Alone and thousands of windows out: re-parked once, then reached
        // in one jump, not a window at a time.
        assert_eq!(q.peek_time(), Some(hours(9_600)));
        assert_eq!(q.cursor, EventQueue::tick_of(hours(9_600)));
        q.schedule(
            SimTime::from(std::time::Duration::MAX),
            SimEvent::MobilityTick,
        );
        assert_eq!(q.pop().unwrap().1, SimEvent::App(node(0), 9_600));
        assert_eq!(q.pop().unwrap().1, SimEvent::MobilityTick);
        assert!(q.is_empty() && q.pop().is_none());
    }
}
