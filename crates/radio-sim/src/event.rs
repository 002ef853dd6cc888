//! The deterministic event queue at the heart of the simulator.
//!
//! Events are ordered by `(time, sequence)`: ties at the same instant are
//! broken by insertion order, never by container internals, so runs are
//! exactly reproducible.
//!
//! # Calendar queue
//!
//! The queue is a two-level bucketed calendar queue. Near-future events
//! live in a ring of [`NUM_BUCKETS`] fixed-width time buckets (each
//! `2^BUCKET_SHIFT` nanoseconds wide); far-future events wait in an
//! overflow heap and migrate into the ring bucket-by-bucket as the
//! cursor reaches them. Each bucket is a small binary heap ordered by
//! `(time, seq)`, so draining the cursor bucket before advancing yields
//! exactly the global `(time, seq)` order the old single-heap
//! implementation produced. Events scheduled in the past (the simulator
//! clamps wake-ups to `now`) are folded into the cursor bucket, which is
//! always the global minimum, so ordering still holds.
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

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: SimEvent,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Width of one calendar bucket as a power-of-two nanosecond count:
/// `2^25` ns ≈ 33.6 ms, so the 128-bucket ring spans ≈ 4.3 s — wider
/// than the 3 s hello/beacon cadence, keeping steady-state traffic out
/// of the overflow heap.
const BUCKET_SHIFT: u32 = 25;
/// Number of buckets in the near-future ring.
const NUM_BUCKETS: u64 = 128;

/// A time-ordered queue of [`SimEvent`]s with deterministic tie-breaking.
///
/// See the module docs for the calendar-queue layout and the timer
/// tombstone rules.
#[derive(Debug)]
pub struct EventQueue {
    /// Ring of near-future buckets, indexed by `bucket % NUM_BUCKETS`.
    buckets: Vec<BinaryHeap<Scheduled>>,
    /// Bit `s` set iff ring slot `s` is non-empty.
    occupied: u128,
    /// Events currently held in the ring.
    near_len: usize,
    /// Far-future events (bucket beyond the ring horizon).
    overflow: BinaryHeap<Scheduled>,
    /// Absolute bucket index the ring is currently draining.
    cursor: u64,
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
        EventQueue {
            buckets: (0..NUM_BUCKETS).map(|_| BinaryHeap::new()).collect(),
            occupied: 0,
            near_len: 0,
            overflow: BinaryHeap::new(),
            cursor: 0,
            next_seq: 0,
            len: 0,
            timer_gen: Vec::new(),
            live_timers: Vec::new(),
            stale_pending: 0,
            stale_dropped: 0,
        }
    }

    /// Absolute bucket index for an instant.
    fn bucket_of(at: SimTime) -> u64 {
        u64::try_from(at.as_duration().as_nanos() >> BUCKET_SHIFT).unwrap_or(u64::MAX)
    }

    /// Ring slot for an absolute bucket index.
    fn slot_of(bucket: u64) -> usize {
        (bucket % NUM_BUCKETS) as usize
    }

    fn push_to_slot(&mut self, slot: usize, s: Scheduled) {
        if let Some(heap) = self.buckets.get_mut(slot) {
            heap.push(s);
            self.occupied |= 1u128 << slot;
            self.near_len += 1;
        }
    }

    fn insert(&mut self, s: Scheduled) {
        // Past events fold into the cursor bucket: it is the global
        // minimum and its heap orders by (time, seq), so they still pop
        // first.
        let bucket = Self::bucket_of(s.at).max(self.cursor);
        if bucket - self.cursor < NUM_BUCKETS {
            self.push_to_slot(Self::slot_of(bucket), s);
        } else {
            self.overflow.push(s);
        }
        self.len += 1;
    }

    /// Moves overflow events whose bucket the cursor has reached into
    /// the cursor bucket.
    fn migrate_due(&mut self) {
        while self
            .overflow
            .peek()
            .is_some_and(|s| Self::bucket_of(s.at) <= self.cursor)
        {
            if let Some(s) = self.overflow.pop() {
                self.push_to_slot(Self::slot_of(self.cursor), s);
            }
        }
    }

    /// Advances the cursor to the next non-empty slot, stopping early at
    /// the overflow heap's first bucket so far-future events migrate
    /// before the ring wraps past them.
    fn advance_cursor(&mut self) {
        debug_assert!(self.occupied != 0);
        let slot = Self::slot_of(self.cursor);
        // Rotating so that slot+1 lands at bit 0 makes trailing_zeros
        // the distance-minus-one to the next occupied slot; rotation is
        // mod 128, so slot 127 works too.
        let rot = (slot as u32 + 1) % 128;
        let d = u64::from(self.occupied.rotate_right(rot).trailing_zeros()) + 1;
        let mut next = self.cursor.saturating_add(d);
        if let Some(s) = self.overflow.peek() {
            next = next.min(Self::bucket_of(s.at).max(self.cursor));
        }
        self.cursor = next;
    }

    /// Positions the cursor on the bucket holding the earliest live
    /// event and discards stale timer tombstones encountered on the
    /// way. Returns `false` when no live event remains.
    fn settle(&mut self) -> bool {
        loop {
            if self.len == 0 {
                return false;
            }
            if self.near_len == 0 {
                // Ring is empty: jump straight to the overflow's first
                // bucket and pull it in.
                if let Some(s) = self.overflow.peek() {
                    self.cursor = self.cursor.max(Self::bucket_of(s.at));
                }
                self.migrate_due();
                continue;
            }
            self.migrate_due();
            let slot = Self::slot_of(self.cursor);
            if self.occupied & (1u128 << slot) == 0 {
                self.advance_cursor();
                continue;
            }
            let head_is_stale = self
                .buckets
                .get(slot)
                .and_then(|heap| heap.peek())
                .is_some_and(|s| match s.event {
                    SimEvent::Timer(node, gen) => !self.timer_is_live(node, gen),
                    _ => false,
                });
            if head_is_stale {
                if let Some(heap) = self.buckets.get_mut(slot) {
                    heap.pop();
                }
                self.note_removed(slot);
                self.stale_dropped += 1;
                self.stale_pending = self.stale_pending.saturating_sub(1);
                continue;
            }
            return true;
        }
    }

    /// Bookkeeping after removing one event from a ring slot.
    fn note_removed(&mut self, slot: usize) {
        self.near_len -= 1;
        self.len -= 1;
        if self.buckets.get(slot).is_some_and(BinaryHeap::is_empty) {
            self.occupied &= !(1u128 << slot);
        }
    }

    fn ensure_node(&mut self, node: NodeId) {
        if node.0 >= self.timer_gen.len() {
            self.timer_gen.resize(node.0 + 1, 0);
            self.live_timers.resize(node.0 + 1, 0);
        }
    }

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

    /// Invalidates every queued timer for `node` by bumping its
    /// generation; the orphaned entries become tombstones.
    fn invalidate(&mut self, node: NodeId) {
        self.ensure_node(node);
        if let Some(live) = self.live_timers.get_mut(node.0) {
            self.stale_pending += *live as usize;
            *live = 0;
        }
        if let Some(gen) = self.timer_gen.get_mut(node.0) {
            *gen = gen.wrapping_add(1);
        }
    }

    /// Schedules a wake-up timer for `node` at `at`, invalidating any
    /// timer previously queued for it (at most one live timer per node).
    pub fn schedule_timer(&mut self, at: SimTime, node: NodeId) {
        self.invalidate(node);
        let gen = self.timer_gen.get(node.0).copied().unwrap_or(0);
        self.schedule(at, SimEvent::Timer(node, gen));
    }

    /// Invalidates any queued timer for `node` without scheduling a new
    /// one.
    pub fn cancel_timer(&mut self, node: NodeId) {
        self.invalidate(node);
    }

    /// Schedules `event` at time `at`.
    ///
    /// A [`SimEvent::Timer`] passed here is booked against its stamp
    /// as-is: live if the stamp matches the node's current generation,
    /// a tombstone otherwise. Use [`EventQueue::schedule_timer`] for the
    /// invalidate-and-restamp flow.
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
    pub fn schedule_at_seq(&mut self, at: SimTime, seq: u64, event: SimEvent) {
        if let SimEvent::Timer(node, gen) = event {
            self.ensure_node(node);
            if self.timer_is_live(node, gen) {
                if let Some(live) = self.live_timers.get_mut(node.0) {
                    *live = live.saturating_add(1);
                }
            } else {
                self.stale_pending += 1;
            }
        }
        self.insert(Scheduled { at, seq, event });
    }

    /// [`EventQueue::schedule_timer`] with an externally allocated
    /// sequence number: invalidates the node's queued timers, restamps,
    /// and enqueues under `seq`.
    pub fn schedule_timer_seq(&mut self, at: SimTime, node: NodeId, seq: u64) {
        self.invalidate(node);
        let gen = self.timer_gen.get(node.0).copied().unwrap_or(0);
        self.schedule_at_seq(at, seq, SimEvent::Timer(node, gen));
    }

    /// Removes and returns the earliest live event, if any. Stale timer
    /// tombstones encountered on the way are discarded silently.
    pub fn pop(&mut self) -> Option<(SimTime, SimEvent)> {
        if !self.settle() {
            return None;
        }
        self.take_head()
    }

    /// [`EventQueue::pop`], but only when the earliest live event is due
    /// at or before `until` — the run loop's peek-then-pop with one
    /// settle instead of two.
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, SimEvent)> {
        if self.peek_time()? > until {
            return None;
        }
        self.take_head()
    }

    /// Removes the head of the cursor bucket; the queue must be settled.
    fn take_head(&mut self) -> Option<(SimTime, SimEvent)> {
        let slot = Self::slot_of(self.cursor);
        let s = self.buckets.get_mut(slot).and_then(BinaryHeap::pop)?;
        self.note_removed(slot);
        if let SimEvent::Timer(node, _) = s.event {
            if let Some(live) = self.live_timers.get_mut(node.0) {
                *live = live.saturating_sub(1);
            }
        }
        Some((s.at, s.event))
    }

    /// The time of the earliest live pending event. Takes `&mut self`
    /// because stale tombstones ahead of it are discarded.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(at, _)| at)
    }

    /// The full `(time, seq)` key of the earliest live pending event —
    /// what the sharded engine's k-way merge compares across queues.
    /// Takes `&mut self` because stale tombstones ahead of it are
    /// discarded.
    #[must_use]
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if !self.settle() {
            return None;
        }
        let slot = Self::slot_of(self.cursor);
        self.buckets
            .get(slot)
            .and_then(|heap| heap.peek())
            .map(|s| (s.at, s.seq))
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
        // The ring spans ~4.3 s; these cross into the overflow heap and
        // must migrate back without disturbing global order.
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
    fn same_instant_ties_hold_across_the_overflow_boundary() {
        // Two events at the same far-future instant, one scheduled while
        // the instant is beyond the horizon (overflow) and one after the
        // cursor advanced near it (ring): FIFO must still hold.
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(30);
        q.schedule(far, SimEvent::App(node(0), 0));
        q.schedule(SimTime::from_secs(28), SimEvent::App(node(9), 9));
        assert_eq!(q.pop().unwrap().1, SimEvent::App(node(9), 9));
        // Cursor is now within a ring's reach of `far`.
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
    fn rescheduling_a_timer_tombstones_the_old_one() {
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
    fn cancel_timer_tombstones_without_rescheduling() {
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
}
