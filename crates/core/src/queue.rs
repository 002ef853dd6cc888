//! The prioritised transmit queue.
//!
//! Outbound frames wait here for the MAC to win the channel. Three
//! priorities keep the protocol responsive under load: acknowledgements
//! first (a blocked ACK stalls a whole reliable transfer), then routing
//! traffic (a late Hello ages routes across the mesh), then data. Within
//! a priority the queue is FIFO. The queue is bounded; when full, an
//! arriving frame is refused — the protocol surfaces that to the
//! application as [`crate::SendError::QueueFull`] — except that a
//! higher-priority frame may evict the newest lowest-priority one.
//!
//! The queue holds wire frames: a packet is encoded once, when it is
//! queued, into a buffer the queue keeps, and copied from there into
//! the `Arc` the radio shares — one allocation per frame. A layer that
//! already holds a frame's bytes (LoRaMesher's hello beacon) queues
//! them with [`TxQueue::push_frame`]; both enter through one admission
//! rule, keyed on the kind byte of the frame's header. The MAC only
//! prices and transmits bytes.

use alloc::collections::VecDeque;
use alloc::sync::Arc;
use alloc::vec::Vec;

use crate::codec;
use crate::packet::{Packet, PacketKind};

/// Frames every stack's transmit queue holds (LoRaMesher, flooding and
/// the star baseline alike).
pub const TX_QUEUE_CAPACITY: usize = 32;

/// Transmission priority classes, highest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Reliable-transfer control traffic (Ack/Lost).
    Control,
    /// Routing broadcasts (Hello).
    Routing,
    /// Application data (Data/Sync/Frag).
    Data,
}

impl Priority {
    /// The priority class a packet kind belongs to.
    #[must_use]
    pub fn of(kind: PacketKind) -> Self {
        match kind {
            PacketKind::Ack | PacketKind::Lost => Priority::Control,
            PacketKind::Hello => Priority::Routing,
            PacketKind::Data | PacketKind::Sync | PacketKind::Frag => Priority::Data,
        }
    }
}

/// A bounded three-level priority FIFO of encoded outbound frames.
#[derive(Clone, Debug)]
pub struct TxQueue {
    levels: [VecDeque<Arc<[u8]>>; 3],
    capacity: usize,
    dropped: u64,
    /// Reused encode buffer for [`TxQueue::push`].
    scratch: Vec<u8>,
}

impl TxQueue {
    /// Creates a queue holding at most `capacity` frames in total.
    /// A zero capacity is clamped to one — a queue that can hold
    /// nothing would silently drop every frame.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TxQueue {
            levels: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            capacity,
            dropped: 0,
            scratch: Vec::new(),
        }
    }

    fn level(p: Priority) -> usize {
        match p {
            Priority::Control => 0,
            Priority::Routing => 1,
            Priority::Data => 2,
        }
    }

    /// The FIFO of one priority class.
    fn level_mut(&mut self, p: Priority) -> &mut VecDeque<Arc<[u8]>> {
        let [control, routing, data] = &mut self.levels;
        match p {
            Priority::Control => control,
            Priority::Routing => routing,
            Priority::Data => data,
        }
    }

    /// Total queued frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.levels.iter().map(VecDeque::len).sum()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.levels.iter().all(VecDeque::is_empty)
    }

    /// Frames evicted or refused so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Encodes `packet` and enqueues the frame at the priority of its
    /// kind.
    ///
    /// Returns `false` when the queue is full and nothing lower-priority
    /// could be evicted, or when the packet does not encode (longer than
    /// a frame: the stacks validate sizes before queueing, so that is a
    /// bug, and debug builds stop on it).
    #[must_use]
    pub fn push(&mut self, packet: &Packet) -> bool {
        let kind = codec::encode_into(packet, &mut self.scratch)
            .ok()
            .map(|()| packet.kind());
        let Some(prio) = self.admit(kind) else {
            return false;
        };
        let frame = Arc::from(self.scratch.as_slice());
        self.level_mut(prio).push_back(frame);
        true
    }

    /// Enqueues an already-encoded frame at the priority of the kind its
    /// header names, under the same rule as [`TxQueue::push`].
    #[must_use]
    pub fn push_frame(&mut self, frame: Arc<[u8]>) -> bool {
        let Some(prio) = self.admit(codec::frame_kind(&frame)) else {
            return false;
        };
        self.level_mut(prio).push_back(frame);
        true
    }

    /// Makes room for a frame of `kind` and returns its priority, or
    /// refuses it (counted in [`TxQueue::dropped`]): a full queue evicts
    /// the newest strictly-lower-priority frame or refuses, and a frame
    /// with no kind (one that did not encode) is always refused.
    fn admit(&mut self, kind: Option<PacketKind>) -> Option<Priority> {
        let Some(kind) = kind else {
            self.dropped += 1;
            debug_assert!(
                false,
                "a frame that does not encode reached the transmit queue"
            );
            return None;
        };
        let prio = Priority::of(kind);
        if self.len() >= self.capacity {
            self.dropped += 1;
            let lower = self.levels.iter_mut().skip(Self::level(prio) + 1);
            lower.rev().find(|l| !l.is_empty())?.pop_back();
        }
        Some(prio)
    }

    /// The length of the frame that would be sent next.
    #[must_use]
    pub fn front_len(&self) -> Option<usize> {
        self.levels.iter().find_map(|l| l.front()).map(|f| f.len())
    }

    /// Removes and returns the highest-priority, oldest frame.
    pub fn pop(&mut self) -> Option<Arc<[u8]>> {
        self.levels.iter_mut().find_map(VecDeque::pop_front)
    }

    /// Removes the frame that would be sent next, unsent, and returns
    /// its kind.
    pub fn discard_front(&mut self) -> Option<PacketKind> {
        self.pop().and_then(|frame| codec::frame_kind(&frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Address;
    use crate::packet::Forwarding;

    /// The packet ids of every queued frame, in send order.
    fn drain_ids(q: &mut TxQueue) -> Vec<u8> {
        std::iter::from_fn(|| q.pop())
            .map(|f| codec::decode(&f).unwrap().id())
            .collect()
    }

    fn data(id: u8) -> Packet {
        Packet::Data {
            dst: Address::new(2),
            src: Address::new(1),
            id,
            fwd: Forwarding {
                via: Address::new(2),
                ttl: 5,
            },
            payload: vec![id],
        }
    }

    fn hello(id: u8) -> Packet {
        Packet::Hello {
            src: Address::new(1),
            id,
            role: 0,
            entries: vec![],
        }
    }

    fn ack(id: u8) -> Packet {
        Packet::Ack {
            dst: Address::new(2),
            src: Address::new(1),
            id,
            fwd: Forwarding {
                via: Address::new(2),
                ttl: 5,
            },
            seq: 0,
            index: 0,
        }
    }

    #[test]
    fn priority_mapping() {
        assert_eq!(Priority::of(PacketKind::Ack), Priority::Control);
        assert_eq!(Priority::of(PacketKind::Lost), Priority::Control);
        assert_eq!(Priority::of(PacketKind::Hello), Priority::Routing);
        assert_eq!(Priority::of(PacketKind::Data), Priority::Data);
        assert_eq!(Priority::of(PacketKind::Sync), Priority::Data);
        assert_eq!(Priority::of(PacketKind::Frag), Priority::Data);
        assert!(Priority::Control < Priority::Data);
    }

    #[test]
    fn pops_by_priority_then_fifo() {
        let mut q = TxQueue::new(10);
        assert!(q.push(&data(1)));
        assert!(q.push(&data(2)));
        assert!(q.push(&hello(3)));
        assert!(q.push(&ack(4)));
        assert_eq!(drain_ids(&mut q), vec![4, 3, 1, 2]);
    }

    /// A packet is queued as its encoding, and the front's length is
    /// the length of the frame `pop` returns.
    #[test]
    fn queued_frames_are_the_packets_encodings() {
        let mut q = TxQueue::new(4);
        assert_eq!(q.front_len(), None);
        assert!(q.push(&data(1)));
        assert!(q.push(&ack(2)));
        let ack_wire = codec::encode(&ack(2)).unwrap();
        assert_eq!(q.front_len(), Some(ack_wire.len()));
        assert_eq!(&*q.pop().unwrap(), &ack_wire[..]);
        assert_eq!(q.front_len(), Some(codec::encoded_len(&data(1))));
        assert_eq!(q.discard_front(), Some(PacketKind::Data));
        assert!(q.is_empty());
    }

    /// Already-encoded bytes go through the same admission as packets:
    /// priority from the header's kind byte, eviction when full.
    #[test]
    fn pushed_frames_take_the_priority_their_header_names() {
        let mut q = TxQueue::new(2);
        assert!(q.push(&data(1)));
        assert!(q.push(&data(2)));
        let hello_wire: Arc<[u8]> = codec::encode(&hello(3)).unwrap().into();
        assert!(q.push_frame(hello_wire.clone()));
        assert_eq!(q.dropped(), 1);
        assert!(
            Arc::ptr_eq(&q.pop().unwrap(), &hello_wire),
            "shared, not copied"
        );
        assert_eq!(drain_ids(&mut q), vec![1]);
    }

    /// A packet that does not encode (a payload past the frame limit,
    /// which every stack refuses before queueing) is refused and
    /// counted, and leaves the queue as it was; debug builds also stop
    /// on it. So is a frame too short to name its kind.
    #[test]
    fn a_packet_that_does_not_encode_is_refused() {
        let mut q = TxQueue::new(4);
        assert!(q.push(&data(1)));
        let mut oversized = data(2);
        if let Packet::Data { payload, .. } = &mut oversized {
            *payload = vec![0; 300];
        }
        // Release builds return `false`; debug builds panic after counting.
        let refuse = |q: &mut TxQueue, push: &dyn Fn(&mut TxQueue) -> bool| {
            let pushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| push(q)));
            assert_eq!(pushed.ok(), (!cfg!(debug_assertions)).then_some(false));
        };
        refuse(&mut q, &|q| q.push(&oversized));
        assert_eq!((q.dropped(), q.len()), (1, 1));
        refuse(&mut q, &|q| q.push_frame(Arc::from(&[][..])));
        assert_eq!((q.dropped(), q.len()), (2, 1));
        assert_eq!(drain_ids(&mut q), vec![1]);
    }

    #[test]
    fn full_queue_refuses_data() {
        let mut q = TxQueue::new(2);
        assert!(q.push(&data(1)));
        assert!(q.push(&data(2)));
        assert!(!q.push(&data(3)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    fn control_evicts_newest_data_when_full() {
        let mut q = TxQueue::new(2);
        assert!(q.push(&data(1)));
        assert!(q.push(&data(2)));
        assert!(q.push(&ack(3)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.dropped(), 1);
        // The evicted frame is the newest data (id 2).
        assert_eq!(drain_ids(&mut q), vec![3, 1]);
    }

    #[test]
    fn control_never_evicts_control() {
        let mut q = TxQueue::new(2);
        assert!(q.push(&ack(1)));
        assert!(q.push(&ack(2)));
        assert!(!q.push(&ack(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut q = TxQueue::new(0);
        assert!(q.push(&data(1)));
        assert!(!q.push(&data(2)));
    }
}
