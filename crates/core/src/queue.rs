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

use alloc::collections::VecDeque;

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

/// A bounded three-level priority FIFO of outbound packets.
#[derive(Clone, Debug)]
pub struct TxQueue {
    levels: [VecDeque<Packet>; 3],
    capacity: usize,
    dropped: u64,
}

impl TxQueue {
    /// Creates a queue holding at most `capacity` packets in total.
    /// A zero capacity is clamped to one — a queue that can hold
    /// nothing would silently drop every packet.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TxQueue {
            levels: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            capacity,
            dropped: 0,
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
    fn level_mut(&mut self, p: Priority) -> &mut VecDeque<Packet> {
        let [control, routing, data] = &mut self.levels;
        match p {
            Priority::Control => control,
            Priority::Routing => routing,
            Priority::Data => data,
        }
    }

    /// Total queued packets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.levels.iter().map(VecDeque::len).sum()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.levels.iter().all(VecDeque::is_empty)
    }

    /// Packets dropped or refused so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Enqueues a packet at the priority of its kind.
    ///
    /// Returns `false` when the queue is full and nothing lower-priority
    /// could be evicted.
    #[must_use]
    pub fn push(&mut self, packet: Packet) -> bool {
        let prio = Priority::of(packet.kind());
        if self.len() >= self.capacity {
            // Try to evict the newest strictly-lower-priority packet.
            let lower = self.levels.iter_mut().skip(Self::level(prio) + 1);
            match lower.rev().find(|l| !l.is_empty()) {
                Some(victim) => {
                    victim.pop_back();
                    self.dropped += 1;
                }
                None => {
                    self.dropped += 1;
                    return false;
                }
            }
        }
        self.level_mut(prio).push_back(packet);
        true
    }

    /// The packet that would be sent next, without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&Packet> {
        self.levels.iter().find_map(|l| l.front())
    }

    /// Removes and returns the highest-priority, oldest packet.
    pub fn pop(&mut self) -> Option<Packet> {
        self.levels.iter_mut().find_map(VecDeque::pop_front)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Address;
    use crate::packet::Forwarding;

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
        assert!(q.push(data(1)));
        assert!(q.push(data(2)));
        assert!(q.push(hello(3)));
        assert!(q.push(ack(4)));
        let order: Vec<u8> = std::iter::from_fn(|| q.pop()).map(|p| p.id()).collect();
        assert_eq!(order, vec![4, 3, 1, 2]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = TxQueue::new(4);
        assert!(q.peek().is_none());
        assert!(q.push(data(1)));
        assert!(q.push(ack(2)));
        assert_eq!(q.peek().unwrap().id(), 2);
        assert_eq!(q.pop().unwrap().id(), 2);
        assert_eq!(q.peek().unwrap().id(), 1);
    }

    #[test]
    fn full_queue_refuses_data() {
        let mut q = TxQueue::new(2);
        assert!(q.push(data(1)));
        assert!(q.push(data(2)));
        assert!(!q.push(data(3)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    fn control_evicts_newest_data_when_full() {
        let mut q = TxQueue::new(2);
        assert!(q.push(data(1)));
        assert!(q.push(data(2)));
        assert!(q.push(ack(3)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.dropped(), 1);
        // The evicted packet is the newest data (id 2).
        let order: Vec<u8> = std::iter::from_fn(|| q.pop()).map(|p| p.id()).collect();
        assert_eq!(order, vec![3, 1]);
    }

    #[test]
    fn control_never_evicts_control() {
        let mut q = TxQueue::new(2);
        assert!(q.push(ack(1)));
        assert!(q.push(ack(2)));
        assert!(!q.push(ack(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut q = TxQueue::new(0);
        assert!(q.push(data(1)));
        assert!(!q.push(data(2)));
    }
}
