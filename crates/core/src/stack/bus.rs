//! The intra-stack bus: the shared spine the four layers communicate
//! through.
//!
//! Rather than letting layers call each other directly (which is how
//! the pre-split `MeshNode` monolith grew together), every cross-layer
//! interaction goes through one of the bus's typed channels:
//!
//! * **commands to the MAC** — [`Bus::enqueue`] encodes a packet into
//!   the prioritised transmit queue the [`crate::mac::Mac`] drains, and
//!   [`Bus::enqueue_frame`] queues bytes a layer already holds encoded
//!   (the routing layer's hello);
//! * **events to the app** — [`Bus::emit`] appends to the application
//!   event queue drained by `MeshNode::take_events`;
//! * **shared protocol resources** — the single deterministic RNG
//!   (exactly one per node, so replaying a seed replays every draw),
//!   the stats counters, and the wrapping packet-id counter.
//!
//! The dispatch *order* in which layers get to use the bus is fixed in
//! `stack::MeshNode::process_due`; see the module docs of
//! [`crate::stack`].

use alloc::collections::VecDeque;
use alloc::sync::Arc;
use core::time::Duration;

use crate::mac::TxOutcome;
use crate::packet::Packet;
use crate::queue::{TxQueue, TX_QUEUE_CAPACITY};
use crate::rng::ProtocolRng;
use crate::stack::app::MeshEvent;
use crate::stats::NodeStats;

/// Shared state every layer can reach; see the module docs.
#[derive(Debug)]
pub(crate) struct Bus {
    /// The node's only RNG: all jitter draws (hello schedule, MAC
    /// backoff, reliable-deadline deferral) come from here, in a fixed
    /// order, so a seed fully determines the node's behaviour.
    pub(crate) rng: ProtocolRng,
    /// Protocol counters, incremented by whichever layer observes the
    /// counted fact.
    pub(crate) stats: NodeStats,
    /// Events queued for the application (the app layer's receive side).
    pub(crate) events: VecDeque<MeshEvent>,
    /// Outbound frames awaiting the MAC, at most [`TX_QUEUE_CAPACITY`].
    pub(crate) txq: TxQueue,
    next_packet_id: u8,
}

impl Bus {
    pub(crate) fn new(seed: u64) -> Self {
        Bus {
            rng: ProtocolRng::new(seed),
            stats: NodeStats::new(),
            events: VecDeque::new(),
            txq: TxQueue::new(TX_QUEUE_CAPACITY),
            next_packet_id: 0,
        }
    }

    /// The next wire packet id (wrapping).
    pub(crate) fn next_id(&mut self) -> u8 {
        let id = self.next_packet_id;
        self.next_packet_id = self.next_packet_id.wrapping_add(1);
        id
    }

    /// Queues `packet`, encoded, for transmission; a refusal is counted
    /// as backpressure (sweeps compare the counter to spot congestion
    /// collapse) and reported to the caller.
    pub(crate) fn enqueue(&mut self, packet: &Packet) -> bool {
        let accepted = self.txq.push(packet);
        self.stats.queue_refusals += u64::from(!accepted);
        accepted
    }

    /// Queues an already-encoded frame, counted as [`Bus::enqueue`] counts.
    pub(crate) fn enqueue_frame(&mut self, frame: Arc<[u8]>) -> bool {
        let accepted = self.txq.push_frame(frame);
        self.stats.queue_refusals += u64::from(!accepted);
        accepted
    }

    /// Publishes an event to the application queue.
    pub(crate) fn emit(&mut self, event: MeshEvent) {
        self.events.push_back(event);
    }

    /// Books what a MAC call did: a sent frame into the airtime
    /// counters, a dropped one as an app event.
    pub(crate) fn book(&mut self, outcome: TxOutcome) {
        match outcome {
            TxOutcome::Idle => {}
            TxOutcome::Sent { airtime } => {
                self.stats.frames_sent += 1;
                self.stats.airtime += airtime;
            }
            TxOutcome::Dropped { kind } => self.emit(MeshEvent::FrameDropped { kind }),
        }
    }

    /// Random extra delay added to every reliable-transfer deadline:
    /// uniformly 0–50 % of `base`. See
    /// [`crate::reliable::OutboundTransfer::start`] for the rule that
    /// applies it and why it is load-bearing.
    pub(crate) fn ack_jitter(&mut self, base: Duration) -> Duration {
        base.mul_f64(0.5 * self.rng.gen_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Address;
    use alloc::vec;

    fn broadcast(id: u8) -> Packet {
        Packet::Data {
            dst: Address::BROADCAST,
            src: Address::new(1),
            id,
            fwd: crate::packet::Forwarding {
                via: Address::BROADCAST,
                ttl: 1,
            },
            payload: vec![0],
        }
    }

    #[test]
    fn packet_ids_increment_and_wrap() {
        let mut bus = Bus::new(1);
        bus.next_packet_id = 254;
        assert_eq!(bus.next_id(), 254);
        assert_eq!(bus.next_id(), 255);
        assert_eq!(bus.next_id(), 0);
    }

    #[test]
    fn refused_enqueues_count_as_backpressure() {
        let mut bus = Bus::new(1);
        for _ in 0..TX_QUEUE_CAPACITY {
            assert!(bus.enqueue(&broadcast(0)));
        }
        assert!(!bus.enqueue(&broadcast(1)));
        let encoded = crate::codec::encode(&broadcast(2)).unwrap();
        assert!(!bus.enqueue_frame(encoded.into()));
        assert_eq!(bus.stats.queue_refusals, 2);
        assert_eq!(bus.txq.len(), TX_QUEUE_CAPACITY);
    }

    #[test]
    fn ack_jitter_stays_under_half_the_base() {
        let mut bus = Bus::new(7);
        let base = Duration::from_secs(10);
        for _ in 0..100 {
            assert!(bus.ack_jitter(base) < base.mul_f64(0.5));
        }
    }
}
