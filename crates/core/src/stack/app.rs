//! The application layer: the stack's top surface.
//!
//! Sending is validated here — payload bounds, route availability,
//! queue backpressure — before anything touches the lower layers;
//! receiving is the [`MeshEvent`] queue on the bus, filled by whichever
//! layer completes a delivery (routing for datagrams, transport for
//! reliable payloads) and drained by `MeshNode::take_events`.

use alloc::vec::Vec;

use crate::addr::Address;
use crate::codec::MAX_DATA_PAYLOAD;
use crate::error::SendError;
use crate::packet::{Forwarding, Packet, PacketKind};
use crate::stack::bus::Bus;
use crate::stack::routing::RoutingLayer;
use crate::stack::MAX_TTL;

/// Something the protocol reports to the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MeshEvent {
    /// A unicast datagram addressed to this node arrived.
    Datagram {
        /// Originating node.
        src: Address,
        /// Application payload.
        payload: Vec<u8>,
    },
    /// A broadcast datagram arrived.
    Broadcast {
        /// Originating node.
        src: Address,
        /// Application payload.
        payload: Vec<u8>,
    },
    /// A reliable transfer addressed to this node completed.
    ReliableReceived {
        /// Originating node.
        src: Address,
        /// The reassembled payload.
        payload: Vec<u8>,
    },
    /// A reliable transfer this node sent was fully acknowledged.
    ReliableDelivered {
        /// The destination.
        dst: Address,
        /// The transfer's sequence id.
        seq: u8,
    },
    /// A reliable transfer this node sent was aborted.
    ReliableFailed {
        /// The destination.
        dst: Address,
        /// The transfer's sequence id.
        seq: u8,
    },
    /// Routes timed out and were removed.
    RoutesExpired {
        /// The destinations that became unreachable.
        destinations: Vec<Address>,
    },
    /// An outbound frame was dropped by the MAC (CAD retries exhausted or
    /// frame larger than the duty budget).
    FrameDropped {
        /// The dropped packet's kind.
        kind: PacketKind,
    },
    /// A half-finished inbound transfer was abandoned.
    InboundTransferExpired {
        /// The transfer's originator.
        src: Address,
        /// The transfer's sequence id.
        seq: u8,
    },
    /// A frame originated by *our own address* was received. A
    /// half-duplex radio never hears its own transmissions, so this
    /// means another node in range uses the same address — a
    /// misconfiguration the application must resolve.
    AddressConflict {
        /// The kind of the conflicting frame.
        kind: PacketKind,
    },
}

/// Validates and queues a single-frame datagram; see
/// `MeshNode::send_datagram` for the public contract.
pub(crate) fn send_datagram(
    me: Address,
    routing: &RoutingLayer,
    bus: &mut Bus,
    dst: Address,
    payload: Vec<u8>,
) -> Result<u8, SendError> {
    if payload.is_empty() {
        return Err(SendError::EmptyPayload);
    }
    if payload.len() > MAX_DATA_PAYLOAD {
        return Err(SendError::PayloadTooLarge {
            len: payload.len(),
            max: MAX_DATA_PAYLOAD,
        });
    }
    let via = routing.resolve_via(dst)?;
    let id = bus.next_id();
    let packet = Packet::Data {
        dst,
        src: me,
        id,
        fwd: Forwarding { via, ttl: MAX_TTL },
        payload,
    };
    if !bus.enqueue(&packet) {
        return Err(SendError::QueueFull);
    }
    bus.stats.data_originated += 1;
    Ok(id)
}

/// Hands a unicast datagram payload to the application.
pub(crate) fn deliver_datagram(bus: &mut Bus, src: Address, payload: Vec<u8>) {
    bus.stats.data_delivered += 1;
    bus.emit(MeshEvent::Datagram { src, payload });
}

/// Hands a broadcast datagram payload to the application.
pub(crate) fn deliver_broadcast(bus: &mut Bus, src: Address, payload: Vec<u8>) {
    bus.stats.data_delivered += 1;
    bus.emit(MeshEvent::Broadcast { src, payload });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MeshConfig;
    use crate::queue::TX_QUEUE_CAPACITY;
    use alloc::vec;

    const ME: Address = Address::new(1);
    const PEER: Address = Address::new(2);

    fn parts() -> (RoutingLayer, Bus) {
        let config = MeshConfig::builder(ME).build();
        let routing = RoutingLayer::new(&config);
        let bus = Bus::new(config.seed);
        (routing, bus)
    }

    /// The app layer refuses bad submissions before anything reaches
    /// the lower layers: no queue traffic, no stats movement.
    #[test]
    fn validation_rejects_before_the_bus_is_touched() {
        let (routing, mut bus) = parts();
        assert_eq!(
            send_datagram(ME, &routing, &mut bus, PEER, vec![]),
            Err(SendError::EmptyPayload)
        );
        assert!(matches!(
            send_datagram(ME, &routing, &mut bus, PEER, vec![0; 4000]),
            Err(SendError::PayloadTooLarge { .. })
        ));
        assert_eq!(
            send_datagram(ME, &routing, &mut bus, PEER, vec![1]),
            Err(SendError::NoRoute(PEER))
        );
        assert!(bus.txq.is_empty());
        assert_eq!(bus.stats.data_originated, 0);
    }

    /// Broadcasts need no route and flow through the bus onto the
    /// transmit queue.
    #[test]
    fn broadcast_datagram_is_queued_through_the_bus() {
        let (routing, mut bus) = parts();
        let id = send_datagram(ME, &routing, &mut bus, Address::BROADCAST, vec![7])
            .expect("broadcasts need no route");
        assert_eq!(id, 0);
        assert_eq!(bus.txq.len(), 1);
        assert_eq!(bus.stats.data_originated, 1);
    }

    /// A full queue surfaces as `QueueFull` *and* as the backpressure
    /// counter the sweeps monitor.
    #[test]
    fn backpressure_is_reported_and_counted() {
        let (routing, mut bus) = parts();
        for _ in 0..TX_QUEUE_CAPACITY {
            assert!(send_datagram(ME, &routing, &mut bus, Address::BROADCAST, vec![1]).is_ok());
        }
        assert_eq!(
            send_datagram(ME, &routing, &mut bus, Address::BROADCAST, vec![2]),
            Err(SendError::QueueFull)
        );
        assert_eq!(bus.stats.queue_refusals, 1);
        assert_eq!(bus.stats.data_originated, TX_QUEUE_CAPACITY as u64);
    }

    /// Deliveries count and queue in arrival order.
    #[test]
    fn deliveries_reach_the_event_queue_in_order() {
        let (_, mut bus) = parts();
        deliver_datagram(&mut bus, PEER, vec![1]);
        deliver_broadcast(&mut bus, PEER, vec![2]);
        assert_eq!(bus.stats.data_delivered, 2);
        let events: Vec<MeshEvent> = bus.events.drain(..).collect();
        assert_eq!(
            events,
            vec![
                MeshEvent::Datagram {
                    src: PEER,
                    payload: vec![1]
                },
                MeshEvent::Broadcast {
                    src: PEER,
                    payload: vec![2]
                },
            ]
        );
    }
}
