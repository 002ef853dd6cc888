//! The transport layer: reliable large-payload transfers.
//!
//! Owns the per-destination outbound and per-`(source, seq)` inbound
//! transfer state machines from [`crate::reliable`] and turns their
//! actions into wire packets: SYNC and fragment emissions on the send
//! side, ACK and LOST control packets on the receive side. All packets
//! leave through the bus's transmit queue (routed via the routing
//! layer's next-hop lookup) and all completions are reported through
//! the bus's event queue.

use alloc::collections::BTreeMap;
use alloc::vec::Vec;
use core::time::Duration;

use crate::addr::Address;
use crate::codec::{MAX_FRAG_PAYLOAD, MAX_LOST_INDICES, MAX_RELIABLE_PAYLOAD};
use crate::error::SendError;
use crate::packet::{Forwarding, Packet, SYNC_ACK_INDEX};
use crate::reliable::{
    InboundTransfer, OutboundTransfer, ReceiverAction, SenderAction, TransferPhase, ACK_TIMEOUT,
    MAX_RETRIES, REASSEMBLY_TIMEOUT,
};
use crate::stack::app::MeshEvent;
use crate::stack::bus::Bus;
use crate::stack::routing::RoutingLayer;
use crate::stack::MAX_TTL;

/// Control-packet kinds the receiver side sends back.
enum ControlKind {
    Ack(u16),
    Lost(Vec<u16>),
}

/// Transport state; see the module docs.
#[derive(Debug)]
pub(crate) struct TransportLayer {
    outbound: BTreeMap<Address, OutboundTransfer>,
    inbound: BTreeMap<(Address, u8), InboundTransfer>,
    next_seq: u8,
}

impl TransportLayer {
    pub(crate) fn new() -> Self {
        TransportLayer {
            outbound: BTreeMap::new(),
            inbound: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Validates and starts a reliable transfer; see
    /// `MeshNode::send_reliable` for the public contract.
    pub(crate) fn send_reliable(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        now: Duration,
        me: Address,
        bus: &mut Bus,
        routing: &RoutingLayer,
    ) -> Result<u8, SendError> {
        if payload.is_empty() {
            return Err(SendError::EmptyPayload);
        }
        if dst.is_broadcast() {
            return Err(SendError::BroadcastUnsupported);
        }
        if routing.table.next_hop(dst).is_none() {
            return Err(SendError::NoRoute(dst));
        }
        if self.outbound.contains_key(&dst) {
            return Err(SendError::TransferInProgress(dst));
        }
        let seq = self.next_seq;
        let Some(mut transfer) = OutboundTransfer::new(
            dst,
            seq,
            &payload,
            MAX_FRAG_PAYLOAD,
            ACK_TIMEOUT,
            MAX_RETRIES,
        ) else {
            return Err(SendError::PayloadTooLarge {
                len: payload.len(),
                max: MAX_RELIABLE_PAYLOAD,
            });
        };
        self.next_seq = self.next_seq.wrapping_add(1);
        let action = transfer.start(now);
        transfer.defer_deadline(bus.ack_jitter(ACK_TIMEOUT));
        self.outbound.insert(dst, transfer);
        self.apply_sender_action(dst, action, me, bus, routing);
        Ok(seq)
    }

    fn apply_sender_action(
        &mut self,
        dst: Address,
        action: SenderAction,
        me: Address,
        bus: &mut Bus,
        routing: &RoutingLayer,
    ) {
        match action {
            SenderAction::None => {}
            SenderAction::SendSync => {
                let Some(t) = self.outbound.get(&dst) else {
                    return;
                };
                let (seq, frag_count, total_len) = (t.seq, t.frag_count(), t.total_len());
                let Some(via) = routing.table.next_hop(dst) else {
                    bus.stats.no_route_drops += 1;
                    return;
                };
                let id = bus.next_id();
                let packet = Packet::Sync {
                    dst,
                    src: me,
                    id,
                    fwd: Forwarding { via, ttl: MAX_TTL },
                    seq,
                    frag_count,
                    total_len,
                };
                let _ = bus.enqueue(packet);
            }
            SenderAction::SendFrag(index) => {
                let Some(t) = self.outbound.get(&dst) else {
                    return;
                };
                let (seq, data) = (t.seq, t.fragment(index).to_vec());
                let Some(via) = routing.table.next_hop(dst) else {
                    bus.stats.no_route_drops += 1;
                    return;
                };
                let id = bus.next_id();
                let packet = Packet::Frag {
                    dst,
                    src: me,
                    id,
                    fwd: Forwarding { via, ttl: MAX_TTL },
                    seq,
                    index,
                    data,
                };
                let _ = bus.enqueue(packet);
            }
            SenderAction::Completed => {
                if let Some(t) = self.outbound.remove(&dst) {
                    bus.stats.reliable_sent += 1;
                    bus.stats.reliable_retransmits += u64::from(t.retransmits);
                    bus.emit(MeshEvent::ReliableDelivered { dst, seq: t.seq });
                }
            }
            SenderAction::Aborted(_) => {
                if let Some(t) = self.outbound.remove(&dst) {
                    bus.stats.reliable_aborted += 1;
                    bus.stats.reliable_retransmits += u64::from(t.retransmits);
                    bus.emit(MeshEvent::ReliableFailed { dst, seq: t.seq });
                }
            }
        }
    }

    /// Sends a reliable-transfer control packet back to `peer`.
    fn send_control(
        &mut self,
        peer: Address,
        seq: u8,
        kind: ControlKind,
        me: Address,
        bus: &mut Bus,
        routing: &RoutingLayer,
    ) {
        let Some(via) = routing.table.next_hop(peer) else {
            bus.stats.no_route_drops += 1;
            return;
        };
        let id = bus.next_id();
        let fwd = Forwarding { via, ttl: MAX_TTL };
        let packet = match kind {
            ControlKind::Ack(index) => Packet::Ack {
                dst: peer,
                src: me,
                id,
                fwd,
                seq,
                index,
            },
            ControlKind::Lost(missing) => Packet::Lost {
                dst: peer,
                src: me,
                id,
                fwd,
                seq,
                missing,
            },
        };
        let _ = bus.enqueue(packet);
    }

    /// Consumes a transport packet addressed to this node (dispatch from
    /// `on_frame`; Hello and Data never reach here).
    pub(crate) fn consume(
        &mut self,
        packet: Packet,
        now: Duration,
        me: Address,
        bus: &mut Bus,
        routing: &RoutingLayer,
    ) {
        match packet {
            Packet::Hello { .. } | Packet::Data { .. } => {
                // Routed to the routing/app layers in on_frame; tolerate
                // a misdispatch instead of crashing the node.
                debug_assert!(false, "hello/data handled before the transport layer");
            }
            Packet::Sync {
                src,
                seq,
                frag_count,
                total_len,
                ..
            } => {
                if frag_count == 0 {
                    bus.stats.decode_errors += 1;
                    return;
                }
                let transfer = self
                    .inbound
                    .entry((src, seq))
                    .or_insert_with(|| InboundTransfer::new(src, seq, frag_count, total_len, now));
                let ReceiverAction::AckSync = transfer.on_sync(now) else {
                    return;
                };
                self.send_control(src, seq, ControlKind::Ack(SYNC_ACK_INDEX), me, bus, routing);
            }
            Packet::Frag {
                src,
                seq,
                index,
                data,
                ..
            } => {
                let Some(transfer) = self.inbound.get_mut(&(src, seq)) else {
                    // Sync never arrived (or expired): nothing to attach to.
                    return;
                };
                let actions = transfer.on_frag(index, &data, now);
                for action in actions {
                    match action {
                        ReceiverAction::AckSync => {
                            self.send_control(
                                src,
                                seq,
                                ControlKind::Ack(SYNC_ACK_INDEX),
                                me,
                                bus,
                                routing,
                            );
                        }
                        ReceiverAction::AckFrag(i) => {
                            self.send_control(src, seq, ControlKind::Ack(i), me, bus, routing);
                        }
                        ReceiverAction::Complete(payload) => {
                            bus.stats.reliable_received += 1;
                            bus.emit(MeshEvent::ReliableReceived { src, payload });
                        }
                    }
                }
            }
            Packet::Ack {
                src, seq, index, ..
            } => {
                let jitter = bus.ack_jitter(ACK_TIMEOUT);
                let action = match self.outbound.get_mut(&src) {
                    Some(t) if t.seq == seq => {
                        let action = t.on_ack(index, now);
                        t.defer_deadline(jitter);
                        Some(action)
                    }
                    _ => None,
                };
                if let Some(action) = action {
                    self.apply_sender_action(src, action, me, bus, routing);
                }
            }
            Packet::Lost {
                src, seq, missing, ..
            } => {
                let jitter = bus.ack_jitter(ACK_TIMEOUT);
                let action = match self.outbound.get_mut(&src) {
                    Some(t) if t.seq == seq => {
                        let action = t.on_lost(&missing, now);
                        t.defer_deadline(jitter);
                        Some(action)
                    }
                    _ => None,
                };
                if let Some(action) = action {
                    self.apply_sender_action(src, action, me, bus, routing);
                }
            }
        }
    }

    /// Steps 3–4 of the dispatch order: outbound retransmission
    /// deadlines, then stalled-inbound LOST nudges, then inbound
    /// reassembly expiry.
    pub(crate) fn process_due(
        &mut self,
        now: Duration,
        me: Address,
        bus: &mut Bus,
        routing: &RoutingLayer,
    ) {
        if self.is_idle() {
            return;
        }
        // 3. Outbound reliable deadlines.
        let due: Vec<Address> = self
            .outbound
            .iter()
            .filter(|(_, t)| t.deadline().is_some_and(|d| d <= now))
            .map(|(dst, _)| *dst)
            .collect();
        for dst in due {
            let jitter = bus.ack_jitter(ACK_TIMEOUT);
            let action = self
                .outbound
                .get_mut(&dst)
                .map(|t| {
                    let action = t.on_timeout(now);
                    t.defer_deadline(jitter);
                    action
                })
                .unwrap_or(SenderAction::None);
            self.apply_sender_action(dst, action, me, bus, routing);
        }
        // 4a. Inbound transfers that stalled mid-way: nudge the sender
        //     with a Lost request listing the missing fragments.
        let stalled: Vec<(Address, u8, Vec<u16>)> = self
            .inbound
            .iter()
            .filter(|(_, t)| {
                t.stalled(now, ACK_TIMEOUT)
                    && t.lost_requests() < MAX_RETRIES
                    && !t.missing().is_empty()
            })
            .map(|(k, t)| {
                // The earliest indices that fit one frame: the sender
                // rewinds to the first, and a later request names the rest.
                let mut missing = t.missing();
                missing.truncate(MAX_LOST_INDICES);
                (k.0, k.1, missing)
            })
            .collect();
        for (src, seq, missing) in stalled {
            if let Some(t) = self.inbound.get_mut(&(src, seq)) {
                t.note_lost_sent(now);
            }
            self.send_control(src, seq, ControlKind::Lost(missing), me, bus, routing);
        }
        // 4b. Inbound reassembly expiry.
        let expired: Vec<(Address, u8)> = self
            .inbound
            .iter()
            .filter(|(_, t)| t.expired(now, REASSEMBLY_TIMEOUT))
            .map(|(k, _)| *k)
            .collect();
        for key in expired {
            if let Some(t) = self.inbound.remove(&key) {
                if !t.is_delivered() {
                    bus.stats.reliable_aborted += 1;
                    bus.emit(MeshEvent::InboundTransferExpired {
                        src: key.0,
                        seq: key.1,
                    });
                }
            }
        }
    }

    /// The earliest transport deadline, for `next_wake`.
    pub(crate) fn next_wake(&self) -> Option<Duration> {
        if self.is_idle() {
            return None;
        }
        let outbound = self
            .outbound
            .values()
            .filter_map(OutboundTransfer::deadline)
            .min();
        let reassembly = self
            .inbound
            .values()
            .map(|t| t.last_activity + REASSEMBLY_TIMEOUT)
            .min();
        let stall = self
            .inbound
            .values()
            .filter(|t| t.lost_requests() < MAX_RETRIES)
            .filter_map(|t| t.stall_deadline(ACK_TIMEOUT))
            .min();
        [outbound, reassembly, stall].into_iter().flatten().min()
    }

    /// No transfer in either direction: nothing can fall due, so the
    /// dispatch steps and the wake-up scan return at once.
    fn is_idle(&self) -> bool {
        self.outbound.is_empty() && self.inbound.is_empty()
    }

    /// Retransmissions of transfers still in flight (stats snapshots).
    pub(crate) fn in_flight_retransmits(&self) -> u64 {
        self.outbound
            .values()
            .map(|t| u64::from(t.retransmits))
            .sum()
    }

    /// Progress of the active outbound transfers (diagnostics).
    pub(crate) fn outbound_transfers(&self) -> Vec<(Address, u8, TransferPhase)> {
        self.outbound
            .iter()
            .map(|(dst, t)| (*dst, t.seq, t.phase()))
            .collect()
    }

    /// Progress of the active inbound transfers (diagnostics).
    pub(crate) fn inbound_transfers(&self) -> Vec<(Address, u8, usize, usize)> {
        self.inbound
            .iter()
            .map(|((src, seq), t)| {
                (
                    *src,
                    *seq,
                    t.received_count(),
                    t.received_count() + t.missing().len(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MeshConfig;
    use alloc::vec;

    const ME: Address = Address::new(1);
    const PEER: Address = Address::new(2);

    fn parts() -> (RoutingLayer, TransportLayer, Bus) {
        let config = MeshConfig::builder(ME).build();
        let mut routing = RoutingLayer::new(&config);
        routing.table.heard_from(PEER, 0.0, Duration::ZERO);
        let bus = Bus::new(config.seed);
        (routing, TransportLayer::new(), bus)
    }

    #[test]
    fn send_reliable_queues_a_sync_through_the_bus() {
        let (routing, mut t, mut bus) = parts();
        let seq = t
            .send_reliable(PEER, vec![9; 300], Duration::ZERO, ME, &mut bus, &routing)
            .expect("route exists");
        assert_eq!(seq, 0);
        match bus.txq.pop() {
            Some(Packet::Sync {
                dst, frag_count, ..
            }) => {
                assert_eq!(dst, PEER);
                assert!(frag_count > 0);
            }
            p => panic!("unexpected {p:?}"),
        }
        assert_eq!(t.outbound_transfers().len(), 1);
    }

    #[test]
    fn second_transfer_to_same_destination_is_refused() {
        let (routing, mut t, mut bus) = parts();
        t.send_reliable(PEER, vec![1; 100], Duration::ZERO, ME, &mut bus, &routing)
            .unwrap();
        assert_eq!(
            t.send_reliable(PEER, vec![2; 100], Duration::ZERO, ME, &mut bus, &routing),
            Err(SendError::TransferInProgress(PEER))
        );
    }

    #[test]
    fn zero_fragment_sync_is_rejected() {
        let (routing, mut t, mut bus) = parts();
        t.consume(
            Packet::Sync {
                dst: ME,
                src: PEER,
                id: 1,
                fwd: Forwarding { via: ME, ttl: 5 },
                seq: 0,
                frag_count: 0,
                total_len: 0,
            },
            Duration::ZERO,
            ME,
            &mut bus,
            &routing,
        );
        assert_eq!(bus.stats.decode_errors, 1);
        assert!(t.inbound_transfers().is_empty());
    }

    #[test]
    fn ack_for_unknown_transfer_is_ignored() {
        let (routing, mut t, mut bus) = parts();
        t.consume(
            Packet::Ack {
                dst: ME,
                src: PEER,
                id: 0,
                fwd: Forwarding { via: ME, ttl: 5 },
                seq: 9,
                index: 0,
            },
            Duration::ZERO,
            ME,
            &mut bus,
            &routing,
        );
        assert!(bus.events.is_empty());
        assert!(t.outbound_transfers().is_empty());
    }

    /// A sync with no follow-up fragments trips the stall deadline; the
    /// layer must nudge the sender with a LOST listing every fragment.
    #[test]
    fn stalled_inbound_transfer_emits_a_lost_request() {
        let (routing, mut t, mut bus) = parts();
        t.consume(
            Packet::Sync {
                dst: ME,
                src: PEER,
                id: 1,
                fwd: Forwarding { via: ME, ttl: 5 },
                seq: 3,
                frag_count: 2,
                total_len: 20,
            },
            Duration::ZERO,
            ME,
            &mut bus,
            &routing,
        );
        // The sync-ack leaves immediately.
        assert!(matches!(bus.txq.pop(), Some(Packet::Ack { .. })));
        let stall_at = ACK_TIMEOUT + Duration::from_secs(1);
        assert!(t.next_wake().is_some_and(|w| w <= stall_at));
        t.process_due(stall_at, ME, &mut bus, &routing);
        match bus.txq.pop() {
            Some(Packet::Lost { missing, .. }) => assert_eq!(missing, vec![0, 1]),
            p => panic!("unexpected {p:?}"),
        }
    }

    /// A stall with more fragments missing than one frame can list asks
    /// for the earliest ones, in a Lost that still encodes.
    #[test]
    fn lost_request_lists_what_fits_one_frame() {
        let (routing, mut t, mut bus) = parts();
        t.consume(
            Packet::Sync {
                dst: ME,
                src: PEER,
                id: 1,
                fwd: Forwarding { via: ME, ttl: 5 },
                seq: 3,
                frag_count: 300,
                total_len: 30_000,
            },
            Duration::ZERO,
            ME,
            &mut bus,
            &routing,
        );
        assert!(matches!(bus.txq.pop(), Some(Packet::Ack { .. })));
        let stall_at = ACK_TIMEOUT + Duration::from_secs(1);
        t.process_due(stall_at, ME, &mut bus, &routing);
        let lost = bus.txq.pop().expect("a Lost request");
        match &lost {
            Packet::Lost { missing, .. } => {
                let first: Vec<u16> = (0..).take(MAX_LOST_INDICES).collect();
                assert_eq!(*missing, first);
            }
            p => panic!("unexpected {p:?}"),
        }
        assert!(crate::codec::encode(&lost).is_ok());
    }

    /// An abandoned inbound transfer expires into an app event.
    #[test]
    fn expired_inbound_transfer_reports_to_the_app() {
        let (routing, mut t, mut bus) = parts();
        t.consume(
            Packet::Sync {
                dst: ME,
                src: PEER,
                id: 1,
                fwd: Forwarding { via: ME, ttl: 5 },
                seq: 7,
                frag_count: 2,
                total_len: 20,
            },
            Duration::ZERO,
            ME,
            &mut bus,
            &routing,
        );
        t.process_due(
            REASSEMBLY_TIMEOUT + Duration::from_secs(1),
            ME,
            &mut bus,
            &routing,
        );
        assert!(t.inbound_transfers().is_empty());
        assert_eq!(bus.stats.reliable_aborted, 1);
        assert!(bus.events.iter().any(
            |e| matches!(e, MeshEvent::InboundTransferExpired { src, seq: 7 } if *src == PEER)
        ));
    }
}
