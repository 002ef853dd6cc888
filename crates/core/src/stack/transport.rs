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
use crate::codec::{UnicastBody, MAX_FRAG_PAYLOAD, MAX_LOST_INDICES, MAX_RELIABLE_PAYLOAD};
use crate::error::SendError;
use crate::packet::{Forwarding, Packet, SYNC_ACK_INDEX};
use crate::reliable::{
    InboundTransfer, OutboundTransfer, SenderAction, TransferPhase, ACK_TIMEOUT, REASSEMBLY_TIMEOUT,
};
use crate::stack::app::MeshEvent;
use crate::stack::bus::Bus;
use crate::stack::routing::RoutingLayer;
use crate::stack::MAX_TTL;

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
        let len = payload.len();
        let mut transfer = OutboundTransfer::new(seq, payload, MAX_FRAG_PAYLOAD).ok_or(
            SendError::PayloadTooLarge {
                len,
                max: MAX_RELIABLE_PAYLOAD,
            },
        )?;
        self.next_seq = self.next_seq.wrapping_add(1);
        let action = transfer.start(now, bus.ack_jitter(ACK_TIMEOUT));
        apply(dst, &transfer, action, me, bus, routing);
        self.outbound.insert(dst, transfer);
        Ok(seq)
    }

    /// Consumes a transport frame addressed to this node: `on_frame`
    /// hands Data to the app and everything else here, borrowed.
    pub(crate) fn consume(
        &mut self,
        src: Address,
        body: UnicastBody<'_>,
        now: Duration,
        me: Address,
        bus: &mut Bus,
        routing: &RoutingLayer,
    ) {
        match body {
            UnicastBody::Data { .. } => {}
            UnicastBody::Sync {
                seq, frag_count, ..
            } => {
                if frag_count == 0 {
                    bus.stats.decode_errors += 1;
                    return;
                }
                self.inbound
                    .entry((src, seq))
                    .or_insert_with(|| InboundTransfer::new(frag_count, now))
                    .on_sync(now);
                send_ack(src, seq, SYNC_ACK_INDEX, me, bus, routing);
            }
            UnicastBody::Frag { seq, index, data } => {
                // A Frag whose Sync never arrived (or expired) has nothing
                // to attach to; one past the announced count is ignored.
                let Some(completed) = self
                    .inbound
                    .get_mut(&(src, seq))
                    .and_then(|t| t.on_frag(index, data, now))
                else {
                    return;
                };
                send_ack(src, seq, index, me, bus, routing);
                if let Some(payload) = completed {
                    bus.stats.reliable_received += 1;
                    bus.emit(MeshEvent::ReliableReceived { src, payload });
                }
            }
            UnicastBody::Ack { seq, index } => {
                self.on_reply(src, seq, me, bus, routing, |t, jitter| {
                    t.on_ack(index, now, jitter)
                });
            }
            UnicastBody::Lost { seq, missing } => {
                let missing = missing.iter().map(|&m| u16::from_le_bytes(m));
                self.on_reply(src, seq, me, bus, routing, |t, jitter| {
                    t.on_lost(missing, now, jitter)
                });
            }
        }
    }

    /// An Ack or Lost from `src`: one jitter draw whether or not it
    /// matches a transfer, then `step` on the transfer it matches.
    fn on_reply(
        &mut self,
        src: Address,
        seq: u8,
        me: Address,
        bus: &mut Bus,
        routing: &RoutingLayer,
        step: impl FnOnce(&mut OutboundTransfer, Duration) -> SenderAction,
    ) {
        let jitter = bus.ack_jitter(ACK_TIMEOUT);
        let Some(t) = self.outbound.get_mut(&src).filter(|t| t.seq == seq) else {
            return;
        };
        let action = step(t, jitter);
        apply(src, t, action, me, bus, routing);
        if t.phase() == TransferPhase::Done {
            self.outbound.remove(&src);
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
        self.outbound.retain(|&dst, t| {
            if t.deadline().is_some_and(|d| d <= now) {
                let action = t.on_timeout(now, bus.ack_jitter(ACK_TIMEOUT));
                apply(dst, t, action, me, bus, routing);
            }
            t.phase() != TransferPhase::Done
        });
        // 4a. Inbound transfers that stalled mid-way: nudge the sender
        //     with a Lost request listing the missing fragments.
        for (&(src, seq), t) in &mut self.inbound {
            if !t.stalled(now) {
                continue;
            }
            t.note_lost_sent(now);
            // The earliest indices that fit one frame: the sender
            // rewinds to the first, and a later request names the rest.
            let mut missing = t.missing();
            missing.truncate(MAX_LOST_INDICES);
            send(src, bus, routing, |id, fwd| Packet::Lost {
                dst: src,
                src: me,
                id,
                fwd,
                seq,
                missing,
            });
        }
        // 4b. Inbound reassembly expiry.
        self.inbound.retain(|&(src, seq), t| {
            if !t.expired(now) {
                return true;
            }
            if !t.is_delivered() {
                bus.stats.reliable_aborted += 1;
                bus.emit(MeshEvent::InboundTransferExpired { src, seq });
            }
            false
        });
    }

    /// The earliest transport deadline, for `next_wake`.
    pub(crate) fn next_wake(&self) -> Option<Duration> {
        if self.is_idle() {
            return None;
        }
        let outbound = self
            .outbound
            .values()
            .filter_map(OutboundTransfer::deadline);
        let inbound = self.inbound.values().flat_map(|t| {
            [
                Some(t.last_activity + REASSEMBLY_TIMEOUT),
                t.stall_deadline(),
            ]
        });
        outbound.chain(inbound.flatten()).min()
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

/// Carries out what a step of the transfer to `dst` decided: sends its
/// Sync or a fragment, or books its end. The caller forgets a transfer
/// that is [`TransferPhase::Done`].
fn apply(
    dst: Address,
    t: &OutboundTransfer,
    action: SenderAction,
    me: Address,
    bus: &mut Bus,
    routing: &RoutingLayer,
) {
    let seq = t.seq;
    match action {
        SenderAction::None => {}
        SenderAction::SendSync => send(dst, bus, routing, |id, fwd| Packet::Sync {
            dst,
            src: me,
            id,
            fwd,
            seq,
            frag_count: t.frag_count(),
            total_len: t.total_len(),
        }),
        SenderAction::SendFrag(index) => send(dst, bus, routing, |id, fwd| Packet::Frag {
            dst,
            src: me,
            id,
            fwd,
            seq,
            index,
            data: t.fragment(index).to_vec(),
        }),
        SenderAction::Completed => {
            bus.stats.reliable_sent += 1;
            bus.stats.reliable_retransmits += u64::from(t.retransmits);
            bus.emit(MeshEvent::ReliableDelivered { dst, seq });
        }
        SenderAction::Aborted => {
            bus.stats.reliable_aborted += 1;
            bus.stats.reliable_retransmits += u64::from(t.retransmits);
            bus.emit(MeshEvent::ReliableFailed { dst, seq });
        }
    }
}

/// Acknowledges the Sync ([`SYNC_ACK_INDEX`]) or fragment `index` of the
/// transfer `seq` from `peer`.
fn send_ack(
    peer: Address,
    seq: u8,
    index: u16,
    me: Address,
    bus: &mut Bus,
    routing: &RoutingLayer,
) {
    send(peer, bus, routing, |id, fwd| Packet::Ack {
        dst: peer,
        src: me,
        id,
        fwd,
        seq,
        index,
    });
}

/// The one way a transfer packet leaves: the next hop towards `dst` (a
/// missing one counts in `no_route_drops`), then a packet id, then the
/// transmit queue.
fn send(
    dst: Address,
    bus: &mut Bus,
    routing: &RoutingLayer,
    packet: impl FnOnce(u8, Forwarding) -> Packet,
) {
    let Some(via) = routing.table.next_hop(dst) else {
        bus.stats.no_route_drops += 1;
        return;
    };
    let id = bus.next_id();
    let _ = bus.enqueue(&packet(id, Forwarding { via, ttl: MAX_TTL }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MeshConfig;
    use crate::rng::ProtocolRng;
    use alloc::vec;

    const ME: Address = Address::new(1);
    const PEER: Address = Address::new(2);

    /// The next queued frame, decoded.
    fn pop(bus: &mut Bus) -> Option<Packet> {
        bus.txq.pop().map(|f| crate::codec::decode(&f).unwrap())
    }

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
        match pop(&mut bus) {
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
            PEER,
            UnicastBody::Sync {
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
            PEER,
            UnicastBody::Ack { seq: 9, index: 0 },
            Duration::ZERO,
            ME,
            &mut bus,
            &routing,
        );
        assert!(bus.events.is_empty());
        assert!(t.outbound_transfers().is_empty());
    }

    /// Pins how replies to a sender spend the node RNG: (a) an Ack and a
    /// Lost that match no transfer each take exactly one draw, and (b) a
    /// duplicate Ack, which changes no state, still pushes the pending
    /// deadline out by exactly one fresh jitter.
    ///
    /// Hand mutants it kills: "draw only on a match" fails (a), "defer
    /// only when the step re-arms" fails (b).
    #[test]
    fn replies_draw_one_jitter_each_and_a_duplicate_ack_defers() {
        let (routing, mut t, mut bus) = parts();
        let seed = MeshConfig::builder(ME).build().seed;
        // (a) No transfer to PEER exists yet.
        t.consume(
            PEER,
            UnicastBody::Ack { seq: 9, index: 0 },
            Duration::ZERO,
            ME,
            &mut bus,
            &routing,
        );
        t.consume(
            PEER,
            UnicastBody::Lost {
                seq: 9,
                missing: &[[0, 0]],
            },
            Duration::ZERO,
            ME,
            &mut bus,
            &routing,
        );
        let mut fresh = ProtocolRng::new(seed);
        fresh.next_u64();
        fresh.next_u64();
        assert_eq!(bus.rng.clone().next_u64(), fresh.next_u64());

        // (b) The Sync is acknowledged, then acknowledged again.
        let seq = t
            .send_reliable(PEER, vec![7; 300], Duration::ZERO, ME, &mut bus, &routing)
            .expect("route exists");
        let sync_ack = UnicastBody::Ack {
            seq,
            index: SYNC_ACK_INDEX,
        };
        let now = Duration::from_secs(1);
        t.consume(PEER, sync_ack, now, ME, &mut bus, &routing);
        let before = t.next_wake().expect("fragment 0 awaits its ack");
        let mut probe = Bus::new(seed);
        probe.rng = bus.rng.clone();
        let jitter = probe.ack_jitter(ACK_TIMEOUT);
        assert!(jitter > Duration::ZERO);
        t.consume(PEER, sync_ack, now, ME, &mut bus, &routing);
        assert_eq!(t.next_wake(), Some(before + jitter));
    }

    /// A sync with no follow-up fragments trips the stall deadline; the
    /// layer must nudge the sender with a LOST listing every fragment.
    #[test]
    fn stalled_inbound_transfer_emits_a_lost_request() {
        let (routing, mut t, mut bus) = parts();
        t.consume(
            PEER,
            UnicastBody::Sync {
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
        assert!(matches!(pop(&mut bus), Some(Packet::Ack { .. })));
        let stall_at = ACK_TIMEOUT + Duration::from_secs(1);
        assert!(t.next_wake().is_some_and(|w| w <= stall_at));
        t.process_due(stall_at, ME, &mut bus, &routing);
        match pop(&mut bus) {
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
            PEER,
            UnicastBody::Sync {
                seq: 3,
                frag_count: 300,
                total_len: 30_000,
            },
            Duration::ZERO,
            ME,
            &mut bus,
            &routing,
        );
        assert!(matches!(pop(&mut bus), Some(Packet::Ack { .. })));
        let stall_at = ACK_TIMEOUT + Duration::from_secs(1);
        t.process_due(stall_at, ME, &mut bus, &routing);
        let lost = pop(&mut bus).expect("a Lost request");
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
            PEER,
            UnicastBody::Sync {
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
