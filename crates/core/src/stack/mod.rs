//! The layered protocol stack: [`MeshNode`] as a composition of four
//! layers over a shared bus.
//!
//! The pre-split `node.rs` monolith interleaved channel access, the
//! routing daemon, reliable transfers and the application API in one
//! 1 800-line state machine. The stack keeps the exact same observable
//! behaviour (pinned by `tests/stack_refactor_diff.rs`) but factors it
//! into:
//!
//! * [`mod@app`] — the application surface: send validation and the
//!   [`MeshEvent`] receive queue.
//! * `transport` — reliable SYNC/fragment/ACK/LOST transfers.
//! * `routing` — the hello daemon, the distance-vector table (generic
//!   over [`crate::routing::RouteMetric`]) and unicast forwarding.
//! * [`crate::mac`] — CAD/backoff/duty-cycle channel access and frame
//!   emission, the same [`Mac`] the other stacks own.
//!
//! Layers never call each other directly; they exchange packets and
//! events over the `bus` (the transmit queue feeding the MAC, the event
//! queue feeding the app, and the node's single deterministic RNG).
//!
//! # Dispatch order
//!
//! Determinism requires one fixed order in which the layers act on a
//! timer tick. `MeshNode::process_due` runs, in this order and nothing
//! else:
//!
//! 1. **routing** — route expiry (purge + `RoutesExpired`);
//! 2. **routing** — the periodic hello broadcast, if due;
//! 3. **transport** — outbound retransmission deadlines;
//! 4. **transport** — stalled-inbound LOST nudges, then inbound
//!    reassembly expiry;
//! 5. **mac** — one chance to move queued traffic to the radio.
//!
//! Host callbacks dispatch the same way every time: `on_frame` goes to
//! routing (hellos), the app (data addressed here or broadcast), the
//! transport (Sync/Frag/Ack/Lost addressed here) or routing again
//! (forwarding); `on_cad_done`/`on_tx_done` go to the MAC.

pub mod app;
pub(crate) mod bus;
mod routing;
mod transport;

use alloc::vec::Vec;
use core::time::Duration;

use lora_phy::link::SignalQuality;

use crate::addr::Address;
use crate::codec::{self, FrameView, UnicastBody};
use crate::config::MeshConfig;
use crate::driver::{NodeProtocol, RadioIo};
use crate::error::SendError;
use crate::mac::Mac;
use crate::packet::Packet;
use crate::reliable::TransferPhase;
use crate::routing::RoutingTable;
use crate::stats::NodeStats;

pub use app::MeshEvent;
use bus::Bus;
use routing::RoutingLayer;
use transport::TransportLayer;

/// A LoRaMesher node.
///
/// See the crate-level docs for the protocol, the [module docs](self)
/// for the layer architecture, and the [`crate::driver`] module for how
/// to host one.
#[derive(Debug)]
pub struct MeshNode {
    config: MeshConfig,
    bus: Bus,
    mac: Mac,
    routing: RoutingLayer,
    transport: TransportLayer,
    started: bool,
}

impl MeshNode {
    /// Creates a node from its configuration.
    #[must_use]
    pub fn new(config: MeshConfig) -> Self {
        MeshNode {
            bus: Bus::new(config.seed, config.tx_queue_capacity),
            mac: Mac::new(
                config.region,
                config.modulation,
                config.backoff_slot,
                config.max_backoff_exponent,
                config.max_cad_retries,
                config.csma,
            ),
            routing: RoutingLayer::new(&config),
            transport: TransportLayer::new(),
            started: false,
            config,
        }
    }

    /// This node's address.
    #[must_use]
    pub fn address(&self) -> Address {
        self.config.address
    }

    /// The node's configuration.
    #[must_use]
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// Read access to the routing table.
    #[must_use]
    pub fn routing_table(&self) -> &RoutingTable {
        &self.routing.table
    }

    /// A snapshot of the node's protocol statistics.
    #[must_use]
    pub fn stats(&self) -> NodeStats {
        let mut s = self.bus.stats;
        s.duty_cycle_deferrals = self.mac.duty_deferrals;
        s.cad_exhausted = self.mac.cad_drops;
        // Include retransmissions of transfers still in flight.
        s.reliable_retransmits += self.transport.in_flight_retransmits();
        s
    }

    /// Whether [`Self::take_events`] would return anything — lets a host
    /// skip the drain after the many callbacks that emit nothing.
    #[must_use]
    pub fn has_events(&self) -> bool {
        !self.bus.events.is_empty()
    }

    /// Drains the pending application events.
    pub fn take_events(&mut self) -> Vec<MeshEvent> {
        self.bus.events.drain(..).collect()
    }

    /// Outbound frames currently queued (diagnostics).
    #[must_use]
    pub fn tx_queue_len(&self) -> usize {
        self.bus.txq.len()
    }

    /// Progress of the active outbound transfers: destination, sequence
    /// id and phase (diagnostics).
    #[must_use]
    pub fn outbound_transfers(&self) -> Vec<(Address, u8, TransferPhase)> {
        self.transport.outbound_transfers()
    }

    /// Progress of the active inbound transfers: source, sequence id and
    /// fragments received out of the announced total (diagnostics).
    #[must_use]
    pub fn inbound_transfers(&self) -> Vec<(Address, u8, usize, usize)> {
        self.transport.inbound_transfers()
    }

    /// Submits a single-frame datagram to `dst` (or broadcast).
    ///
    /// Returns the packet id on success.
    ///
    /// ```
    /// use loramesher::{Address, MeshConfig, MeshNode, SendError};
    /// use std::time::Duration;
    ///
    /// let mut node = MeshNode::new(MeshConfig::builder(Address::new(1)).build());
    /// // Without a route the submission is refused...
    /// assert_eq!(
    ///     node.send_datagram(Address::new(2), b"hi".to_vec(), Duration::ZERO),
    ///     Err(SendError::NoRoute(Address::new(2)))
    /// );
    /// // ...but broadcasts never need one.
    /// assert!(node
    ///     .send_datagram(Address::BROADCAST, b"hi".to_vec(), Duration::ZERO)
    ///     .is_ok());
    /// ```
    ///
    /// # Errors
    ///
    /// * [`SendError::EmptyPayload`] — nothing to send.
    /// * [`SendError::PayloadTooLarge`] — use [`MeshNode::send_reliable`].
    /// * [`SendError::NoRoute`] — the destination is not in the routing
    ///   table yet.
    /// * [`SendError::QueueFull`] — the transmit queue refused the frame.
    pub fn send_datagram(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        _now: Duration,
    ) -> Result<u8, SendError> {
        app::send_datagram(&self.config, &self.routing, &mut self.bus, dst, payload)
    }

    /// Starts a reliable transfer of an arbitrarily large payload.
    ///
    /// Returns the transfer's sequence id; completion is reported as
    /// [`MeshEvent::ReliableDelivered`] or [`MeshEvent::ReliableFailed`].
    ///
    /// # Errors
    ///
    /// * [`SendError::EmptyPayload`] — nothing to send.
    /// * [`SendError::BroadcastUnsupported`] — reliable transfers are
    ///   unicast only.
    /// * [`SendError::NoRoute`] — the destination is unknown.
    /// * [`SendError::TransferInProgress`] — one transfer per destination
    ///   at a time.
    /// * [`SendError::QueueFull`] — the transmit queue refused the Sync.
    pub fn send_reliable(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        now: Duration,
    ) -> Result<u8, SendError> {
        self.transport.send_reliable(
            dst,
            payload,
            now,
            &self.config,
            &mut self.bus,
            &self.routing,
        )
    }

    /// Runs every deadline that has passed, in the fixed dispatch order
    /// of the [module docs](self); called from `on_timer`.
    fn process_due(&mut self, now: Duration, io: &mut RadioIo) {
        // 1. Route expiry.
        self.routing.expire(now, &self.config, &mut self.bus);
        // 2. Routing broadcast.
        if now >= self.routing.next_hello {
            self.routing.emit_hello(now, &self.config, &mut self.bus);
        }
        // 3 + 4. Transport deadlines.
        self.transport
            .process_due(now, &self.config, &mut self.bus, &self.routing);
        // 5. Give the MAC a chance to move traffic.
        let outcome = self.mac.kick(&mut self.bus.txq, &mut self.routing, io);
        self.bus.book(outcome);
    }
}

impl NodeProtocol for MeshNode {
    fn on_start(&mut self, io: &mut RadioIo) {
        self.started = true;
        self.routing
            .schedule_first_hello(io.now(), &self.config, &mut self.bus);
    }

    fn on_timer(&mut self, io: &mut RadioIo) {
        self.process_due(io.now(), io);
    }

    fn on_frame(&mut self, frame: &[u8], quality: SignalQuality, io: &mut RadioIo) {
        let now = io.now();
        // Validate the whole frame first, borrowed; what gets copied out
        // of it below is only what this node consumes.
        let view = match codec::parse(frame) {
            Ok(v) => v,
            Err(_) => {
                self.bus.stats.decode_errors += 1;
                return;
            }
        };
        if view.src().is_broadcast() {
            // Nobody owns the broadcast address: a frame claiming to come
            // from it is malformed, and must not become a route *to* it.
            self.bus.stats.decode_errors += 1;
            return;
        }
        let me = self.config.address;
        if view.src() == me {
            // We cannot hear ourselves (half-duplex): someone else is
            // using our address.
            self.bus.stats.address_conflicts += 1;
            self.bus
                .emit(MeshEvent::AddressConflict { kind: view.kind() });
            return;
        }
        match view {
            FrameView::Hello(hello) => {
                self.routing.on_hello(me, &hello, quality.snr, now);
                self.bus.stats.hellos_received += 1;
            }
            FrameView::Unicast(unicast) if unicast.dst == me => match unicast.to_packet() {
                Packet::Data { src, payload, .. } => {
                    app::deliver_datagram(&mut self.bus, src, payload);
                }
                p => self
                    .transport
                    .consume(p, now, &self.config, &mut self.bus, &self.routing),
            },
            FrameView::Unicast(unicast) if unicast.dst.is_broadcast() => {
                if let UnicastBody::Data { payload } = unicast.body {
                    app::deliver_broadcast(&mut self.bus, unicast.src, payload.to_vec());
                }
            }
            FrameView::Unicast(unicast) if unicast.fwd.via == me => {
                self.routing.forward(unicast.to_packet(), &mut self.bus);
            }
            // Overheard traffic for someone else: nothing to copy.
            FrameView::Unicast(_) => {}
        }
    }

    fn on_tx_done(&mut self, _io: &mut RadioIo) {
        self.mac.on_tx_done();
    }

    fn on_cad_done(&mut self, busy: bool, io: &mut RadioIo) {
        let bus = &mut self.bus;
        let outcome = self
            .mac
            .on_cad_done(busy, &mut bus.txq, &mut bus.rng, &mut self.routing, io);
        bus.book(outcome);
    }

    fn next_wake(&self) -> Option<Duration> {
        if !self.started {
            return None;
        }
        let mut wake: Option<Duration> = Some(self.routing.next_hello);
        let mut consider = |t: Option<Duration>| {
            if let Some(t) = t {
                wake = Some(wake.map_or(t, |w| w.min(t)));
            }
        };
        consider(self.mac.next_wake(&self.bus.txq));
        // A field read: the table keeps its earliest `last_seen` current
        // in its mutators, so the wake costs the same at any table size.
        consider(self.routing.table.next_expiry(self.config.route_timeout));
        consider(self.transport.next_wake(&self.config));
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RadioRequest;
    use alloc::sync::Arc;
    use lora_phy::region::Region;

    /// Multi-seed sweeps host protocol nodes on worker threads, so the
    /// node must stay Send. Compile-time check.
    #[test]
    fn mesh_node_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<MeshNode>();
    }

    #[test]
    fn stats_snapshot_includes_mac_counters() {
        let n = MeshNode::new(
            MeshConfig::builder(Address::new(1))
                .region(Region::Unlimited)
                .build(),
        );
        let s = n.stats();
        assert_eq!(s.duty_cycle_deferrals, 0);
        assert_eq!(s.cad_exhausted, 0);
    }

    /// An unstarted node never asks to be woken: hosts key their timer
    /// programming off this.
    #[test]
    fn unstarted_node_reports_no_wake() {
        let mut n = MeshNode::new(
            MeshConfig::builder(Address::new(1))
                .region(Region::Unlimited)
                .build(),
        );
        assert_eq!(n.next_wake(), None);
        let mut io = RadioIo::new(Duration::ZERO);
        n.on_start(&mut io);
        assert!(io.take_requests().is_empty());
        assert!(n.next_wake().is_some());
    }

    /// `route_timeout(Duration::MAX)` means "never expire": once a route
    /// exists, the expiry deadline is absent — not `last_seen + MAX`,
    /// which panics — and the other deadlines still set the wake.
    #[test]
    fn never_expiring_routes_leave_the_wake_to_the_other_deadlines() {
        let mut n = MeshNode::new(
            MeshConfig::builder(Address::new(1))
                .region(Region::Unlimited)
                .route_timeout(Duration::MAX)
                .build(),
        );
        let mut io = RadioIo::new(Duration::ZERO);
        n.on_start(&mut io);
        let hello = codec::encode(&Packet::Hello {
            src: Address::new(2),
            id: 0,
            role: 0,
            entries: alloc::vec![crate::packet::RouteEntry {
                address: Address::new(3),
                metric: 1,
                role: 0,
            }],
        })
        .unwrap();
        let mut io = RadioIo::new(Duration::from_secs(1));
        n.on_frame(&hello, SignalQuality::ideal(), &mut io);
        assert_eq!(n.routing_table().len(), 2);
        assert_eq!(n.next_wake(), Some(n.routing.next_hello));
        // Far in the future the routes are still there.
        let mut io = RadioIo::new(Duration::from_secs(1_000_000));
        n.on_timer(&mut io);
        assert_eq!(n.routing_table().len(), 2);
        assert!(n.next_wake().is_some());
    }

    /// Fires the hello due at `at` into a clear channel and returns the
    /// frame handed to the radio.
    fn beacon(n: &mut MeshNode, at: Duration) -> Arc<[u8]> {
        let mut io = RadioIo::new(at);
        n.on_timer(&mut io);
        assert_eq!(io.take_requests(), alloc::vec![RadioRequest::StartCad]);
        let mut io = RadioIo::new(at);
        n.on_cad_done(false, &mut io);
        let frame = match io.take_requests().pop() {
            Some(RadioRequest::Transmit(frame)) => frame,
            r => panic!("unexpected {r:?}"),
        };
        n.on_tx_done(&mut RadioIo::new(at));
        frame
    }

    /// A beacon goes out as the routing layer's cached wire image, and
    /// once the host releases it the next beacon transmits the same
    /// shared allocation — the zero-copy steady state.
    #[test]
    fn beacons_transmit_the_cached_hello_wire() {
        let mut n = MeshNode::new(
            MeshConfig::builder(Address::new(1))
                .region(Region::Unlimited)
                .hello_interval(Duration::from_secs(30))
                .hello_jitter(false)
                .build(),
        );
        n.on_start(&mut RadioIo::new(Duration::ZERO));
        n.routing
            .table
            .heard_from(Address::new(2), 0.0, Duration::ZERO);
        let first = beacon(&mut n, Duration::from_secs(1));
        assert_eq!(&first[..], &n.routing.hello_wire[..]);
        match codec::decode(&first).unwrap() {
            Packet::Hello { src, .. } => assert_eq!(src, Address::new(1)),
            p => panic!("unexpected {p:?}"),
        }
        assert_eq!(n.stats().frames_sent, 1);
        assert_eq!(
            n.stats().airtime,
            n.config.modulation.time_on_air(first.len())
        );
        let first_ptr = first.as_ptr();
        drop(first); // host done with the frame
        let second = beacon(&mut n, Duration::from_secs(31));
        assert_eq!(second.as_ptr(), first_ptr);
    }

    /// A frame whose source is the broadcast address is malformed: it is
    /// counted and dropped before it can become a route to broadcast.
    #[test]
    fn frame_from_the_broadcast_address_is_rejected() {
        let mut n = MeshNode::new(MeshConfig::builder(Address::new(1)).build());
        n.on_start(&mut RadioIo::new(Duration::ZERO));
        let hello = codec::encode(&Packet::Hello {
            src: Address::BROADCAST,
            id: 0,
            role: 0,
            entries: alloc::vec![],
        })
        .unwrap();
        let mut io = RadioIo::new(Duration::from_secs(1));
        n.on_frame(&hello, SignalQuality::ideal(), &mut io);
        assert_eq!(n.stats().decode_errors, 1);
        assert_eq!(n.stats().hellos_received, 0);
        assert!(n.routing_table().is_empty());
    }
}
