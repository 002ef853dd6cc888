//! Hosting protocol stacks inside the simulator.
//!
//! The simulator hosts [`NodeProtocol`] implementations natively (its
//! `Firmware` trait is the same trait), so no adaptation layer exists
//! any more. [`ProtocolFirmware`] wraps a protocol purely to add the
//! experiment bookkeeping:
//!
//! * it drains the protocol's application events after every callback
//!   and timestamps them into an event log the experiment runner reads;
//! * it executes workload actions (scheduled via
//!   `Simulator::schedule_app`) by calling the protocol's send methods.
//!
//! [`ProtocolNode`] is the concrete protocol enum the experiments use, so
//! one simulation type hosts LoRaMesher and both baselines.

use std::time::Duration;

use lora_phy::link::SignalQuality;

use loramesher::addr::Address;
use loramesher::codec::FrameView;
use loramesher::driver::NodeProtocol;
use loramesher::error::SendError;
use loramesher::flood::FloodNode;
use loramesher::node::{MeshEvent, MeshNode};
use mesh_baselines::star::{StarEvent, StarNode};
use radio_sim::firmware::{Context, Firmware};

/// A protocol-agnostic application event with its delivery time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppEvent {
    /// A datagram (unicast or broadcast) reached this node's application.
    Received {
        /// Originating node.
        src: Address,
        /// Application payload.
        payload: Vec<u8>,
        /// Whether it arrived as a broadcast.
        broadcast: bool,
    },
    /// A reliable transfer completed at the receiver.
    ReliableReceived {
        /// Originating node.
        src: Address,
        /// Reassembled payload.
        payload: Vec<u8>,
    },
    /// A reliable transfer this node sent succeeded.
    ReliableDelivered {
        /// Destination node.
        dst: Address,
    },
    /// A reliable transfer this node sent failed.
    ReliableFailed {
        /// Destination node.
        dst: Address,
    },
}

/// Decoded header summary of a frame a node heard (when frame logging is
/// enabled) — enough to reconstruct forwarding paths in tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameMeta {
    /// Packet kind.
    pub kind: loramesher::PacketKind,
    /// Originator.
    pub src: Address,
    /// Final destination.
    pub dst: Address,
    /// Designated next hop (destination itself for Hello).
    pub via: Address,
    /// Remaining TTL (0 for Hello).
    pub ttl: u8,
    /// Originator's packet id.
    pub id: u8,
}

/// An action a workload schedules on a node.
#[derive(Clone, Debug)]
pub enum AppAction {
    /// Send a datagram of `payload` to `dst`.
    SendDatagram {
        /// Destination address.
        dst: Address,
        /// The exact payload bytes.
        payload: Vec<u8>,
    },
    /// Start a reliable transfer of `payload` to `dst`.
    SendReliable {
        /// Destination address.
        dst: Address,
        /// The exact payload bytes.
        payload: Vec<u8>,
    },
}

/// The protocols the experiments can host.
///
/// One instance exists per simulated node for a run's whole lifetime,
/// so the size skew between a full mesh node and the thin baselines is
/// irrelevant — boxing would only add pointer chasing to the hot loop.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum ProtocolNode {
    /// The LoRaMesher distance-vector mesh.
    Mesh(MeshNode),
    /// The managed-flooding stack ([`loramesher::flood`]).
    Flooding(FloodNode),
    /// The single-gateway star baseline.
    Star(StarNode),
}

impl ProtocolNode {
    /// This node's protocol address.
    #[must_use]
    pub fn address(&self) -> Address {
        match self {
            ProtocolNode::Mesh(n) => n.address(),
            ProtocolNode::Flooding(n) => n.address(),
            ProtocolNode::Star(n) => n.address(),
        }
    }

    /// The wrapped [`MeshNode`], when this is the mesh protocol.
    #[must_use]
    pub fn as_mesh(&self) -> Option<&MeshNode> {
        match self {
            ProtocolNode::Mesh(n) => Some(n),
            _ => None,
        }
    }

    /// The wrapped [`FloodNode`], when this is the flooding protocol.
    #[must_use]
    pub fn as_flood(&self) -> Option<&FloodNode> {
        match self {
            ProtocolNode::Flooding(n) => Some(n),
            _ => None,
        }
    }

    /// Submits a datagram through whichever protocol is wrapped.
    ///
    /// # Errors
    ///
    /// Propagates the protocol's [`SendError`].
    pub fn send_datagram(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        now: Duration,
    ) -> Result<u8, SendError> {
        match self {
            ProtocolNode::Mesh(n) => n.send_datagram(dst, payload, now),
            ProtocolNode::Flooding(n) => n.send_datagram(dst, payload),
            ProtocolNode::Star(n) => n.send(dst, payload),
        }
    }

    /// Starts a reliable transfer (mesh only).
    ///
    /// # Errors
    ///
    /// [`SendError::BroadcastUnsupported`] on the baselines (they have no
    /// reliable service), or the mesh's own errors.
    pub fn send_reliable(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        now: Duration,
    ) -> Result<u8, SendError> {
        match self {
            ProtocolNode::Mesh(n) => n.send_reliable(dst, payload, now),
            _ => Err(SendError::BroadcastUnsupported),
        }
    }

    /// Maps the shared [`MeshEvent`] stream (emitted by both the mesh
    /// and flooding stacks) onto the experiment-facing [`AppEvent`].
    fn map_mesh_events(events: Vec<MeshEvent>) -> Vec<AppEvent> {
        events
            .into_iter()
            .filter_map(|e| match e {
                MeshEvent::Datagram { src, payload } => Some(AppEvent::Received {
                    src,
                    payload,
                    broadcast: false,
                }),
                MeshEvent::Broadcast { src, payload } => Some(AppEvent::Received {
                    src,
                    payload,
                    broadcast: true,
                }),
                MeshEvent::ReliableReceived { src, payload } => {
                    Some(AppEvent::ReliableReceived { src, payload })
                }
                MeshEvent::ReliableDelivered { dst, .. } => {
                    Some(AppEvent::ReliableDelivered { dst })
                }
                MeshEvent::ReliableFailed { dst, .. } => Some(AppEvent::ReliableFailed { dst }),
                _ => None,
            })
            .collect()
    }

    fn drain_events(&mut self) -> Vec<AppEvent> {
        match self {
            ProtocolNode::Mesh(n) if n.has_events() => Self::map_mesh_events(n.take_events()),
            ProtocolNode::Flooding(n) if n.has_events() => Self::map_mesh_events(n.take_events()),
            ProtocolNode::Star(n) if n.has_events() => n
                .take_events()
                .into_iter()
                .map(|StarEvent::Received { src, payload }| AppEvent::Received {
                    src,
                    payload,
                    broadcast: false,
                })
                .collect(),
            // This runs after every callback and almost none emits an
            // event: no drain, no collect, no allocation.
            _ => Vec::new(),
        }
    }
}

impl NodeProtocol for ProtocolNode {
    fn on_start(&mut self, io: &mut Context) {
        match self {
            ProtocolNode::Mesh(n) => n.on_start(io),
            ProtocolNode::Flooding(n) => n.on_start(io),
            ProtocolNode::Star(n) => n.on_start(io),
        }
    }
    fn on_timer(&mut self, io: &mut Context) {
        match self {
            ProtocolNode::Mesh(n) => n.on_timer(io),
            ProtocolNode::Flooding(n) => n.on_timer(io),
            ProtocolNode::Star(n) => n.on_timer(io),
        }
    }
    fn on_frame(&mut self, frame: &[u8], q: SignalQuality, io: &mut Context) {
        match self {
            ProtocolNode::Mesh(n) => n.on_frame(frame, q, io),
            ProtocolNode::Flooding(n) => n.on_frame(frame, q, io),
            ProtocolNode::Star(n) => n.on_frame(frame, q, io),
        }
    }
    fn on_tx_done(&mut self, io: &mut Context) {
        match self {
            ProtocolNode::Mesh(n) => n.on_tx_done(io),
            ProtocolNode::Flooding(n) => n.on_tx_done(io),
            ProtocolNode::Star(n) => n.on_tx_done(io),
        }
    }
    fn on_cad_done(&mut self, busy: bool, io: &mut Context) {
        match self {
            ProtocolNode::Mesh(n) => n.on_cad_done(busy, io),
            ProtocolNode::Flooding(n) => n.on_cad_done(busy, io),
            ProtocolNode::Star(n) => n.on_cad_done(busy, io),
        }
    }
    fn next_wake(&self) -> Option<Duration> {
        match self {
            ProtocolNode::Mesh(n) => n.next_wake(),
            ProtocolNode::Flooding(n) => n.next_wake(),
            ProtocolNode::Star(n) => n.next_wake(),
        }
    }
}

/// Simulator firmware hosting a [`NodeProtocol`].
///
/// Workload actions are registered with [`ProtocolFirmware::add_action`]
/// and executed when the matching `App` event (tag = action index) fires.
#[derive(Debug)]
pub struct ProtocolFirmware<P: NodeProtocol = ProtocolNode> {
    /// The hosted protocol stack.
    pub node: P,
    /// Timestamped application events observed so far.
    pub event_log: Vec<(Duration, AppEvent)>,
    /// Timestamped headers of every frame this node received (only
    /// populated when [`ProtocolFirmware::log_frames`] is enabled).
    pub frame_log: Vec<(Duration, FrameMeta)>,
    /// Whether to populate [`ProtocolFirmware::frame_log`].
    pub log_frames: bool,
    actions: Vec<AppAction>,
    /// Send attempts refused by the protocol (no route, queue full, …).
    pub send_errors: u64,
}

/// What the firmware adapter needs beyond [`NodeProtocol`]: draining
/// application events and submitting traffic.
pub trait HostedProtocol: NodeProtocol {
    /// Drains protocol-level application events.
    fn drain(&mut self) -> Vec<AppEvent>;

    /// Submits a datagram.
    ///
    /// # Errors
    ///
    /// Propagates the protocol's [`SendError`].
    fn submit_datagram(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        now: Duration,
    ) -> Result<u8, SendError>;

    /// Starts a reliable transfer (protocols without one return an error).
    ///
    /// # Errors
    ///
    /// Propagates the protocol's [`SendError`].
    fn submit_reliable(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        now: Duration,
    ) -> Result<u8, SendError>;
}

impl HostedProtocol for ProtocolNode {
    fn drain(&mut self) -> Vec<AppEvent> {
        self.drain_events()
    }
    fn submit_datagram(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        now: Duration,
    ) -> Result<u8, SendError> {
        self.send_datagram(dst, payload, now)
    }
    fn submit_reliable(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        now: Duration,
    ) -> Result<u8, SendError> {
        self.send_reliable(dst, payload, now)
    }
}

impl<P: NodeProtocol> ProtocolFirmware<P> {
    /// Wraps a protocol stack.
    #[must_use]
    pub fn new(node: P) -> Self {
        ProtocolFirmware {
            node,
            event_log: Vec::new(),
            frame_log: Vec::new(),
            log_frames: false,
            actions: Vec::new(),
            send_errors: 0,
        }
    }

    /// Registers a workload action, returning its tag for
    /// [`radio_sim::Simulator::schedule_app`].
    pub fn add_action(&mut self, action: AppAction) -> u64 {
        self.actions.push(action);
        (self.actions.len() - 1) as u64
    }
}

impl<P: HostedProtocol> ProtocolFirmware<P> {
    /// Drains the protocol's application events into the timestamped log
    /// after a callback ran.
    fn log_events(&mut self, now: Duration) {
        for e in self.node.drain() {
            self.event_log.push((now, e));
        }
    }
}

impl<P: HostedProtocol> Firmware for ProtocolFirmware<P> {
    fn on_start(&mut self, ctx: &mut Context) {
        self.node.on_start(ctx);
        self.log_events(ctx.now());
    }

    fn on_timer(&mut self, ctx: &mut Context) {
        self.node.on_timer(ctx);
        self.log_events(ctx.now());
    }

    fn on_frame(&mut self, bytes: &[u8], quality: SignalQuality, ctx: &mut Context) {
        if self.log_frames {
            if let Ok(view) = loramesher::codec::parse(bytes) {
                // A Hello has no forwarding extension: log it as
                // addressed to everyone, as `Packet::dst` reports it.
                let (dst, via, ttl, id) = match view {
                    FrameView::Hello(h) => (Address::BROADCAST, Address::BROADCAST, 0, h.id),
                    FrameView::Unicast(u) => (u.dst, u.fwd.via, u.fwd.ttl, u.id),
                };
                self.frame_log.push((
                    ctx.now(),
                    FrameMeta {
                        kind: view.kind(),
                        src: view.src(),
                        dst,
                        via,
                        ttl,
                        id,
                    },
                ));
            }
        }
        self.node.on_frame(bytes, quality, ctx);
        self.log_events(ctx.now());
    }

    fn on_tx_done(&mut self, ctx: &mut Context) {
        self.node.on_tx_done(ctx);
        self.log_events(ctx.now());
    }

    fn on_cad_done(&mut self, busy: bool, ctx: &mut Context) {
        self.node.on_cad_done(busy, ctx);
        self.log_events(ctx.now());
    }

    fn on_app(&mut self, tag: u64, ctx: &mut Context) {
        let Some(action) = self.actions.get(tag as usize).cloned() else {
            return;
        };
        let now = ctx.now();
        let result = match action {
            AppAction::SendDatagram { dst, payload } => {
                self.node.submit_datagram(dst, payload, now)
            }
            AppAction::SendReliable { dst, payload } => {
                self.node.submit_reliable(dst, payload, now)
            }
        };
        if result.is_err() {
            self.send_errors += 1;
        }
        self.log_events(now);
    }

    fn next_wake(&self) -> Option<Duration> {
        self.node.next_wake()
    }
}

impl ProtocolFirmware<ProtocolNode> {
    /// Submits a datagram through the wrapped protocol.
    ///
    /// # Errors
    ///
    /// Propagates the protocol's [`SendError`].
    pub fn send_datagram(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        now: Duration,
    ) -> Result<u8, SendError> {
        self.node.send_datagram(dst, payload, now)
    }

    /// Starts a reliable transfer through the wrapped protocol.
    ///
    /// # Errors
    ///
    /// Propagates the protocol's [`SendError`].
    pub fn send_reliable(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        now: Duration,
    ) -> Result<u8, SendError> {
        self.node.send_reliable(dst, payload, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::propagation::Position;
    use lora_phy::region::Region;
    use loramesher::config::MeshConfig;
    use radio_sim::{SimConfig, Simulator};

    fn mesh_fw(addr: u16) -> ProtocolFirmware<ProtocolNode> {
        let cfg = MeshConfig::builder(Address::new(addr))
            .region(Region::Unlimited)
            .hello_interval(Duration::from_secs(20))
            .build();
        ProtocolFirmware::new(ProtocolNode::Mesh(MeshNode::new(cfg)))
    }

    #[test]
    fn two_mesh_nodes_form_routes_in_simulator() {
        let mut sim = Simulator::new(SimConfig::default(), 1);
        let a = sim.add_node(mesh_fw(1), Position::new(0.0, 0.0));
        let b = sim.add_node(mesh_fw(2), Position::new(80.0, 0.0));
        sim.run_for(Duration::from_secs(30));
        let mesh_a = sim.node(a).node.as_mesh().unwrap();
        let mesh_b = sim.node(b).node.as_mesh().unwrap();
        assert_eq!(
            mesh_a.routing_table().next_hop(Address::new(2)),
            Some(Address::new(2))
        );
        assert_eq!(
            mesh_b.routing_table().next_hop(Address::new(1)),
            Some(Address::new(1))
        );
    }

    #[test]
    fn datagram_flows_through_simulator_and_is_logged() {
        let mut sim = Simulator::new(SimConfig::default(), 2);
        let a = sim.add_node(mesh_fw(1), Position::new(0.0, 0.0));
        let b = sim.add_node(mesh_fw(2), Position::new(80.0, 0.0));
        sim.run_for(Duration::from_secs(30));
        sim.with_node(a, |fw, ctx| {
            fw.send_datagram(Address::new(2), b"sim".to_vec(), ctx.now())
                .expect("route exists after 30 s of hellos")
        });
        sim.run_for(Duration::from_secs(10));
        let log = &sim.node(b).event_log;
        assert!(
            log.iter().any(|(_, e)| matches!(
                e,
                AppEvent::Received { src, payload, .. } if *src == Address::new(1) && payload == b"sim"
            )),
            "log: {log:?}"
        );
        // Delivery time was recorded after the send.
        let (t, _) = &log[0];
        assert!(*t >= Duration::from_secs(30));
    }

    #[test]
    fn workload_action_fires_via_schedule_app() {
        let mut sim = Simulator::new(SimConfig::default(), 3);
        let a = sim.add_node(mesh_fw(1), Position::new(0.0, 0.0));
        let b = sim.add_node(mesh_fw(2), Position::new(80.0, 0.0));
        // Register the action up front; schedule it after route formation.
        let tag = {
            // Safe because the sim has not started running this node's
            // callbacks concurrently (single-threaded).
            sim.with_node(a, |fw, _| {
                fw.add_action(AppAction::SendDatagram {
                    dst: Address::new(2),
                    payload: b"tick".to_vec(),
                })
            })
        };
        sim.schedule_app(Duration::from_secs(30), a, tag);
        sim.run_for(Duration::from_secs(45));
        assert!(sim
            .node(b)
            .event_log
            .iter()
            .any(|(_, e)| matches!(e, AppEvent::Received { payload, .. } if payload == b"tick")));
        assert_eq!(sim.node(a).send_errors, 0);
    }

    #[test]
    fn flooding_protocol_hosted_end_to_end() {
        use loramesher::flood::FloodConfig;
        let fw = |addr: u16| {
            let mut cfg = FloodConfig::new(Address::new(addr));
            cfg.region = lora_phy::region::Region::Unlimited;
            ProtocolFirmware::new(ProtocolNode::Flooding(FloodNode::new(cfg)))
        };
        let mut sim = Simulator::new(SimConfig::default(), 9);
        let a = sim.add_node(fw(1), Position::new(0.0, 0.0));
        let b = sim.add_node(fw(2), Position::new(80.0, 0.0));
        let c = sim.add_node(fw(3), Position::new(160.0, 0.0));
        sim.start();
        sim.with_node(a, |fw, ctx| {
            fw.node
                .submit_datagram(Address::new(3), b"flood".to_vec(), ctx.now())
                .unwrap()
        });
        sim.run_for(Duration::from_secs(10));
        assert!(sim
            .node(c)
            .event_log
            .iter()
            .any(|(_, e)| matches!(e, AppEvent::Received { payload, .. } if payload == b"flood")));
        // Reliable transfers are a mesh-only service.
        let err = sim.with_node(b, |fw, ctx| {
            fw.node
                .submit_reliable(Address::new(1), vec![1; 10], ctx.now())
        });
        assert!(err.is_err());
    }

    #[test]
    fn star_protocol_hosted_end_to_end() {
        use mesh_baselines::star::StarConfig;
        let fw = |addr: u16| {
            let mut cfg = StarConfig::new(Address::new(addr), Address::new(1));
            cfg.region = lora_phy::region::Region::Unlimited;
            ProtocolFirmware::new(ProtocolNode::Star(StarNode::new(cfg)))
        };
        let mut sim = Simulator::new(SimConfig::default(), 10);
        let gw = sim.add_node(fw(1), Position::new(0.0, 0.0));
        let n = sim.add_node(fw(2), Position::new(80.0, 0.0));
        sim.start();
        sim.with_node(n, |fw, ctx| {
            fw.node
                .submit_datagram(Address::new(1), b"uplink".to_vec(), ctx.now())
                .unwrap()
        });
        sim.run_for(Duration::from_secs(5));
        assert_eq!(sim.node(gw).event_log.len(), 1);
        assert!(sim.node(n).node.as_mesh().is_none());
    }

    #[test]
    fn unknown_action_tag_is_ignored() {
        let mut sim = Simulator::new(SimConfig::default(), 4);
        let a = sim.add_node(mesh_fw(1), Position::new(0.0, 0.0));
        sim.schedule_app(Duration::from_secs(1), a, 42);
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.node(a).send_errors, 0);
    }

    #[test]
    fn send_error_is_counted() {
        let mut sim = Simulator::new(SimConfig::default(), 5);
        let a = sim.add_node(mesh_fw(1), Position::new(0.0, 0.0));
        let tag = sim.with_node(a, |fw, _| {
            fw.add_action(AppAction::SendDatagram {
                dst: Address::new(99), // no route will ever exist
                payload: vec![1],
            })
        });
        sim.schedule_app(Duration::from_secs(1), a, tag);
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.node(a).send_errors, 1);
    }
}
