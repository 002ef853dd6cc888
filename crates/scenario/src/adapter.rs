//! Hosting protocol stacks inside the simulator.
//!
//! A host meets a stack through two traits. The simulator drives the
//! radio side, [`NodeProtocol`], natively (its `Firmware` trait is the
//! same trait). [`HostedProtocol`] adds the application side: draining
//! events and submitting traffic. [`ProtocolFirmware`] wraps a
//! [`HostedProtocol`] purely to add the experiment bookkeeping:
//!
//! * it drains the protocol's application events after every callback
//!   and timestamps them into an event log the experiment runner reads;
//! * it executes workload actions (scheduled via
//!   `Simulator::schedule_app`) through the protocol's `submit_*` calls.
//!
//! An `App` event's `u64` tag names the work: its low 32 bits index the
//! node's registered actions, its high 32 bits are an argument the
//! action receives ([`tag_with_arg`]). Scheduled traffic is marked so a
//! delivery can be traced back to its send, and the marker is that
//! argument: an [`AppAction::SendMarked`] is a send *kind* (destination,
//! length, service), registered once per node, and each send of it is
//! one queued event whose tag carries its marker. The payload format
//! lives here and only here: [`marked_payload`] writes it when the event
//! fires and [`payload_marker`] reads it back for the runner's report.
//!
//! [`ProtocolNode`] is the concrete protocol enum the experiments use, so
//! one simulation type hosts LoRaMesher, flooding and the star. Each of
//! its trait methods is one delegation per stack, and one
//! [`MeshEvent`] → [`AppEvent`] mapping serves all three.

use std::time::Duration;

use lora_phy::link::SignalQuality;

use loramesher::addr::Address;
use loramesher::codec::FrameView;
use loramesher::driver::NodeProtocol;
use loramesher::error::SendError;
use loramesher::flood::FloodNode;
use loramesher::stack::{MeshEvent, MeshNode};
use mesh_baselines::star::StarNode;
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

impl AppEvent {
    /// The experiment-facing view of a stack's [`MeshEvent`], the one
    /// event type all three stacks report through. Events no experiment
    /// logs (route expiries, MAC drops, address conflicts) map to
    /// nothing.
    fn from_mesh(event: MeshEvent) -> Option<AppEvent> {
        match event {
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
            MeshEvent::ReliableDelivered { dst, .. } => Some(AppEvent::ReliableDelivered { dst }),
            MeshEvent::ReliableFailed { dst, .. } => Some(AppEvent::ReliableFailed { dst }),
            _ => None,
        }
    }
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

/// An action a workload registers on a node and runs by `App` tag.
#[derive(Clone, Debug)]
pub enum AppAction {
    /// Send a datagram of `payload` to `dst`; the tag's argument is
    /// ignored.
    SendDatagram {
        /// Destination address.
        dst: Address,
        /// The exact payload bytes.
        payload: Vec<u8>,
    },
    /// Send the [`marked_payload`] of `len` bytes to `dst`, its marker
    /// the tag's argument, built when the action runs.
    SendMarked {
        /// Destination address.
        dst: Address,
        /// Payload length in bytes (at least the marker's four).
        len: usize,
        /// A reliable transfer when set, else a datagram.
        reliable: bool,
    },
}

/// Bits of an `App` tag below its argument: the action's index.
const ARG_SHIFT: u32 = 32;

/// The tag that runs the action `tag` names (as
/// [`ProtocolFirmware::add_action`] returned it) with argument `arg`:
/// the low 32 bits of `tag`, then `arg` in the high 32.
#[must_use]
pub fn tag_with_arg(tag: u64, arg: u32) -> u64 {
    tag & u64::from(u32::MAX) | u64::from(arg) << ARG_SHIFT
}

/// An `App` tag's action index and argument.
fn split_tag(tag: u64) -> (u32, u32) {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the two 32-bit halves of the tag"
    )]
    (tag as u32, (tag >> ARG_SHIFT) as u32)
}

/// Bytes of the marker at the head of a [`marked_payload`].
const MARKER_LEN: usize = 4;

/// The payload of marked traffic: `marker` as four little-endian bytes,
/// then `0xA5` padding up to `len` bytes (never fewer than four).
#[must_use]
pub fn marked_payload(marker: u32, len: usize) -> Vec<u8> {
    let mut payload = vec![0xA5; len.max(MARKER_LEN)];
    payload[..MARKER_LEN].copy_from_slice(&marker.to_le_bytes());
    payload
}

/// The marker at the head of a [`marked_payload`]; `None` for a payload
/// too short to carry one.
#[must_use]
pub fn payload_marker(payload: &[u8]) -> Option<u32> {
    payload
        .first_chunk::<MARKER_LEN>()
        .map(|head| u32::from_le_bytes(*head))
}

/// The protocols the experiments can host.
#[derive(Debug)]
pub enum ProtocolNode {
    /// The LoRaMesher distance-vector mesh.
    Mesh(MeshNode),
    /// The managed-flooding stack ([`loramesher::flood`]).
    Flooding(FloodNode),
    /// The single-gateway star baseline.
    Star(StarNode),
}

impl ProtocolNode {
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
/// and executed when an `App` event whose tag holds their index fires
/// (see the module docs for the tag's layout).
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
    /// Registered actions, indexed by tag.
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
        let events = match self {
            ProtocolNode::Mesh(n) if n.has_events() => n.take_events(),
            ProtocolNode::Flooding(n) if n.has_events() => n.take_events(),
            ProtocolNode::Star(n) if n.has_events() => n.take_events(),
            // This runs after every callback and almost none emits an
            // event: no drain, no collect, no allocation.
            _ => return Vec::new(),
        };
        events.into_iter().filter_map(AppEvent::from_mesh).collect()
    }
    fn submit_datagram(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        now: Duration,
    ) -> Result<u8, SendError> {
        match self {
            ProtocolNode::Mesh(n) => n.send_datagram(dst, payload, now),
            ProtocolNode::Flooding(n) => n.send_datagram(dst, payload),
            ProtocolNode::Star(n) => n.send_datagram(dst, payload),
        }
    }
    /// Reliable transfer is a mesh-only service: the baselines answer
    /// [`SendError::BroadcastUnsupported`].
    fn submit_reliable(
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

    /// Registers a workload action, returning the tag that runs it with
    /// argument 0 for [`radio_sim::Simulator::schedule_app`];
    /// [`tag_with_arg`] gives it another argument.
    ///
    /// # Panics
    ///
    /// If the node already holds 2^32 actions: an index must fit the
    /// tag's low half.
    pub fn add_action(&mut self, action: AppAction) -> u64 {
        let index = u32::try_from(self.actions.len()).expect("action index fits 32 bits");
        self.actions.push(action);
        u64::from(index)
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
        let (index, arg) = split_tag(tag);
        let action = usize::try_from(index)
            .ok()
            .and_then(|i| self.actions.get(i));
        let Some(action) = action.cloned() else {
            return;
        };
        let now = ctx.now();
        let result = match action {
            AppAction::SendDatagram { dst, payload } => {
                self.node.submit_datagram(dst, payload, now)
            }
            AppAction::SendMarked { dst, len, reliable } => {
                let payload = marked_payload(arg, len);
                if reliable {
                    self.node.submit_reliable(dst, payload, now)
                } else {
                    self.node.submit_datagram(dst, payload, now)
                }
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
            fw.node
                .submit_datagram(Address::new(2), b"sim".to_vec(), ctx.now())
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
        let log: Vec<&AppEvent> = sim.node(gw).event_log.iter().map(|(_, e)| e).collect();
        assert_eq!(
            log,
            [&AppEvent::Received {
                src: Address::new(2),
                payload: b"uplink".to_vec(),
                broadcast: false,
            }]
        );
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
    fn marked_payload_is_the_marker_then_padding() {
        for marker in [0, 1, 0x0102_0304, u32::MAX] {
            for len in 0..=300 {
                let mut expected = marker.to_le_bytes().to_vec();
                expected.resize(len.max(4), 0xA5);
                let payload = marked_payload(marker, len);
                assert_eq!(payload, expected, "marker {marker}, len {len}");
                assert_eq!(payload_marker(&payload), Some(marker));
            }
        }
        assert_eq!(payload_marker(&[1, 2, 3]), None);
    }

    #[test]
    fn an_action_runs_on_every_event_with_its_tag() {
        let mut sim = Simulator::new(SimConfig::default(), 3);
        let a = sim.add_node(mesh_fw(1), Position::new(0.0, 0.0));
        let b = sim.add_node(mesh_fw(2), Position::new(80.0, 0.0));
        let tag = sim.with_node(a, |fw, _| {
            fw.add_action(AppAction::SendMarked {
                dst: Address::new(2),
                len: 16,
                reliable: false,
            })
        });
        sim.schedule_app(Duration::from_secs(30), a, tag_with_arg(tag, 7));
        sim.schedule_app(Duration::from_secs(35), a, tag_with_arg(tag, 7));
        sim.run_for(Duration::from_secs(45));
        let expected = marked_payload(7, 16);
        let received = sim
            .node(b)
            .event_log
            .iter()
            .filter(
                |(_, e)| matches!(e, AppEvent::Received { payload, .. } if *payload == expected),
            )
            .count();
        assert_eq!(received, 2);
        assert_eq!(sim.node(a).send_errors, 0);
    }

    #[test]
    fn unknown_tags_leave_registered_actions_alone() {
        let mut sim = Simulator::new(SimConfig::default(), 4);
        let a = sim.add_node(mesh_fw(1), Position::new(0.0, 0.0));
        let tag = sim.with_node(a, |fw, _| {
            fw.add_action(AppAction::SendMarked {
                dst: Address::new(99), // no route will ever exist
                len: 8,
                reliable: false,
            })
        });
        // Whatever their argument, tags whose index names no action.
        for unknown in [tag + 1, 42, u64::MAX, tag_with_arg(tag + 1, 5)] {
            sim.schedule_app(Duration::from_secs(1), a, unknown);
        }
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.node(a).send_errors, 0);
        sim.schedule_app(Duration::from_secs(3), a, tag);
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.node(a).send_errors, 1);
        sim.schedule_app(Duration::from_secs(5), a, tag_with_arg(tag, u32::MAX));
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.node(a).send_errors, 2);
    }

    /// A stack that records what the adapter submits.
    #[derive(Default)]
    struct Recorder {
        /// `(dst, payload, reliable)` per submission.
        sent: Vec<(Address, Vec<u8>, bool)>,
    }

    impl NodeProtocol for Recorder {
        fn on_frame(&mut self, _: &[u8], _: SignalQuality, _: &mut Context) {}
        fn next_wake(&self) -> Option<Duration> {
            None
        }
    }

    impl HostedProtocol for Recorder {
        fn drain(&mut self) -> Vec<AppEvent> {
            Vec::new()
        }
        fn submit_datagram(
            &mut self,
            dst: Address,
            payload: Vec<u8>,
            _: Duration,
        ) -> Result<u8, SendError> {
            self.sent.push((dst, payload, false));
            Ok(0)
        }
        fn submit_reliable(
            &mut self,
            dst: Address,
            payload: Vec<u8>,
            _: Duration,
        ) -> Result<u8, SendError> {
            self.sent.push((dst, payload, true));
            Ok(0)
        }
    }

    #[test]
    fn a_tag_carries_every_field_of_a_marked_send() {
        let mut fw = ProtocolFirmware::new(Recorder::default());
        let kinds = [
            (Address::BROADCAST, 4, false),
            (Address::new(7), 300, true),
            (Address::new(0xFFFE), 24, false),
        ];
        let tags = kinds.map(|(dst, len, reliable)| {
            fw.add_action(AppAction::SendMarked { dst, len, reliable })
        });
        let mut expected = Vec::new();
        for marker in [0, 1, u32::MAX] {
            for (&tag, &(dst, len, reliable)) in tags.iter().zip(&kinds) {
                fw.on_app(tag_with_arg(tag, marker), &mut Context::new(Duration::ZERO));
                expected.push((dst, marked_payload(marker, len), reliable));
            }
        }
        assert_eq!(fw.node.sent, expected);
        assert_eq!(fw.send_errors, 0);
        // The argument replaces the high half and keeps the index.
        assert_eq!(tag_with_arg(tag_with_arg(5, 9), 3), tag_with_arg(5, 3));
        assert_eq!(split_tag(tag_with_arg(5, u32::MAX)), (5, u32::MAX));
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
