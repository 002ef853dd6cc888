//! Single-gateway star — the LoRaWAN deployment model.
//!
//! End nodes transmit directly to a designated gateway; the gateway can
//! address any end node directly. There is no relaying whatsoever, so a
//! node outside the gateway's radio range is simply unreachable — exactly
//! the limitation the LoRaMesher paper's introduction argues against, and
//! the property experiment E5 quantifies.
//!
//! Frames reuse the LoRaMesher `Data` packet with TTL 1 (never relayed),
//! and go out through the same [`Mac`] as the mesh and flooding stacks
//! (always listen-before-talk), keeping airtime comparable across
//! protocols.

use std::collections::VecDeque;
use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::modulation::LoRaModulation;
use lora_phy::region::Region;

use loramesher::addr::Address;
use loramesher::codec;
use loramesher::driver::{NodeProtocol, RadioIo};
use loramesher::error::SendError;
use loramesher::mac::{Mac, NoWireCache, TxOutcome};
use loramesher::packet::{Forwarding, Packet};
use loramesher::queue::TxQueue;
use loramesher::rng::ProtocolRng;
use loramesher::MeshEvent;

/// Configuration of a [`StarNode`].
#[derive(Clone, Debug)]
pub struct StarConfig {
    /// This node's address.
    pub address: Address,
    /// The gateway every end node talks to.
    pub gateway: Address,
    /// The radio profile.
    pub modulation: LoRaModulation,
    /// Regulatory region for the duty cycle.
    pub region: Region,
    /// Transmit queue capacity.
    pub tx_queue_capacity: usize,
    /// CSMA backoff slot.
    pub backoff_slot: Duration,
    /// Maximum CSMA backoff exponent.
    pub max_backoff_exponent: u32,
    /// CAD retries before dropping a frame.
    pub max_cad_retries: u32,
    /// Randomness seed.
    pub seed: u64,
}

impl StarConfig {
    /// A configuration with defaults matching the mesh experiments.
    #[must_use]
    pub fn new(address: Address, gateway: Address) -> Self {
        StarConfig {
            address,
            gateway,
            modulation: LoRaModulation::default(),
            region: Region::Eu868,
            tx_queue_capacity: 32,
            backoff_slot: Duration::from_millis(100),
            max_backoff_exponent: 6,
            max_cad_retries: 16,
            seed: u64::from(address.value()),
        }
    }
}

/// A node in a single-gateway star network.
#[derive(Debug)]
pub struct StarNode {
    config: StarConfig,
    mac: Mac,
    txq: TxQueue,
    rng: ProtocolRng,
    events: VecDeque<MeshEvent>,
    next_id: u8,
    started: bool,
    /// Frames transmitted.
    pub frames_sent: u64,
    /// Total airtime transmitted.
    pub airtime: Duration,
}

impl StarNode {
    /// Creates a node from its configuration.
    #[must_use]
    pub fn new(config: StarConfig) -> Self {
        StarNode {
            mac: Mac::new(
                config.region,
                config.modulation,
                config.backoff_slot,
                config.max_backoff_exponent,
                config.max_cad_retries,
                true,
            ),
            txq: TxQueue::new(config.tx_queue_capacity),
            rng: ProtocolRng::new(config.seed),
            events: VecDeque::new(),
            next_id: 0,
            started: false,
            frames_sent: 0,
            airtime: Duration::ZERO,
            config,
        }
    }

    /// This node's address.
    #[must_use]
    pub fn address(&self) -> Address {
        self.config.address
    }

    /// Whether this node is the gateway.
    #[must_use]
    pub fn is_gateway(&self) -> bool {
        self.config.address == self.config.gateway
    }

    /// Whether [`Self::take_events`] would return anything — lets a host
    /// skip the drain after the many callbacks that emit nothing.
    #[must_use]
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Drains pending application events: a [`MeshEvent::Datagram`]
    /// for every packet addressed to this node.
    pub fn take_events(&mut self) -> Vec<MeshEvent> {
        self.events.drain(..).collect()
    }

    /// Submits a datagram.
    ///
    /// End nodes may only address the gateway (uplink); the gateway may
    /// address any node (downlink).
    ///
    /// # Errors
    ///
    /// * [`SendError::EmptyPayload`] / [`SendError::PayloadTooLarge`] /
    ///   [`SendError::QueueFull`] — as for the mesh.
    /// * [`SendError::NoRoute`] — an end node tried to reach something
    ///   other than the gateway (stars have no peer-to-peer path).
    pub fn send_datagram(&mut self, dst: Address, payload: Vec<u8>) -> Result<u8, SendError> {
        if payload.is_empty() {
            return Err(SendError::EmptyPayload);
        }
        if payload.len() > codec::MAX_DATA_PAYLOAD {
            return Err(SendError::PayloadTooLarge {
                len: payload.len(),
                max: codec::MAX_DATA_PAYLOAD,
            });
        }
        if !self.is_gateway() && dst != self.config.gateway {
            return Err(SendError::NoRoute(dst));
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let packet = Packet::Data {
            dst,
            src: self.config.address,
            id,
            fwd: Forwarding { via: dst, ttl: 1 },
            payload,
        };
        if !self.txq.push(packet) {
            return Err(SendError::QueueFull);
        }
        Ok(id)
    }

    /// Books what a MAC call did into the airtime counters.
    fn book(&mut self, outcome: TxOutcome) {
        if let TxOutcome::Sent { airtime } = outcome {
            self.frames_sent += 1;
            self.airtime += airtime;
        }
    }
}

impl NodeProtocol for StarNode {
    fn on_start(&mut self, _io: &mut RadioIo) {
        self.started = true;
    }

    fn on_timer(&mut self, io: &mut RadioIo) {
        let outcome = self.mac.kick(&mut self.txq, &mut NoWireCache, io);
        self.book(outcome);
    }

    fn on_frame(&mut self, frame: &[u8], _quality: SignalQuality, _io: &mut RadioIo) {
        let Ok(Packet::Data {
            dst, src, payload, ..
        }) = codec::decode(frame)
        else {
            return;
        };
        if dst == self.config.address && src != self.config.address {
            self.events.push_back(MeshEvent::Datagram { src, payload });
        }
    }

    fn on_tx_done(&mut self, _io: &mut RadioIo) {
        self.mac.on_tx_done();
    }

    fn on_cad_done(&mut self, busy: bool, io: &mut RadioIo) {
        let outcome =
            self.mac
                .on_cad_done(busy, &mut self.txq, &mut self.rng, &mut NoWireCache, io);
        self.book(outcome);
    }

    fn next_wake(&self) -> Option<Duration> {
        if !self.started {
            return None;
        }
        self.mac.next_wake(&self.txq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loramesher::driver::RadioRequest;
    use std::sync::Arc;

    const GW: Address = Address::new(100);
    const N1: Address = Address::new(1);
    const N2: Address = Address::new(2);

    fn node(addr: Address) -> StarNode {
        let mut cfg = StarConfig::new(addr, GW);
        cfg.region = Region::Unlimited;
        StarNode::new(cfg)
    }

    fn start(n: &mut StarNode) {
        let mut io = RadioIo::new(Duration::ZERO);
        n.on_start(&mut io);
        assert!(io.take_requests().is_empty());
    }

    fn frame_in(n: &mut StarNode, frame: &[u8], now: Duration) {
        let mut io = RadioIo::new(now);
        n.on_frame(frame, SignalQuality::ideal(), &mut io);
    }

    fn drain(n: &mut StarNode, now: Duration) -> Vec<Arc<[u8]>> {
        let mut frames = Vec::new();
        let mut io = RadioIo::new(now);
        n.on_timer(&mut io);
        let mut requests = io.take_requests();
        while let Some(req) = requests.pop() {
            let mut io = RadioIo::new(now);
            match req {
                RadioRequest::StartCad => n.on_cad_done(false, &mut io),
                RadioRequest::Transmit(f) => {
                    frames.push(f);
                    n.on_tx_done(&mut io);
                }
            }
            requests.extend(io.take_requests());
        }
        frames
    }

    #[test]
    fn uplink_reaches_gateway() {
        let mut n = node(N1);
        let mut gw = node(GW);
        start(&mut n);
        start(&mut gw);
        n.send_datagram(GW, b"up".to_vec()).unwrap();
        let frames = drain(&mut n, Duration::ZERO);
        assert_eq!(frames.len(), 1);
        frame_in(&mut gw, &frames[0], Duration::ZERO);
        assert_eq!(
            gw.take_events(),
            vec![MeshEvent::Datagram {
                src: N1,
                payload: b"up".to_vec()
            }]
        );
    }

    #[test]
    fn downlink_reaches_end_node() {
        let mut gw = node(GW);
        let mut n = node(N2);
        start(&mut gw);
        start(&mut n);
        assert!(gw.is_gateway());
        gw.send_datagram(N2, b"down".to_vec()).unwrap();
        let frames = drain(&mut gw, Duration::ZERO);
        frame_in(&mut n, &frames[0], Duration::ZERO);
        assert_eq!(n.take_events().len(), 1);
    }

    #[test]
    fn end_node_cannot_address_peer() {
        let mut n = node(N1);
        start(&mut n);
        assert_eq!(
            n.send_datagram(N2, b"p2p".to_vec()),
            Err(SendError::NoRoute(N2))
        );
    }

    #[test]
    fn frames_are_never_relayed() {
        // A frame for someone else passes through a node untouched.
        let mut n = node(N1);
        start(&mut n);
        let frame = codec::encode(&Packet::Data {
            dst: N2,
            src: GW,
            id: 0,
            fwd: Forwarding { via: N2, ttl: 1 },
            payload: vec![9],
        })
        .unwrap();
        frame_in(&mut n, &frame, Duration::ZERO);
        assert!(n.take_events().is_empty());
        assert!(drain(&mut n, Duration::from_secs(1)).is_empty());
    }

    /// The region's dwell limit binds the star as it binds the other
    /// stacks: under US915 a 20-byte LongSlow frame (~2.8 s on air,
    /// against 400 ms) is dropped and never transmitted, while the same
    /// payload at SF7 still goes out.
    #[test]
    fn us915_dwell_limit_drops_long_frames() {
        let us915 = |modulation| {
            let mut cfg = StarConfig::new(N1, GW);
            cfg.region = Region::Us915;
            cfg.modulation = modulation;
            let mut n = StarNode::new(cfg);
            start(&mut n);
            n.send_datagram(GW, vec![0; 20]).unwrap();
            n
        };
        let mut slow = us915(LoRaModulation::long_slow());
        assert!(drain(&mut slow, Duration::ZERO).is_empty());
        assert_eq!(slow.frames_sent, 0);
        assert_eq!(slow.next_wake(), None, "the frame left the queue");
        let mut fast = us915(LoRaModulation::default());
        assert_eq!(drain(&mut fast, Duration::ZERO).len(), 1);
        assert_eq!(fast.frames_sent, 1);
    }

    #[test]
    fn send_validations() {
        let mut n = node(N1);
        start(&mut n);
        assert_eq!(n.send_datagram(GW, vec![]), Err(SendError::EmptyPayload));
        assert!(matches!(
            n.send_datagram(GW, vec![0; 4000]),
            Err(SendError::PayloadTooLarge { .. })
        ));
    }
}
