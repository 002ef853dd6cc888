//! The managed-flooding stack: [`FloodNode`] — Meshtastic-style
//! routing-free meshing as a first-class protocol.
//!
//! Managed flooding keeps no routing state. Every packet carries its
//! originator, an id and a hop limit; a node that hears a packet it has
//! not seen before (a) delivers it if it is the destination or the
//! packet is a broadcast, and (b) schedules a rebroadcast with the hop
//! limit decremented, after a randomised delay that decorrelates
//! simultaneous relays. Duplicate suppression uses the bounded
//! `(origin, id)` `DedupCache`.
//!
//! The stack reuses the shared LoRaMesher plumbing wholesale — the
//! stack's private bus (one deterministic RNG per node, the
//! transmit queue, the [`MeshEvent`] queue, the stats counters) and the
//! [`Mac`] (CAD/backoff/duty-cycle channel access and frame emission)
//! — so the two protocols differ *only* above the MAC, and
//! airtime comparisons between them measure protocol overhead, not
//! implementation drift. The wire format reuses the LoRaMesher `Data`
//! packet with `via` set to broadcast (there is no designated next
//! hop), making frame sizes identical between the stacks.
//!
//! # Dispatch order
//!
//! As with [`crate::stack`], determinism requires a fixed order per
//! timer tick. `FloodNode::process_due` runs, in this order and nothing
//! else:
//!
//! 1. **flood** — move due rebroadcasts into the transmit queue (in
//!    arrival order);
//! 2. **mac** — one chance to move queued traffic to the radio.
//!
//! The node keeps the earliest relay deadline beside `pending`: a push
//! lowers it, and the due pass — which walks `pending` only when that
//! deadline has come — recomputes it from the relays left. So
//! [`NodeProtocol::next_wake`], asked after every callback, reads one
//! field instead of scanning the pending relays.
//!
//! The node draws from its single RNG stream only on relay scheduling
//! (one draw per accepted flood) and inside the MAC backoff — the same
//! discipline the LoRaMesher stack follows, so both protocols replay
//! identically from a seed under every engine.
//!
//! # Rebroadcast timing
//!
//! The relay delay is SNR- and contention-weighted, following
//! Meshtastic's contention-window design: a node that heard the packet
//! *weakly* is probably near the edge of the flood, so its rebroadcast
//! extends coverage the most — it draws from a *shorter* window and
//! tends to fire first, which lets better-placed relays win the channel
//! and everyone else suppress the duplicate. Nodes with a backlog add
//! one backoff slot per queued frame so congested relays defer to idle
//! ones.
//!
//! # Payload encryption
//!
//! With the `crypto` feature enabled and a key configured, application
//! payloads are AES-128-CTR encrypted end to end: the originator
//! encrypts, relays forward the ciphertext verbatim, and only nodes
//! holding the channel key decrypt on delivery (see the `crypto` module).

pub(crate) mod dedup;
pub mod message;

#[cfg(feature = "crypto")]
pub mod crypto;

use alloc::vec::Vec;
use core::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::modulation::LoRaModulation;
use lora_phy::region::Region;

use crate::addr::Address;
use crate::codec::{self, FrameView, UnicastBody, UnicastView};
use crate::driver::{NodeProtocol, RadioIo};
use crate::error::SendError;
use crate::mac::{Mac, BACKOFF_SLOT};
use crate::packet::{Forwarding, Packet};
use crate::stack::app;
use crate::stack::bus::Bus;

pub use crate::stack::app::MeshEvent;
use dedup::DedupCache;
pub use message::FloodMessage;

/// Upper bound of the rebroadcast delay window, scaled down by the
/// received SNR (see the [module docs](self)).
pub const REBROADCAST_WINDOW: Duration = Duration::from_millis(500);
/// `(origin, id)` keys the duplicate-suppression cache holds.
pub const SEEN_CACHE: usize = 128;

/// Configuration of a [`FloodNode`].
#[derive(Clone, Debug)]
pub struct FloodConfig {
    /// This node's address.
    pub address: Address,
    /// The radio profile (must match the network's).
    pub modulation: LoRaModulation,
    /// Regulatory region for the duty cycle.
    pub region: Region,
    /// Initial hop limit of originated packets (= maximum flood
    /// radius).
    pub hop_limit: u8,
    /// Listen-before-talk (CAD) on, or the ALOHA ablation.
    pub csma: bool,
    /// Randomness seed (defaults to the address).
    pub seed: u64,
    /// AES-128 channel key; `None` sends cleartext.
    #[cfg(feature = "crypto")]
    pub key: Option<[u8; 16]>,
}

impl FloodConfig {
    /// A configuration with the LoRaMesher defaults where the two
    /// stacks overlap: SF7, EU868, CSMA on. The MAC and transmit queue
    /// are the shared ones ([`crate::mac`], [`crate::queue`]).
    #[must_use]
    pub fn new(address: Address) -> Self {
        FloodConfig {
            address,
            modulation: LoRaModulation::default(),
            region: Region::Eu868,
            hop_limit: 7,
            csma: true,
            seed: u64::from(address.value()),
            #[cfg(feature = "crypto")]
            key: None,
        }
    }
}

/// A snapshot of a flooding node's counters: the shared MAC/channel
/// counters plus the flood-specific ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FloodStats {
    /// Frames transmitted (originated + relayed + retries).
    pub frames_sent: u64,
    /// Total airtime transmitted.
    pub airtime: Duration,
    /// Received frames that failed to decode or were malformed.
    pub decode_errors: u64,
    /// Transmit-queue refusals (backpressure).
    pub queue_refusals: u64,
    /// Payloads delivered to the application.
    pub data_delivered: u64,
    /// Transmissions deferred by the duty-cycle budget.
    pub duty_cycle_deferrals: u64,
    /// Frames dropped after exhausting CAD retries.
    pub cad_exhausted: u64,
    /// Floods originated by this node.
    pub originated: u64,
    /// Packets this node has rebroadcast for others.
    pub relayed: u64,
    /// Duplicates suppressed by the seen-cache.
    pub duplicates_suppressed: u64,
    /// Floods that died here because their hop limit was spent.
    pub hop_limit_drops: u64,
}

/// A pending (delayed) rebroadcast: the fields of the `Data` packet it
/// becomes when due (`ttl` already decremented).
#[derive(Debug)]
struct PendingRelay {
    at: Duration,
    dst: Address,
    src: Address,
    id: u8,
    ttl: u8,
    payload: Vec<u8>,
}

/// A managed-flooding node. Sans-IO, `no_std`, hosted through the same
/// [`NodeProtocol`] interface as [`crate::MeshNode`].
#[derive(Debug)]
pub struct FloodNode {
    config: FloodConfig,
    bus: Bus,
    mac: Mac,
    seen: DedupCache,
    pending: Vec<PendingRelay>,
    /// The earliest `at` in `pending`, `None` when it is empty.
    next_relay: Option<Duration>,
    #[cfg(feature = "crypto")]
    cipher: Option<crypto::Aes128Ctr>,
    started: bool,
    originated: u64,
    relayed: u64,
    duplicates_suppressed: u64,
    hop_limit_drops: u64,
}

impl FloodNode {
    /// Creates a node from its configuration.
    #[must_use]
    pub fn new(config: FloodConfig) -> Self {
        FloodNode {
            bus: Bus::new(config.seed),
            mac: Mac::new(config.region, config.modulation, config.csma),
            seen: DedupCache::new(SEEN_CACHE),
            pending: Vec::new(),
            next_relay: None,
            #[cfg(feature = "crypto")]
            cipher: config.key.as_ref().map(crypto::Aes128Ctr::new),
            started: false,
            originated: 0,
            relayed: 0,
            duplicates_suppressed: 0,
            hop_limit_drops: 0,
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
    pub fn config(&self) -> &FloodConfig {
        &self.config
    }

    /// A snapshot of the node's counters.
    #[must_use]
    pub fn stats(&self) -> FloodStats {
        FloodStats {
            frames_sent: self.bus.stats.frames_sent,
            airtime: self.bus.stats.airtime,
            decode_errors: self.bus.stats.decode_errors,
            queue_refusals: self.bus.stats.queue_refusals,
            data_delivered: self.bus.stats.data_delivered,
            duty_cycle_deferrals: self.mac.duty_deferrals,
            cad_exhausted: self.mac.cad_drops,
            originated: self.originated,
            relayed: self.relayed,
            duplicates_suppressed: self.duplicates_suppressed,
            hop_limit_drops: self.hop_limit_drops,
        }
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

    /// Rebroadcasts waiting for their delay to elapse (diagnostics).
    #[must_use]
    pub fn pending_relays(&self) -> usize {
        self.pending.len()
    }

    /// Keys currently remembered by the duplicate-suppression cache.
    #[must_use]
    pub fn seen_len(&self) -> usize {
        self.seen.len()
    }

    /// The duplicate-suppression cache's configured bound.
    #[must_use]
    pub fn seen_capacity(&self) -> usize {
        self.seen.capacity()
    }

    /// Submits a raw datagram to flood toward `dst` (or broadcast).
    ///
    /// Returns the packet id on success. With a `crypto` key configured
    /// the payload rides the air encrypted.
    ///
    /// # Errors
    ///
    /// * [`SendError::EmptyPayload`] — nothing to send.
    /// * [`SendError::PayloadTooLarge`] — exceeds the single-frame
    ///   limit ([`codec::MAX_DATA_PAYLOAD`]).
    /// * [`SendError::QueueFull`] — the transmit queue refused the
    ///   frame.
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
        let id = self.bus.next_id();
        let payload = self.seal(id, payload);
        let packet = Packet::Data {
            dst,
            src: self.config.address,
            id,
            fwd: Forwarding {
                via: Address::BROADCAST,
                ttl: self.config.hop_limit,
            },
            payload,
        };
        // Mark our own flood as seen so echoes are not relayed.
        self.seen.insert(self.config.address, id);
        if !self.bus.enqueue(&packet) {
            return Err(SendError::QueueFull);
        }
        self.originated += 1;
        self.bus.stats.data_originated += 1;
        Ok(id)
    }

    /// Submits a typed [`FloodMessage`] to flood toward `dst` (or
    /// broadcast).
    ///
    /// # Errors
    ///
    /// As [`FloodNode::send_datagram`] (a message never encodes empty).
    pub fn send_message(&mut self, dst: Address, message: &FloodMessage) -> Result<u8, SendError> {
        self.send_datagram(dst, message.encode())
    }

    /// Encrypts an outbound payload when a channel key is configured.
    #[cfg(feature = "crypto")]
    fn seal(&self, id: u8, mut payload: Vec<u8>) -> Vec<u8> {
        if let Some(cipher) = &self.cipher {
            let counter = crypto::flood_counter_block(self.config.address, id);
            cipher.apply_keystream(&counter, &mut payload);
        }
        payload
    }

    #[cfg(not(feature = "crypto"))]
    fn seal(&self, _id: u8, payload: Vec<u8>) -> Vec<u8> {
        payload
    }

    /// Decrypts a delivered payload when a channel key is configured
    /// (relays never call this: they forward ciphertext verbatim).
    #[cfg(feature = "crypto")]
    fn unseal(&self, origin: Address, id: u8, mut payload: Vec<u8>) -> Vec<u8> {
        if let Some(cipher) = &self.cipher {
            let counter = crypto::flood_counter_block(origin, id);
            cipher.apply_keystream(&counter, &mut payload);
        }
        payload
    }

    #[cfg(not(feature = "crypto"))]
    fn unseal(&self, _origin: Address, _id: u8, payload: Vec<u8>) -> Vec<u8> {
        payload
    }

    /// The relay delay for a flood heard at `snr` dB: one RNG draw from
    /// an SNR-scaled window, plus one backoff slot per already-queued
    /// frame. See the [module docs](self) for the rationale.
    fn relay_delay(&mut self, snr: f64) -> Duration {
        let edge = ((snr + 20.0) / 30.0).clamp(0.0, 1.0);
        let window = REBROADCAST_WINDOW.mul_f64(0.25 + 0.75 * edge);
        let bound_us = u64::try_from(window.as_micros()).unwrap_or(u64::MAX).max(1);
        let jitter = Duration::from_micros(self.bus.rng.gen_range(bound_us));
        let backlog = u32::try_from(self.bus.txq.len()).unwrap_or(u32::MAX);
        jitter.saturating_add(BACKOFF_SLOT.saturating_mul(backlog))
    }

    /// Steps 1 + 2 of the dispatch order (see the [module docs](self)).
    fn process_due(&mut self, now: Duration, io: &mut RadioIo) {
        // 1. Move due rebroadcasts into the transmit queue, preserving
        //    arrival order (one in-place pass, taken only when the
        //    earliest relay is due; most timers find none due).
        if self.next_relay.is_some_and(|at| at <= now) {
            self.release_due(now);
        }
        // 2. Give the MAC a chance to move traffic.
        let outcome = self.mac.kick(&mut self.bus.txq, io);
        self.bus.book(outcome);
    }

    /// Moves every relay due at `now` into the transmit queue, in
    /// arrival order, and recomputes the kept deadline from the rest.
    fn release_due(&mut self, now: Duration) {
        let mut next_relay: Option<Duration> = None;
        self.pending.retain_mut(|relay| {
            if relay.at > now {
                next_relay = Some(next_relay.map_or(relay.at, |at| at.min(relay.at)));
                return true;
            }
            let packet = Packet::Data {
                dst: relay.dst,
                src: relay.src,
                id: relay.id,
                fwd: Forwarding {
                    via: Address::BROADCAST,
                    ttl: relay.ttl,
                },
                payload: core::mem::take(&mut relay.payload),
            };
            if self.bus.enqueue(&packet) {
                self.relayed += 1;
                self.bus.stats.forwarded += 1;
            }
            false
        });
        self.next_relay = next_relay;
    }
}

impl NodeProtocol for FloodNode {
    fn on_start(&mut self, _io: &mut RadioIo) {
        self.started = true;
    }

    fn on_timer(&mut self, io: &mut RadioIo) {
        self.process_due(io.now(), io);
    }

    fn on_frame(&mut self, frame: &[u8], quality: SignalQuality, io: &mut RadioIo) {
        let now = io.now();
        // Validate the whole frame, then decide on the header alone:
        // most frames heard are duplicates or echoes, and those are
        // dropped before the payload is ever copied.
        let view = match codec::parse(frame) {
            Ok(v) => v,
            Err(_) => {
                self.bus.stats.decode_errors += 1;
                return;
            }
        };
        if view.src().is_broadcast() {
            // Nobody owns the broadcast address: a frame claiming to come
            // from it is malformed, and must not be delivered or flooded.
            self.bus.stats.decode_errors += 1;
            return;
        }
        let FrameView::Unicast(UnicastView {
            dst,
            src,
            id,
            fwd,
            body: UnicastBody::Data { payload },
        }) = view
        else {
            return; // flooding only speaks Data
        };
        if src == self.config.address {
            // An echo of our own flood coming back — normal in a
            // flooding mesh, and already in the seen-cache anyway.
            return;
        }
        if !self.seen.insert(src, id) {
            self.duplicates_suppressed += 1;
            return;
        }
        if dst == self.config.address {
            let clear = self.unseal(src, id, payload.to_vec());
            app::deliver_datagram(&mut self.bus, src, clear);
            return; // the final destination does not relay
        }
        if dst.is_broadcast() {
            let clear = self.unseal(src, id, payload.to_vec());
            app::deliver_broadcast(&mut self.bus, src, clear);
        }
        // Relay unless the hop limit is spent. The relayed payload is the
        // received one verbatim — under `crypto` that is the ciphertext.
        if fwd.ttl <= 1 {
            self.hop_limit_drops += 1;
            self.bus.stats.ttl_expired += 1;
            return;
        }
        let at = now + self.relay_delay(quality.snr);
        self.next_relay = Some(self.next_relay.map_or(at, |next| next.min(at)));
        self.pending.push(PendingRelay {
            at,
            dst,
            src,
            id,
            ttl: fwd.ttl - 1,
            payload: payload.to_vec(),
        });
    }

    fn on_tx_done(&mut self, _io: &mut RadioIo) {
        self.mac.on_tx_done();
    }

    fn on_cad_done(&mut self, busy: bool, io: &mut RadioIo) {
        let bus = &mut self.bus;
        let outcome = self.mac.on_cad_done(busy, &mut bus.txq, &mut bus.rng, io);
        bus.book(outcome);
    }

    fn next_wake(&self) -> Option<Duration> {
        if !self.started {
            return None;
        }
        debug_assert_eq!(
            self.next_relay,
            self.pending.iter().map(|p| p.at).min(),
            "kept relay deadline out of step with the pending relays"
        );
        [self.mac.next_wake(&self.bus.txq), self.next_relay]
            .into_iter()
            .flatten()
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RadioRequest;
    use alloc::sync::Arc;
    use alloc::vec;
    use alloc::vec::Vec;

    const A1: Address = Address::new(1);
    const A2: Address = Address::new(2);
    const A3: Address = Address::new(3);

    fn node(addr: Address) -> FloodNode {
        let mut cfg = FloodConfig::new(addr);
        cfg.region = Region::Unlimited;
        FloodNode::new(cfg)
    }

    fn start(n: &mut FloodNode) {
        let mut io = RadioIo::new(Duration::ZERO);
        n.on_start(&mut io);
        assert!(io.take_requests().is_empty());
    }

    fn frame_in(n: &mut FloodNode, frame: &[u8], now: Duration) {
        frame_in_at_snr(n, frame, now, SignalQuality::ideal());
    }

    fn frame_in_at_snr(n: &mut FloodNode, frame: &[u8], now: Duration, q: SignalQuality) {
        let mut io = RadioIo::new(now);
        n.on_frame(frame, q, &mut io);
    }

    /// Drains one node's radio work, returning transmitted frames.
    fn drain(n: &mut FloodNode, now: Duration) -> Vec<Arc<[u8]>> {
        let mut frames = Vec::new();
        let mut io = RadioIo::new(now);
        n.on_timer(&mut io);
        let mut requests = io.take_requests();
        let mut guard = 0;
        while let Some(req) = requests.pop() {
            guard += 1;
            assert!(guard < 100, "runaway radio loop");
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
    fn send_validations() {
        let mut n = node(A1);
        start(&mut n);
        assert_eq!(n.send_datagram(A2, vec![]), Err(SendError::EmptyPayload));
        assert!(matches!(
            n.send_datagram(A2, vec![0; 4000]),
            Err(SendError::PayloadTooLarge { .. })
        ));
        assert!(n.send_datagram(A2, vec![1, 2]).is_ok());
        assert_eq!(n.stats().originated, 1);
    }

    #[test]
    fn originated_packet_is_transmitted() {
        let mut n = node(A1);
        start(&mut n);
        n.send_datagram(A2, b"x".to_vec()).unwrap();
        assert_eq!(n.next_wake(), Some(Duration::ZERO));
        let frames = drain(&mut n, Duration::ZERO);
        assert_eq!(frames.len(), 1);
        assert_eq!(n.stats().frames_sent, 1);
        assert!(n.stats().airtime > Duration::ZERO);
    }

    #[test]
    fn destination_delivers_and_does_not_relay() {
        let mut a = node(A1);
        let mut b = node(A2);
        start(&mut a);
        start(&mut b);
        a.send_datagram(A2, b"hi".to_vec()).unwrap();
        let frames = drain(&mut a, Duration::ZERO);
        frame_in(&mut b, &frames[0], Duration::ZERO);
        assert_eq!(
            b.take_events(),
            vec![MeshEvent::Datagram {
                src: A1,
                payload: b"hi".to_vec()
            }]
        );
        // B was the destination: nothing to relay, no pending work.
        assert!(drain(&mut b, Duration::from_secs(5)).is_empty());
        assert_eq!(b.stats().relayed, 0);
    }

    #[test]
    fn intermediate_node_relays_with_decremented_hop_limit() {
        let mut a = node(A1);
        let mut b = node(A2);
        start(&mut a);
        start(&mut b);
        a.send_datagram(A3, b"fwd".to_vec()).unwrap();
        let frames = drain(&mut a, Duration::ZERO);
        frame_in(&mut b, &frames[0], Duration::ZERO);
        assert_eq!(b.pending_relays(), 1);
        // The relay is delayed: due within the configured window.
        let relayed = drain(&mut b, Duration::from_secs(1));
        assert_eq!(relayed.len(), 1);
        assert_eq!(b.stats().relayed, 1);
        match codec::decode(&relayed[0]).unwrap() {
            Packet::Data { src, dst, fwd, .. } => {
                assert_eq!(src, A1);
                assert_eq!(dst, A3);
                assert_eq!(fwd.via, Address::BROADCAST);
                assert_eq!(fwd.ttl, FloodConfig::new(A1).hop_limit - 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // B did not deliver a packet that was not for it.
        assert!(b.take_events().is_empty());
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut a = node(A1);
        let mut b = node(A2);
        start(&mut a);
        start(&mut b);
        a.send_datagram(A3, b"dup".to_vec()).unwrap();
        let frames = drain(&mut a, Duration::ZERO);
        frame_in(&mut b, &frames[0], Duration::ZERO);
        frame_in(&mut b, &frames[0], Duration::ZERO);
        assert_eq!(b.stats().duplicates_suppressed, 1);
        // Only one relay scheduled.
        assert_eq!(drain(&mut b, Duration::from_secs(1)).len(), 1);
    }

    #[test]
    fn broadcast_is_delivered_and_relayed() {
        let mut a = node(A1);
        let mut b = node(A2);
        start(&mut a);
        start(&mut b);
        a.send_datagram(Address::BROADCAST, b"all".to_vec())
            .unwrap();
        let frames = drain(&mut a, Duration::ZERO);
        frame_in(&mut b, &frames[0], Duration::ZERO);
        match b.take_events().as_slice() {
            [MeshEvent::Broadcast { src, payload }] => {
                assert_eq!(*src, A1);
                assert_eq!(payload, b"all");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(drain(&mut b, Duration::from_secs(1)).len(), 1);
    }

    #[test]
    fn hop_limit_one_is_not_relayed() {
        let mut a = FloodNode::new({
            let mut c = FloodConfig::new(A1);
            c.region = Region::Unlimited;
            c.hop_limit = 1;
            c
        });
        let mut b = node(A2);
        start(&mut a);
        start(&mut b);
        a.send_datagram(A3, b"one hop".to_vec()).unwrap();
        let frames = drain(&mut a, Duration::ZERO);
        frame_in(&mut b, &frames[0], Duration::ZERO);
        assert!(drain(&mut b, Duration::from_secs(2)).is_empty());
        assert_eq!(b.stats().relayed, 0);
        assert_eq!(b.stats().hop_limit_drops, 1);
    }

    #[test]
    fn seen_cache_is_bounded() {
        let mut n = node(A2);
        start(&mut n);
        for id in 0..=u8::MAX {
            let frame = codec::encode(&Packet::Data {
                dst: A2,
                src: A1,
                id,
                fwd: Forwarding {
                    via: Address::BROADCAST,
                    ttl: 3,
                },
                payload: vec![id],
            })
            .unwrap();
            frame_in(&mut n, &frame, Duration::ZERO);
        }
        assert_eq!(n.seen_len(), SEEN_CACHE);
        assert_eq!(n.take_events().len(), 256);
    }

    #[test]
    fn non_data_packets_ignored() {
        let mut n = node(A2);
        start(&mut n);
        let hello = codec::encode(&Packet::Hello {
            src: A1,
            id: 0,
            role: 0,
            entries: vec![],
        })
        .unwrap();
        frame_in(&mut n, &hello, Duration::ZERO);
        assert!(n.take_events().is_empty());
        assert!(n.next_wake().is_none());
    }

    /// A corrupt frame is counted, never panics, never schedules work.
    #[test]
    fn garbage_frames_count_as_decode_errors() {
        let mut n = node(A2);
        start(&mut n);
        frame_in(&mut n, &[0xFF, 0x01], Duration::ZERO);
        assert_eq!(n.stats().decode_errors, 1);
        assert!(n.next_wake().is_none());
    }

    /// Nobody owns the broadcast address: a frame claiming to come from
    /// it is malformed — counted, neither delivered nor relayed.
    #[test]
    fn a_frame_from_the_broadcast_address_is_a_decode_error() {
        let mut n = node(A2);
        start(&mut n);
        let frame = codec::encode(&Packet::Data {
            dst: Address::BROADCAST,
            src: Address::BROADCAST,
            id: 0,
            fwd: Forwarding {
                via: Address::BROADCAST,
                ttl: 3,
            },
            payload: vec![1],
        })
        .unwrap();
        frame_in(&mut n, &frame, Duration::ZERO);
        assert_eq!(n.stats().decode_errors, 1);
        assert!(n.take_events().is_empty());
        assert_eq!(n.pending_relays(), 0);
        assert_eq!(n.seen_len(), 0);
        assert!(n.next_wake().is_none());
    }

    /// The SNR weighting: with identical RNG state, a weakly-heard
    /// flood draws its relay delay from a shorter window than a
    /// strongly-heard one, so edge nodes tend to rebroadcast first.
    #[test]
    fn weak_snr_relays_before_strong_snr() {
        let frame = {
            let mut a = node(A1);
            start(&mut a);
            a.send_datagram(A3, b"edge".to_vec()).unwrap();
            drain(&mut a, Duration::ZERO).remove(0)
        };
        let mut weak = node(A2);
        let mut strong = node(A2); // same seed → same RNG draw
        start(&mut weak);
        start(&mut strong);
        let weak_q = SignalQuality {
            snr: -15.0,
            ..SignalQuality::ideal()
        };
        frame_in_at_snr(&mut weak, &frame, Duration::ZERO, weak_q);
        frame_in(&mut strong, &frame, Duration::ZERO);
        let weak_at = weak.next_wake().expect("relay pending");
        let strong_at = strong.next_wake().expect("relay pending");
        assert!(
            weak_at < strong_at,
            "weak {weak_at:?} should fire before strong {strong_at:?}"
        );
    }

    /// The contention weighting: a backlog of queued frames pushes the
    /// relay delay out by one backoff slot per frame.
    #[test]
    fn queued_backlog_defers_the_relay() {
        let frame = {
            let mut a = node(A1);
            start(&mut a);
            a.send_datagram(A3, b"busy".to_vec()).unwrap();
            drain(&mut a, Duration::ZERO).remove(0)
        };
        let mut idle = node(A2);
        let mut busy = node(A2); // same seed → same RNG draw
        start(&mut idle);
        start(&mut busy);
        busy.send_datagram(A3, b"backlog".to_vec()).unwrap();
        frame_in(&mut idle, &frame, Duration::ZERO);
        frame_in(&mut busy, &frame, Duration::ZERO);
        let idle_at = idle.next_wake().expect("relay pending");
        // The busy node's wake is ZERO (its own queued frame); compare
        // the pending relays directly.
        let busy_at = busy.pending.iter().map(|p| p.at).min().unwrap();
        assert_eq!(busy_at - idle_at, BACKOFF_SLOT);
    }

    /// Typed messages round-trip over the air.
    #[test]
    fn typed_messages_flood_end_to_end() {
        let mut a = node(A1);
        let mut b = node(A2);
        start(&mut a);
        start(&mut b);
        let msg = FloodMessage::Position {
            latitude_i: 413_850_000,
            longitude_i: 21_683_000,
            altitude_m: 42,
        };
        a.send_message(Address::BROADCAST, &msg).unwrap();
        let frames = drain(&mut a, Duration::ZERO);
        frame_in(&mut b, &frames[0], Duration::ZERO);
        match b.take_events().as_slice() {
            [MeshEvent::Broadcast { payload, .. }] => {
                assert_eq!(FloodMessage::decode(payload), Ok(msg));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Multi-seed sweeps host protocol nodes on worker threads.
    #[test]
    fn flood_node_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FloodNode>();
    }

    #[cfg(feature = "crypto")]
    mod crypto_tests {
        use super::*;

        fn keyed(addr: Address, key: Option<[u8; 16]>) -> FloodNode {
            let mut cfg = FloodConfig::new(addr);
            cfg.region = Region::Unlimited;
            cfg.key = key;
            FloodNode::new(cfg)
        }

        /// Ciphertext rides the wire; holders of the key recover the
        /// plaintext on delivery.
        #[test]
        fn payloads_are_encrypted_on_air_and_decrypted_on_delivery() {
            let key = Some(*b"sixteen byte key");
            let mut a = keyed(A1, key);
            let mut b = keyed(A2, key);
            start(&mut a);
            start(&mut b);
            a.send_datagram(A2, b"secret message".to_vec()).unwrap();
            let frames = drain(&mut a, Duration::ZERO);
            let wire = &frames[0];
            match codec::decode(wire).unwrap() {
                Packet::Data { payload, .. } => {
                    assert_ne!(payload, b"secret message".to_vec());
                }
                other => panic!("unexpected {other:?}"),
            }
            frame_in(&mut b, wire, Duration::ZERO);
            assert_eq!(
                b.take_events(),
                vec![MeshEvent::Datagram {
                    src: A1,
                    payload: b"secret message".to_vec()
                }]
            );
        }

        /// A keyless relay forwards the ciphertext verbatim, and the
        /// keyed destination still decrypts after the extra hop.
        #[test]
        fn keyless_relays_forward_ciphertext_unchanged() {
            let key = Some(*b"sixteen byte key");
            let mut a = keyed(A1, key);
            let mut relay = keyed(A2, None);
            let mut c = keyed(A3, key);
            start(&mut a);
            start(&mut relay);
            start(&mut c);
            a.send_datagram(A3, b"two hops".to_vec()).unwrap();
            let first = drain(&mut a, Duration::ZERO);
            frame_in(&mut relay, &first[0], Duration::ZERO);
            assert!(relay.take_events().is_empty());
            let second = drain(&mut relay, Duration::from_secs(1));
            assert_eq!(second.len(), 1);
            frame_in(&mut c, &second[0], Duration::from_secs(1));
            assert_eq!(
                c.take_events(),
                vec![MeshEvent::Datagram {
                    src: A1,
                    payload: b"two hops".to_vec()
                }]
            );
        }

        /// A receiver with the wrong key delivers garbage, not the
        /// plaintext — and never panics.
        #[test]
        fn wrong_key_yields_garbage_not_plaintext() {
            let mut a = keyed(A1, Some(*b"sixteen byte key"));
            let mut b = keyed(A2, Some(*b"another 16B key!"));
            start(&mut a);
            start(&mut b);
            a.send_datagram(A2, b"secret".to_vec()).unwrap();
            let frames = drain(&mut a, Duration::ZERO);
            frame_in(&mut b, &frames[0], Duration::ZERO);
            match b.take_events().as_slice() {
                [MeshEvent::Datagram { payload, .. }] => {
                    assert_ne!(payload, &b"secret".to_vec());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
