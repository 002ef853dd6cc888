//! The sans-IO host interface.
//!
//! A [`NodeProtocol`] is a pure, event-driven protocol stack: the host —
//! a discrete-event simulator, or firmware glue on real hardware — calls
//! back into it with received frames, timer expirations and radio
//! completions, and the stack answers by pushing [`RadioRequest`]s into
//! the [`RadioIo`] sink it was handed. Nothing here touches a clock, a
//! radio or a thread; time is whatever the host says it is.
//!
//! This is the radio side of every host: `radio-sim` consumes it
//! directly as `Firmware` / `Context` (`scenario`'s `HostedProtocol`
//! adds the application calls), and a hardware shim would drive the
//! same callbacks from DIO interrupts and a hardware timer. Frames travel as
//! `Arc<[u8]>` end to end, so handing a cached frame to the host bumps a
//! refcount instead of copying the bytes.
//!
//! Three stacks implement it: the LoRaMesher distance-vector stack
//! ([`crate::stack`]), Meshtastic-style managed flooding
//! ([`crate::flood`]) and the `mesh-baselines` single-gateway star. They
//! differ in which routing daemon (or none), forwarding policy,
//! transport and application codec run above the shared MAC; what they
//! may NOT vary is the substrate contract.
//!
//! # The substrate contract
//!
//! Every stack is a sans-IO [`NodeProtocol`] state machine and must
//! preserve the properties the simulator's determinism proofs
//! (`tests/shard_diff.rs`, `tests/protocol_refactor_diff.rs`) rest on:
//!
//! 1. **Shared channel access.** All frame emission goes through
//!    [`crate::mac::Mac`], built from the region by one constructor —
//!    CAD/backoff/duty-cycle/dwell behaviour is identical across
//!    stacks, so cross-protocol experiments measure protocol overhead,
//!    not MAC drift.
//! 2. **One RNG per node.** Every random draw comes from the node's
//!    single [`crate::rng::ProtocolRng`], in an order fixed by the
//!    dispatch rules below — a seed fully determines a node's
//!    behaviour.
//! 3. **Frozen dispatch order.** Each stack documents a fixed
//!    `process_due` order (see the [`crate::stack`] and [`crate::flood`]
//!    module docs) and dispatches host callbacks the same way every
//!    time. No ambient time, no ambient randomness (meshlint rule D2),
//!    no iteration over hashed collections (rule D1).
//! 4. **Panic-free on hostile input.** `on_frame` consumes
//!    over-the-air bytes; decode failures are counted, never unwrapped
//!    (rule R1).
//!
//! Every stack reports to its application through the same
//! [`crate::MeshEvent`] queue (`has_events`/`take_events`), so a host
//! maps one event type whichever stack it runs.

use alloc::sync::Arc;
use alloc::vec::Vec;
use core::time::Duration;

use lora_phy::link::SignalQuality;

/// What a protocol asks its radio to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RadioRequest {
    /// Put a frame on the air. Must only be issued when the radio is
    /// known idle (after a clear CAD result, or via a protocol's own
    /// medium-access rules). The shared bytes are immutable; hosts clone
    /// the `Arc`, never the payload.
    Transmit(Arc<[u8]>),
    /// Run a channel-activity-detection scan; the host answers with
    /// [`NodeProtocol::on_cad_done`].
    StartCad,
}

/// The per-callback bridge between a host and a [`NodeProtocol`]: tells
/// the stack what time it is and collects the radio requests it issues.
///
/// Hosts that care about steady-state allocations recycle the request
/// buffer across callbacks with [`RadioIo::with_buffer`] /
/// [`RadioIo::take_requests`].
#[derive(Debug)]
pub struct RadioIo {
    now: Duration,
    requests: Vec<RadioRequest>,
}

impl RadioIo {
    /// An IO sink at the given host time with a fresh request buffer.
    #[must_use]
    pub fn new(now: Duration) -> Self {
        RadioIo {
            now,
            requests: Vec::new(),
        }
    }

    /// An IO sink reusing `buffer` as request storage (cleared first).
    #[must_use]
    pub fn with_buffer(now: Duration, mut buffer: Vec<RadioRequest>) -> Self {
        buffer.clear();
        RadioIo {
            now,
            requests: buffer,
        }
    }

    /// Current host time (since host start).
    #[must_use]
    pub fn now(&self) -> Duration {
        self.now
    }

    /// Requests the host transmit a frame.
    pub fn transmit(&mut self, frame: impl Into<Arc<[u8]>>) {
        self.requests.push(RadioRequest::Transmit(frame.into()));
    }

    /// Requests a channel-activity-detection scan.
    pub fn start_cad(&mut self) {
        self.requests.push(RadioRequest::StartCad);
    }

    /// Consumes the sink, yielding the issued requests in issue order.
    #[must_use]
    pub fn take_requests(self) -> Vec<RadioRequest> {
        self.requests
    }
}

/// A sans-IO protocol stack, driven entirely by host callbacks.
///
/// All callbacks have empty defaults except [`NodeProtocol::on_frame`]
/// and [`NodeProtocol::next_wake`], which every useful protocol needs.
pub trait NodeProtocol {
    /// Called once when the node boots.
    fn on_start(&mut self, io: &mut RadioIo) {
        let _ = io;
    }

    /// Called when the wake-up time reported by
    /// [`NodeProtocol::next_wake`] is reached.
    fn on_timer(&mut self, io: &mut RadioIo) {
        let _ = io;
    }

    /// Called for every frame the radio receives.
    fn on_frame(&mut self, frame: &[u8], quality: SignalQuality, io: &mut RadioIo);

    /// Called when a requested transmission has left the antenna.
    fn on_tx_done(&mut self, io: &mut RadioIo) {
        let _ = io;
    }

    /// Called when a requested CAD scan finishes; `busy` reports whether
    /// channel activity was detected.
    fn on_cad_done(&mut self, busy: bool, io: &mut RadioIo) {
        let _ = (busy, io);
    }

    /// Called when a host-scheduled application event fires; `tag` is
    /// whatever the host registered with the event.
    fn on_app(&mut self, tag: u64, io: &mut RadioIo) {
        let _ = (tag, io);
    }

    /// The next host time at which the protocol wants
    /// [`NodeProtocol::on_timer`] to run, or `None` when idle.
    fn next_wake(&self) -> Option<Duration>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::boxed::Box;
    use alloc::vec;

    /// The trait must stay object-safe: hosts store heterogeneous
    /// protocol stacks behind `dyn NodeProtocol`.
    #[test]
    fn node_protocol_is_object_safe() {
        struct Nop;
        impl NodeProtocol for Nop {
            fn on_frame(&mut self, _f: &[u8], _q: SignalQuality, _io: &mut RadioIo) {}
            fn next_wake(&self) -> Option<Duration> {
                None
            }
        }
        let mut node: Box<dyn NodeProtocol> = Box::new(Nop);
        let mut io = RadioIo::new(Duration::ZERO);
        node.on_start(&mut io);
        node.on_timer(&mut io);
        node.on_tx_done(&mut io);
        node.on_cad_done(false, &mut io);
        node.on_app(7, &mut io);
        assert!(io.take_requests().is_empty());
        assert_eq!(node.next_wake(), None);
    }

    #[test]
    fn io_collects_requests_in_order() {
        let mut io = RadioIo::new(Duration::from_millis(7));
        assert_eq!(io.now(), Duration::from_millis(7));
        io.start_cad();
        io.transmit(vec![1, 2, 3]);
        assert_eq!(
            io.take_requests(),
            vec![
                RadioRequest::StartCad,
                RadioRequest::Transmit(vec![1, 2, 3].into())
            ]
        );
    }

    #[test]
    fn with_buffer_reuses_storage_and_clears_stale_requests() {
        let stale = vec![RadioRequest::StartCad; 3];
        let mut io = RadioIo::with_buffer(Duration::ZERO, stale);
        let payload: Arc<[u8]> = vec![9].into();
        io.transmit(payload.clone());
        assert_eq!(io.take_requests(), vec![RadioRequest::Transmit(payload)]);
    }

    /// A cached frame is forwarded by refcount, not copied.
    #[test]
    fn transmit_shares_cached_frames() {
        let cached: Arc<[u8]> = vec![0xAB; 32].into();
        let mut io = RadioIo::new(Duration::ZERO);
        io.transmit(cached.clone());
        let requests = io.take_requests();
        assert!(matches!(
            requests.first(),
            Some(RadioRequest::Transmit(sent)) if Arc::ptr_eq(sent, &cached)
        ));
    }
}
