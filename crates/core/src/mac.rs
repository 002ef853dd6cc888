//! Medium access control: listen-before-talk with exponential backoff and
//! duty-cycle gating — the one channel-access path of every stack.
//!
//! Before every transmission the node performs a channel-activity-
//! detection (CAD) scan. A busy channel triggers a random backoff drawn
//! from a binary-exponential window; a clear channel lets the frame out —
//! unless the regulatory duty-cycle budget is exhausted, in which case the
//! frame waits until the sliding window frees enough airtime. Frames that
//! exceed the CAD retry limit, the region's dwell limit, or the whole duty
//! budget are dropped. With CSMA off (the ALOHA ablation) the scan is
//! skipped and the channel counts as clear; everything else is the same.
//!
//! The [`Mac`] is a small synchronous state machine. LoRaMesher's
//! [`crate::MeshNode`], the [`crate::flood::FloodNode`] and the
//! single-gateway star baseline each own one and make the same calls:
//! [`Mac::kick`] when traffic may move, [`Mac::on_cad_done`] and
//! [`Mac::on_tx_done`] from the host callbacks, [`Mac::next_wake`] for the
//! timer. The MAC pops the front of the stack's [`TxQueue`], which holds
//! frames already encoded, and hands its bytes to the radio; it reports
//! what happened as a [`TxOutcome`], which the stack books into its own
//! counters. It never encodes a packet.
//!
//! A frame is priced on every CAD verdict (and on every ALOHA kick), so
//! the MAC remembers the last `(frame length, time on air)` pair:
//! `time_on_air` depends only on the length and the modulation, which a
//! `Mac` never changes, so a frame that backs off is priced once.

use core::time::Duration;

use lora_phy::modulation::LoRaModulation;
use lora_phy::region::{DutyCycleTracker, Region};

use crate::driver::RadioIo;
use crate::packet::PacketKind;
use crate::queue::TxQueue;
use crate::rng::ProtocolRng;

/// CSMA backoff slot: a busy channel defers the frame by a whole number
/// of these.
pub const BACKOFF_SLOT: Duration = Duration::from_millis(100);
/// Largest backoff exponent: the window stops widening at
/// `2^MAX_BACKOFF_EXPONENT` slots.
pub const MAX_BACKOFF_EXPONENT: u32 = 6;
/// Busy CAD verdicts a frame survives; the next one drops it.
pub const MAX_CAD_RETRIES: u32 = 16;

/// What a MAC call did with the front of the transmit queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxOutcome {
    /// Nothing left the queue (a CAD scan was requested, or the MAC is
    /// waiting on the channel, a backoff or the duty budget).
    Idle,
    /// The frame went to the radio and occupies the air for `airtime`.
    Sent {
        /// The frame's time on air.
        airtime: Duration,
    },
    /// The frame was given up: CAD retries exhausted, longer than the
    /// dwell limit, or larger than the whole duty budget.
    Dropped {
        /// The dropped packet's kind.
        kind: PacketKind,
    },
}

/// MAC engine state.
#[derive(Clone, Debug, PartialEq)]
enum MacState {
    /// Idle; will CAD when the node has traffic.
    Ready,
    /// A CAD scan is in flight.
    WaitingCad { attempt: u32 },
    /// Backing off after a busy CAD.
    Backoff { until: Duration, attempt: u32 },
    /// Waiting for duty-cycle budget.
    WaitingDuty { until: Duration },
    /// A transmission is on the air.
    Transmitting,
}

/// The listen-before-talk engine.
#[derive(Clone, Debug)]
pub struct Mac {
    state: MacState,
    duty: DutyCycleTracker,
    modulation: LoRaModulation,
    /// Listen before talk; `false` is the ALOHA ablation.
    csma: bool,
    /// Maximum single-transmission duration (regulatory dwell), if any.
    max_dwell: Option<Duration>,
    /// The last frame length priced and its time on air.
    priced: Option<(usize, Duration)>,
    /// Duty-cycle deferrals observed (for statistics).
    pub duty_deferrals: u64,
    /// Frames dropped after exhausting CAD retries.
    pub cad_drops: u64,
    /// Frames dropped for exceeding the dwell limit.
    pub dwell_drops: u64,
}

impl Mac {
    /// Creates the MAC of a node transmitting with `modulation` on
    /// `region`'s default channel: that sub-band's duty cycle over a
    /// one-hour window and its dwell limit, and CSMA on or off. The
    /// backoff is the same for every stack: [`BACKOFF_SLOT`],
    /// [`MAX_BACKOFF_EXPONENT`] and [`MAX_CAD_RETRIES`].
    #[must_use]
    pub fn new(region: Region, modulation: LoRaModulation, csma: bool) -> Self {
        let band = region.sub_band_for(region.default_frequency_hz());
        Mac {
            state: MacState::Ready,
            duty: band.map_or_else(DutyCycleTracker::unlimited, |b| {
                DutyCycleTracker::new(b.duty_cycle, Duration::from_secs(3600))
            }),
            modulation,
            csma,
            max_dwell: band.and_then(|b| b.max_dwell),
            priced: None,
            duty_deferrals: 0,
            cad_drops: 0,
            dwell_drops: 0,
        }
    }

    /// Whether the MAC is idle and can take on a new frame.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        matches!(self.state, MacState::Ready)
    }

    /// The duty-cycle tracker (for reporting).
    #[must_use]
    pub fn duty(&self) -> &DutyCycleTracker {
        &self.duty
    }

    /// Gives queued traffic a chance to move. When idle, or when a
    /// backoff or duty wait has elapsed, starts a CAD scan — or, under
    /// ALOHA, takes the clear-channel path for the front frame at once.
    pub fn kick(&mut self, txq: &mut TxQueue, io: &mut RadioIo) -> TxOutcome {
        if txq.is_empty() {
            return TxOutcome::Idle;
        }
        let now = io.now();
        let attempt = match self.state {
            MacState::Ready => 0,
            MacState::Backoff { until, attempt } if now >= until => attempt,
            MacState::WaitingDuty { until } if now >= until => 0,
            _ => return TxOutcome::Idle,
        };
        if self.csma {
            self.state = MacState::WaitingCad { attempt };
            io.start_cad();
            return TxOutcome::Idle;
        }
        match self.front_airtime(txq) {
            Some(airtime) => self.send_or_defer(airtime, txq, io),
            None => TxOutcome::Idle,
        }
    }

    /// The host's CAD verdict for the front frame: transmit on clear,
    /// back off (or drop, once the retries are spent) on busy.
    pub fn on_cad_done(
        &mut self,
        busy: bool,
        txq: &mut TxQueue,
        rng: &mut ProtocolRng,
        io: &mut RadioIo,
    ) -> TxOutcome {
        let MacState::WaitingCad { attempt } = self.state else {
            return TxOutcome::Idle; // spurious
        };
        let Some(airtime) = self.front_airtime(txq) else {
            return TxOutcome::Idle;
        };
        if !busy || self.violates_dwell(airtime) {
            return self.send_or_defer(airtime, txq, io);
        }
        let attempt = attempt + 1;
        if attempt > MAX_CAD_RETRIES {
            self.cad_drops += 1;
            return self.drop_front(txq);
        }
        let window = 1u64 << attempt.min(MAX_BACKOFF_EXPONENT);
        let slots = 1 + rng.gen_range(window);
        self.state = MacState::Backoff {
            until: io.now() + BACKOFF_SLOT * u32::try_from(slots).unwrap_or(u32::MAX),
            attempt,
        };
        TxOutcome::Idle
    }

    /// Called when the transmission completes.
    pub fn on_tx_done(&mut self) {
        if matches!(self.state, MacState::Transmitting) {
            self.state = MacState::Ready;
        }
    }

    /// When the MAC must next be kicked: at once (`ZERO`) when it is idle
    /// with traffic in `txq`, at the deadline when it is backing off or
    /// waiting for duty budget, otherwise never.
    #[must_use]
    pub fn next_wake(&self, txq: &TxQueue) -> Option<Duration> {
        match self.state {
            MacState::Ready if !txq.is_empty() => Some(Duration::ZERO),
            MacState::Backoff { until, .. } | MacState::WaitingDuty { until } => Some(until),
            _ => None,
        }
    }

    /// The on-air duration of the front frame, priced once per length.
    fn front_airtime(&mut self, txq: &TxQueue) -> Option<Duration> {
        let len = txq.front_len()?;
        let airtime = match self.priced {
            Some((priced_len, airtime)) if priced_len == len => airtime,
            _ => {
                let airtime = self.modulation.time_on_air(len);
                self.priced = Some((len, airtime));
                airtime
            }
        };
        debug_assert_eq!(
            airtime,
            self.modulation.time_on_air(len),
            "airtime memo out of step with the modulation"
        );
        Some(airtime)
    }

    fn violates_dwell(&self, airtime: Duration) -> bool {
        self.max_dwell.is_some_and(|d| airtime > d)
    }

    /// The channel is clear: drop a frame over the dwell limit, transmit
    /// if the duty budget allows, otherwise wait for the budget (or drop
    /// a frame that can never fit it).
    fn send_or_defer(
        &mut self,
        airtime: Duration,
        txq: &mut TxQueue,
        io: &mut RadioIo,
    ) -> TxOutcome {
        if self.violates_dwell(airtime) {
            self.dwell_drops += 1;
            return self.drop_front(txq);
        }
        let now = io.now();
        if self.duty.try_transmit(now, airtime) {
            self.state = MacState::Transmitting;
            return txq.pop().map_or(TxOutcome::Idle, |frame| {
                io.transmit(frame);
                TxOutcome::Sent { airtime }
            });
        }
        self.duty_deferrals += 1;
        match self.duty.next_allowed(now, airtime) {
            Some(until) => {
                self.state = MacState::WaitingDuty { until };
                TxOutcome::Idle
            }
            None => self.drop_front(txq),
        }
    }

    fn drop_front(&mut self, txq: &mut TxQueue) -> TxOutcome {
        self.state = MacState::Ready;
        txq.discard_front()
            .map_or(TxOutcome::Idle, |kind| TxOutcome::Dropped { kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Address;
    use crate::codec;
    use crate::driver::RadioRequest;
    use crate::packet::{Forwarding, Packet};
    use alloc::vec;
    use alloc::vec::Vec;

    const HOUR: Duration = Duration::from_secs(3600);

    fn mac(region: Region, modulation: LoRaModulation, csma: bool) -> Mac {
        Mac::new(region, modulation, csma)
    }

    fn data(len: usize) -> Packet {
        Packet::Data {
            dst: Address::BROADCAST,
            src: Address::new(1),
            id: 0,
            fwd: Forwarding {
                via: Address::BROADCAST,
                ttl: 1,
            },
            payload: vec![7; len],
        }
    }

    fn queue(len: usize) -> TxQueue {
        let mut q = TxQueue::new(8);
        assert!(q.push(&data(len)));
        q
    }

    fn airtime(m: &Mac, len: usize) -> Duration {
        m.modulation.time_on_air(codec::encoded_len(&data(len)))
    }

    fn kick(m: &mut Mac, q: &mut TxQueue, now: Duration) -> (TxOutcome, Vec<RadioRequest>) {
        let mut io = RadioIo::new(now);
        let outcome = m.kick(q, &mut io);
        (outcome, io.take_requests())
    }

    fn cad(m: &mut Mac, busy: bool, q: &mut TxQueue, now: Duration) -> TxOutcome {
        let mut io = RadioIo::new(now);
        let outcome = m.on_cad_done(busy, q, &mut ProtocolRng::new(42), &mut io);
        let sent = matches!(outcome, TxOutcome::Sent { .. });
        assert_eq!(io.take_requests().len(), usize::from(sent));
        outcome
    }

    fn default_mac() -> Mac {
        mac(Region::Unlimited, LoRaModulation::default(), true)
    }

    #[test]
    fn clear_channel_transmits_immediately() {
        let mut m = default_mac();
        let mut q = queue(10);
        assert_eq!(
            kick(&mut m, &mut q, Duration::ZERO),
            (TxOutcome::Idle, vec![RadioRequest::StartCad])
        );
        assert!(!m.is_ready());
        let mut io = RadioIo::new(Duration::ZERO);
        let outcome = m.on_cad_done(false, &mut q, &mut ProtocolRng::new(1), &mut io);
        assert_eq!(
            outcome,
            TxOutcome::Sent {
                airtime: airtime(&m, 10)
            }
        );
        let frame = codec::encode(&data(10)).unwrap();
        assert_eq!(
            io.take_requests(),
            vec![RadioRequest::Transmit(frame.into())]
        );
        assert!(q.is_empty());
        m.on_tx_done();
        assert!(m.is_ready());
    }

    /// The airtime memo is keyed by length: a frame priced after one of
    /// another length gets its own time on air.
    #[test]
    fn frames_of_different_lengths_are_priced_apart() {
        let mut m = mac(Region::Unlimited, LoRaModulation::default(), false);
        let mut q = queue(10);
        assert!(q.push(&data(200)));
        assert!(q.push(&data(10)));
        for len in [10, 200, 10] {
            assert_eq!(
                kick(&mut m, &mut q, Duration::ZERO).0,
                TxOutcome::Sent {
                    airtime: airtime(&m, len)
                }
            );
            m.on_tx_done();
        }
    }

    #[test]
    fn busy_channel_backs_off_then_retries() {
        let mut m = default_mac();
        let mut q = queue(10);
        let _ = kick(&mut m, &mut q, Duration::ZERO);
        assert_eq!(cad(&mut m, true, &mut q, Duration::ZERO), TxOutcome::Idle);
        let until = m.next_wake(&q).expect("backoff deadline");
        assert!(until > Duration::ZERO);
        assert!(until <= BACKOFF_SLOT * 3, "window: 1..=2 slots");
        // Too early: nothing happens.
        let early = kick(&mut m, &mut q, until - Duration::from_millis(1));
        assert_eq!(early, (TxOutcome::Idle, vec![]));
        // At the deadline: CAD again.
        assert_eq!(kick(&mut m, &mut q, until).1, vec![RadioRequest::StartCad]);
        assert!(matches!(
            cad(&mut m, false, &mut q, until),
            TxOutcome::Sent { .. }
        ));
    }

    #[test]
    fn backoff_window_grows_exponentially() {
        let mut m = default_mac();
        let mut q = queue(10);
        let mut max_seen = Duration::ZERO;
        let mut now = Duration::ZERO;
        for _ in 0..3 {
            let _ = kick(&mut m, &mut q, now);
            if cad(&mut m, true, &mut q, now) != TxOutcome::Idle {
                break;
            }
            let until = m.next_wake(&q).unwrap();
            max_seen = max_seen.max(until - now);
            now = until;
        }
        // With three busy CADs the window reaches 2^3 = 8 slots.
        assert!(max_seen > BACKOFF_SLOT);
    }

    #[test]
    fn cad_retries_exhaust_to_drop() {
        let mut m = default_mac();
        let mut q = queue(10);
        let mut now = Duration::ZERO;
        let mut dropped = None;
        let mut busy_cads = 0;
        for _ in 0..=MAX_CAD_RETRIES {
            let _ = kick(&mut m, &mut q, now);
            busy_cads += 1;
            match cad(&mut m, true, &mut q, now) {
                TxOutcome::Idle => now = m.next_wake(&q).unwrap(),
                outcome => {
                    dropped = Some(outcome);
                    break;
                }
            }
        }
        // Every retry backs off; the busy verdict after the last drops.
        assert_eq!(busy_cads, MAX_CAD_RETRIES + 1);
        assert_eq!(
            dropped,
            Some(TxOutcome::Dropped {
                kind: PacketKind::Data
            })
        );
        assert_eq!(m.cad_drops, 1);
        assert!(m.is_ready());
        assert!(q.is_empty());
    }

    #[test]
    fn duty_budget_defers_transmission() {
        let mut m = mac(Region::Eu868, LoRaModulation::long_slow(), true);
        // 0.1 % of an hour: 3.6 s, room for one 20-byte LongSlow frame.
        m.duty = DutyCycleTracker::new(0.001, HOUR);
        let air = airtime(&m, 20);
        assert!(air <= m.duty.budget() && air * 2 > m.duty.budget());
        let mut q = queue(20);
        let _ = kick(&mut m, &mut q, Duration::ZERO);
        assert_eq!(
            cad(&mut m, false, &mut q, Duration::ZERO),
            TxOutcome::Sent { airtime: air }
        );
        m.on_tx_done();
        // The next frame must wait ~an hour.
        let mut q = queue(20);
        let later = Duration::from_secs(40);
        let _ = kick(&mut m, &mut q, later);
        assert_eq!(cad(&mut m, false, &mut q, later), TxOutcome::Idle);
        assert_eq!(m.duty_deferrals, 1);
        let until = m.next_wake(&q).unwrap();
        assert!(until > HOUR);
        // At the deadline the MAC kicks back into CAD and can transmit.
        assert_eq!(kick(&mut m, &mut q, until).1, vec![RadioRequest::StartCad]);
        assert!(matches!(
            cad(&mut m, false, &mut q, until),
            TxOutcome::Sent { .. }
        ));
    }

    #[test]
    fn impossible_frame_is_dropped() {
        for csma in [true, false] {
            let mut m = mac(Region::Eu868, LoRaModulation::long_slow(), csma);
            // 0.01 % of an hour: 360 ms, shorter than any LongSlow frame.
            m.duty = DutyCycleTracker::new(0.0001, HOUR);
            let mut q = queue(20);
            let (outcome, _) = kick(&mut m, &mut q, Duration::ZERO);
            let outcome = if csma {
                cad(&mut m, false, &mut q, Duration::ZERO)
            } else {
                outcome
            };
            assert_eq!(
                outcome,
                TxOutcome::Dropped {
                    kind: PacketKind::Data
                }
            );
            assert!(m.is_ready());
        }
    }

    #[test]
    fn dwell_limit_drops_long_frames() {
        for csma in [true, false] {
            // A 20-byte LongSlow frame lasts ~2.8 s, over US915's 400 ms.
            let mut m = mac(Region::Us915, LoRaModulation::long_slow(), csma);
            let mut q = queue(20);
            let (outcome, requests) = kick(&mut m, &mut q, Duration::ZERO);
            let outcome = if csma {
                cad(&mut m, false, &mut q, Duration::ZERO)
            } else {
                outcome
            };
            assert!(!requests
                .iter()
                .any(|r| matches!(r, RadioRequest::Transmit(_))));
            assert_eq!(
                outcome,
                TxOutcome::Dropped {
                    kind: PacketKind::Data
                }
            );
            assert_eq!(m.dwell_drops, 1);
            assert!(m.is_ready());
            // An SF7 frame is well inside the limit.
            let mut m = mac(Region::Us915, LoRaModulation::default(), csma);
            let mut q = queue(20);
            let (outcome, _) = kick(&mut m, &mut q, Duration::ZERO);
            let outcome = if csma {
                cad(&mut m, false, &mut q, Duration::ZERO)
            } else {
                outcome
            };
            assert!(matches!(outcome, TxOutcome::Sent { .. }));
        }
    }

    #[test]
    fn no_dwell_limit_outside_us915() {
        let mut m = mac(Region::Unlimited, LoRaModulation::long_slow(), true);
        assert!(!m.violates_dwell(Duration::from_secs(10)));
        let mut q = queue(200);
        let _ = kick(&mut m, &mut q, Duration::ZERO);
        assert!(matches!(
            cad(&mut m, false, &mut q, Duration::ZERO),
            TxOutcome::Sent { .. }
        ));
    }

    #[test]
    fn spurious_cad_result_ignored() {
        let mut m = default_mac();
        let mut q = queue(10);
        assert_eq!(cad(&mut m, false, &mut q, Duration::ZERO), TxOutcome::Idle);
        assert!(m.is_ready());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn kick_without_traffic_or_while_waiting_cad_is_noop() {
        let mut m = default_mac();
        let mut empty = TxQueue::new(1);
        assert_eq!(
            kick(&mut m, &mut empty, Duration::ZERO),
            (TxOutcome::Idle, vec![])
        );
        assert_eq!(m.next_wake(&empty), None);
        let mut q = queue(10);
        assert_eq!(m.next_wake(&q), Some(Duration::ZERO));
        let _ = kick(&mut m, &mut q, Duration::ZERO);
        assert_eq!(
            kick(&mut m, &mut q, Duration::from_millis(1)),
            (TxOutcome::Idle, vec![])
        );
        assert_eq!(m.next_wake(&q), None);
    }

    #[test]
    fn aloha_transmits_without_cad() {
        let mut m = mac(Region::Unlimited, LoRaModulation::default(), false);
        let mut q = queue(10);
        assert!(q.push(&data(10)));
        let (outcome, requests) = kick(&mut m, &mut q, Duration::ZERO);
        assert!(matches!(outcome, TxOutcome::Sent { .. }));
        assert!(matches!(requests.as_slice(), [RadioRequest::Transmit(_)]));
        // Busy until tx done.
        assert_eq!(
            kick(&mut m, &mut q, Duration::from_millis(1)),
            (TxOutcome::Idle, vec![])
        );
        m.on_tx_done();
        let (outcome, _) = kick(&mut m, &mut q, Duration::from_millis(60));
        assert!(matches!(outcome, TxOutcome::Sent { .. }));
    }

    #[test]
    fn aloha_still_respects_duty_cycle() {
        let mut m = mac(Region::Eu868, LoRaModulation::long_slow(), false);
        m.duty = DutyCycleTracker::new(0.001, HOUR);
        let mut q = queue(20);
        assert!(q.push(&data(20)));
        assert!(matches!(
            kick(&mut m, &mut q, Duration::ZERO).0,
            TxOutcome::Sent { .. }
        ));
        m.on_tx_done();
        let later = Duration::from_secs(40);
        assert_eq!(kick(&mut m, &mut q, later), (TxOutcome::Idle, vec![]));
        assert_eq!(m.duty_deferrals, 1);
        let until = m.next_wake(&q).unwrap();
        assert!(until > HOUR);
        assert!(matches!(
            kick(&mut m, &mut q, until).0,
            TxOutcome::Sent { .. }
        ));
    }

    #[test]
    fn tx_done_only_from_transmitting() {
        let mut m = default_mac();
        m.on_tx_done(); // spurious, stays Ready
        assert!(m.is_ready());
    }
}
