//! Per-node half-duplex radio state machine.
//!
//! Each simulated node owns a [`Radio`] that mirrors the operating modes
//! of an SX127x-class transceiver: listening ([`RadioState::Idle`]),
//! transmitting, locked onto an incoming frame, performing channel
//! activity detection, or powered off. The radio also keeps the node-local
//! accounting the experiments need: time spent per state (for the energy
//! model) and cumulative transmit airtime (for duty-cycle reporting).

use std::sync::Arc;

use lora_phy::link::SignalQuality;
use lora_phy::power::StateDurations;

use crate::event::FrameId;
use crate::time::SimTime;

/// The operating mode of a node's radio.
#[derive(Clone, Debug, PartialEq)]
pub enum RadioState {
    /// Powered off (killed node). Hears nothing, sends nothing.
    Off,
    /// Listening for preambles.
    Idle,
    /// Transmitting `frame` until the given instant.
    Tx {
        /// The frame being transmitted.
        frame: FrameId,
        /// When the transmission completes.
        until: SimTime,
    },
    /// Locked onto incoming `frame` until the given instant.
    Rx {
        /// The frame being received.
        frame: FrameId,
        /// When the reception attempt concludes.
        until: SimTime,
    },
    /// Running a channel-activity-detection scan.
    Cad {
        /// When the scan concludes.
        until: SimTime,
        /// Whether activity has been observed so far during the scan.
        busy_seen: bool,
    },
}

/// Progress of one in-flight reception at a node.
#[derive(Clone, Debug)]
pub struct Reception {
    /// The frame the receiver is locked to.
    pub frame: FrameId,
    /// The node transmitting the locked frame.
    pub sender: crate::firmware::NodeId,
    /// Signal quality of the locked frame in the absence of interference.
    pub quality: SignalQuality,
    /// Linear received power of the locked frame in milliwatts.
    pub signal_mw: f64,
    /// The frame contents (delivered to the firmware on success), shared
    /// zero-copy with the medium's [`crate::medium::ActiveTx`].
    pub payload: Arc<[u8]>,
    /// Overlapping interferers and their received powers (mW), as of the
    /// last [`Reception::add_interferer`]: entries whose frame has since
    /// ended linger until [`Reception::prune_interferers`] drops them.
    /// Ascending by frame id: the set is seeded from the medium's
    /// ordered iteration and later arrivals carry higher ids, so the
    /// float summation order (and thus every bit of the result) matches
    /// the old `BTreeMap` storage exactly.
    pub interferers: Vec<(FrameId, f64)>,
    /// The worst instantaneous total interference seen so far (mW).
    pub peak_interference_mw: f64,
    /// Set when the frame can no longer be decoded regardless of power
    /// (e.g. the sender died mid-frame, or the lock was stolen).
    pub corrupted: bool,
}

impl Reception {
    /// Starts tracking a reception.
    #[must_use]
    pub fn new(
        frame: FrameId,
        sender: crate::firmware::NodeId,
        quality: SignalQuality,
        signal_mw: f64,
        payload: impl Into<Arc<[u8]>>,
    ) -> Self {
        Reception {
            frame,
            sender,
            quality,
            signal_mw,
            payload: payload.into(),
            interferers: Vec::new(),
            peak_interference_mw: 0.0,
            corrupted: false,
        }
    }

    /// Records that an interfering transmission became active. Call
    /// [`Reception::prune_interferers`] first: the running sum below is
    /// the only reader of the list.
    pub fn add_interferer(&mut self, frame: FrameId, power_mw: f64) {
        match self.interferers.iter_mut().find(|(f, _)| *f == frame) {
            Some(entry) => entry.1 = power_mw,
            None => self.interferers.push((frame, power_mw)),
        }
        let current: f64 = self.interferers.iter().map(|&(_, p)| p).sum();
        if current > self.peak_interference_mw {
            self.peak_interference_mw = current;
        }
    }

    /// Drops every interferer whose frame `on_air` no longer finds on
    /// the medium, keeping the rest in order. Nobody tells a reception
    /// when an interferer ends: the list is read in exactly one place —
    /// the sum inside [`Reception::add_interferer`]
    /// ([`Reception::sir_db`] reads only the stored peak) — so pruning
    /// immediately before each add gives the same sums, bit for bit, as
    /// removing each frame the moment it ends.
    pub fn prune_interferers(&mut self, on_air: impl Fn(FrameId) -> bool) {
        self.interferers.retain(|&(f, _)| on_air(f));
    }

    /// Signal-to-interference ratio in dB against the worst overlap
    /// moment, or `None` when no interference occurred.
    #[must_use]
    pub fn sir_db(&self) -> Option<f64> {
        if self.peak_interference_mw <= 0.0 {
            None
        } else {
            Some(10.0 * (self.signal_mw / self.peak_interference_mw).log10())
        }
    }
}

/// A node's radio: state machine plus per-state time accounting.
#[derive(Clone, Debug)]
pub struct Radio {
    state: RadioState,
    state_since: SimTime,
    /// Nanoseconds spent transmitting, receiving, scanning and off so far.
    spent_ns: [u64; 4],
    /// The reception in progress when the state is [`RadioState::Rx`].
    pub reception: Option<Reception>,
}

impl Radio {
    /// A powered-on, idle radio.
    #[must_use]
    pub fn new() -> Self {
        Radio {
            state: RadioState::Idle,
            state_since: SimTime::ZERO,
            spent_ns: [0; 4],
            reception: None,
        }
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> &RadioState {
        &self.state
    }

    /// Whether the radio is listening and can lock onto a new frame.
    #[must_use]
    pub fn can_receive(&self) -> bool {
        matches!(self.state, RadioState::Idle)
    }

    /// Whether the radio may start a transmission or CAD scan.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        matches!(self.state, RadioState::Idle)
    }

    /// Whether the node is powered off.
    #[must_use]
    pub fn is_off(&self) -> bool {
        matches!(self.state, RadioState::Off)
    }

    /// Accumulated time per state (feeds [`lora_phy::power::EnergyModel`]).
    #[must_use]
    pub fn durations(&self) -> StateDurations {
        let [tx, rx, idle, sleep] = self.spent_ns.map(std::time::Duration::from_nanos);
        StateDurations {
            tx,
            rx,
            idle,
            sleep,
        }
    }

    /// Transitions to a new state at `now`, accumulating time spent in the
    /// old one.
    #[inline]
    pub fn set_state(&mut self, now: SimTime, state: RadioState) {
        self.finish(now);
        if !matches!(state, RadioState::Rx { .. }) {
            self.reception = None;
        }
        self.state = state;
    }

    /// Begins a transmission of `frame` ending at `until`.
    #[inline]
    pub fn begin_tx(&mut self, now: SimTime, frame: FrameId, until: SimTime) {
        debug_assert!(self.is_idle());
        self.set_state(now, RadioState::Tx { frame, until });
    }

    /// Locks onto incoming `frame`, tracking its reception.
    #[inline]
    pub fn begin_rx(&mut self, now: SimTime, reception: Reception, until: SimTime) {
        let frame = reception.frame;
        self.set_state(now, RadioState::Rx { frame, until });
        self.reception = Some(reception);
    }

    /// Begins a CAD scan ending at `until`.
    #[inline]
    pub fn begin_cad(&mut self, now: SimTime, until: SimTime, busy_seen: bool) {
        debug_assert!(self.is_idle());
        self.set_state(now, RadioState::Cad { until, busy_seen });
    }

    /// Returns to listening.
    #[inline]
    pub fn to_idle(&mut self, now: SimTime) {
        self.set_state(now, RadioState::Idle);
    }

    /// Powers the radio off (fault injection).
    pub fn power_off(&mut self, now: SimTime) {
        self.set_state(now, RadioState::Off);
    }

    /// Powers the radio back on into the listening state.
    pub fn power_on(&mut self, now: SimTime) {
        debug_assert!(self.is_off());
        self.set_state(now, RadioState::Idle);
    }

    /// Marks channel activity observed during an ongoing CAD scan.
    pub fn note_cad_activity(&mut self) {
        if let RadioState::Cad { busy_seen, .. } = &mut self.state {
            *busy_seen = true;
        }
    }

    /// Books the time spent in the current state up to `now`: call it at
    /// the end of a run so that [`Radio::durations`] covers all of it.
    #[inline]
    pub fn finish(&mut self, now: SimTime) {
        let [tx, rx, idle, sleep] = &mut self.spent_ns;
        let bucket = match self.state {
            RadioState::Off => sleep,
            RadioState::Idle | RadioState::Rx { .. } => rx, // listening: receiver powered
            RadioState::Tx { .. } => tx,
            RadioState::Cad { .. } => idle,
        };
        *bucket += now.as_nanos().saturating_sub(self.state_since.as_nanos());
        self.state_since = now;
    }

    /// Rewrites every frame id stored in the radio (the Tx/Rx state, the
    /// locked reception and its interferer set) through `f`. Used by the
    /// parallel commit merge to replace a band worker's provisional
    /// frame ids with the real ones the coordinator allocated; `f` must
    /// be order-preserving on the ids it renames so the interferer set
    /// stays ascending.
    pub fn remap_frames(&mut self, f: impl Fn(FrameId) -> FrameId) {
        match &mut self.state {
            RadioState::Tx { frame, .. } | RadioState::Rx { frame, .. } => *frame = f(*frame),
            RadioState::Off | RadioState::Idle | RadioState::Cad { .. } => {}
        }
        if let Some(rec) = &mut self.reception {
            rec.frame = f(rec.frame);
            for (id, _) in &mut rec.interferers {
                *id = f(*id);
            }
        }
    }
}

impl Default for Radio {
    fn default() -> Self {
        Radio::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn q() -> SignalQuality {
        SignalQuality::ideal()
    }

    #[test]
    fn the_state_fits_24_bytes_and_the_radio_160() {
        assert!(std::mem::size_of::<RadioState>() <= 24);
        assert!(std::mem::size_of::<Radio>() <= 160);
    }

    #[test]
    fn new_radio_is_idle() {
        let r = Radio::new();
        assert!(r.is_idle());
        assert!(r.can_receive());
        assert!(!r.is_off());
    }

    #[test]
    fn tx_rx_transitions_accumulate_time() {
        let mut r = Radio::new();
        r.begin_tx(SimTime::from_secs(1), FrameId(1), SimTime::from_secs(2));
        r.to_idle(SimTime::from_secs(2));
        r.begin_rx(
            SimTime::from_secs(3),
            Reception::new(FrameId(2), crate::firmware::NodeId(0), q(), 1e-9, vec![]),
            SimTime::from_secs(4),
        );
        r.to_idle(SimTime::from_secs(4));
        r.finish(SimTime::from_secs(5));
        assert_eq!(r.durations().tx, Duration::from_secs(1));
        // Idle counts as rx (receiver on): 0..1, 2..3, 4..5 plus the
        // actual reception 3..4.
        assert_eq!(r.durations().rx, Duration::from_secs(4));
    }

    #[test]
    fn off_time_counts_as_sleep() {
        let mut r = Radio::new();
        r.power_off(SimTime::from_secs(10));
        r.power_on(SimTime::from_secs(25));
        r.finish(SimTime::from_secs(30));
        assert_eq!(r.durations().sleep, Duration::from_secs(15));
        assert_eq!(r.durations().rx, Duration::from_secs(15));
    }

    #[test]
    fn reception_cleared_when_leaving_rx() {
        let mut r = Radio::new();
        r.begin_rx(
            SimTime::ZERO,
            Reception::new(FrameId(7), crate::firmware::NodeId(0), q(), 1e-9, vec![]),
            SimTime::from_millis(50),
        );
        assert!(r.reception.is_some());
        r.to_idle(SimTime::from_millis(50));
        assert!(r.reception.is_none());
    }

    #[test]
    fn cad_busy_flag_latches() {
        let mut r = Radio::new();
        r.begin_cad(SimTime::ZERO, SimTime::from_millis(2), false);
        r.note_cad_activity();
        match r.state() {
            RadioState::Cad { busy_seen, .. } => assert!(busy_seen),
            s => panic!("unexpected state {s:?}"),
        }
        // Latching outside CAD is a no-op.
        r.to_idle(SimTime::from_millis(2));
        r.note_cad_activity();
        assert!(r.is_idle());
    }

    #[test]
    fn reception_tracks_peak_interference() {
        let mut rec = Reception::new(FrameId(1), crate::firmware::NodeId(0), q(), 8.0e-9, vec![]);
        rec.add_interferer(FrameId(2), 1.0e-9);
        rec.add_interferer(FrameId(3), 1.0e-9);
        // Frame 2 ends; the next add prunes it before summing.
        rec.prune_interferers(|f| f != FrameId(2));
        rec.add_interferer(FrameId(4), 0.5e-9);
        assert_eq!(
            rec.interferers,
            vec![(FrameId(3), 1.0e-9), (FrameId(4), 0.5e-9)]
        );
        // Peak was when 2 and 3 overlapped: 2e-9.
        assert!((rec.peak_interference_mw - 2.0e-9).abs() < 1e-18);
        // SIR against the peak: 10*log10(8/2) ≈ 6.02 dB.
        let sir = rec.sir_db().unwrap();
        assert!((sir - 6.02).abs() < 0.01, "sir {sir}");
    }

    #[test]
    fn reception_without_interference_has_no_sir() {
        let rec = Reception::new(FrameId(1), crate::firmware::NodeId(0), q(), 1e-9, vec![]);
        assert_eq!(rec.sir_db(), None);
    }
}
