//! PHY-level counters collected during a simulation run.

use std::time::Duration;

use crate::firmware::NodeId;
use crate::medium::LossReason;

/// Per-node transmit/receive counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Frames this node put on the air.
    pub transmitted: u64,
    /// Frames this node successfully decoded.
    pub received: u64,
    /// Reception attempts that failed (any reason).
    pub lost: u64,
    /// CAD scans performed.
    pub cad_scans: u64,
    /// CAD scans that reported a busy channel.
    pub cad_busy: u64,
    /// Total airtime this node transmitted.
    pub airtime: Duration,
}

/// Aggregated PHY statistics for a run.
///
/// `PartialEq` so differential tests can assert two runs (e.g. link
/// cache on vs off) produced identical statistics wholesale.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Total frames put on the air.
    pub frames_transmitted: u64,
    /// Total successful frame deliveries (a broadcast heard by three
    /// nodes counts three times).
    pub frames_delivered: u64,
    /// Reception attempts lost below the demodulation floor.
    pub lost_below_floor: u64,
    /// Reception attempts destroyed by collisions.
    pub lost_collision: u64,
    /// Reception attempts truncated by sender failure or lock stealing.
    pub lost_truncated: u64,
    /// Reception attempts dropped by injected per-link loss.
    pub lost_injected: u64,
    /// Transmit commands refused because the radio was busy.
    pub tx_while_busy: u64,
    /// Transmit commands refused because the node was dead (killed).
    pub tx_while_dead: u64,
    /// Transmit commands refused because the frame exceeded the PHY limit.
    pub tx_oversized: u64,
    /// Receptions aborted because the receiving node started transmitting
    /// (radios preempt RX on a TX command, as real transceivers do).
    pub rx_aborted_by_tx: u64,
    /// Total airtime across all nodes.
    pub total_airtime: Duration,
    /// Wake-up timers the event queue discarded as stale tombstones
    /// (superseded by a reschedule or cancelled by a kill) instead of
    /// delivering to firmware.
    pub stale_timers_dropped: u64,
    /// Per-node counters, indexed by `NodeId`. Dense storage: iteration
    /// order is node order, so reports and digests stay deterministic,
    /// and the per-frame counter updates in the simulator hot path are
    /// O(1) instead of a map lookup. Grown on first access per node.
    pub per_node: Vec<NodeCounters>,
}

impl Metrics {
    /// Creates zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable per-node counters, created (zeroed) on first access.
    #[inline]
    pub fn node(&mut self, id: NodeId) -> &mut NodeCounters {
        if id.0 >= self.per_node.len() {
            self.per_node.resize(id.0 + 1, NodeCounters::default());
        }
        // meshlint::allow(r1): slot just created by the resize above
        &mut self.per_node[id.0]
    }

    /// Per-node counters for `id`; zeroed if the node never recorded.
    #[must_use]
    pub fn node_counters(&self, id: NodeId) -> NodeCounters {
        self.per_node.get(id.0).copied().unwrap_or_default()
    }

    /// Records a frame transmission of the given airtime.
    #[inline]
    pub fn record_tx(&mut self, sender: NodeId, airtime: Duration) {
        self.frames_transmitted += 1;
        self.total_airtime += airtime;
        let n = self.node(sender);
        n.transmitted += 1;
        n.airtime += airtime;
    }

    /// Records a successful delivery at `receiver`.
    #[inline]
    pub fn record_delivery(&mut self, receiver: NodeId) {
        self.frames_delivered += 1;
        self.node(receiver).received += 1;
    }

    /// Records a failed reception at `receiver`.
    #[inline]
    pub fn record_loss(&mut self, receiver: NodeId, reason: LossReason) {
        match reason {
            LossReason::BelowFloor => self.lost_below_floor += 1,
            LossReason::Collision => self.lost_collision += 1,
            LossReason::Truncated => self.lost_truncated += 1,
            LossReason::Injected => self.lost_injected += 1,
        }
        self.node(receiver).lost += 1;
    }

    /// Records a CAD scan and its outcome.
    #[inline]
    pub fn record_cad(&mut self, node: NodeId, busy: bool) {
        let n = self.node(node);
        n.cad_scans += 1;
        if busy {
            n.cad_busy += 1;
        }
    }

    /// Adds every counter from `other` into `self`.
    ///
    /// All fields are additive (counts and durations), so absorbing
    /// per-band deltas in any order yields exactly the totals the
    /// sequential engine would have accumulated event by event. The
    /// per-node vector grows to the longer of the two, matching the
    /// "max touched node + 1" length the incremental path produces.
    pub fn absorb(&mut self, other: &Metrics) {
        self.frames_transmitted += other.frames_transmitted;
        self.frames_delivered += other.frames_delivered;
        self.lost_below_floor += other.lost_below_floor;
        self.lost_collision += other.lost_collision;
        self.lost_truncated += other.lost_truncated;
        self.lost_injected += other.lost_injected;
        self.tx_while_busy += other.tx_while_busy;
        self.tx_while_dead += other.tx_while_dead;
        self.tx_oversized += other.tx_oversized;
        self.rx_aborted_by_tx += other.rx_aborted_by_tx;
        self.total_airtime += other.total_airtime;
        self.stale_timers_dropped += other.stale_timers_dropped;
        if other.per_node.len() > self.per_node.len() {
            self.per_node
                .resize(other.per_node.len(), NodeCounters::default());
        }
        for (mine, theirs) in self.per_node.iter_mut().zip(&other.per_node) {
            mine.transmitted += theirs.transmitted;
            mine.received += theirs.received;
            mine.lost += theirs.lost;
            mine.cad_scans += theirs.cad_scans;
            mine.cad_busy += theirs.cad_busy;
            mine.airtime += theirs.airtime;
        }
    }

    /// Total reception losses across all reasons.
    #[must_use]
    pub fn total_losses(&self) -> u64 {
        self.lost_below_floor + self.lost_collision + self.lost_truncated + self.lost_injected
    }

    /// Fraction of reception attempts that succeeded, or `None` when there
    /// were none.
    #[must_use]
    pub fn delivery_ratio(&self) -> Option<f64> {
        let attempts = self.frames_delivered + self.total_losses();
        if attempts == 0 {
            None
        } else {
            Some(self.frames_delivered as f64 / attempts as f64)
        }
    }

    /// Channel utilisation over `elapsed`: total airtime divided by
    /// simulated time (can exceed 1.0 with many concurrent senders).
    #[must_use]
    pub fn channel_utilisation(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.total_airtime.as_secs_f64() / elapsed.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut m = Metrics::new();
        m.record_tx(NodeId(0), Duration::from_millis(50));
        m.record_tx(NodeId(0), Duration::from_millis(50));
        m.record_delivery(NodeId(1));
        m.record_loss(NodeId(2), LossReason::Collision);
        m.record_loss(NodeId(2), LossReason::BelowFloor);
        m.record_cad(NodeId(0), true);
        m.record_cad(NodeId(0), false);

        assert_eq!(m.frames_transmitted, 2);
        assert_eq!(m.total_airtime, Duration::from_millis(100));
        assert_eq!(m.frames_delivered, 1);
        assert_eq!(m.total_losses(), 2);
        assert_eq!(m.node_counters(NodeId(0)).transmitted, 2);
        assert_eq!(m.node_counters(NodeId(0)).cad_scans, 2);
        assert_eq!(m.node_counters(NodeId(0)).cad_busy, 1);
        assert_eq!(m.node_counters(NodeId(2)).lost, 2);
    }

    #[test]
    fn node_counters_is_zero_for_untouched_nodes() {
        let m = Metrics::new();
        assert_eq!(m.node_counters(NodeId(42)), NodeCounters::default());
        let mut m = Metrics::new();
        m.record_delivery(NodeId(3));
        // Nodes below the touched index exist, zeroed, for dense reports.
        assert_eq!(m.per_node.len(), 4);
        assert_eq!(m.node_counters(NodeId(1)), NodeCounters::default());
        assert_eq!(m.node_counters(NodeId(3)).received, 1);
    }

    #[test]
    fn absorb_matches_incremental_recording() {
        // Record one interleaved history, then the same history split in
        // two halves absorbed into a fresh accumulator — byte-identical.
        let mut whole = Metrics::new();
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        whole.record_tx(NodeId(2), Duration::from_millis(40));
        a.record_tx(NodeId(2), Duration::from_millis(40));
        whole.record_delivery(NodeId(5));
        b.record_delivery(NodeId(5));
        whole.record_loss(NodeId(0), LossReason::Injected);
        a.record_loss(NodeId(0), LossReason::Injected);
        whole.record_cad(NodeId(1), true);
        b.record_cad(NodeId(1), true);
        whole.tx_while_busy += 1;
        b.tx_while_busy += 1;

        let mut merged = Metrics::new();
        merged.absorb(&a);
        merged.absorb(&b);
        assert_eq!(merged, whole);

        // Order independence.
        let mut flipped = Metrics::new();
        flipped.absorb(&b);
        flipped.absorb(&a);
        assert_eq!(flipped, whole);
    }

    #[test]
    fn delivery_ratio_handles_empty() {
        let mut m = Metrics::new();
        assert_eq!(m.delivery_ratio(), None);
        m.record_delivery(NodeId(0));
        m.record_loss(NodeId(0), LossReason::Collision);
        assert!((m.delivery_ratio().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn channel_utilisation() {
        let mut m = Metrics::new();
        m.record_tx(NodeId(0), Duration::from_secs(1));
        assert!((m.channel_utilisation(Duration::from_secs(10)) - 0.1).abs() < 1e-12);
        assert_eq!(m.channel_utilisation(Duration::ZERO), 0.0);
    }
}
