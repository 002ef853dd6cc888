//! Per-node protocol statistics.

use core::time::Duration;

/// Counters a [`crate::MeshNode`] maintains about its own behaviour.
///
/// These are protocol-level numbers (what the node *did*), complementing
/// the PHY-level metrics the simulator collects (what the channel did).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Hello broadcasts sent.
    pub hellos_sent: u64,
    /// Hello broadcasts received and applied.
    pub hellos_received: u64,
    /// Data packets originated by the local application.
    pub data_originated: u64,
    /// Data packets addressed to this node and delivered to the app.
    pub data_delivered: u64,
    /// Unicast packets relayed for other nodes.
    pub forwarded: u64,
    /// Unicast packets dropped because the TTL expired.
    pub ttl_expired: u64,
    /// Unicast packets dropped because no route existed at a relay.
    pub no_route_drops: u64,
    /// Received frames that failed to decode or were malformed (a
    /// broadcast source, a Sync announcing no fragments). Counted on the
    /// receive path only: a packet that does not encode never leaves
    /// the transmit queue's admission (see `queue_refusals`).
    pub decode_errors: u64,
    /// Frames received that claimed our own address as originator
    /// (duplicate-address indicator).
    pub address_conflicts: u64,
    /// Outbound packets the transmit queue refused at admission
    /// (backpressure: the queue was full of equal-or-higher-priority
    /// traffic). Hellos, forwards and reliable-transfer control packets
    /// all land here instead of vanishing silently, and so would a
    /// packet that does not encode (a bug: debug builds stop on it).
    pub queue_refusals: u64,
    /// Outbound frames dropped after exhausting CAD retries.
    pub cad_exhausted: u64,
    /// Outbound frames delayed or refused by the duty-cycle budget.
    pub duty_cycle_deferrals: u64,
    /// Reliable transfers completed as sender.
    pub reliable_sent: u64,
    /// Reliable transfers completed as receiver.
    pub reliable_received: u64,
    /// Reliable transfers aborted (either side).
    pub reliable_aborted: u64,
    /// Fragment retransmissions performed as sender.
    pub reliable_retransmits: u64,
    /// Total airtime this node has transmitted.
    pub airtime: Duration,
    /// Total frames this node has put on the air.
    pub frames_sent: u64,
}

impl NodeStats {
    /// Zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed() {
        let s = NodeStats::new();
        assert_eq!(s, NodeStats::default());
        assert_eq!(s.hellos_sent, 0);
        assert_eq!(s.airtime, Duration::ZERO);
    }
}
