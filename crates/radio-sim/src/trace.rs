//! Bounded structured event trace.
//!
//! The trace records what happened on the medium in order — useful for
//! debugging protocol behaviour and for asserting determinism (two runs
//! with the same seed must produce identical traces). It is bounded so
//! long experiments cannot exhaust memory; when full, the oldest entries
//! are dropped and a counter records the overflow.

use std::collections::VecDeque;

use crate::event::FrameId;
use crate::firmware::NodeId;
use crate::medium::LossReason;
use crate::time::SimTime;

/// One traced occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node began transmitting a frame of the given length.
    TxStart {
        /// Transmitting node.
        node: NodeId,
        /// Frame identifier.
        frame: FrameId,
        /// Frame length in bytes.
        len: usize,
    },
    /// A transmission completed.
    TxEnd {
        /// Transmitting node.
        node: NodeId,
        /// Frame identifier.
        frame: FrameId,
    },
    /// A frame was delivered to a receiver.
    Delivered {
        /// Receiving node.
        node: NodeId,
        /// Frame identifier.
        frame: FrameId,
    },
    /// A reception attempt failed.
    Lost {
        /// Receiving node.
        node: NodeId,
        /// Frame identifier.
        frame: FrameId,
        /// Why it failed.
        reason: LossReason,
    },
    /// A node was killed (fault injection).
    Killed {
        /// The node.
        node: NodeId,
    },
    /// A node was revived.
    Revived {
        /// The node.
        node: NodeId,
    },
}

/// A bounded in-order log of [`TraceEvent`]s with timestamps.
#[derive(Clone, Debug)]
pub struct Trace {
    entries: VecDeque<(SimTime, TraceEvent)>,
    capacity: usize,
    dropped: u64,
    enabled: bool,
}

impl Trace {
    /// Creates a trace holding at most `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Trace {
            entries: VecDeque::new(),
            capacity,
            dropped: 0,
            enabled: capacity > 0,
        }
    }

    /// A disabled trace that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Trace::new(0)
    }

    /// Appends an event (dropping the oldest when at capacity).
    #[inline]
    pub fn push(&mut self, at: SimTime, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back((at, event));
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &(SimTime, TraceEvent)> {
        self.entries.iter()
    }

    /// Number of retained entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many entries were evicted due to the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut t = Trace::new(10);
        t.push(
            SimTime::from_millis(1),
            TraceEvent::Killed { node: NodeId(0) },
        );
        t.push(
            SimTime::from_millis(2),
            TraceEvent::Revived { node: NodeId(0) },
        );
        let v: Vec<_> = t.entries().cloned().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].0, SimTime::from_millis(1));
        assert!(matches!(v[1].1, TraceEvent::Revived { .. }));
    }

    #[test]
    fn bounded_eviction() {
        let mut t = Trace::new(3);
        for i in 0..5 {
            t.push(
                SimTime::from_millis(i),
                TraceEvent::Killed {
                    node: NodeId(i as usize),
                },
            );
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.entries().next().unwrap().0, SimTime::from_millis(2));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.push(SimTime::ZERO, TraceEvent::Killed { node: NodeId(0) });
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }
}
