//! Reliable large-payload transfer.
//!
//! Payloads larger than one LoRa frame travel through a stop-and-wait
//! sub-protocol: the sender opens the transfer with a `Sync` (fragment
//! count and total length), the receiver acknowledges it, and each
//! fragment is then sent and individually acknowledged. Missing
//! acknowledgements trigger retransmission up to a retry budget; the
//! receiver can additionally request specific fragments with `Lost`
//! (useful when a reordering transport is in play). Either side abandons
//! the transfer after the configured patience runs out.
//!
//! The two state machines here are packet-agnostic: they decide *what*
//! should happen ([`SenderAction`], [`ReceiverAction`]) and
//! [`crate::MeshNode`] turns that into packets, routing and queueing.

use alloc::vec;
use alloc::vec::Vec;
use core::time::Duration;

use crate::addr::Address;
use crate::packet::SYNC_ACK_INDEX;

/// How long a sender waits for an acknowledgement before retransmitting,
/// and how long a receiver waits on a stalled transfer before asking for
/// the fragments it misses (both stretched by up to 50 % jitter).
pub const ACK_TIMEOUT: Duration = Duration::from_secs(8);
/// Consecutive retransmissions (or `Lost` requests) before a transfer
/// is given up.
pub const MAX_RETRIES: u32 = 5;
/// Idle time after which a half-finished inbound transfer is dropped.
pub const REASSEMBLY_TIMEOUT: Duration = Duration::from_secs(120);

/// Why an outbound transfer ended unsuccessfully.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The retry budget was exhausted waiting for an acknowledgement.
    RetriesExhausted,
}

/// What the sender side wants to do next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SenderAction {
    /// Nothing to do.
    None,
    /// (Re)send the Sync handshake.
    SendSync,
    /// (Re)send fragment `index`.
    SendFrag(u16),
    /// All fragments acknowledged — the transfer succeeded.
    Completed,
    /// The transfer failed.
    Aborted(AbortReason),
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum OutState {
    /// Waiting for the Sync acknowledgement.
    AwaitSyncAck,
    /// Waiting for the acknowledgement of fragment `index`.
    AwaitFragAck(u16),
    /// Finished (success or abort).
    Done,
}

/// Observable phase of an outbound transfer (diagnostics / UIs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferPhase {
    /// Waiting for the Sync acknowledgement.
    AwaitingSyncAck,
    /// Waiting for the acknowledgement of this fragment.
    AwaitingFragAck(u16),
    /// Finished.
    Done,
}

/// Sender side of one reliable transfer.
#[derive(Clone, Debug)]
pub struct OutboundTransfer {
    /// The destination node.
    pub dst: Address,
    /// The transfer's sequence id.
    pub seq: u8,
    fragments: Vec<Vec<u8>>,
    total_len: u32,
    state: OutState,
    retries: u32,
    max_retries: u32,
    timeout: Duration,
    deadline: Option<Duration>,
    /// Fragment retransmissions performed.
    pub retransmits: u32,
}

impl OutboundTransfer {
    /// Splits `payload` into fragments of at most `max_frag` bytes.
    /// An empty payload travels as one empty fragment, and a zero
    /// `max_frag` is clamped to one byte — degenerate inputs make a
    /// slow transfer, not a crash.
    ///
    /// `None` when the Sync header cannot describe the payload: more
    /// than `u16::MAX` fragments (index `u16::MAX` is the Sync's own
    /// acknowledgement), or more than `u32::MAX` bytes.
    #[must_use]
    pub fn new(
        dst: Address,
        seq: u8,
        payload: &[u8],
        max_frag: usize,
        timeout: Duration,
        max_retries: u32,
    ) -> Option<Self> {
        let max_frag = max_frag.max(1);
        let total_len = u32::try_from(payload.len()).ok()?;
        if payload.len().div_ceil(max_frag) > usize::from(u16::MAX) {
            return None;
        }
        let fragments = if payload.is_empty() {
            vec![Vec::new()]
        } else {
            payload.chunks(max_frag).map(<[u8]>::to_vec).collect()
        };
        Some(OutboundTransfer {
            dst,
            seq,
            fragments,
            total_len,
            state: OutState::AwaitSyncAck,
            retries: 0,
            max_retries,
            timeout,
            deadline: None,
            retransmits: 0,
        })
    }

    /// Number of fragments.
    #[must_use]
    pub fn frag_count(&self) -> u16 {
        crate::cast::sat_u16(self.fragments.len())
    }

    /// Total payload length in bytes.
    #[must_use]
    pub fn total_len(&self) -> u32 {
        self.total_len
    }

    /// The bytes of fragment `index`; empty when `index` is out of
    /// range (the state machine only ever asks for indices it minted).
    #[must_use]
    pub fn fragment(&self, index: u16) -> &[u8] {
        self.fragments
            .get(usize::from(index))
            .map_or(&[], Vec::as_slice)
    }

    /// Whether the transfer has finished (successfully or not).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.state == OutState::Done
    }

    /// The current phase (diagnostics).
    #[must_use]
    pub fn phase(&self) -> TransferPhase {
        match self.state {
            OutState::AwaitSyncAck => TransferPhase::AwaitingSyncAck,
            OutState::AwaitFragAck(i) => TransferPhase::AwaitingFragAck(i),
            OutState::Done => TransferPhase::Done,
        }
    }

    /// The next acknowledgement deadline, while one is pending.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Starts the transfer: emits the Sync and arms its timeout.
    #[must_use]
    pub fn start(&mut self, now: Duration) -> SenderAction {
        self.deadline = Some(now + self.timeout);
        SenderAction::SendSync
    }

    /// Handles an incoming acknowledgement for `index`
    /// ([`SYNC_ACK_INDEX`] acknowledges the handshake).
    #[must_use]
    pub fn on_ack(&mut self, index: u16, now: Duration) -> SenderAction {
        match self.state {
            OutState::AwaitSyncAck if index == SYNC_ACK_INDEX => {
                self.state = OutState::AwaitFragAck(0);
                self.retries = 0;
                self.deadline = Some(now + self.timeout);
                SenderAction::SendFrag(0)
            }
            OutState::AwaitFragAck(expected) if index == expected => {
                let next = expected + 1;
                if next == self.frag_count() {
                    self.state = OutState::Done;
                    self.deadline = None;
                    SenderAction::Completed
                } else {
                    self.state = OutState::AwaitFragAck(next);
                    self.retries = 0;
                    self.deadline = Some(now + self.timeout);
                    SenderAction::SendFrag(next)
                }
            }
            // Duplicate or stale acknowledgement: ignore.
            _ => SenderAction::None,
        }
    }

    /// Handles a `Lost` request listing missing fragment indices: the
    /// transfer rewinds to the earliest missing fragment.
    #[must_use]
    pub fn on_lost(&mut self, missing: &[u16], now: Duration) -> SenderAction {
        let Some(&first) = missing.iter().min() else {
            return SenderAction::None;
        };
        if first >= self.frag_count() || self.state == OutState::Done {
            return SenderAction::None;
        }
        self.state = OutState::AwaitFragAck(first);
        self.retries = 0;
        self.retransmits += 1;
        self.deadline = Some(now + self.timeout);
        SenderAction::SendFrag(first)
    }

    /// Pushes the pending acknowledgement deadline out by `extra`.
    ///
    /// The node adds a random extra after every (re)arm: with fixed
    /// timeouts, a sender's retransmissions and the receiver's stall
    /// requests phase-lock after one hidden-terminal collision and then
    /// collide at the relay on every retry. Jitter breaks the symmetry.
    pub fn defer_deadline(&mut self, extra: Duration) {
        if let Some(d) = self.deadline {
            self.deadline = Some(d + extra);
        }
    }

    /// Handles the acknowledgement deadline expiring: retransmits the
    /// outstanding packet or aborts once the retry budget is spent.
    #[must_use]
    pub fn on_timeout(&mut self, now: Duration) -> SenderAction {
        let resend = match self.state {
            OutState::AwaitSyncAck => SenderAction::SendSync,
            OutState::AwaitFragAck(i) => SenderAction::SendFrag(i),
            OutState::Done => return SenderAction::None,
        };
        self.retries += 1;
        if self.retries > self.max_retries {
            self.state = OutState::Done;
            self.deadline = None;
            return SenderAction::Aborted(AbortReason::RetriesExhausted);
        }
        self.retransmits += 1;
        self.deadline = Some(now + self.timeout);
        resend
    }
}

/// What the receiver side wants to do next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReceiverAction {
    /// Acknowledge the Sync handshake.
    AckSync,
    /// Acknowledge fragment `index`.
    AckFrag(u16),
    /// All fragments arrived: deliver the reassembled payload.
    Complete(Vec<u8>),
}

/// Receiver side of one reliable transfer.
#[derive(Clone, Debug)]
pub struct InboundTransfer {
    /// The sending node.
    pub src: Address,
    /// The transfer's sequence id.
    pub seq: u8,
    fragments: Vec<Option<Vec<u8>>>,
    total_len: u32,
    /// Last time a packet of this transfer arrived (for expiry).
    pub last_activity: Duration,
    delivered: bool,
    last_lost: Duration,
    lost_requests: u32,
}

impl InboundTransfer {
    /// Opens a transfer announced by a Sync packet. A zero `frag_count`
    /// (the node drops such Syncs, but a corrupt sender could still
    /// claim one) is clamped to a single fragment.
    #[must_use]
    pub fn new(src: Address, seq: u8, frag_count: u16, total_len: u32, now: Duration) -> Self {
        let frag_count = frag_count.max(1);
        InboundTransfer {
            src,
            seq,
            fragments: vec![None; usize::from(frag_count)],
            total_len,
            last_activity: now,
            delivered: false,
            last_lost: now,
            lost_requests: 0,
        }
    }

    /// Whether the payload was already delivered (late duplicates are
    /// still acknowledged, but not delivered twice).
    #[must_use]
    pub fn is_delivered(&self) -> bool {
        self.delivered
    }

    /// Handles a (possibly duplicate) Sync for this transfer.
    #[must_use]
    pub fn on_sync(&mut self, now: Duration) -> ReceiverAction {
        self.last_activity = now;
        ReceiverAction::AckSync
    }

    /// Handles fragment `index`, returning the actions to take in order
    /// (always an ack; plus delivery when the payload completes).
    #[must_use]
    pub fn on_frag(&mut self, index: u16, data: &[u8], now: Duration) -> Vec<ReceiverAction> {
        self.last_activity = now;
        let mut actions = Vec::with_capacity(2);
        let Some(slot) = self.fragments.get_mut(usize::from(index)) else {
            // Out-of-range fragment: ignore entirely (corrupt sender).
            return actions;
        };
        if slot.is_none() {
            *slot = Some(data.to_vec());
        }
        actions.push(ReceiverAction::AckFrag(index));
        if !self.delivered && self.fragments.iter().all(Option::is_some) {
            let mut payload = Vec::with_capacity(self.total_len as usize);
            for f in self.fragments.iter().flatten() {
                payload.extend_from_slice(f);
            }
            // A length mismatch means the sender lied in its Sync; deliver
            // what arrived — the application sees the actual bytes.
            self.delivered = true;
            actions.push(ReceiverAction::Complete(payload));
        }
        actions
    }

    /// Whether the transfer has stalled: it is incomplete, has received at
    /// least one fragment, and nothing has arrived (nor a `Lost` been
    /// sent) for `patience`. Used by the node to issue a `Lost` request
    /// nudging the sender.
    #[must_use]
    pub fn stalled(&self, now: Duration, patience: Duration) -> bool {
        !self.delivered
            && now.saturating_sub(self.last_activity) >= patience
            && now.saturating_sub(self.last_lost) >= patience
    }

    /// Records that a `Lost` request was sent (paces further requests).
    pub fn note_lost_sent(&mut self, now: Duration) {
        self.last_lost = now;
        self.lost_requests += 1;
    }

    /// How many `Lost` requests this transfer has issued.
    #[must_use]
    pub fn lost_requests(&self) -> u32 {
        self.lost_requests
    }

    /// When this transfer will next count as stalled, or `None` once it
    /// has been delivered.
    #[must_use]
    pub fn stall_deadline(&self, patience: Duration) -> Option<Duration> {
        if self.delivered {
            None
        } else {
            Some(self.last_activity.max(self.last_lost) + patience)
        }
    }

    /// Number of fragments received so far (diagnostics).
    #[must_use]
    pub fn received_count(&self) -> usize {
        self.fragments.iter().filter(|f| f.is_some()).count()
    }

    /// The indices still missing (for a `Lost` request).
    #[must_use]
    pub fn missing(&self) -> Vec<u16> {
        self.fragments
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_none())
            .map(|(i, _)| crate::cast::sat_u16(i))
            .collect()
    }

    /// Whether the transfer has been idle since before `now - timeout`.
    #[must_use]
    pub fn expired(&self, now: Duration, timeout: Duration) -> bool {
        now.saturating_sub(self.last_activity) >= timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DST: Address = Address::new(9);
    const SRC: Address = Address::new(3);
    const T0: Duration = Duration::from_secs(10);
    const TIMEOUT: Duration = Duration::from_secs(8);

    fn outbound(payload_len: usize, max_frag: usize) -> OutboundTransfer {
        let payload: Vec<u8> = (0..=u8::MAX).cycle().take(payload_len).collect();
        OutboundTransfer::new(DST, 1, &payload, max_frag, TIMEOUT, 3).expect("payload fits a Sync")
    }

    #[test]
    fn a_payload_past_the_sync_fragment_count_is_refused() {
        // `u16::MAX` fragments are the most a Sync can count, and the
        // transfer completes only on the last one's acknowledgement.
        let mut t = outbound(usize::from(u16::MAX), 1);
        assert_eq!(t.frag_count(), u16::MAX);
        assert_eq!(t.start(T0), SenderAction::SendSync);
        assert_eq!(t.on_ack(SYNC_ACK_INDEX, T0), SenderAction::SendFrag(0));
        for i in 0..u16::MAX - 1 {
            assert_eq!(t.on_ack(i, T0), SenderAction::SendFrag(i + 1));
        }
        assert_eq!(t.on_ack(u16::MAX - 1, T0), SenderAction::Completed);
        // One byte more needs fragment 65 536: refused, not truncated.
        let payload = vec![0; usize::from(u16::MAX) + 1];
        assert!(OutboundTransfer::new(DST, 1, &payload, 1, TIMEOUT, 3).is_none());
    }

    #[test]
    fn fragments_split_exactly() {
        let t = outbound(250, 100);
        assert_eq!(t.frag_count(), 3);
        assert_eq!(t.fragment(0).len(), 100);
        assert_eq!(t.fragment(2).len(), 50);
        assert_eq!(t.total_len(), 250);
        let t = outbound(200, 100);
        assert_eq!(t.frag_count(), 2);
    }

    #[test]
    fn happy_path_walks_all_fragments() {
        let mut t = outbound(250, 100);
        assert_eq!(t.start(T0), SenderAction::SendSync);
        assert_eq!(t.on_ack(SYNC_ACK_INDEX, T0), SenderAction::SendFrag(0));
        assert_eq!(t.on_ack(0, T0), SenderAction::SendFrag(1));
        assert_eq!(t.on_ack(1, T0), SenderAction::SendFrag(2));
        assert_eq!(t.on_ack(2, T0), SenderAction::Completed);
        assert!(t.is_done());
        assert_eq!(t.deadline(), None);
        assert_eq!(t.retransmits, 0);
    }

    #[test]
    fn duplicate_and_stale_acks_ignored() {
        let mut t = outbound(250, 100);
        let _ = t.start(T0);
        let _ = t.on_ack(SYNC_ACK_INDEX, T0);
        assert_eq!(t.on_ack(SYNC_ACK_INDEX, T0), SenderAction::None);
        assert_eq!(t.on_ack(5, T0), SenderAction::None);
        let _ = t.on_ack(0, T0);
        assert_eq!(t.on_ack(0, T0), SenderAction::None);
    }

    #[test]
    fn timeout_retransmits_then_aborts() {
        let mut t = outbound(100, 100);
        let _ = t.start(T0);
        assert_eq!(t.on_timeout(T0 + TIMEOUT), SenderAction::SendSync);
        assert_eq!(t.on_timeout(T0 + TIMEOUT * 2), SenderAction::SendSync);
        assert_eq!(t.on_timeout(T0 + TIMEOUT * 3), SenderAction::SendSync);
        assert_eq!(
            t.on_timeout(T0 + TIMEOUT * 4),
            SenderAction::Aborted(AbortReason::RetriesExhausted)
        );
        assert!(t.is_done());
        assert_eq!(t.on_timeout(T0 + TIMEOUT * 5), SenderAction::None);
        assert_eq!(t.retransmits, 3);
    }

    #[test]
    fn ack_resets_retry_budget() {
        let mut t = outbound(250, 100);
        let _ = t.start(T0);
        let _ = t.on_timeout(T0 + TIMEOUT);
        let _ = t.on_timeout(T0 + TIMEOUT * 2);
        // The sync finally gets through.
        assert_eq!(
            t.on_ack(SYNC_ACK_INDEX, T0 + TIMEOUT * 2),
            SenderAction::SendFrag(0)
        );
        // Fresh budget: three more timeouts before aborting.
        let mut aborts = 0;
        for k in 3..=6 {
            if matches!(t.on_timeout(T0 + TIMEOUT * k), SenderAction::Aborted(_)) {
                aborts += 1;
            }
        }
        assert_eq!(aborts, 1);
    }

    #[test]
    fn lost_rewinds_to_first_missing() {
        let mut t = outbound(500, 100);
        let _ = t.start(T0);
        let _ = t.on_ack(SYNC_ACK_INDEX, T0);
        let _ = t.on_ack(0, T0);
        let _ = t.on_ack(1, T0);
        assert_eq!(t.on_lost(&[1, 3], T0), SenderAction::SendFrag(1));
        // Continue from there.
        assert_eq!(t.on_ack(1, T0), SenderAction::SendFrag(2));
        assert_eq!(t.on_lost(&[], T0), SenderAction::None);
        assert_eq!(t.on_lost(&[99], T0), SenderAction::None);
    }

    #[test]
    fn deadline_tracks_pending_ack() {
        let mut t = outbound(100, 100);
        assert_eq!(t.deadline(), None);
        let _ = t.start(T0);
        assert_eq!(t.deadline(), Some(T0 + TIMEOUT));
        let _ = t.on_ack(SYNC_ACK_INDEX, T0 + Duration::from_secs(1));
        assert_eq!(t.deadline(), Some(T0 + Duration::from_secs(1) + TIMEOUT));
    }

    #[test]
    fn empty_payload_is_one_empty_fragment() {
        let mut t =
            OutboundTransfer::new(DST, 0, &[], 100, TIMEOUT, 3).expect("payload fits a Sync");
        assert_eq!(t.frag_count(), 1);
        assert_eq!(t.fragment(0), &[] as &[u8]);
        assert_eq!(t.total_len(), 0);
        let _ = t.start(T0);
        let _ = t.on_ack(SYNC_ACK_INDEX, T0);
        assert_eq!(t.on_ack(0, T0), SenderAction::Completed);
    }

    #[test]
    fn out_of_range_fragment_is_empty() {
        let t = outbound(100, 100);
        assert_eq!(t.fragment(7), &[] as &[u8]);
    }

    #[test]
    fn inbound_happy_path() {
        let mut t = InboundTransfer::new(SRC, 1, 3, 250, T0);
        assert_eq!(t.on_sync(T0), ReceiverAction::AckSync);
        let a = t.on_frag(0, &[1; 100], T0);
        assert_eq!(a, vec![ReceiverAction::AckFrag(0)]);
        let a = t.on_frag(1, &[2; 100], T0);
        assert_eq!(a, vec![ReceiverAction::AckFrag(1)]);
        let a = t.on_frag(2, &[3; 50], T0);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0], ReceiverAction::AckFrag(2));
        match &a[1] {
            ReceiverAction::Complete(p) => {
                assert_eq!(p.len(), 250);
                assert_eq!(&p[..100], &[1; 100]);
                assert_eq!(&p[200..], &[3; 50]);
            }
            other => panic!("expected Complete, got {other:?}"),
        }
        assert!(t.is_delivered());
    }

    #[test]
    fn inbound_duplicate_frag_reacked_not_redelivered() {
        let mut t = InboundTransfer::new(SRC, 1, 1, 10, T0);
        let a = t.on_frag(0, &[9; 10], T0);
        assert_eq!(a.len(), 2);
        // Duplicate: ack again, no second Complete.
        let a = t.on_frag(0, &[9; 10], T0);
        assert_eq!(a, vec![ReceiverAction::AckFrag(0)]);
    }

    #[test]
    fn inbound_out_of_range_frag_ignored() {
        let mut t = InboundTransfer::new(SRC, 1, 2, 20, T0);
        assert!(t.on_frag(7, &[0; 10], T0).is_empty());
        assert_eq!(t.missing(), vec![0, 1]);
    }

    #[test]
    fn inbound_missing_and_expiry() {
        let mut t = InboundTransfer::new(SRC, 1, 3, 30, T0);
        let _ = t.on_frag(1, &[0; 10], T0 + Duration::from_secs(1));
        assert_eq!(t.missing(), vec![0, 2]);
        assert!(!t.expired(T0 + Duration::from_secs(60), Duration::from_secs(120)));
        assert!(t.expired(T0 + Duration::from_secs(200), Duration::from_secs(120)));
    }

    #[test]
    fn inbound_zero_fragments_clamps_to_one() {
        let mut t = InboundTransfer::new(SRC, 1, 0, 0, T0);
        assert_eq!(t.missing(), vec![0]);
        let a = t.on_frag(0, &[], T0);
        assert_eq!(a.len(), 2, "empty payload still completes");
        assert!(t.is_delivered());
    }
}
