//! Reliable large-payload transfer.
//!
//! Payloads larger than one LoRa frame travel through a stop-and-wait
//! sub-protocol: the sender opens the transfer with a `Sync` (fragment
//! count and total length), the receiver acknowledges it, and each
//! fragment is then sent and individually acknowledged. A missing
//! acknowledgement is retransmitted after [`ACK_TIMEOUT`], up to
//! [`MAX_RETRIES`] times in a row; the receiver can additionally request
//! specific fragments with `Lost` when its transfer stalls. The receiver
//! drops a transfer idle for [`REASSEMBLY_TIMEOUT`].
//!
//! The two state machines here are packet-agnostic: they decide *what*
//! should happen ([`SenderAction`], or the ack and payload
//! [`InboundTransfer::on_frag`] returns) and [`crate::MeshNode`] turns
//! that into packets, routing and queueing.

use alloc::vec;
use alloc::vec::Vec;
use core::time::Duration;

use crate::packet::SYNC_ACK_INDEX;

/// How long a sender waits for an acknowledgement before retransmitting
/// (stretched by up to 50 % jitter), and how long a receiver waits on a
/// stalled transfer before asking for the fragments it misses.
pub const ACK_TIMEOUT: Duration = Duration::from_secs(8);
/// Consecutive retransmissions (or `Lost` requests) before a transfer
/// is given up.
pub const MAX_RETRIES: u32 = 5;
/// Idle time after which a half-finished inbound transfer is dropped.
pub const REASSEMBLY_TIMEOUT: Duration = Duration::from_secs(120);

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
    /// The retry budget ran out waiting for an acknowledgement.
    Aborted,
}

/// Phase of an outbound transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferPhase {
    /// Waiting for the Sync acknowledgement.
    AwaitingSyncAck,
    /// Waiting for the acknowledgement of this fragment.
    AwaitingFragAck(u16),
    /// Finished (completed or aborted).
    Done,
}

/// Sender side of one reliable transfer.
#[derive(Clone, Debug)]
pub struct OutboundTransfer {
    /// The transfer's sequence id.
    pub seq: u8,
    payload: Vec<u8>,
    max_frag: usize,
    phase: TransferPhase,
    retries: u32,
    deadline: Option<Duration>,
    /// Fragment retransmissions performed.
    pub retransmits: u32,
}

impl OutboundTransfer {
    /// A transfer of `payload` in fragments of at most `max_frag` bytes.
    /// An empty payload travels as one empty fragment, and a zero
    /// `max_frag` is clamped to one byte — degenerate inputs make a
    /// slow transfer, not a crash.
    ///
    /// `None` when the Sync header cannot describe the payload: more
    /// than `u16::MAX` fragments (index `u16::MAX` is the Sync's own
    /// acknowledgement), or more than `u32::MAX` bytes.
    #[must_use]
    pub fn new(seq: u8, payload: Vec<u8>, max_frag: usize) -> Option<Self> {
        let max_frag = max_frag.max(1);
        if u32::try_from(payload.len()).is_err()
            || payload.len().div_ceil(max_frag) > usize::from(u16::MAX)
        {
            return None;
        }
        Some(OutboundTransfer {
            seq,
            payload,
            max_frag,
            phase: TransferPhase::AwaitingSyncAck,
            retries: 0,
            deadline: None,
            retransmits: 0,
        })
    }

    /// Number of fragments.
    #[must_use]
    pub fn frag_count(&self) -> u16 {
        crate::cast::sat_u16(self.payload.len().div_ceil(self.max_frag).max(1))
    }

    /// Total payload length in bytes.
    #[must_use]
    pub fn total_len(&self) -> u32 {
        crate::cast::sat_u32(self.payload.len())
    }

    /// The bytes of fragment `index`; empty when `index` is out of
    /// range (the state machine only ever asks for indices it minted).
    #[must_use]
    pub fn fragment(&self, index: u16) -> &[u8] {
        self.payload
            .chunks(self.max_frag)
            .nth(usize::from(index))
            .unwrap_or_default()
    }

    /// The current phase.
    #[must_use]
    pub fn phase(&self) -> TransferPhase {
        self.phase
    }

    /// The next acknowledgement deadline, while one is pending.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Starts the transfer: emits the Sync and arms its deadline.
    ///
    /// Every step takes a `jitter` the caller drew, and ends in the one
    /// deadline rule: a step that sends re-arms the deadline at `now +`
    /// [`ACK_TIMEOUT`], a finished transfer has none, and then `jitter`
    /// pushes out whatever deadline is pending — also after a step that
    /// changed nothing. With fixed timeouts, a sender's retransmissions
    /// and the receiver's stall requests phase-lock after one
    /// hidden-terminal collision and then collide at the relay on every
    /// retry; the jitter breaks the symmetry.
    #[must_use]
    pub fn start(&mut self, now: Duration, jitter: Duration) -> SenderAction {
        self.arm(SenderAction::SendSync, now, jitter)
    }

    /// Handles an incoming acknowledgement for `index`
    /// ([`SYNC_ACK_INDEX`] acknowledges the handshake); a duplicate or
    /// stale one steps nothing.
    #[must_use]
    pub fn on_ack(&mut self, index: u16, now: Duration, jitter: Duration) -> SenderAction {
        let next = match self.phase {
            TransferPhase::AwaitingSyncAck if index == SYNC_ACK_INDEX => 0,
            TransferPhase::AwaitingFragAck(expected) if index == expected => expected + 1,
            _ => return self.arm(SenderAction::None, now, jitter),
        };
        let action = if next == self.frag_count() {
            self.phase = TransferPhase::Done;
            SenderAction::Completed
        } else {
            self.await_frag(next)
        };
        self.arm(action, now, jitter)
    }

    /// Handles a `Lost` request listing missing fragment indices: the
    /// transfer rewinds to the earliest missing fragment.
    #[must_use]
    pub fn on_lost(
        &mut self,
        missing: impl IntoIterator<Item = u16>,
        now: Duration,
        jitter: Duration,
    ) -> SenderAction {
        let action = match missing.into_iter().min() {
            Some(first) if first < self.frag_count() && self.phase != TransferPhase::Done => {
                self.retransmits += 1;
                self.await_frag(first)
            }
            _ => SenderAction::None,
        };
        self.arm(action, now, jitter)
    }

    /// Handles the acknowledgement deadline expiring: retransmits the
    /// outstanding packet, or aborts on the timeout after the
    /// [`MAX_RETRIES`]th retransmission.
    #[must_use]
    pub fn on_timeout(&mut self, now: Duration, jitter: Duration) -> SenderAction {
        let resend = match self.phase {
            TransferPhase::AwaitingSyncAck => SenderAction::SendSync,
            TransferPhase::AwaitingFragAck(i) => SenderAction::SendFrag(i),
            TransferPhase::Done => return self.arm(SenderAction::None, now, jitter),
        };
        self.retries += 1;
        let action = if self.retries > MAX_RETRIES {
            self.phase = TransferPhase::Done;
            SenderAction::Aborted
        } else {
            self.retransmits += 1;
            resend
        };
        self.arm(action, now, jitter)
    }

    /// Waits for fragment `index` with a fresh retry budget.
    fn await_frag(&mut self, index: u16) -> SenderAction {
        self.phase = TransferPhase::AwaitingFragAck(index);
        self.retries = 0;
        SenderAction::SendFrag(index)
    }

    /// The deadline rule every step ends in; see [`Self::start`].
    fn arm(&mut self, action: SenderAction, now: Duration, jitter: Duration) -> SenderAction {
        match action {
            SenderAction::SendSync | SenderAction::SendFrag(_) => {
                self.deadline = Some(now + ACK_TIMEOUT);
            }
            SenderAction::Completed | SenderAction::Aborted => self.deadline = None,
            SenderAction::None => {}
        }
        self.deadline = self.deadline.map(|d| d + jitter);
        action
    }
}

/// Receiver side of one reliable transfer.
#[derive(Clone, Debug)]
pub struct InboundTransfer {
    fragments: Vec<Option<Vec<u8>>>,
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
    pub fn new(frag_count: u16, now: Duration) -> Self {
        InboundTransfer {
            fragments: vec![None; usize::from(frag_count.max(1))],
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

    /// Handles a (possibly duplicate) Sync for this transfer; the node
    /// acknowledges every one.
    pub fn on_sync(&mut self, now: Duration) {
        self.last_activity = now;
    }

    /// Handles fragment `index`. `None` for an index past the announced
    /// count (a corrupt sender: nothing to acknowledge); otherwise the
    /// fragment is to be acknowledged, and the inner value is the
    /// reassembled payload the first time every fragment is in.
    #[must_use]
    pub fn on_frag(&mut self, index: u16, data: &[u8], now: Duration) -> Option<Option<Vec<u8>>> {
        self.last_activity = now;
        let slot = self.fragments.get_mut(usize::from(index))?;
        if slot.is_none() {
            *slot = Some(data.to_vec());
        }
        if self.delivered || self.fragments.iter().any(Option::is_none) {
            return Some(None);
        }
        self.delivered = true;
        // Sized from what arrived, not from the Sync's `total_len`: a
        // sender that lied there gets the actual bytes delivered.
        let mut payload = Vec::with_capacity(self.fragments.iter().flatten().map(Vec::len).sum());
        for f in self.fragments.iter().flatten() {
            payload.extend_from_slice(f);
        }
        Some(Some(payload))
    }

    /// Whether the transfer has stalled: see [`Self::stall_deadline`].
    /// The node then sends a `Lost` request nudging the sender.
    #[must_use]
    pub fn stalled(&self, now: Duration) -> bool {
        self.stall_deadline().is_some_and(|d| now >= d)
    }

    /// Records that a `Lost` request was sent (paces further requests).
    pub fn note_lost_sent(&mut self, now: Duration) {
        self.last_lost = now;
        self.lost_requests += 1;
    }

    /// When this transfer next counts as stalled: [`ACK_TIMEOUT`] after
    /// the last packet that arrived or the last `Lost` sent, whichever
    /// is later — also when only the Sync has arrived. `None` once it
    /// has been delivered or has sent [`MAX_RETRIES`] `Lost` requests.
    #[must_use]
    pub fn stall_deadline(&self) -> Option<Duration> {
        (!self.delivered && self.lost_requests < MAX_RETRIES)
            .then(|| self.last_activity.max(self.last_lost) + ACK_TIMEOUT)
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

    /// Whether the transfer has been idle for [`REASSEMBLY_TIMEOUT`].
    #[must_use]
    pub fn expired(&self, now: Duration) -> bool {
        now.saturating_sub(self.last_activity) >= REASSEMBLY_TIMEOUT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: Duration = Duration::from_secs(10);
    /// The tests step without jitter; the node's jitter rule is pinned
    /// by the transport's tests.
    const J: Duration = Duration::ZERO;

    fn outbound(payload_len: usize, max_frag: usize) -> OutboundTransfer {
        let payload: Vec<u8> = (0..=u8::MAX).cycle().take(payload_len).collect();
        OutboundTransfer::new(1, payload, max_frag).expect("payload fits a Sync")
    }

    #[test]
    fn a_payload_past_the_sync_fragment_count_is_refused() {
        // `u16::MAX` fragments are the most a Sync can count, and the
        // transfer completes only on the last one's acknowledgement.
        let mut t = outbound(usize::from(u16::MAX), 1);
        assert_eq!(t.frag_count(), u16::MAX);
        assert_eq!(t.start(T0, J), SenderAction::SendSync);
        assert_eq!(t.on_ack(SYNC_ACK_INDEX, T0, J), SenderAction::SendFrag(0));
        for i in 0..u16::MAX - 1 {
            assert_eq!(t.on_ack(i, T0, J), SenderAction::SendFrag(i + 1));
        }
        assert_eq!(t.on_ack(u16::MAX - 1, T0, J), SenderAction::Completed);
        // One byte more needs fragment 65 536: refused, not truncated.
        let payload = vec![0; usize::from(u16::MAX) + 1];
        assert!(OutboundTransfer::new(1, payload, 1).is_none());
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
        assert_eq!(t.start(T0, J), SenderAction::SendSync);
        assert_eq!(t.on_ack(SYNC_ACK_INDEX, T0, J), SenderAction::SendFrag(0));
        assert_eq!(t.on_ack(0, T0, J), SenderAction::SendFrag(1));
        assert_eq!(t.on_ack(1, T0, J), SenderAction::SendFrag(2));
        assert_eq!(t.on_ack(2, T0, J), SenderAction::Completed);
        assert_eq!(t.phase(), TransferPhase::Done);
        assert_eq!(t.deadline(), None);
        assert_eq!(t.retransmits, 0);
    }

    #[test]
    fn duplicate_and_stale_acks_ignored() {
        let mut t = outbound(250, 100);
        let _ = t.start(T0, J);
        let _ = t.on_ack(SYNC_ACK_INDEX, T0, J);
        assert_eq!(t.on_ack(SYNC_ACK_INDEX, T0, J), SenderAction::None);
        assert_eq!(t.on_ack(5, T0, J), SenderAction::None);
        let _ = t.on_ack(0, T0, J);
        assert_eq!(t.on_ack(0, T0, J), SenderAction::None);
    }

    #[test]
    fn timeout_retransmits_then_aborts() {
        let mut t = outbound(100, 100);
        let _ = t.start(T0, J);
        for k in 1..=MAX_RETRIES {
            assert_eq!(
                t.on_timeout(T0 + ACK_TIMEOUT * k, J),
                SenderAction::SendSync
            );
        }
        let k = MAX_RETRIES + 1;
        assert_eq!(t.on_timeout(T0 + ACK_TIMEOUT * k, J), SenderAction::Aborted);
        assert_eq!(t.phase(), TransferPhase::Done);
        assert_eq!(
            t.on_timeout(T0 + ACK_TIMEOUT * (k + 1), J),
            SenderAction::None
        );
        assert_eq!(t.retransmits, MAX_RETRIES);
    }

    #[test]
    fn ack_resets_retry_budget() {
        let mut t = outbound(250, 100);
        let _ = t.start(T0, J);
        let _ = t.on_timeout(T0 + ACK_TIMEOUT, J);
        let _ = t.on_timeout(T0 + ACK_TIMEOUT * 2, J);
        // The sync finally gets through.
        assert_eq!(
            t.on_ack(SYNC_ACK_INDEX, T0 + ACK_TIMEOUT * 2, J),
            SenderAction::SendFrag(0)
        );
        // Fresh budget: `MAX_RETRIES` more timeouts before aborting.
        let mut aborts = 0;
        for k in 3..=3 + MAX_RETRIES {
            if t.on_timeout(T0 + ACK_TIMEOUT * k, J) == SenderAction::Aborted {
                aborts += 1;
            }
        }
        assert_eq!(aborts, 1);
    }

    #[test]
    fn lost_rewinds_to_first_missing() {
        let mut t = outbound(500, 100);
        let _ = t.start(T0, J);
        let _ = t.on_ack(SYNC_ACK_INDEX, T0, J);
        let _ = t.on_ack(0, T0, J);
        let _ = t.on_ack(1, T0, J);
        assert_eq!(t.on_lost([1, 3], T0, J), SenderAction::SendFrag(1));
        // Continue from there.
        assert_eq!(t.on_ack(1, T0, J), SenderAction::SendFrag(2));
        assert_eq!(t.on_lost([], T0, J), SenderAction::None);
        assert_eq!(t.on_lost([99], T0, J), SenderAction::None);
    }

    #[test]
    fn deadline_tracks_pending_ack() {
        let mut t = outbound(100, 100);
        assert_eq!(t.deadline(), None);
        let _ = t.start(T0, J);
        assert_eq!(t.deadline(), Some(T0 + ACK_TIMEOUT));
        let _ = t.on_ack(SYNC_ACK_INDEX, T0 + Duration::from_secs(1), J);
        assert_eq!(
            t.deadline(),
            Some(T0 + Duration::from_secs(1) + ACK_TIMEOUT)
        );
    }

    #[test]
    fn empty_payload_is_one_empty_fragment() {
        let mut t = OutboundTransfer::new(0, Vec::new(), 100).expect("payload fits a Sync");
        assert_eq!(t.frag_count(), 1);
        assert_eq!(t.fragment(0), &[] as &[u8]);
        assert_eq!(t.total_len(), 0);
        let _ = t.start(T0, J);
        let _ = t.on_ack(SYNC_ACK_INDEX, T0, J);
        assert_eq!(t.on_ack(0, T0, J), SenderAction::Completed);
    }

    #[test]
    fn out_of_range_fragment_is_empty() {
        let t = outbound(100, 100);
        assert_eq!(t.fragment(7), &[] as &[u8]);
    }

    #[test]
    fn inbound_happy_path() {
        let mut t = InboundTransfer::new(3, T0);
        t.on_sync(T0);
        assert_eq!(t.on_frag(0, &[1; 100], T0), Some(None));
        assert_eq!(t.on_frag(1, &[2; 100], T0), Some(None));
        let Some(Some(p)) = t.on_frag(2, &[3; 50], T0) else {
            panic!("the last fragment completes the payload");
        };
        assert_eq!(p.len(), 250);
        assert_eq!(&p[..100], &[1; 100]);
        assert_eq!(&p[200..], &[3; 50]);
        assert!(t.is_delivered());
    }

    #[test]
    fn inbound_duplicate_frag_reacked_not_redelivered() {
        let mut t = InboundTransfer::new(1, T0);
        assert!(matches!(t.on_frag(0, &[9; 10], T0), Some(Some(_))));
        // Duplicate: ack again, no second delivery.
        assert_eq!(t.on_frag(0, &[9; 10], T0), Some(None));
    }

    #[test]
    fn inbound_out_of_range_frag_ignored() {
        let mut t = InboundTransfer::new(2, T0);
        assert_eq!(t.on_frag(7, &[0; 10], T0), None);
        assert_eq!(t.missing(), vec![0, 1]);
    }

    #[test]
    fn inbound_missing_and_expiry() {
        let mut t = InboundTransfer::new(3, T0);
        let _ = t.on_frag(1, &[0; 10], T0 + Duration::from_secs(1));
        assert_eq!(t.missing(), vec![0, 2]);
        assert!(!t.expired(T0 + Duration::from_secs(60)));
        assert!(t.expired(T0 + Duration::from_secs(200)));
    }

    #[test]
    fn inbound_zero_fragments_clamps_to_one() {
        let mut t = InboundTransfer::new(0, T0);
        assert_eq!(t.missing(), vec![0]);
        assert_eq!(
            t.on_frag(0, &[], T0),
            Some(Some(Vec::new())),
            "empty payload still completes"
        );
        assert!(t.is_delivered());
    }
}
