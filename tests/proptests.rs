//! Property-based tests on the core data structures and invariants,
//! driven by the in-repo [`testkit`] harness (no external dependencies;
//! failures print a `TESTKIT_SEED` for exact replay).

use std::time::Duration;

use testkit::{forall, Gen};
use testkit::{prop_assert, prop_assert_eq, prop_assert_ne};

use loramesher_repro::lora_phy::modulation::{
    Bandwidth, CodingRate, LoRaModulation, SpreadingFactor,
};
use loramesher_repro::lora_phy::region::{DutyCycleTracker, Region};
use loramesher_repro::loramesher::addr::Address;
use loramesher_repro::loramesher::codec;
use loramesher_repro::loramesher::driver::{RadioIo, RadioRequest};
use loramesher_repro::loramesher::mac::{Mac, TxOutcome};
use loramesher_repro::loramesher::packet::{Forwarding, Packet, PacketKind, RouteEntry};
use loramesher_repro::loramesher::queue::{Priority, TxQueue};
use loramesher_repro::loramesher::reliable::{InboundTransfer, OutboundTransfer, SenderAction};
use loramesher_repro::loramesher::rng::ProtocolRng;
use loramesher_repro::loramesher::routing::RoutingTable;
use loramesher_repro::loramesher::FloodMessage;
use loramesher_repro::radio_sim::rng::SimRng;

// ----------------------------------------------------------------------
// generators
// ----------------------------------------------------------------------

fn gen_address(g: &mut Gen) -> Address {
    Address::new(g.u16())
}

fn gen_forwarding(g: &mut Gen) -> Forwarding {
    Forwarding {
        via: Address::new(g.u16()),
        ttl: g.u8(),
    }
}

fn gen_route_entry(g: &mut Gen) -> RouteEntry {
    RouteEntry {
        address: Address::new(g.u16()),
        metric: g.u8(),
        role: g.u8(),
    }
}

fn gen_packet(g: &mut Gen) -> Packet {
    match g.int_in(0, 5) {
        0 => Packet::Hello {
            src: gen_address(g),
            id: g.u8(),
            role: g.u8(),
            entries: g.vec_of(0, codec::MAX_HELLO_ENTRIES, gen_route_entry),
        },
        1 => Packet::Data {
            dst: gen_address(g),
            src: gen_address(g),
            id: g.u8(),
            fwd: gen_forwarding(g),
            payload: g.bytes(0, codec::MAX_DATA_PAYLOAD),
        },
        2 => Packet::Sync {
            dst: gen_address(g),
            src: gen_address(g),
            id: g.u8(),
            fwd: gen_forwarding(g),
            seq: g.u8(),
            frag_count: g.u16(),
            total_len: g.u32(),
        },
        3 => Packet::Frag {
            dst: gen_address(g),
            src: gen_address(g),
            id: g.u8(),
            fwd: gen_forwarding(g),
            seq: g.u8(),
            index: g.u16(),
            data: g.bytes(0, codec::MAX_FRAG_PAYLOAD),
        },
        4 => Packet::Ack {
            dst: gen_address(g),
            src: gen_address(g),
            id: g.u8(),
            fwd: gen_forwarding(g),
            seq: g.u8(),
            index: g.u16(),
        },
        _ => Packet::Lost {
            dst: gen_address(g),
            src: gen_address(g),
            id: g.u8(),
            fwd: gen_forwarding(g),
            seq: g.u8(),
            missing: g.vec_of(0, 100, Gen::u16),
        },
    }
}

fn gen_modulation(g: &mut Gen) -> LoRaModulation {
    let sf = g.choose(&SpreadingFactor::ALL);
    let bw = g.choose(&Bandwidth::ALL);
    let cr = g.choose(&CodingRate::ALL);
    LoRaModulation::new(sf, bw, cr)
}

// ----------------------------------------------------------------------
// codec
// ----------------------------------------------------------------------

/// Every representable packet survives an encode/decode round trip.
#[test]
fn codec_round_trip() {
    forall("codec_round_trip", gen_packet, |packet| {
        let wire = codec::encode(packet).expect("all generated packets fit a frame");
        prop_assert!(wire.len() <= codec::MAX_FRAME_LEN);
        prop_assert_eq!(wire.len(), codec::encoded_len(packet));
        let back = codec::decode(&wire).expect("round trip");
        prop_assert_eq!(&back, packet);
        Ok(())
    });
}

/// Arbitrary bytes never panic the decoder: they decode or error.
#[test]
fn decoder_is_total() {
    forall(
        "decoder_is_total",
        |g| g.bytes(0, 300),
        |bytes| {
            decode_every_way(bytes);
            Ok(())
        },
    );
}

/// Feeds `bytes` to every wire decoder of both stacks: the mesh frame
/// codec (validating view and owned copy) and the flood payload codec.
fn decode_every_way(bytes: &[u8]) {
    let _ = codec::parse(bytes).map(|view| (view.src(), view.kind()));
    let _ = codec::decode(bytes);
    let _ = FloodMessage::decode(bytes);
}

fn gen_flood_message(g: &mut Gen) -> FloodMessage {
    let text = |g: &mut Gen| String::from_utf8_lossy(&g.bytes(0, 40)).into_owned();
    match g.usize_in(0, 3) {
        0 => FloodMessage::Text(text(g)),
        1 => FloodMessage::Position {
            latitude_i: g.u32() as i32,
            longitude_i: g.u32() as i32,
            altitude_m: g.u32() as i32,
        },
        2 => FloodMessage::NodeInfo {
            id: g.u32(),
            long_name: text(g),
            short_name: text(g),
            hw_model: g.u8(),
        },
        _ => FloodMessage::Telemetry {
            battery_pct: g.u8(),
            voltage_mv: g.u16(),
            channel_util_pct: g.u8(),
            uptime_s: g.u32(),
        },
    }
}

/// Corrupting any single byte of a valid mesh frame or flood payload
/// never panics.
#[test]
fn single_byte_corruption_is_safe() {
    forall(
        "single_byte_corruption_is_safe",
        |g| {
            let packet = gen_packet(g);
            let message = gen_flood_message(g);
            let pos = g.f64();
            let xor = g.int_in(1, 255) as u8;
            (packet, message, pos, xor)
        },
        |(packet, message, pos, xor)| {
            for mut wire in [codec::encode(packet).unwrap(), message.encode()] {
                let i = ((pos * wire.len() as f64) as usize).min(wire.len() - 1);
                wire[i] ^= xor;
                decode_every_way(&wire);
            }
            Ok(())
        },
    );
}

// ----------------------------------------------------------------------
// airtime
// ----------------------------------------------------------------------

/// Time-on-air is monotone in payload length for every modulation.
#[test]
fn airtime_monotone_in_payload() {
    forall(
        "airtime_monotone_in_payload",
        |g| {
            let m = gen_modulation(g);
            let a = g.usize_in(0, LoRaModulation::MAX_PHY_PAYLOAD);
            let b = g.usize_in(0, LoRaModulation::MAX_PHY_PAYLOAD);
            (m, a, b)
        },
        |&(m, a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(m.time_on_air(lo) <= m.time_on_air(hi));
            Ok(())
        },
    );
}

/// A frame always costs at least its preamble plus 8 payload symbols.
#[test]
fn airtime_lower_bound() {
    forall(
        "airtime_lower_bound",
        |g| (gen_modulation(g), g.usize_in(0, 255)),
        |&(m, len)| {
            let floor = m.preamble_time() + m.symbol_time() * 8;
            prop_assert!(m.time_on_air(len) >= floor);
            Ok(())
        },
    );
}

// ----------------------------------------------------------------------
// routing table
// ----------------------------------------------------------------------

/// Whatever hellos arrive: no route to self, no broadcast routes, vias
/// are known neighbours, metrics within bounds, and wire size is
/// consistent.
#[test]
fn routing_invariants() {
    forall(
        "routing_invariants",
        |g| {
            g.vec_of(1, 40, |g| {
                (g.int_in(1, 49) as u16, g.vec_of(0, 12, gen_route_entry))
            })
        },
        |hellos| {
            let me = Address::new(0xAAAA);
            let mut table = RoutingTable::new();
            let mut neighbours = std::collections::BTreeSet::new();
            for (i, (n, entries)) in hellos.iter().enumerate() {
                let neighbour = Address::new(*n);
                neighbours.insert(neighbour);
                table.apply_hello(
                    me,
                    neighbour,
                    0,
                    entries,
                    0.0,
                    Duration::from_secs(i as u64),
                );
            }
            for route in table.routes() {
                prop_assert_ne!(route.destination, me);
                prop_assert!(!route.destination.is_broadcast());
                prop_assert!(route.metric >= 1);
                prop_assert!(route.metric < RoutingTable::INFINITY_METRIC);
                // The next hop is always a node we have actually heard.
                prop_assert!(
                    neighbours.contains(&route.via),
                    "via {} not a neighbour",
                    route.via
                );
                // Direct means heard: a metric-1 route is never hearsay.
                prop_assert_eq!(route.via == route.destination, route.metric == 1);
            }
            Ok(())
        },
    );
}

/// Purging with a zero timeout empties the table; next_expiry is the
/// minimum of the remaining deadlines.
#[test]
fn purge_clears_everything_at_zero_timeout() {
    forall(
        "purge_clears_everything_at_zero_timeout",
        |g| g.vec_of(1, 20, |g| g.int_in(1, 99) as u16),
        |neighbours| {
            let mut table = RoutingTable::new();
            for (i, n) in neighbours.iter().enumerate() {
                table.heard_from(Address::new(*n), 0.0, Duration::from_secs(i as u64));
            }
            let purged = table.purge(Duration::from_secs(1000), Duration::ZERO);
            let unique: std::collections::BTreeSet<_> = neighbours.iter().collect();
            prop_assert_eq!(purged.len(), unique.len());
            prop_assert!(table.is_empty());
            prop_assert_eq!(table.next_expiry(Duration::from_secs(60)), None);
            Ok(())
        },
    );
}

// ----------------------------------------------------------------------
// reliable transfer
// ----------------------------------------------------------------------

/// Fragmenting then walking the happy path reassembles the exact payload
/// for arbitrary sizes and fragment limits.
#[test]
fn fragmentation_reassembles_exactly() {
    forall(
        "fragmentation_reassembles_exactly",
        |g| (g.bytes(1, 5000), g.usize_in(1, codec::MAX_FRAG_PAYLOAD)),
        |(payload, max_frag)| {
            let now = Duration::from_secs(1);
            let jitter = Duration::ZERO;
            let mut tx = OutboundTransfer::new(0, payload.clone(), *max_frag)
                .expect("at most 5 000 bytes fit a Sync");
            let mut rx = InboundTransfer::new(tx.frag_count(), now);

            prop_assert_eq!(tx.start(now, jitter), SenderAction::SendSync);
            rx.on_sync(now);
            let mut action = tx.on_ack(
                loramesher_repro::loramesher::packet::SYNC_ACK_INDEX,
                now,
                jitter,
            );
            let mut reassembled = None;
            while let SenderAction::SendFrag(i) = action {
                if let Some(Some(p)) = rx.on_frag(i, tx.fragment(i), now) {
                    reassembled = Some(p);
                }
                action = tx.on_ack(i, now, jitter);
            }
            prop_assert_eq!(action, SenderAction::Completed);
            prop_assert_eq!(&reassembled.expect("delivered"), payload);
            Ok(())
        },
    );
}

/// Losing an arbitrary subset of fragments and recovering through Lost
/// requests still reassembles the payload exactly.
#[test]
fn lost_recovery_reassembles() {
    forall(
        "lost_recovery_reassembles",
        |g| (g.bytes(100, 3000), g.u64()),
        |(payload, drop_mask)| {
            let now = Duration::from_secs(1);
            let tx = OutboundTransfer::new(0, payload.clone(), 100)
                .expect("at most 3 000 bytes fit a Sync");
            let mut rx = InboundTransfer::new(tx.frag_count(), now);
            // First pass: deliver only the fragments whose mask bit is set.
            let mut delivered = None;
            for i in 0..tx.frag_count() {
                if drop_mask >> (i % 64) & 1 == 1 {
                    if let Some(Some(p)) = rx.on_frag(i, tx.fragment(i), now) {
                        delivered = Some(p);
                    }
                }
            }
            // Recovery pass: send exactly what the receiver lists as missing.
            for i in rx.missing() {
                if let Some(Some(p)) = rx.on_frag(i, tx.fragment(i), now) {
                    delivered = Some(p);
                }
            }
            prop_assert!(rx.missing().is_empty());
            prop_assert_eq!(&delivered.expect("completed"), payload);
            Ok(())
        },
    );
}

// ----------------------------------------------------------------------
// duty cycle
// ----------------------------------------------------------------------

/// Whatever transmission pattern is attempted, the tracker never lets
/// the windowed airtime exceed the budget.
#[test]
fn duty_cycle_never_exceeds_budget() {
    forall(
        "duty_cycle_never_exceeds_budget",
        |g| g.vec_of(1, 200, |g| (g.int_in(0, 7199), g.int_in(1, 4999))),
        |attempts| {
            let mut tracker = DutyCycleTracker::new(0.01, Duration::from_secs(3600));
            let budget = tracker.budget();
            let mut sorted = attempts.clone();
            sorted.sort_unstable();
            for (at, ms) in sorted {
                let now = Duration::from_secs(at);
                let airtime = Duration::from_millis(ms);
                let _ = tracker.try_transmit(now, airtime);
                prop_assert!(tracker.used(now) <= budget);
            }
            Ok(())
        },
    );
}

/// Reference model for [`DutyCycleTracker`]: keeps every record for ever
/// and answers each question by filtering on `start >= now - window`.
struct DutyModel {
    duty: f64,
    window: Duration,
    records: Vec<(Duration, Duration)>,
}

impl DutyModel {
    fn regulated(&self) -> bool {
        self.duty < 1.0
    }
    fn budget(&self) -> Duration {
        self.window.mul_f64(self.duty)
    }
    fn in_window(&self, now: Duration) -> impl Iterator<Item = &(Duration, Duration)> {
        let horizon = now.saturating_sub(self.window);
        self.records.iter().filter(move |r| r.0 >= horizon)
    }
    /// Nothing counts against a budget that does not exist.
    fn used(&self, now: Duration) -> Duration {
        if !self.regulated() {
            return Duration::ZERO;
        }
        self.in_window(now).map(|r| r.1).sum()
    }
    fn would_allow(&self, now: Duration, airtime: Duration) -> bool {
        !self.regulated() || self.used(now) + airtime <= self.budget()
    }
    fn next_allowed(&self, now: Duration, airtime: Duration) -> Option<Duration> {
        if self.would_allow(now, airtime) {
            return Some(now);
        }
        if airtime > self.budget() {
            return None;
        }
        self.in_window(now)
            .map(|r| r.0 + self.window + Duration::from_micros(1))
            .find(|&t| self.would_allow(t, airtime))
    }
    fn total(&self) -> Duration {
        self.records.iter().map(|r| r.1).sum()
    }
}

/// The windowed tracker is indistinguishable from the keep-everything
/// model under any monotone sequence of calls — including `record`
/// without a preceding `would_allow`, several frames in one instant,
/// frames larger than the budget, gaps of exactly one window and of many
/// — while holding no more than the records of one window (none when
/// unregulated).
#[test]
fn duty_tracker_matches_keep_everything_model() {
    // (op, gap kind, gap, airtime as per-mille of the budget)
    type Step = (u64, u64, u64, u64);
    forall(
        "duty_tracker_matches_keep_everything_model",
        |g| {
            let duty = g.choose(&[0.001, 0.01, 0.1, 1.0]);
            let window_ms = g.choose(&[1_000u64, 60_000, 3_600_000]);
            let steps: Vec<Step> = g.vec_of(1, 80, |g| {
                (
                    g.int_in(0, 4),
                    g.int_in(0, 5),
                    g.int_in(0, 2_000),
                    g.int_in(1, 1_500),
                )
            });
            (duty, window_ms, steps)
        },
        |(duty, window_ms, steps)| {
            let window = Duration::from_millis(*window_ms);
            let mut tracker = DutyCycleTracker::new(*duty, window);
            let mut model = DutyModel {
                duty: *duty,
                window,
                records: Vec::new(),
            };
            prop_assert_eq!(tracker.budget(), model.budget());
            let mut now = Duration::ZERO;
            for &(op, gap_kind, gap, permille) in steps {
                now += match gap_kind {
                    0 => Duration::ZERO,                       // same instant
                    1 => Duration::from_nanos(gap),            // inside the 1 µs ε
                    2 => window.mul_f64(gap as f64 / 4_000.0), // part of a window
                    3 => window,                               // start == horizon
                    4 => window + Duration::from_nanos(gap),   // just past it
                    _ => window * (2 + gap as u32 % 7),        // many windows
                };
                let airtime = model.budget().mul_f64(permille as f64 / 1_000.0);
                match op {
                    0 => prop_assert_eq!(
                        tracker.would_allow(now, airtime),
                        model.would_allow(now, airtime)
                    ),
                    1 => {
                        let allowed = model.would_allow(now, airtime);
                        prop_assert_eq!(tracker.try_transmit(now, airtime), allowed);
                        if allowed {
                            model.records.push((now, airtime));
                        }
                    }
                    2 => {
                        tracker.record(now, airtime);
                        model.records.push((now, airtime));
                    }
                    3 => prop_assert_eq!(
                        tracker.next_allowed(now, airtime),
                        model.next_allowed(now, airtime)
                    ),
                    _ => prop_assert_eq!(tracker.used(now), model.used(now)),
                }
                prop_assert_eq!(tracker.total_airtime(), model.total());
                let bound = if model.regulated() {
                    model.in_window(now).count()
                } else {
                    0
                };
                prop_assert!(
                    tracker.history_len() <= bound,
                    "holds {} transmissions, {} recorded within one window of {:?}",
                    tracker.history_len(),
                    bound,
                    now
                );
            }
            Ok(())
        },
    );
}

// ----------------------------------------------------------------------
// MAC state machine
// ----------------------------------------------------------------------

/// Shared body of the MAC property: whatever sequence of channel
/// outcomes and frames the MAC sees, in any region and with CSMA on or
/// off (ALOHA), it never starts a transmission while one is on the air,
/// never transmits more windowed airtime than the duty budget allows,
/// never transmits a frame longer than the region's dwell limit, and
/// every drop leaves it ready for new work. What it sends, or drops, is
/// always the packet next due by a model of the queue (priority, then
/// FIFO; a full queue evicts the newest strictly-lower-priority
/// packet): a sent frame is exactly `codec::encode` of that packet, and
/// a drop names its kind.
fn check_mac_invariants(
    region: Region,
    csma: bool,
    events: &[(bool, usize, PacketKind)],
    seed: u64,
) -> Result<(), String> {
    let modulation = mac_modulation();
    let mut mac = Mac::new(region, modulation, csma);
    let dwell = region
        .sub_band_for(region.default_frequency_hz())
        .and_then(|b| b.max_dwell);
    let mut txq = TxQueue::new(4);
    let mut model = QueueModel::new(4);
    let mut rng = ProtocolRng::new(seed);
    let mut now = Duration::ZERO;
    let mut on_air: Option<Duration> = None;
    let mut history: Vec<(Duration, Duration)> = Vec::new();
    let budget = mac.duty().budget();
    let window = Duration::from_secs(3600);

    for (id, &(busy, len, kind)) in (0u8..=u8::MAX).cycle().zip(events) {
        let packet = mac_frame(kind, id, len);
        // Refused while the queue is full of equal or higher priority.
        prop_assert_eq!(txq.push(&packet), model.push(packet));
        if let Some(end) = on_air.take() {
            // A kick in mid-frame must leave the radio alone.
            let mut io = RadioIo::new(now);
            let outcome = mac.kick(&mut txq, &mut io);
            prop_assert_eq!(outcome, TxOutcome::Idle);
            prop_assert!(io.take_requests().is_empty(), "overlapping transmissions");
            now = now.max(end);
            mac.on_tx_done();
        }
        let mut io = RadioIo::new(now);
        let mut outcome = mac.kick(&mut txq, &mut io);
        let mut requests = io.take_requests();
        if requests == [RadioRequest::StartCad] {
            prop_assert!(csma, "ALOHA never scans the channel");
            prop_assert_eq!(outcome, TxOutcome::Idle);
            let mut io = RadioIo::new(now);
            outcome = mac.on_cad_done(busy, &mut txq, &mut rng, &mut io);
            requests = io.take_requests();
        }
        match outcome {
            TxOutcome::Sent { airtime } => {
                prop_assert!(
                    matches!(requests.as_slice(), [RadioRequest::Transmit(f)]
                        if modulation.time_on_air(f.len()) == airtime),
                    "a sent frame is one transmit request: {requests:?}"
                );
                let due = model.pop().ok_or("sent from an empty queue")?;
                prop_assert!(
                    matches!(requests.as_slice(), [RadioRequest::Transmit(f)]
                        if codec::encode(&due).as_deref() == Ok(&f[..])),
                    "sent {requests:?}, but {due:?} was due"
                );
                prop_assert!(
                    dwell.is_none_or(|d| airtime <= d),
                    "dwell limit exceeded: {airtime:?} > {dwell:?}"
                );
                on_air = Some(now + airtime);
                history.push((now, airtime));
                // Airtime within the sliding regulatory window.
                let horizon = now.saturating_sub(window);
                let windowed: Duration = history
                    .iter()
                    .filter(|(start, _)| *start >= horizon)
                    .map(|(_, a)| *a)
                    .sum();
                prop_assert!(
                    windowed <= budget,
                    "duty budget exceeded: {windowed:?} > {budget:?}"
                );
            }
            TxOutcome::Dropped { kind } => {
                let due = model.pop().ok_or("dropped from an empty queue")?;
                prop_assert_eq!(kind, due.kind());
                prop_assert!(mac.is_ready(), "drop must leave the MAC ready");
                prop_assert!(
                    requests.is_empty(),
                    "a dropped frame never reaches the radio"
                );
            }
            TxOutcome::Idle => prop_assert!(
                requests.iter().all(|r| *r == RadioRequest::StartCad),
                "no transmission without a Sent outcome: {requests:?}"
            ),
        }
        prop_assert_eq!(txq.len(), model.len());
        // Jump to any pending deadline so the machine can progress.
        match mac.next_wake(&txq) {
            Some(wake) => now = now.max(wake),
            None => now += Duration::from_millis(50),
        }
    }
    Ok(())
}

/// SF10 at 125 kHz: data frames from ~0.3 s to ~2.3 s on air, either
/// side of US915's 400 ms dwell limit.
fn mac_modulation() -> LoRaModulation {
    LoRaModulation::new(SpreadingFactor::Sf10, Bandwidth::Khz125, CodingRate::Cr4_5)
}

/// A frame of `kind` for the MAC property, sized by `len`: a Data
/// payload of `len` bytes, a Hello of `len / 4` entries (at most what
/// one frame carries), or a fixed-size Ack.
fn mac_frame(kind: PacketKind, id: u8, len: usize) -> Packet {
    let fwd = Forwarding {
        via: Address::BROADCAST,
        ttl: 1,
    };
    let (dst, src) = (Address::BROADCAST, Address::new(1));
    match kind {
        PacketKind::Hello => Packet::Hello {
            src,
            id,
            role: 0,
            entries: (2..)
                .take((len / 4).min(codec::MAX_HELLO_ENTRIES))
                .map(|a| RouteEntry {
                    address: Address::new(a),
                    metric: 1,
                    role: 0,
                })
                .collect(),
        },
        PacketKind::Ack => Packet::Ack {
            dst,
            src,
            id,
            fwd,
            seq: 0,
            index: 0,
        },
        _ => Packet::Data {
            dst,
            src,
            id,
            fwd,
            payload: vec![0; len],
        },
    }
}

/// The transmit queue's contract, kept as plain packets: three FIFOs by
/// priority, bounded in total; a packet arriving at a full queue evicts
/// the newest packet of the lowest strictly-lower priority, or is
/// refused.
struct QueueModel {
    levels: [std::collections::VecDeque<Packet>; 3],
    capacity: usize,
}

impl QueueModel {
    fn new(capacity: usize) -> Self {
        QueueModel {
            levels: Default::default(),
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    fn push(&mut self, packet: Packet) -> bool {
        let level = Priority::of(packet.kind()) as usize;
        if self.len() >= self.capacity {
            match self.levels[level + 1..]
                .iter_mut()
                .rev()
                .find(|l| !l.is_empty())
            {
                Some(victim) => {
                    victim.pop_back();
                }
                None => return false,
            }
        }
        self.levels[level].push_back(packet);
        true
    }

    fn pop(&mut self) -> Option<Packet> {
        self.levels.iter_mut().find_map(|l| l.pop_front())
    }
}

/// Historical counterexample once recorded by the property runner (a
/// long run of idle-channel CAD outcomes that used to overdraw the duty
/// budget), pinned as an explicit case so it is re-checked on every run.
#[test]
fn mac_regression_idle_channel_duty_overdraw() {
    let events: [(bool, u64); 31] = [
        (false, 1678),
        (false, 1015),
        (false, 1031),
        (false, 1626),
        (false, 950),
        (false, 1928),
        (false, 1929),
        (false, 1036),
        (false, 1854),
        (false, 1777),
        (false, 1481),
        (false, 735),
        (false, 1037),
        (false, 652),
        (false, 567),
        (false, 1741),
        (false, 953),
        (false, 1344),
        (false, 1375),
        (false, 1478),
        (false, 1502),
        (false, 755),
        (false, 601),
        (false, 998),
        (false, 1695),
        (false, 1331),
        (false, 636),
        (false, 673),
        (false, 912),
        (false, 711),
        (false, 711),
    ];
    // Each pinned airtime becomes the shortest frame lasting at least as
    // long under the property's modulation.
    let lens: Vec<(bool, usize, PacketKind)> = events
        .iter()
        .map(|&(busy, ms)| {
            let len = (1..=codec::MAX_DATA_PAYLOAD)
                .find(|&len| {
                    let frame = mac_frame(PacketKind::Data, 0, len);
                    mac_modulation().time_on_air(codec::encoded_len(&frame))
                        >= Duration::from_millis(ms)
                })
                .unwrap();
            (busy, len, PacketKind::Data)
        })
        .collect();
    check_mac_invariants(Region::Eu868, true, &lens, 0).unwrap();
}

#[test]
fn mac_invariants_under_random_channel() {
    forall(
        "mac_invariants_under_random_channel",
        |g| {
            let region = g.choose(&[Region::Eu868, Region::Us915, Region::Unlimited]);
            let csma = g.bool(0.5);
            // A mostly busy channel in some cases, so runs of more than
            // `MAX_CAD_RETRIES` busy verdicts (CAD drops) occur too.
            let busy = g.choose(&[0.5, 0.95]);
            // Mostly data, so each priority level sees evictions and FIFO
            // runs of its own.
            let kinds = [
                PacketKind::Data,
                PacketKind::Data,
                PacketKind::Hello,
                PacketKind::Ack,
            ];
            let events = g.vec_of(1, 200, |g| {
                (
                    g.bool(busy),
                    g.usize_in(1, codec::MAX_DATA_PAYLOAD),
                    g.choose(&kinds),
                )
            });
            (region, csma, events, g.u64())
        },
        |(region, csma, events, seed)| check_mac_invariants(*region, *csma, events, *seed),
    );
}

// ----------------------------------------------------------------------
// simulator RNG
// ----------------------------------------------------------------------

/// Forked streams never collide for distinct ids (first few outputs).
#[test]
fn rng_forks_are_independent() {
    forall(
        "rng_forks_are_independent",
        |g| {
            let a = g.int_in(0, 999);
            let mut b = g.int_in(0, 999);
            if b == a {
                b = (a + 1) % 1000;
            }
            (g.u64(), a, b)
        },
        |&(seed, a, b)| {
            let root = SimRng::new(seed);
            let mut fa = root.fork(a);
            let mut fb = root.fork(b);
            let va: Vec<u64> = (0..4).map(|_| fa.next_u64()).collect();
            let vb: Vec<u64> = (0..4).map(|_| fb.next_u64()).collect();
            prop_assert_ne!(va, vb);
            Ok(())
        },
    );
}

/// gen_range stays in bounds for arbitrary bounds.
#[test]
fn rng_range_in_bounds() {
    forall(
        "rng_range_in_bounds",
        |g| (g.u64(), g.int_in(1, u64::MAX - 1)),
        |&(seed, bound)| {
            let mut rng = SimRng::new(seed);
            for _ in 0..16 {
                prop_assert!(rng.gen_range(bound) < bound);
            }
            Ok(())
        },
    );
}
