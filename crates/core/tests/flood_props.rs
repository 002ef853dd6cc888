//! Property tests for the managed-flooding stack's duplicate-suppression
//! cache, driven through [`FloodNode`]'s public sans-IO surface (the
//! cache itself is crate-private — these pin its *observable* contract):
//!
//! * a relay rebroadcasts each distinct `(origin, id)` flood at most
//!   once, however the duplicates are interleaved;
//! * the seen-cache never holds more entries than its
//!   capacity, whatever traffic pattern it absorbs;
//! * a frame whose hop limit is spent is never forwarded;
//! * the cache forgets in arrival order: the relay forwards exactly the
//!   frames a reference FIFO set of the same capacity calls new, however
//!   its relays are released.
//!
//! Uses the in-repo `testkit` harness: failures print a replayable
//! `TESTKIT_SEED` and a shrunk counterexample.

use std::collections::VecDeque;
use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::region::Region;
use loramesher::codec;
use loramesher::driver::{NodeProtocol, RadioIo, RadioRequest};
use loramesher::flood::{FloodConfig, FloodNode, SEEN_CACHE};
use loramesher::packet::{Forwarding, Packet};
use loramesher::queue::TX_QUEUE_CAPACITY;
use loramesher::Address;
use testkit::{forall, prop_assert, prop_assert_eq, Gen};

/// The relay under test. Address 1; origins are drawn from 2..=5.
const RELAY: Address = Address::new(1);

fn relay_node() -> FloodNode {
    let mut node = FloodNode::new(FloodConfig::new(RELAY));
    let mut io = RadioIo::new(Duration::ZERO);
    node.on_start(&mut io);
    node
}

/// One incoming flood frame as the generator draws it.
#[derive(Debug)]
struct ArbFlood {
    origin: Address,
    id: u8,
    dst: Address,
    ttl: u8,
    snr: f64,
    payload: Vec<u8>,
}

impl ArbFlood {
    fn wire(&self) -> Vec<u8> {
        codec::encode(&Packet::Data {
            dst: self.dst,
            src: self.origin,
            id: self.id,
            fwd: Forwarding {
                via: Address::BROADCAST,
                ttl: self.ttl,
            },
            payload: self.payload.clone(),
        })
        .expect("generated frames fit the wire format")
    }
}

/// Feeds `flood` to the node at `now` with the flood's SNR.
fn receive(node: &mut FloodNode, flood: &ArbFlood, now: Duration) {
    let quality = SignalQuality {
        snr: flood.snr,
        ..SignalQuality::ideal()
    };
    let mut io = RadioIo::new(now);
    node.on_frame(&flood.wire(), quality, &mut io);
}

/// Runs the node's radio loop from `now` until it goes idle, following
/// the wake-up times it schedules (MAC backoffs between frames) and
/// returning every transmitted frame. CAD scans report a clear channel.
fn drain(node: &mut FloodNode, mut now: Duration) -> Vec<std::sync::Arc<[u8]>> {
    let mut frames = Vec::new();
    let mut guard = 0;
    loop {
        guard += 1;
        assert!(guard < 10_000, "runaway radio loop");
        let mut io = RadioIo::new(now);
        node.on_timer(&mut io);
        let mut requests = io.take_requests();
        while let Some(req) = requests.pop() {
            guard += 1;
            assert!(guard < 10_000, "runaway radio loop");
            let mut io = RadioIo::new(now);
            match req {
                RadioRequest::StartCad => node.on_cad_done(false, &mut io),
                RadioRequest::Transmit(f) => {
                    frames.push(f);
                    node.on_tx_done(&mut io);
                }
            }
            requests.extend(io.take_requests());
        }
        match node.next_wake() {
            Some(at) => now = now.max(at),
            None => return frames,
        }
    }
}

/// The distinct `(origin, id)` keys of a batch, in sorted order.
fn distinct_keys(floods: &[ArbFlood]) -> Vec<(Address, u8)> {
    let mut keys: Vec<(Address, u8)> = floods.iter().map(|f| (f.origin, f.id)).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Far enough in the future that every pending relay delay (bounded by
/// the rebroadcast window plus queue backoff) has elapsed.
const LATER: Duration = Duration::from_secs(3600);

#[test]
fn relay_never_rebroadcasts_a_duplicate() {
    forall(
        "relay_never_rebroadcasts_a_duplicate",
        |g: &mut Gen| {
            // Ids from a tiny space and origins from two addresses force
            // plenty of (origin, id) collisions in arrival order.
            g.vec_of(1, 24, |g| ArbFlood {
                origin: Address::new(g.int_in(2, 3) as u16),
                id: g.int_in(0, 7) as u8,
                dst: Address::new(9), // somebody else: always a relay case
                ttl: g.int_in(2, 7) as u8,
                snr: g.f64() * 30.0 - 10.0,
                payload: g.bytes(1, 32),
            })
        },
        |floods| {
            let mut node = relay_node();
            for (i, flood) in floods.iter().enumerate() {
                receive(&mut node, flood, Duration::from_millis(i as u64));
            }
            let sent = drain(&mut node, LATER);
            let distinct = distinct_keys(floods);
            prop_assert_eq!(sent.len(), distinct.len());
            prop_assert_eq!(
                node.stats().duplicates_suppressed,
                (floods.len() - distinct.len()) as u64
            );
            // The same floods arriving again are all duplicates now.
            for (i, flood) in floods.iter().enumerate() {
                receive(&mut node, flood, LATER + Duration::from_millis(i as u64));
            }
            prop_assert_eq!(drain(&mut node, LATER * 2).len(), 0);
            Ok(())
        },
    );
}

#[test]
fn seen_cache_memory_stays_bounded() {
    forall(
        "seen_cache_memory_stays_bounded",
        |g: &mut Gen| {
            // Unicasts addressed *to* the relay: every distinct frame
            // populates the cache without queueing a rebroadcast, so
            // the traffic volume is unconstrained by the tx queue. Up
            // to three times the cache's capacity.
            g.vec_of(1, 3 * SEEN_CACHE, |g| ArbFlood {
                origin: Address::new(g.int_in(2, 5) as u16),
                id: g.u8(),
                dst: RELAY,
                ttl: g.int_in(1, 7) as u8,
                snr: 10.0,
                payload: g.bytes(1, 8),
            })
        },
        |floods| {
            let mut node = relay_node();
            prop_assert_eq!(node.seen_capacity(), SEEN_CACHE);
            for (i, flood) in floods.iter().enumerate() {
                receive(&mut node, flood, Duration::from_millis(i as u64));
                prop_assert!(
                    node.seen_len() <= node.seen_capacity(),
                    "cache held {} entries with capacity {}",
                    node.seen_len(),
                    node.seen_capacity()
                );
            }
            Ok(())
        },
    );
}

#[test]
fn spent_hop_limit_is_never_forwarded() {
    forall(
        "spent_hop_limit_is_never_forwarded",
        |g: &mut Gen| {
            g.vec_of(1, 24, |g| ArbFlood {
                origin: Address::new(g.int_in(2, 5) as u16),
                id: g.u8(),
                dst: if g.bool(0.5) {
                    Address::BROADCAST
                } else {
                    Address::new(9)
                },
                // Arriving with 0 or 1 hop left: decrementing exhausts
                // the budget, so the flood must die at this relay.
                ttl: g.int_in(0, 1) as u8,
                snr: g.f64() * 30.0 - 10.0,
                payload: g.bytes(1, 32),
            })
        },
        |floods| {
            let mut node = relay_node();
            for (i, flood) in floods.iter().enumerate() {
                receive(&mut node, flood, Duration::from_millis(i as u64));
            }
            prop_assert_eq!(node.pending_relays(), 0);
            prop_assert_eq!(drain(&mut node, LATER).len(), 0);
            // Duplicates are suppressed before the hop-limit check, so
            // only first sightings count as hop-limit drops.
            prop_assert_eq!(
                node.stats().hop_limit_drops,
                distinct_keys(floods).len() as u64
            );
            Ok(())
        },
    );
}

/// The reference seen-cache: a sorted key set plus the same keys in
/// arrival order, evicting the oldest new key once `capacity` are held.
struct ReferenceFifo {
    seen: Vec<u32>,
    order: VecDeque<u32>,
    capacity: usize,
}

impl ReferenceFifo {
    fn new(capacity: usize) -> Self {
        ReferenceFifo {
            seen: Vec::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Records `(origin, id)`; `true` when the key was not held.
    fn insert(&mut self, origin: Address, id: u8) -> bool {
        let key = u32::from(origin.value()) << 8 | u32::from(id);
        let Err(mut at) = self.seen.binary_search(&key) else {
            return false;
        };
        if self.order.len() == self.capacity {
            let evicted = self.order.pop_front();
            if let Some(gone) = evicted.and_then(|old| self.seen.binary_search(&old).ok()) {
                self.seen.remove(gone);
                at -= usize::from(gone < at);
            }
        }
        self.seen.insert(at, key);
        self.order.push_back(key);
        true
    }
}

#[test]
fn relay_forwards_exactly_what_a_fifo_set_calls_new() {
    forall(
        "relay_forwards_exactly_what_a_fifo_set_calls_new",
        |g: &mut Gen| {
            let origins = g.usize_in(1, 4);
            // Each origin counts its ids up from a random start, so they
            // wrap past 255. Every step sends one origin's next id, which
            // is always new; half the steps then repeat an id up to 64
            // back, which the cache may or may not still hold. There are
            // more steps than the cache holds keys, so every case
            // overflows it. After one frame in twenty the relay drains
            // what it has pending.
            let mut next: Vec<u8> = (0..origins).map(|_| g.u8()).collect();
            let steps = g.len_in(SEEN_CACHE + 1, 3 * SEEN_CACHE);
            let mut frames = Vec::with_capacity(2 * steps);
            for _ in 0..steps {
                let o = g.usize_in(0, origins - 1);
                let origin = Address::new(2 + o as u16);
                frames.push((origin, next[o], g.bool(0.05)));
                next[o] = next[o].wrapping_add(1);
                if g.bool(0.5) {
                    let back = next[o].wrapping_sub(g.int_in(1, 64) as u8);
                    frames.push((origin, back, g.bool(0.05)));
                }
            }
            frames
        },
        |frames| {
            let mut config = FloodConfig::new(RELAY);
            config.region = Region::Unlimited;
            let mut node = FloodNode::new(config);
            let mut io = RadioIo::new(Duration::ZERO);
            node.on_start(&mut io);
            let mut reference = ReferenceFifo::new(SEEN_CACHE);
            let (mut expected, mut forwarded) = (Vec::new(), Vec::new());
            let mut now = Duration::ZERO;
            for (i, &(origin, id, drain_after)) in frames.iter().enumerate() {
                let flood = ArbFlood {
                    origin,
                    id,
                    dst: Address::new(9),
                    ttl: 3,
                    snr: 10.0,
                    payload: (i as u16).to_le_bytes().to_vec(),
                };
                let suppressed = node.stats().duplicates_suppressed;
                now += Duration::from_millis(1);
                receive(&mut node, &flood, now);
                let new = reference.insert(origin, id);
                prop_assert!(
                    node.stats().duplicates_suppressed - suppressed == u64::from(!new),
                    "frame {i} ({origin:?}, {id}) should read as {}",
                    if new { "new" } else { "a duplicate" }
                );
                if new {
                    expected.push(flood.payload);
                }
                // Drained before the relays due at once could outgrow
                // the transmit queue.
                let full = node.pending_relays() == TX_QUEUE_CAPACITY;
                if drain_after || full || i + 1 == frames.len() {
                    forwarded.extend(drain(&mut node, now));
                    now += LATER;
                }
            }
            // Relays leave in deadline order, not arrival order: compare
            // the frames' indices as sets.
            let mut forwarded: Vec<Vec<u8>> = forwarded
                .iter()
                .map(|wire| match codec::decode(wire) {
                    Ok(Packet::Data { payload, .. }) => payload,
                    other => panic!("relay sent {other:?}"),
                })
                .collect();
            prop_assert!(
                expected.len() > SEEN_CACHE,
                "{} new keys never overflow the cache",
                expected.len()
            );
            prop_assert_eq!(node.stats().queue_refusals, 0);
            forwarded.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(forwarded, expected);
            prop_assert_eq!(node.seen_len(), reference.order.len());
            Ok(())
        },
    );
}
