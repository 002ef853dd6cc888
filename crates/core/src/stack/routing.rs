//! The routing layer: the hello daemon and the distance-vector table.
//!
//! Owns the [`RoutingTable`] (hop count, with the SNR tie-break as the
//! configured policy allows), the hello schedule, and the hello
//! wire cache: while the table's hello-visible content is unchanged,
//! consecutive hellos reuse one encoded image — and one shared
//! `Arc<[u8]>` — with only the packet-id byte rewritten, so the
//! steady-state beacon costs neither a re-serialisation nor a frame
//! copy.
//!
//! Unicast packets addressed *through* this node come back here too:
//! [`RoutingLayer::forward`] rewrites the `via`/TTL pair and re-queues
//! the packet over the bus.

use alloc::sync::Arc;
use alloc::vec::Vec;
use core::time::Duration;

use crate::addr::Address;
use crate::codec::{self, FrameView, HelloView};
use crate::config::MeshConfig;
use crate::error::SendError;
use crate::mac::WireCache;
use crate::packet::{Packet, RouteEntry};
use crate::routing::{Route, RoutingTable};
use crate::stack::app::MeshEvent;
use crate::stack::bus::Bus;

/// Routing state; see the module docs.
#[derive(Debug)]
pub(crate) struct RoutingLayer {
    pub(crate) table: RoutingTable,
    /// When the next hello broadcast is due.
    pub(crate) next_hello: Duration,
    /// Hello frame cache: while the routing table's
    /// [`RoutingTable::version`] matches `hello_version`, consecutive
    /// hellos carry identical entries, so the wire image is reused with
    /// only the packet-id byte patched instead of re-serialising the
    /// whole table every beacon interval. A repeated hello's entries are
    /// read back from it.
    pub(crate) hello_wire: Vec<u8>,
    /// The shared frame handed to the host; refreshed from
    /// `hello_wire` in place while uniquely owned, so steady-state
    /// beacons transmit without allocating.
    hello_arc: Option<Arc<[u8]>>,
    pub(crate) hello_version: Option<u64>,
    hello_wire_id: Option<u8>,
}

impl RoutingLayer {
    pub(crate) fn new(config: &MeshConfig) -> Self {
        RoutingLayer {
            table: RoutingTable::with_policy(config.routing_policy),
            next_hello: Duration::ZERO,
            hello_wire: Vec::new(),
            hello_arc: None,
            hello_version: None,
            hello_wire_id: None,
        }
    }

    /// The next hop for `dst`, or the broadcast pseudo-address.
    pub(crate) fn resolve_via(&self, dst: Address) -> Result<Address, SendError> {
        if dst.is_broadcast() {
            Ok(Address::BROADCAST)
        } else {
            self.table.next_hop(dst).ok_or(SendError::NoRoute(dst))
        }
    }

    /// Applies a received hello to the table (dispatch from `on_frame`;
    /// the caller counts it in the bus stats).
    pub(crate) fn on_hello(&mut self, me: Address, hello: &HelloView<'_>, snr: f64, now: Duration) {
        self.table
            .apply_adverts(me, hello.src, hello.role, hello.entries(), snr, now);
    }

    /// Step 1 of the dispatch order: purge routes past the timeout and
    /// tell the application which destinations went unreachable.
    pub(crate) fn expire(&mut self, now: Duration, config: &MeshConfig, bus: &mut Bus) {
        if let Some(expiry) = self.table.next_expiry(config.route_timeout) {
            if expiry <= now {
                let purged = self.table.purge(now, config.route_timeout);
                if !purged.is_empty() {
                    bus.emit(MeshEvent::RoutesExpired {
                        destinations: purged,
                    });
                }
            }
        }
    }

    fn schedule_next_hello(&mut self, now: Duration, config: &MeshConfig, bus: &mut Bus) {
        // ±10 % jitter desynchronises neighbours that booted together.
        let jitter = if config.hello_jitter {
            0.9 + 0.2 * bus.rng.gen_f64()
        } else {
            1.0
        };
        self.next_hello = now + config.hello_interval.mul_f64(jitter);
    }

    /// Boot-time hello schedule: first beacon 1–5 s after start (jittered
    /// so co-booted nodes do not collide, unless the ablation is active).
    pub(crate) fn schedule_first_hello(
        &mut self,
        now: Duration,
        config: &MeshConfig,
        bus: &mut Bus,
    ) {
        let jitter = if config.hello_jitter {
            Duration::from_millis(bus.rng.gen_range(4000))
        } else {
            Duration::ZERO
        };
        self.next_hello = now + Duration::from_secs(1) + jitter;
    }

    /// Step 2 of the dispatch order: queue the periodic routing
    /// broadcast and schedule the next one.
    pub(crate) fn emit_hello(&mut self, now: Duration, config: &MeshConfig, bus: &mut Bus) {
        let id = bus.next_id();
        let hello = if let Some(entries) = self.repeat_entries(id) {
            Packet::Hello {
                src: config.address,
                id,
                role: config.role,
                entries,
            }
        } else {
            let entries = self
                .table
                .routes()
                .take(codec::MAX_HELLO_ENTRIES)
                .map(Route::as_entry)
                .collect();
            let hello = Packet::Hello {
                src: config.address,
                id,
                role: config.role,
                entries,
            };
            match codec::encode_into(&hello, &mut self.hello_wire) {
                Ok(()) => {
                    self.hello_version = Some(self.table.version());
                    self.hello_wire_id = Some(id);
                }
                Err(_) => {
                    // Unencodable hello (cannot happen with the entry cap,
                    // but stay safe): poison the cache.
                    self.hello_version = None;
                    self.hello_wire_id = None;
                    self.hello_wire.clear();
                }
            }
            hello
        };
        if bus.enqueue(hello) {
            bus.stats.hellos_sent += 1;
        }
        self.schedule_next_hello(now, config, bus);
    }

    /// When the table's Hello-visible content is unchanged since the
    /// cached encoding, only the packet id differs: patches that single
    /// byte instead of re-serialising the whole table, and returns the
    /// entries read back off the wire. `None` sends the caller to a
    /// fresh encoding: no cache, or one that does not parse.
    fn repeat_entries(&mut self, id: u8) -> Option<Vec<RouteEntry>> {
        if self.hello_version != Some(self.table.version()) {
            return None;
        }
        if let Some(b) = self.hello_wire.get_mut(codec::HEADER_ID_OFFSET) {
            *b = id;
        }
        let Ok(FrameView::Hello(view)) = codec::parse(&self.hello_wire) else {
            return None;
        };
        self.hello_wire_id = Some(id);
        Some(view.entries().collect())
    }

    /// The cached hello frame for packet id `id`, as the shared bytes
    /// the host transmits. Refreshes the `Arc` from `hello_wire` —
    /// rewriting it in place when this layer holds the only reference
    /// (the steady state once the host has released the previous
    /// beacon), reallocating otherwise.
    pub(crate) fn cached_wire(&mut self, id: u8) -> Option<Arc<[u8]>> {
        if self.hello_wire_id != Some(id) || self.hello_wire.is_empty() {
            return None;
        }
        let arc = match self.hello_arc.take() {
            Some(mut arc) if arc.len() == self.hello_wire.len() => {
                if let Some(bytes) = Arc::get_mut(&mut arc) {
                    bytes.copy_from_slice(&self.hello_wire);
                    arc
                } else {
                    Arc::from(self.hello_wire.as_slice())
                }
            }
            _ => Arc::from(self.hello_wire.as_slice()),
        };
        self.hello_arc = Some(arc.clone());
        Some(arc)
    }

    /// Forwards a unicast packet addressed through this node: TTL check,
    /// `via` rewrite, re-queue.
    pub(crate) fn forward(&mut self, mut packet: Packet, bus: &mut Bus) {
        let dst = packet.dst();
        let Some(next) = self.table.next_hop(dst) else {
            bus.stats.no_route_drops += 1;
            return;
        };
        // Only unicast packets reach here; a Hello without forwarding
        // would be a caller bug — drop it rather than panic.
        let Some(fwd) = packet.forwarding_mut() else {
            debug_assert!(false, "only unicast packets are forwarded");
            return;
        };
        if fwd.ttl <= 1 {
            bus.stats.ttl_expired += 1;
            return;
        }
        fwd.ttl -= 1;
        fwd.via = next;
        if bus.enqueue(packet) {
            bus.stats.forwarded += 1;
        }
    }
}

/// LoRaMesher's wire cache: only the periodic hello beacon carries a
/// pre-encoded image (see [`RoutingLayer::cached_wire`]).
impl WireCache for RoutingLayer {
    fn wire_for(&mut self, packet: &Packet) -> Option<Arc<[u8]>> {
        match packet {
            Packet::Hello { id, .. } => self.cached_wire(*id),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Forwarding;
    use alloc::vec;

    const A1: Address = Address::new(1);
    const A2: Address = Address::new(2);
    const A3: Address = Address::new(3);

    fn parts() -> (MeshConfig, RoutingLayer, Bus) {
        let config = MeshConfig::builder(A1)
            .hello_interval(Duration::from_secs(30))
            .build();
        let routing = RoutingLayer::new(&config);
        let bus = Bus::new(config.seed);
        (config, routing, bus)
    }

    #[test]
    fn hello_wire_cache_patches_id_until_table_changes() {
        let (config, mut r, mut bus) = parts();
        r.table.heard_from(A2, 0.0, Duration::ZERO);
        r.emit_hello(Duration::ZERO, &config, &mut bus);
        let first_wire = r.hello_wire.clone();
        let v = r.hello_version;
        assert!(v.is_some());
        // Unchanged table: the cached wire image is reused with only the
        // packet-id byte rewritten.
        r.emit_hello(Duration::from_secs(30), &config, &mut bus);
        assert_eq!(r.hello_version, v, "unchanged table must not re-encode");
        assert_eq!(first_wire.len(), r.hello_wire.len());
        let diff: Vec<usize> = first_wire
            .iter()
            .zip(r.hello_wire.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diff, vec![codec::HEADER_ID_OFFSET]);
        // A routing change invalidates the cache and re-encodes.
        r.table.heard_from(A3, 0.0, Duration::from_secs(31));
        r.emit_hello(Duration::from_secs(60), &config, &mut bus);
        assert_ne!(r.hello_version, v);
        match codec::decode(&r.hello_wire).unwrap() {
            Packet::Hello { entries, .. } => assert_eq!(entries.len(), 2),
            p => panic!("unexpected {p:?}"),
        }
        assert_eq!(bus.stats.hellos_sent, 3);
    }

    /// A repeated hello carries the entries read back off the cached
    /// wire; a cached wire that does not parse is encoded afresh, never
    /// sent as an empty hello.
    #[test]
    fn a_repeat_reads_its_entries_off_the_wire_or_encodes_afresh() {
        let (config, mut r, mut bus) = parts();
        r.table.heard_from(A2, 0.0, Duration::ZERO);
        r.table.heard_from(A3, 0.0, Duration::ZERO);
        let mut sent = Vec::new();
        for k in 0..3 {
            if k == 2 {
                r.hello_wire.truncate(3);
            }
            r.emit_hello(Duration::from_secs(30 * k), &config, &mut bus);
            match bus.txq.pop() {
                Some(Packet::Hello { entries, .. }) => sent.push(entries),
                p => panic!("unexpected {p:?}"),
            }
        }
        let all: Vec<RouteEntry> = r.table.routes().map(Route::as_entry).collect();
        assert_eq!(sent, vec![all.clone(), all.clone(), all]);
        assert!(codec::parse(&r.hello_wire).is_ok(), "the cache was rebuilt");
    }

    /// Steady state: the shared frame is rewritten in place, not
    /// reallocated — consecutive beacons hand out the *same* `Arc`.
    #[test]
    fn cached_wire_reuses_the_shared_allocation() {
        let (config, mut r, mut bus) = parts();
        r.table.heard_from(A2, 0.0, Duration::ZERO);
        r.emit_hello(Duration::ZERO, &config, &mut bus);
        let id1 = match bus.txq.pop() {
            Some(Packet::Hello { id, .. }) => id,
            p => panic!("unexpected {p:?}"),
        };
        let first = r.cached_wire(id1).expect("cache hit");
        assert_eq!(&first[..], &r.hello_wire[..]);
        let first_ptr = first.as_ptr();
        drop(first); // the host released the frame: refcount back to 1
        r.emit_hello(Duration::from_secs(30), &config, &mut bus);
        let id2 = match bus.txq.pop() {
            Some(Packet::Hello { id, .. }) => id,
            p => panic!("unexpected {p:?}"),
        };
        assert_ne!(id1, id2);
        let second = r.cached_wire(id2).expect("cache hit");
        assert_eq!(
            second.as_ptr(),
            first_ptr,
            "steady state must not reallocate"
        );
        assert_eq!(&second[..], &r.hello_wire[..]);
        // A stale id misses the cache entirely.
        assert!(r.cached_wire(id2.wrapping_add(1)).is_none());
    }

    /// While the host still holds the previous beacon, the cache must
    /// not mutate it — it hands out a fresh allocation instead.
    #[test]
    fn cached_wire_never_mutates_a_frame_the_host_still_holds() {
        let (config, mut r, mut bus) = parts();
        r.table.heard_from(A2, 0.0, Duration::ZERO);
        r.emit_hello(Duration::ZERO, &config, &mut bus);
        let Some(Packet::Hello { id: id1, .. }) = bus.txq.pop() else {
            panic!("expected hello");
        };
        let held = r.cached_wire(id1).expect("cache hit");
        let held_bytes: Vec<u8> = held.to_vec();
        r.emit_hello(Duration::from_secs(30), &config, &mut bus);
        let Some(Packet::Hello { id: id2, .. }) = bus.txq.pop() else {
            panic!("expected hello");
        };
        let fresh = r.cached_wire(id2).expect("cache hit");
        assert_eq!(&held[..], &held_bytes[..], "held frame was mutated");
        assert_ne!(fresh.as_ptr(), held.as_ptr());
    }

    #[test]
    fn forward_rewrites_via_and_decrements_ttl() {
        let (_config, mut r, mut bus) = parts();
        r.table.heard_from(A3, 0.0, Duration::ZERO);
        r.forward(
            Packet::Data {
                dst: A3,
                src: A2,
                id: 9,
                fwd: Forwarding { via: A1, ttl: 5 },
                payload: vec![1],
            },
            &mut bus,
        );
        assert_eq!(bus.stats.forwarded, 1);
        match bus.txq.pop() {
            Some(Packet::Data { fwd, .. }) => {
                assert_eq!(fwd.via, A3);
                assert_eq!(fwd.ttl, 4);
            }
            p => panic!("unexpected {p:?}"),
        }
    }

    #[test]
    fn forward_drops_on_ttl_expiry_and_missing_route() {
        let (_config, mut r, mut bus) = parts();
        let packet = |ttl| Packet::Data {
            dst: A3,
            src: A2,
            id: 0,
            fwd: Forwarding { via: A1, ttl },
            payload: vec![1],
        };
        r.forward(packet(5), &mut bus);
        assert_eq!(bus.stats.no_route_drops, 1);
        r.table.heard_from(A3, 0.0, Duration::ZERO);
        r.forward(packet(1), &mut bus);
        assert_eq!(bus.stats.ttl_expired, 1);
        assert!(bus.txq.is_empty());
    }

    #[test]
    fn expire_purges_and_notifies_the_app() {
        let config = MeshConfig::builder(A1)
            .route_timeout(Duration::from_secs(60))
            .build();
        let mut r = RoutingLayer::new(&config);
        let mut bus = Bus::new(1);
        r.table.heard_from(A2, 0.0, Duration::from_secs(1));
        r.expire(Duration::from_secs(2), &config, &mut bus);
        assert!(r.table.next_hop(A2).is_some(), "fresh route must survive");
        r.expire(Duration::from_secs(61), &config, &mut bus);
        assert!(r.table.next_hop(A2).is_none());
        assert_eq!(
            bus.events.pop_front(),
            Some(MeshEvent::RoutesExpired {
                destinations: vec![A2]
            })
        );
    }
}
