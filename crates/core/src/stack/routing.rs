//! The routing layer: the hello daemon and the distance-vector table.
//!
//! Owns the [`RoutingTable`] (hop count, with the SNR tie-break as the
//! configured policy allows), the hello schedule, and the hello's wire
//! image. The hello is the one frame this layer queues already encoded:
//! while the table's hello-visible content is unchanged, consecutive
//! hellos reuse one encoded image — and one shared `Arc<[u8]>` — with
//! only the packet-id byte rewritten, so the steady-state beacon costs
//! neither an entry list, a re-serialisation nor an allocation. A debug
//! assertion checks every repeat against a fresh encoding.
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
    /// The last hello's wire image: while the routing table's
    /// [`RoutingTable::version`] matches `hello_version`, consecutive
    /// hellos carry identical entries, so the image is reused with only
    /// the packet-id byte patched instead of re-serialising the whole
    /// table every beacon interval.
    pub(crate) hello_wire: Vec<u8>,
    /// The shared frame queued for the MAC; refreshed from `hello_wire`
    /// in place while uniquely owned, so steady-state beacons are queued
    /// without allocating.
    hello_arc: Option<Arc<[u8]>>,
    pub(crate) hello_version: Option<u64>,
}

impl RoutingLayer {
    pub(crate) fn new(config: &MeshConfig) -> Self {
        RoutingLayer {
            table: RoutingTable::with_policy(config.routing_policy),
            next_hello: Duration::ZERO,
            hello_wire: Vec::new(),
            hello_arc: None,
            hello_version: None,
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
        if self.hello_version == Some(self.table.version()) {
            if let Some(b) = self.hello_wire.get_mut(codec::HEADER_ID_OFFSET) {
                *b = id;
            }
            // Field by field, so the check allocates nothing: the repeat
            // must be what a fresh encoding of the table would be.
            debug_assert!(
                matches!(codec::parse(&self.hello_wire), Ok(FrameView::Hello(h))
                    if self.hello_wire.starts_with(&Address::BROADCAST.value().to_le_bytes())
                        && (h.src, h.id, h.role) == (config.address, id, config.role)
                        && h.entries().eq(self.advertised())),
                "a repeated hello differs from a fresh encoding of the table"
            );
        } else {
            let hello = Packet::Hello {
                src: config.address,
                id,
                role: config.role,
                entries: self.advertised().collect(),
            };
            // A hello carries at most `MAX_HELLO_ENTRIES`, so it always
            // encodes; were it not to, the buffer is left empty and the
            // queue refuses it.
            self.hello_version = codec::encode_into(&hello, &mut self.hello_wire)
                .ok()
                .map(|()| self.table.version());
        }
        if bus.enqueue_frame(self.shared_hello()) {
            bus.stats.hellos_sent += 1;
        }
        self.schedule_next_hello(now, config, bus);
    }

    /// The entries a hello advertises: the table's routes, up to what
    /// one frame carries.
    fn advertised(&self) -> impl Iterator<Item = RouteEntry> + '_ {
        self.table
            .routes()
            .take(codec::MAX_HELLO_ENTRIES)
            .map(Route::as_entry)
    }

    /// `hello_wire` as the shared bytes the queue holds and the host
    /// transmits: the previous `Arc` rewritten in place when this layer
    /// holds the only reference (the steady state once the host has
    /// released the previous beacon), a fresh allocation otherwise.
    fn shared_hello(&mut self) -> Arc<[u8]> {
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
        arc
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
        if bus.enqueue(&packet) {
            bus.stats.forwarded += 1;
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

    /// Consecutive repeated hellos carry consecutive packet ids and are
    /// otherwise byte-identical: the fresh encoding of the table's
    /// hello, with only the id byte moved.
    #[test]
    fn repeated_hellos_differ_only_in_consecutive_ids() {
        let (config, mut r, mut bus) = parts();
        r.table.heard_from(A2, 0.0, Duration::ZERO);
        r.table.heard_from(A3, 0.0, Duration::ZERO);
        let frames: Vec<Vec<u8>> = (0..4)
            .map(|k| {
                r.emit_hello(Duration::from_secs(30 * k), &config, &mut bus);
                bus.txq.pop().expect("a queued hello").to_vec()
            })
            .collect();
        let first_id = frames[0][codec::HEADER_ID_OFFSET];
        for (k, frame) in (0u8..).zip(&frames) {
            let expected = codec::encode(&Packet::Hello {
                src: A1,
                id: first_id.wrapping_add(k),
                role: config.role,
                entries: r.table.routes().map(Route::as_entry).collect(),
            })
            .unwrap();
            assert_eq!(*frame, expected, "hello {k}");
        }
        assert_eq!(bus.stats.hellos_sent, 4);
    }

    /// Steady state: the shared frame is rewritten in place, not
    /// reallocated — once the host has released a beacon, the next one
    /// is queued in the *same* `Arc`.
    #[test]
    fn repeated_hellos_reuse_the_shared_allocation() {
        let (config, mut r, mut bus) = parts();
        r.table.heard_from(A2, 0.0, Duration::ZERO);
        r.emit_hello(Duration::ZERO, &config, &mut bus);
        let first = bus.txq.pop().expect("a queued hello");
        assert_eq!(&first[..], &r.hello_wire[..]);
        let first_ptr = first.as_ptr();
        drop(first); // the host released the frame: refcount back to 1
        r.emit_hello(Duration::from_secs(30), &config, &mut bus);
        let second = bus.txq.pop().expect("a queued hello");
        assert_eq!(
            second.as_ptr(),
            first_ptr,
            "steady state must not reallocate"
        );
        assert_eq!(&second[..], &r.hello_wire[..]);
    }

    /// While the host (or the queue) still holds the previous beacon, a
    /// repeat must not mutate it — it is queued in a fresh allocation.
    #[test]
    fn a_repeat_never_mutates_a_frame_still_held() {
        let (config, mut r, mut bus) = parts();
        r.table.heard_from(A2, 0.0, Duration::ZERO);
        r.emit_hello(Duration::ZERO, &config, &mut bus);
        let held = bus.txq.pop().expect("a queued hello");
        let held_bytes: Vec<u8> = held.to_vec();
        r.emit_hello(Duration::from_secs(30), &config, &mut bus);
        let fresh = bus.txq.pop().expect("a queued hello");
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
        match codec::decode(&bus.txq.pop().unwrap()).unwrap() {
            Packet::Data { fwd, .. } => {
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
