//! Public-API integration tests for [`MeshNode`].
//!
//! These drive whole nodes through the sans-IO [`NodeProtocol`] host
//! interface — the same way the simulator and a hardware shim do — and
//! assert on observable behaviour only: routing tables, delivered
//! events, statistics and emitted radio requests. They complement the
//! per-layer unit tests inside `src/stack/` (which reach into layer
//! internals through the bus).

use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::region::Region;

use loramesher::codec;
use loramesher::mac::MAX_CAD_RETRIES;
use loramesher::packet::{Forwarding, Packet, RouteEntry};
use loramesher::queue::TX_QUEUE_CAPACITY;
use loramesher::reliable::ACK_TIMEOUT;
use loramesher::{
    Address, MeshConfig, MeshEvent, MeshNode, NodeProtocol, PacketKind, RadioIo, RadioRequest,
    SendError,
};

const A1: Address = Address::new(1);
const A2: Address = Address::new(2);
const A3: Address = Address::new(3);

fn node(addr: Address) -> MeshNode {
    MeshNode::new(
        MeshConfig::builder(addr)
            .region(Region::Unlimited)
            .hello_interval(Duration::from_secs(30))
            .build(),
    )
}

fn quality() -> SignalQuality {
    SignalQuality::ideal()
}

fn start(n: &mut MeshNode, now: Duration) {
    let mut io = RadioIo::new(now);
    n.on_start(&mut io);
    assert!(io.take_requests().is_empty(), "nothing to transmit at boot");
}

fn frame_in(n: &mut MeshNode, frame: &[u8], now: Duration) -> Vec<RadioRequest> {
    let mut io = RadioIo::new(now);
    n.on_frame(frame, quality(), &mut io);
    io.take_requests()
}

fn timer(n: &mut MeshNode, now: Duration) -> Vec<RadioRequest> {
    let mut io = RadioIo::new(now);
    n.on_timer(&mut io);
    io.take_requests()
}

fn cad_done(n: &mut MeshNode, busy: bool, now: Duration) -> Vec<RadioRequest> {
    let mut io = RadioIo::new(now);
    n.on_cad_done(busy, &mut io);
    io.take_requests()
}

fn tx_done(n: &mut MeshNode, now: Duration) -> Vec<RadioRequest> {
    let mut io = RadioIo::new(now);
    n.on_tx_done(&mut io);
    io.take_requests()
}

/// Drives a set of nodes until quiescent: fires due timers, answers
/// CAD requests with "clear", and delivers transmissions to every
/// other node. Advances time only when nothing is immediately due.
fn pump(nodes: &mut [MeshNode], until: Duration) {
    let mut now = Duration::ZERO;
    for n in nodes.iter_mut() {
        start(n, now);
    }
    while now <= until {
        // Fire all due work at `now`.
        let mut progressed = false;
        for i in 0..nodes.len() {
            let due = nodes[i].next_wake().is_some_and(|w| w <= now);
            if !due {
                continue;
            }
            progressed = true;
            let mut requests = timer(&mut nodes[i], now);
            // Resolve CAD immediately (clear channel in this harness).
            while let Some(req) = requests.pop() {
                match req {
                    RadioRequest::StartCad => {
                        requests.extend(cad_done(&mut nodes[i], false, now));
                    }
                    RadioRequest::Transmit(frame) => {
                        for (j, node) in nodes.iter_mut().enumerate() {
                            if j != i {
                                let _ = frame_in(node, &frame, now);
                            }
                        }
                        requests.extend(tx_done(&mut nodes[i], now));
                    }
                }
            }
        }
        if !progressed {
            // Jump to the next deadline.
            let next = nodes
                .iter()
                .filter_map(NodeProtocol::next_wake)
                .min()
                .unwrap_or(until + Duration::from_secs(1));
            now = next.max(now + Duration::from_millis(1));
        }
    }
}

#[test]
fn hello_exchange_builds_routes() {
    let mut nodes = vec![node(A1), node(A2)];
    pump(&mut nodes, Duration::from_secs(10));
    assert_eq!(nodes[0].routing_table().next_hop(A2), Some(A2));
    assert_eq!(nodes[1].routing_table().next_hop(A1), Some(A1));
    assert!(nodes[0].stats().hellos_sent >= 1);
    assert!(nodes[0].stats().hellos_received >= 1);
}

#[test]
fn datagram_delivered_between_neighbours() {
    let mut nodes = vec![node(A1), node(A2)];
    pump(&mut nodes, Duration::from_secs(10));
    let now = Duration::from_secs(10);
    nodes[0]
        .send_datagram(A2, b"ping".to_vec(), now)
        .expect("route exists");
    pump(&mut nodes, Duration::from_secs(12));
    let events = nodes[1].take_events();
    assert!(
        events.contains(&MeshEvent::Datagram {
            src: A1,
            payload: b"ping".to_vec()
        }),
        "events: {events:?}"
    );
    assert_eq!(nodes[1].stats().data_delivered, 1);
}

#[test]
fn broadcast_delivered_to_all() {
    let mut nodes = vec![node(A1), node(A2), node(A3)];
    pump(&mut nodes, Duration::from_secs(10));
    nodes[0]
        .send_datagram(Address::BROADCAST, b"hi".to_vec(), Duration::from_secs(10))
        .unwrap();
    pump(&mut nodes, Duration::from_secs(12));
    for n in &mut nodes[1..] {
        let events = n.take_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, MeshEvent::Broadcast { src, .. } if *src == A1)));
    }
}

#[test]
fn send_without_route_fails() {
    let mut n = node(A1);
    start(&mut n, Duration::ZERO);
    assert_eq!(
        n.send_datagram(A2, vec![1], Duration::ZERO),
        Err(SendError::NoRoute(A2))
    );
    assert_eq!(
        n.send_reliable(A2, vec![1; 500], Duration::ZERO),
        Err(SendError::NoRoute(A2))
    );
}

#[test]
fn send_validation_errors() {
    let mut n = node(A1);
    start(&mut n, Duration::ZERO);
    assert_eq!(
        n.send_datagram(A2, vec![], Duration::ZERO),
        Err(SendError::EmptyPayload)
    );
    assert!(matches!(
        n.send_datagram(A2, vec![0; 4000], Duration::ZERO),
        Err(SendError::PayloadTooLarge { .. })
    ));
    assert_eq!(
        n.send_reliable(Address::BROADCAST, vec![1], Duration::ZERO),
        Err(SendError::BroadcastUnsupported)
    );
    assert_eq!(
        n.send_reliable(A2, vec![], Duration::ZERO),
        Err(SendError::EmptyPayload)
    );
}

#[test]
fn reliable_transfer_between_neighbours() {
    let mut nodes = vec![node(A1), node(A2)];
    pump(&mut nodes, Duration::from_secs(10));
    let payload: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
    let seq = nodes[0]
        .send_reliable(A2, payload.clone(), Duration::from_secs(10))
        .expect("route exists");
    pump(&mut nodes, Duration::from_secs(60));
    let rx_events = nodes[1].take_events();
    assert!(
        rx_events.iter().any(
            |e| matches!(e, MeshEvent::ReliableReceived { src, payload: p } if *src == A1 && *p == payload)
        ),
        "receiver events: {rx_events:?}"
    );
    let tx_events = nodes[0].take_events();
    assert!(tx_events.contains(&MeshEvent::ReliableDelivered { dst: A2, seq }));
    assert_eq!(nodes[0].stats().reliable_sent, 1);
    assert_eq!(nodes[1].stats().reliable_received, 1);
}

#[test]
fn second_transfer_to_same_dst_refused_while_active() {
    let mut nodes = vec![node(A1), node(A2)];
    pump(&mut nodes, Duration::from_secs(10));
    let now = Duration::from_secs(10);
    nodes[0].send_reliable(A2, vec![1; 500], now).unwrap();
    assert_eq!(
        nodes[0].send_reliable(A2, vec![2; 500], now),
        Err(SendError::TransferInProgress(A2))
    );
}

#[test]
fn reliable_transfer_aborts_when_peer_silent() {
    let a = node(A1);
    let b = node(A2);
    // Form routes.
    let mut pair = vec![a, b];
    pump(&mut pair, Duration::from_secs(10));
    let a = pair.remove(0);
    // b is now gone: a sends into the void.
    let mut solo = vec![a];
    let seq = solo[0]
        .send_reliable(A2, vec![0; 300], Duration::from_secs(10))
        .unwrap();
    // Drive only `a` long enough for all retries to burn out.
    pump(&mut solo, Duration::from_secs(200));
    let events = solo[0].take_events();
    assert!(
        events.contains(&MeshEvent::ReliableFailed { dst: A2, seq }),
        "events: {events:?}"
    );
    assert_eq!(solo[0].stats().reliable_aborted, 1);
    assert!(solo[0].stats().reliable_retransmits > 0);
    drop(pair);
}

#[test]
fn multi_hop_route_learned_and_used() {
    // Chain A1 - A2 - A3 with A1 and A3 out of range: emulate by only
    // delivering frames between adjacent nodes.
    let mut nodes = [node(A1), node(A2), node(A3)];
    let mut now = Duration::ZERO;
    for n in nodes.iter_mut() {
        start(n, now);
    }
    let until = Duration::from_secs(70);
    let adjacent = |i: usize, j: usize| i.abs_diff(j) == 1;
    while now <= until {
        let mut progressed = false;
        for i in 0..nodes.len() {
            if nodes[i].next_wake().is_none_or(|w| w > now) {
                continue;
            }
            progressed = true;
            let mut requests = timer(&mut nodes[i], now);
            while let Some(req) = requests.pop() {
                match req {
                    RadioRequest::StartCad => {
                        requests.extend(cad_done(&mut nodes[i], false, now));
                    }
                    RadioRequest::Transmit(frame) => {
                        for (j, node) in nodes.iter_mut().enumerate() {
                            if j != i && adjacent(i, j) {
                                let _ = frame_in(node, &frame, now);
                            }
                        }
                        requests.extend(tx_done(&mut nodes[i], now));
                    }
                }
            }
        }
        if !progressed {
            let next = nodes
                .iter()
                .filter_map(NodeProtocol::next_wake)
                .min()
                .unwrap_or(until + Duration::from_secs(1));
            now = next.max(now + Duration::from_millis(1));
        }
        // Once A1 knows a route to A3, send through the mesh.
        if nodes[0].routing_table().next_hop(A3) == Some(A2)
            && nodes[0].stats().data_originated == 0
        {
            nodes[0].send_datagram(A3, b"relay".to_vec(), now).unwrap();
        }
    }
    assert_eq!(nodes[0].routing_table().next_hop(A3), Some(A2));
    assert_eq!(nodes[0].routing_table().route(A3).unwrap().metric, 2);
    let events = nodes[2].take_events();
    assert!(
        events.contains(&MeshEvent::Datagram {
            src: A1,
            payload: b"relay".to_vec()
        }),
        "A3 events: {events:?}"
    );
    assert_eq!(nodes[1].stats().forwarded, 1);
}

#[test]
fn ttl_expiry_drops_packet() {
    let mut n = node(A2);
    start(&mut n, Duration::ZERO);
    // Teach A2 routes so forwarding is possible.
    let hello = codec::encode(&Packet::Hello {
        src: A3,
        id: 0,
        role: 0,
        entries: vec![],
    })
    .unwrap();
    let _ = frame_in(&mut n, &hello, Duration::ZERO);
    // A data packet for A3 via us with TTL 1: must die here.
    let data = codec::encode(&Packet::Data {
        dst: A3,
        src: A1,
        id: 0,
        fwd: Forwarding { via: A2, ttl: 1 },
        payload: vec![1],
    })
    .unwrap();
    let _ = frame_in(&mut n, &data, Duration::ZERO);
    assert_eq!(n.stats().ttl_expired, 1);
    assert_eq!(n.stats().forwarded, 0);
}

#[test]
fn forward_without_route_is_counted() {
    let mut n = node(A2);
    start(&mut n, Duration::ZERO);
    let data = codec::encode(&Packet::Data {
        dst: A3,
        src: A1,
        id: 0,
        fwd: Forwarding { via: A2, ttl: 5 },
        payload: vec![1],
    })
    .unwrap();
    let _ = frame_in(&mut n, &data, Duration::ZERO);
    assert_eq!(n.stats().no_route_drops, 1);
}

#[test]
fn packet_not_via_us_is_ignored() {
    let mut n = node(A2);
    start(&mut n, Duration::ZERO);
    let data = codec::encode(&Packet::Data {
        dst: A3,
        src: A1,
        id: 0,
        fwd: Forwarding { via: A3, ttl: 5 },
        payload: vec![1],
    })
    .unwrap();
    let _ = frame_in(&mut n, &data, Duration::ZERO);
    assert_eq!(n.stats().forwarded, 0);
    assert_eq!(n.stats().no_route_drops, 0);
    assert!(n.take_events().is_empty());
}

#[test]
fn garbage_frame_counted_as_decode_error() {
    let mut n = node(A1);
    start(&mut n, Duration::ZERO);
    let _ = frame_in(&mut n, &[0xFF, 0x01], Duration::ZERO);
    assert_eq!(n.stats().decode_errors, 1);
}

#[test]
fn frame_with_own_source_address_flags_a_conflict() {
    let mut n = node(A1);
    start(&mut n, Duration::ZERO);
    let hello = codec::encode(&Packet::Hello {
        src: A1,
        id: 0,
        role: 0,
        entries: vec![],
    })
    .unwrap();
    let _ = frame_in(&mut n, &hello, Duration::ZERO);
    // Not processed as routing input...
    assert_eq!(n.stats().hellos_received, 0);
    assert!(n.routing_table().is_empty());
    // ...but surfaced as a duplicate-address indicator.
    assert_eq!(n.stats().address_conflicts, 1);
    assert!(n.take_events().contains(&MeshEvent::AddressConflict {
        kind: PacketKind::Hello
    }));
}

#[test]
fn queue_refusals_are_counted_as_backpressure() {
    let mut n = MeshNode::new(
        MeshConfig::builder(A1)
            .region(Region::Unlimited)
            .hello_interval(Duration::from_secs(1000))
            .build(),
    );
    start(&mut n, Duration::ZERO);
    // The first broadcast datagrams fill the queue.
    for _ in 0..TX_QUEUE_CAPACITY {
        assert!(n
            .send_datagram(Address::BROADCAST, b"one".to_vec(), Duration::ZERO)
            .is_ok());
    }
    assert_eq!(n.stats().queue_refusals, 0);
    // Equal-priority traffic cannot evict: refused and counted.
    assert_eq!(
        n.send_datagram(Address::BROADCAST, b"two".to_vec(), Duration::ZERO),
        Err(SendError::QueueFull)
    );
    assert_eq!(
        n.send_datagram(Address::BROADCAST, b"three".to_vec(), Duration::ZERO),
        Err(SendError::QueueFull)
    );
    assert_eq!(n.stats().queue_refusals, 2);
    assert_eq!(n.stats().data_originated, TX_QUEUE_CAPACITY as u64);
}

#[test]
fn routes_expire_and_generate_event() {
    let mut n = MeshNode::new(
        MeshConfig::builder(A1)
            .region(Region::Unlimited)
            .route_timeout(Duration::from_secs(60))
            .hello_interval(Duration::from_secs(1000))
            .build(),
    );
    start(&mut n, Duration::ZERO);
    let hello = codec::encode(&Packet::Hello {
        src: A2,
        id: 0,
        role: 0,
        entries: vec![],
    })
    .unwrap();
    let _ = frame_in(&mut n, &hello, Duration::from_secs(1));
    assert!(n.routing_table().next_hop(A2).is_some());
    // The wake should include the route expiry at t=61.
    let wake = n.next_wake().unwrap();
    assert!(wake <= Duration::from_secs(61));
    let _ = timer(&mut n, Duration::from_secs(61));
    assert!(n.routing_table().next_hop(A2).is_none());
    assert!(n.take_events().contains(&MeshEvent::RoutesExpired {
        destinations: vec![A2]
    }));
}

#[test]
fn next_wake_immediate_when_traffic_pending() {
    let mut nodes = vec![node(A1), node(A2)];
    pump(&mut nodes, Duration::from_secs(10));
    let now = Duration::from_secs(10);
    nodes[0].send_datagram(A2, vec![1], now).unwrap();
    assert_eq!(nodes[0].next_wake(), Some(Duration::ZERO));
}

#[test]
fn stalled_inbound_transfer_requests_lost_fragments() {
    let mut b = node(A2);
    start(&mut b, Duration::ZERO);
    // B learns a route back to A1.
    let hello = codec::encode(&Packet::Hello {
        src: A1,
        id: 0,
        role: 0,
        entries: vec![],
    })
    .unwrap();
    let _ = frame_in(&mut b, &hello, Duration::ZERO);
    // A 3-fragment transfer opens and fragment 0 arrives...
    let fwd = Forwarding { via: A2, ttl: 5 };
    let sync = codec::encode(&Packet::Sync {
        dst: A2,
        src: A1,
        id: 1,
        fwd,
        seq: 0,
        frag_count: 3,
        total_len: 30,
    })
    .unwrap();
    let _ = frame_in(&mut b, &sync, Duration::from_secs(1));
    let frag = codec::encode(&Packet::Frag {
        dst: A2,
        src: A1,
        id: 2,
        fwd,
        seq: 0,
        index: 0,
        data: vec![7; 10],
    })
    .unwrap();
    let _ = frame_in(&mut b, &frag, Duration::from_secs(2));
    // ...then the sender goes quiet. After the reliable timeout the
    // node must queue a Lost request listing fragments 1 and 2.
    let stall_at = Duration::from_secs(2) + ACK_TIMEOUT;
    assert!(b.next_wake().unwrap() <= stall_at);
    let mut reqs = timer(&mut b, stall_at);
    // Drain the queue through the MAC to observe the frame.
    let mut lost_seen = false;
    for _ in 0..10 {
        match reqs.pop() {
            Some(RadioRequest::StartCad) => {
                reqs.extend(cad_done(&mut b, false, stall_at));
            }
            Some(RadioRequest::Transmit(frame)) => {
                if let Ok(Packet::Lost { missing, .. }) = codec::decode(&frame) {
                    assert_eq!(missing, vec![1, 2]);
                    lost_seen = true;
                }
                reqs.extend(tx_done(&mut b, stall_at));
            }
            None => {
                reqs.extend(timer(&mut b, stall_at + Duration::from_millis(1)));
                if reqs.is_empty() {
                    break;
                }
            }
        }
    }
    assert!(lost_seen, "no Lost packet was transmitted");
}

#[test]
fn aloha_mode_sends_without_cad() {
    let mut nodes = vec![
        MeshNode::new(
            MeshConfig::builder(A1)
                .region(Region::Unlimited)
                .hello_interval(Duration::from_secs(30))
                .csma(false)
                .build(),
        ),
        MeshNode::new(
            MeshConfig::builder(A2)
                .region(Region::Unlimited)
                .hello_interval(Duration::from_secs(30))
                .csma(false)
                .build(),
        ),
    ];
    pump(&mut nodes, Duration::from_secs(10));
    // Routes still form: hellos went straight to the air.
    assert_eq!(nodes[0].routing_table().next_hop(A2), Some(A2));
    let now = Duration::from_secs(10);
    nodes[0].send_datagram(A2, b"aloha".to_vec(), now).unwrap();
    pump(&mut nodes, Duration::from_secs(12));
    assert!(nodes[1].take_events().contains(&MeshEvent::Datagram {
        src: A1,
        payload: b"aloha".to_vec()
    }));
}

#[test]
fn jitterless_hellos_fire_on_exact_schedule() {
    let mut n = MeshNode::new(
        MeshConfig::builder(A1)
            .region(Region::Unlimited)
            .hello_interval(Duration::from_secs(30))
            .hello_jitter(false)
            .build(),
    );
    start(&mut n, Duration::ZERO);
    // First hello exactly 1 s after boot, then every 30 s sharp.
    assert_eq!(n.next_wake(), Some(Duration::from_secs(1)));
    let reqs = timer(&mut n, Duration::from_secs(1));
    assert_eq!(reqs, vec![RadioRequest::StartCad]);
    let tx = cad_done(&mut n, false, Duration::from_secs(1));
    assert!(matches!(tx.as_slice(), [RadioRequest::Transmit(_)]));
    let _ = tx_done(&mut n, Duration::from_millis(1100));
    assert_eq!(n.next_wake(), Some(Duration::from_secs(31)));
}

#[test]
fn oversized_routing_table_is_truncated_in_hello() {
    let mut n = MeshNode::new(
        MeshConfig::builder(A1)
            .region(Region::Unlimited)
            .hello_jitter(false)
            .build(),
    );
    start(&mut n, Duration::ZERO);
    // Teach the node more routes than a single hello frame can carry
    // (the 255-byte PHY limit fits 61 entries).
    for neighbour in 0..5u16 {
        let entries: Vec<RouteEntry> = (0..20)
            .map(|k| RouteEntry {
                address: Address::new(1000 + neighbour * 100 + k),
                metric: 1,
                role: 0,
            })
            .collect();
        let hello = codec::encode(&Packet::Hello {
            src: Address::new(100 + neighbour),
            id: 0,
            role: 0,
            entries,
        })
        .unwrap();
        let _ = frame_in(&mut n, &hello, Duration::ZERO);
    }
    assert!(n.routing_table().len() > codec::MAX_HELLO_ENTRIES);
    // Fire the hello and capture the frame.
    let mut reqs = timer(&mut n, Duration::from_secs(1));
    assert_eq!(reqs, vec![RadioRequest::StartCad]);
    reqs = cad_done(&mut n, false, Duration::from_secs(1));
    let RadioRequest::Transmit(frame) = &reqs[0] else {
        panic!("expected a transmission");
    };
    assert!(frame.len() <= codec::MAX_FRAME_LEN);
    match codec::decode(frame).unwrap() {
        Packet::Hello { entries, .. } => {
            assert_eq!(entries.len(), codec::MAX_HELLO_ENTRIES);
        }
        other => panic!("expected hello, got {other:?}"),
    }
}

#[test]
fn cad_exhaustion_drops_frame_with_event() {
    let mut n = MeshNode::new(
        MeshConfig::builder(A1)
            .region(Region::Unlimited)
            .hello_jitter(false)
            .build(),
    );
    start(&mut n, Duration::ZERO);
    // Fire the first hello into a permanently busy channel.
    let mut now = Duration::from_secs(1);
    let mut reqs = timer(&mut n, now);
    assert_eq!(reqs, vec![RadioRequest::StartCad]);
    // Every retry backs off and scans again...
    for _ in 0..MAX_CAD_RETRIES {
        reqs = cad_done(&mut n, true, now);
        assert!(reqs.is_empty());
        assert_eq!(n.tx_queue_len(), 1, "the hello waits out the backoff");
        now = n.next_wake().expect("backoff deadline");
        reqs = timer(&mut n, now);
        assert_eq!(reqs, vec![RadioRequest::StartCad]);
    }
    // ...and the busy verdict after the last one drops the frame.
    assert!(cad_done(&mut n, true, now).is_empty());
    let events = n.take_events();
    assert!(
        events.iter().any(|e| matches!(
            e,
            MeshEvent::FrameDropped {
                kind: PacketKind::Hello
            }
        )),
        "events: {events:?}"
    );
    assert_eq!(n.stats().cad_exhausted, 1);
    assert_eq!(n.tx_queue_len(), 0);
}

#[test]
fn zero_fragment_sync_is_rejected() {
    let mut n = node(A2);
    start(&mut n, Duration::ZERO);
    let hello = codec::encode(&Packet::Hello {
        src: A1,
        id: 0,
        role: 0,
        entries: vec![],
    })
    .unwrap();
    let _ = frame_in(&mut n, &hello, Duration::ZERO);
    let sync = codec::encode(&Packet::Sync {
        dst: A2,
        src: A1,
        id: 1,
        fwd: Forwarding { via: A2, ttl: 5 },
        seq: 0,
        frag_count: 0,
        total_len: 0,
    })
    .unwrap();
    let _ = frame_in(&mut n, &sync, Duration::ZERO);
    assert_eq!(n.stats().decode_errors, 1);
    assert!(n.inbound_transfers().is_empty());
}

#[test]
fn us915_dwell_limit_drops_slow_frames() {
    use lora_phy::modulation::{Bandwidth, CodingRate, LoRaModulation, SpreadingFactor};
    // SF12: a 200-byte frame lasts ~7 s, far over the 400 ms dwell.
    let mut n = MeshNode::new(
        MeshConfig::builder(A1)
            .region(Region::Us915)
            .modulation(LoRaModulation::new(
                SpreadingFactor::Sf12,
                Bandwidth::Khz125,
                CodingRate::Cr4_5,
            ))
            .hello_jitter(false)
            .build(),
    );
    start(&mut n, Duration::ZERO);
    let hello = codec::encode(&Packet::Hello {
        src: A2,
        id: 0,
        role: 0,
        entries: vec![],
    })
    .unwrap();
    let _ = frame_in(&mut n, &hello, Duration::ZERO);
    n.send_datagram(A2, vec![0; 200], Duration::ZERO).unwrap();
    // Drain: hello (small, allowed) then the oversized datagram.
    let mut now = Duration::from_secs(1);
    let mut dropped = false;
    for _ in 0..10 {
        let reqs = timer(&mut n, now);
        for req in reqs {
            match req {
                RadioRequest::StartCad => {
                    let _ = cad_done(&mut n, false, now);
                }
                RadioRequest::Transmit(_) => {
                    let _ = tx_done(&mut n, now + Duration::from_millis(300));
                }
            }
        }
        if n.take_events().iter().any(|e| {
            matches!(
                e,
                MeshEvent::FrameDropped {
                    kind: PacketKind::Data
                }
            )
        }) {
            dropped = true;
            break;
        }
        now += Duration::from_secs(1);
    }
    assert!(
        dropped,
        "oversized SF12 frame must be dropped by the dwell limit"
    );
}

#[test]
fn ack_for_unknown_transfer_is_ignored() {
    let mut n = node(A1);
    start(&mut n, Duration::ZERO);
    let ack = codec::encode(&Packet::Ack {
        dst: A1,
        src: A2,
        id: 0,
        fwd: Forwarding { via: A1, ttl: 5 },
        seq: 9,
        index: 0,
    })
    .unwrap();
    let _ = frame_in(&mut n, &ack, Duration::ZERO);
    assert!(n.take_events().is_empty());
    assert!(n.outbound_transfers().is_empty());
}
