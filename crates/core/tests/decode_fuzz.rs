//! Fuzz-style properties over the wire codec (meshlint rule R1's
//! runtime counterpart): `decode` must never panic on arbitrary bytes —
//! over-the-air input is untrusted — and encode/decode must be exact
//! inverses on every valid frame.
//!
//! The receive path does not call `decode`: it validates with `parse`
//! and copies out of the borrowed [`FrameView`] only what the node
//! consumes. The last two properties pin that the view accepts, rejects
//! and reports exactly what `decode` does, and that a [`MeshNode`] fed
//! good, corrupt and overheard frames accounts for them exactly like a
//! reference that decodes every frame in full.
//!
//! Uses the in-repo `testkit` harness: failures print a replayable
//! `TESTKIT_SEED` and a shrunk counterexample.

use std::time::Duration;

use lora_phy::link::SignalQuality;
use loramesher::codec::{decode, encode, encoded_len, parse, FrameView, MAX_FRAME_LEN};
use loramesher::driver::{NodeProtocol, RadioIo};
use loramesher::packet::{Forwarding, Packet, RouteEntry};
use loramesher::{Address, MeshConfig, MeshNode, RoutingTable};
use testkit::{forall, prop_assert, prop_assert_eq, Gen};

/// A random packet of a random kind with field values spanning the full
/// wire ranges, sized to always fit a frame.
fn arb_packet(g: &mut Gen) -> Packet {
    let dst = Address::new(g.u16());
    let src = Address::new(g.u16());
    let id = g.u8();
    let fwd = Forwarding {
        via: Address::new(g.u16()),
        ttl: g.u8(),
    };
    match g.usize_in(0, 5) {
        0 => Packet::Hello {
            src,
            id,
            role: g.u8(),
            entries: g.vec_of(0, 40, |g| RouteEntry {
                address: Address::new(g.u16()),
                metric: g.u8(),
                role: g.u8(),
            }),
        },
        1 => Packet::Data {
            dst,
            src,
            id,
            fwd,
            payload: g.bytes(0, 200),
        },
        2 => Packet::Sync {
            dst,
            src,
            id,
            fwd,
            seq: g.u8(),
            frag_count: g.u16(),
            total_len: g.u32(),
        },
        3 => Packet::Frag {
            dst,
            src,
            id,
            fwd,
            seq: g.u8(),
            index: g.u16(),
            data: g.bytes(0, 200),
        },
        4 => Packet::Ack {
            dst,
            src,
            id,
            fwd,
            seq: g.u8(),
            index: g.u16(),
        },
        _ => Packet::Lost {
            dst,
            src,
            id,
            fwd,
            seq: g.u8(),
            missing: g.vec_of(0, 80, Gen::u16),
        },
    }
}

#[test]
fn decode_never_panics_on_random_bytes() {
    // The property body IS the assertion: a panic inside `decode` fails
    // the test with a replay seed. Either verdict is acceptable.
    forall(
        "decode_random_bytes",
        |g| g.bytes(0, 300),
        |bytes| {
            let _ = decode(bytes);
            Ok(())
        },
    );
}

/// A real frame with one byte corrupted and, one time in four, its tail
/// cut off: explores the decode branches that pure noise rarely reaches
/// (valid kinds, near-valid lengths).
fn mutated_frame(g: &mut Gen, packet: &Packet) -> Vec<u8> {
    let mut wire = encode(packet).unwrap_or_default();
    if !wire.is_empty() {
        let at = g.usize_in(0, wire.len() - 1);
        let flip = g.u8();
        if let Some(b) = wire.get_mut(at) {
            *b ^= flip;
        }
        if g.usize_in(0, 3) == 0 {
            let keep = g.usize_in(0, wire.len());
            wire.truncate(keep);
        }
    }
    wire
}

#[test]
fn decode_never_panics_on_mutated_valid_frames() {
    forall(
        "decode_mutated_frames",
        |g| {
            let packet = arb_packet(g);
            mutated_frame(g, &packet)
        },
        |bytes| {
            let _ = decode(bytes);
            Ok(())
        },
    );
}

#[test]
fn encode_decode_round_trips_every_kind() {
    forall("codec_round_trip", arb_packet, |packet| {
        let wire = encode(packet).map_err(|e| format!("encode failed: {e}"))?;
        prop_assert!(wire.len() <= MAX_FRAME_LEN, "frame over PHY limit");
        prop_assert_eq!(wire.len(), encoded_len(packet));
        let back = decode(&wire).map_err(|e| format!("decode failed: {e}"))?;
        prop_assert_eq!(&back, packet);
        // And decode∘encode is the identity on the byte level too: no
        // field is silently dropped or defaulted.
        let rewire = encode(&back).map_err(|e| format!("re-encode failed: {e}"))?;
        prop_assert_eq!(rewire, wire);
        Ok(())
    });
}

#[test]
fn decoded_frames_reencode_to_the_same_bytes() {
    // For arbitrary bytes that happen to decode, encoding the result
    // must reproduce the input exactly — `decode` accepts no frame it
    // cannot faithfully represent (trailing garbage, ragged bodies).
    forall(
        "decode_then_encode_identity",
        |g| g.bytes(0, 120),
        |bytes| {
            if let Ok(packet) = decode(bytes) {
                let rewire = encode(&packet).map_err(|e| format!("re-encode failed: {e}"))?;
                prop_assert_eq!(&rewire, bytes);
            }
            Ok(())
        },
    );
}

/// The borrowed view and the owned packet are two readings of one
/// validation: same verdict, same error, same fields, same entries.
fn view_matches_decode(bytes: &[u8]) -> Result<(), String> {
    let (view, packet) = match (parse(bytes), decode(bytes)) {
        (Err(v), Err(d)) => {
            prop_assert_eq!(v, d);
            return Ok(());
        }
        (Ok(view), Ok(packet)) => (view, packet),
        (v, d) => return Err(format!("parse says {v:?}, decode says {d:?}")),
    };
    prop_assert_eq!(view.src(), packet.src());
    prop_assert_eq!(view.kind(), packet.kind());
    prop_assert_eq!(view.to_packet(), packet.clone());
    match (view, &packet) {
        (FrameView::Hello(hello), Packet::Hello { role, entries, .. }) => {
            prop_assert_eq!(hello.id, packet.id());
            prop_assert_eq!(hello.role, *role);
            prop_assert_eq!(hello.entries().len(), entries.len());
            prop_assert_eq!(&hello.entries().collect::<Vec<_>>(), entries);
        }
        (FrameView::Unicast(unicast), _) => {
            prop_assert_eq!(unicast.id, packet.id());
            prop_assert_eq!(unicast.dst, packet.dst());
            prop_assert_eq!(Some(unicast.fwd), packet.forwarding());
        }
        (view, _) => return Err(format!("{view:?} viewed, {packet:?} decoded")),
    }
    Ok(())
}

#[test]
fn view_agrees_with_decode_on_arbitrary_and_mutated_frames() {
    forall(
        "view_random_bytes",
        |g| g.bytes(0, 300),
        |b| view_matches_decode(b),
    );
    forall(
        "view_mutated_frames",
        |g| {
            let packet = arb_packet(g);
            if g.bool(0.25) {
                encode(&packet).unwrap_or_default()
            } else {
                mutated_frame(g, &packet)
            }
        },
        |b| view_matches_decode(b),
    );
}

/// The node under test; the generator below aims a good share of its
/// traffic at, through and from this address.
const ME: Address = Address::new(1);

/// Like [`arb_packet`], but with every address drawn from six nodes
/// around [`ME`], so frames addressed to it, routed via it, spoofing it
/// and merely overheard all occur often, and hellos keep rewriting the
/// same few routes (adverts for `ME` and for broadcast included). One
/// frame in twenty claims to come *from* broadcast, which no node owns.
fn arb_nearby_packet(g: &mut Gen) -> Packet {
    fn near(g: &mut Gen) -> Address {
        Address::new(g.int_in(1, 6) as u16)
    }
    fn sender(g: &mut Gen) -> Address {
        if g.bool(0.05) {
            Address::BROADCAST
        } else {
            near(g)
        }
    }
    let mut packet = arb_packet(g);
    match &mut packet {
        Packet::Hello { src, entries, .. } => {
            *src = sender(g);
            entries.truncate(6);
            for e in entries {
                e.address = if g.bool(0.1) {
                    Address::BROADCAST
                } else {
                    near(g)
                };
                e.metric = g.choose(&[0, 1, 2, 3, RoutingTable::INFINITY_METRIC, 255]);
            }
        }
        Packet::Data { dst, src, fwd, .. }
        | Packet::Sync { dst, src, fwd, .. }
        | Packet::Frag { dst, src, fwd, .. }
        | Packet::Ack { dst, src, fwd, .. }
        | Packet::Lost { dst, src, fwd, .. } => {
            *dst = if g.bool(0.1) {
                Address::BROADCAST
            } else {
                near(g)
            };
            *src = sender(g);
            fwd.via = near(g);
        }
    }
    packet
}

#[test]
fn mesh_node_accounts_for_frames_like_a_full_decode() {
    forall(
        "mesh_node_vs_full_decode",
        |g| {
            g.vec_of(1, 40, |g| {
                let frame = match g.usize_in(0, 9) {
                    0 => g.bytes(0, 40),
                    1..=3 => {
                        let packet = arb_nearby_packet(g);
                        mutated_frame(g, &packet)
                    }
                    _ => encode(&arb_nearby_packet(g)).unwrap_or_default(),
                };
                (frame, g.f64() * 30.0 - 15.0)
            })
        },
        |frames| {
            let mut node = MeshNode::new(MeshConfig::builder(ME).build());
            node.on_start(&mut RadioIo::new(Duration::ZERO));
            // The reference: decode everything, then do what `on_frame`
            // documents — count, reject a broadcast source as malformed
            // and our own address as a conflict, apply hellos.
            let mut table = RoutingTable::new();
            let (mut decode_errors, mut address_conflicts, mut hellos_received) = (0, 0, 0);
            for (i, (frame, snr)) in frames.iter().enumerate() {
                let now = Duration::from_secs(i as u64);
                let quality = SignalQuality {
                    snr: *snr,
                    ..SignalQuality::ideal()
                };
                node.on_frame(frame, quality, &mut RadioIo::new(now));
                match decode(frame) {
                    Err(_) => decode_errors += 1,
                    Ok(p) if p.src().is_broadcast() => decode_errors += 1,
                    Ok(p) if p.src() == ME => address_conflicts += 1,
                    Ok(Packet::Hello {
                        src, role, entries, ..
                    }) => {
                        table.apply_hello(ME, src, role, &entries, *snr, now);
                        hellos_received += 1;
                    }
                    Ok(_) => {}
                }
            }
            let stats = node.stats();
            prop_assert_eq!(stats.decode_errors, decode_errors);
            prop_assert_eq!(stats.address_conflicts, address_conflicts);
            prop_assert_eq!(stats.hellos_received, hellos_received);
            let routes: Vec<_> = node.routing_table().routes().collect();
            prop_assert_eq!(routes, table.routes().collect::<Vec<_>>());
            prop_assert_eq!(node.routing_table().version(), table.version());
            Ok(())
        },
    );
}
