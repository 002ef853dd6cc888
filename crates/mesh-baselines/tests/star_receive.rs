//! The star's receive path validates with `codec::parse` and copies a
//! payload only for a datagram addressed to this node. This property pins
//! it to the path it replaced, a full `codec::decode` of every frame: fed
//! random, corrupt, valid and overheard frames, a [`StarNode`] delivers
//! exactly the datagrams that path delivered, and counts as decode errors
//! exactly the frames that fail to decode or claim the broadcast source.
//!
//! Uses the in-repo `testkit` harness: failures print a replayable
//! `TESTKIT_SEED` and a shrunk counterexample.

use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::region::Region;
use loramesher::codec::{decode, encode};
use loramesher::driver::{NodeProtocol, RadioIo};
use loramesher::packet::{Forwarding, Packet, RouteEntry};
use loramesher::{Address, MeshEvent};
use mesh_baselines::star::{StarConfig, StarNode};
use testkit::{forall, prop_assert_eq, Gen};

/// The node under test, which is also the gateway.
const ME: Address = Address::new(1);

/// One of five nodes around [`ME`], broadcast one time in ten.
fn near(g: &mut Gen) -> Address {
    if g.bool(0.1) {
        Address::BROADCAST
    } else {
        Address::new(g.int_in(1, 5) as u16)
    }
}

/// A packet of a random kind between nearby nodes; mostly datagrams,
/// the only kind the star consumes.
fn arb_packet(g: &mut Gen) -> Packet {
    let (dst, src, id) = (near(g), near(g), g.u8());
    let fwd = Forwarding {
        via: near(g),
        ttl: g.u8(),
    };
    match g.usize_in(0, 5) {
        0 => Packet::Hello {
            src,
            id,
            role: g.u8(),
            entries: g.vec_of(0, 6, |g| RouteEntry {
                address: near(g),
                metric: g.u8(),
                role: g.u8(),
            }),
        },
        1 => Packet::Ack {
            dst,
            src,
            id,
            fwd,
            seq: g.u8(),
            index: g.u16(),
        },
        2 => Packet::Frag {
            dst,
            src,
            id,
            fwd,
            seq: g.u8(),
            index: g.u16(),
            data: g.bytes(0, 60),
        },
        _ => Packet::Data {
            dst,
            src,
            id,
            fwd,
            payload: g.bytes(0, 60),
        },
    }
}

/// A frame the node might hear: noise, a valid frame, or a valid frame
/// with one byte flipped and, one time in four, its tail cut off.
fn arb_frame(g: &mut Gen) -> Vec<u8> {
    match g.usize_in(0, 9) {
        0 => g.bytes(0, 40),
        1..=3 => {
            let mut wire = encode(&arb_packet(g)).unwrap_or_default();
            if !wire.is_empty() {
                let at = g.usize_in(0, wire.len() - 1);
                wire[at] ^= g.u8();
                if g.usize_in(0, 3) == 0 {
                    let keep = g.usize_in(0, wire.len());
                    wire.truncate(keep);
                }
            }
            wire
        }
        _ => encode(&arb_packet(g)).unwrap_or_default(),
    }
}

#[test]
fn star_receive_path_matches_a_full_decode() {
    forall(
        "star_receive_vs_full_decode",
        |g| g.vec_of(1, 40, arb_frame),
        |frames| {
            let mut cfg = StarConfig::new(ME, ME);
            cfg.region = Region::Unlimited;
            let mut node = StarNode::new(cfg);
            node.on_start(&mut RadioIo::new(Duration::ZERO));
            let mut delivered = Vec::new();
            let mut decode_errors = 0;
            for frame in frames {
                node.on_frame(
                    frame,
                    SignalQuality::ideal(),
                    &mut RadioIo::new(Duration::ZERO),
                );
                match decode(frame) {
                    Err(_) => decode_errors += 1,
                    Ok(p) if p.src().is_broadcast() => decode_errors += 1,
                    Ok(Packet::Data {
                        dst, src, payload, ..
                    }) if dst == ME && src != ME => {
                        delivered.push(MeshEvent::Datagram { src, payload });
                    }
                    Ok(_) => {}
                }
            }
            prop_assert_eq!(node.take_events(), delivered);
            prop_assert_eq!(node.decode_errors, decode_errors);
            Ok(())
        },
    );
}
