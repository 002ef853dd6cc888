//! The compact binary wire format.
//!
//! Matching the C++ library's packed structs, every frame starts with a
//! 7-byte common header; unicast kinds add a 3-byte forwarding extension:
//!
//! ```text
//! offset  0        2        4      5    6       7
//!         +--------+--------+------+----+-------+----------------------
//!         | dst LE | src LE | kind | id | plen  | payload (plen bytes)
//!         +--------+--------+------+----+-------+----------------------
//!
//! unicast payload:   via LE (2) | ttl (1) | kind-specific body
//! Hello payload:     role (1)   | entries: [addr LE (2) | metric | role] *
//! Data body:         application bytes
//! Sync body:         seq (1) | frag_count LE (2) | total_len LE (4)
//! Frag body:         seq (1) | index LE (2) | fragment bytes
//! Ack body:          seq (1) | index LE (2)
//! Lost body:         seq (1) | missing: index LE (2) *
//! ```
//!
//! `plen` counts every byte after the common header, so a frame is always
//! `7 + plen ≤ 255` bytes and the length is verifiable on receipt.

// This file is a meshlint R1 hot path: decoding operates on untrusted
// over-the-air bytes and must return `Err`, never panic. No indexing,
// no `unwrap`/`expect`, no `unreachable!` — all reads go through the
// bounds-checked [`Reader`] cursor. `clippy::indexing_slicing` backs
// this up at compile time.
#![deny(clippy::indexing_slicing)]

use alloc::vec::Vec;

use crate::addr::Address;
use crate::cast::sat_u8;
use crate::error::CodecError;
use crate::packet::{Forwarding, Packet, PacketKind, RouteEntry};

/// Size of the common header present in every frame.
pub const COMMON_HEADER_LEN: usize = 7;
/// Byte offset of the packet id within the common header.
pub const HEADER_ID_OFFSET: usize = 5;
/// Size of the forwarding extension in unicast frames.
pub const FORWARDING_LEN: usize = 3;
/// Total header overhead of a Data frame.
pub const DATA_OVERHEAD: usize = COMMON_HEADER_LEN + FORWARDING_LEN;
/// Bytes each routing entry occupies in a Hello frame.
pub const ROUTE_ENTRY_LEN: usize = 4;
/// Largest encoded frame (the LoRa PHY limit).
pub const MAX_FRAME_LEN: usize = 255;
/// Largest `plen` value (frame minus common header).
pub const MAX_PAYLOAD_LEN: usize = MAX_FRAME_LEN - COMMON_HEADER_LEN;
/// Largest application payload of a single Data frame.
pub const MAX_DATA_PAYLOAD: usize = MAX_FRAME_LEN - DATA_OVERHEAD;
/// Header overhead of a Frag frame (forwarding + seq + index).
pub const FRAG_OVERHEAD: usize = DATA_OVERHEAD + 3;
/// Largest fragment body of a reliable transfer.
pub const MAX_FRAG_PAYLOAD: usize = MAX_FRAME_LEN - FRAG_OVERHEAD;
/// Largest number of routing entries a single Hello frame can carry.
pub const MAX_HELLO_ENTRIES: usize = (MAX_PAYLOAD_LEN - 1) / ROUTE_ENTRY_LEN;

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked cursor over an untrusted frame. Every read either
/// yields bytes or a [`CodecError::Truncated`] naming how many bytes
/// the frame would have needed — there is no panicking path.
struct Reader<'a> {
    frame: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(frame: &'a [u8]) -> Self {
        Reader { frame, pos: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.frame.len().saturating_sub(self.pos)
    }

    /// Consumes exactly `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.saturating_add(n);
        let chunk = self.frame.get(self.pos..end).ok_or(CodecError::Truncated {
            needed: end,
            got: self.frame.len(),
        })?;
        self.pos = end;
        Ok(chunk)
    }

    /// Consumes everything left.
    fn rest(&mut self) -> &'a [u8] {
        let chunk = self.frame.get(self.pos..).unwrap_or(&[]);
        self.pos = self.frame.len();
        chunk
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    fn u16_le(&mut self) -> Result<u16, CodecError> {
        match *self.take(2)? {
            [a, b] => Ok(u16::from_le_bytes([a, b])),
            // `take(2)` returned exactly two bytes; this arm only keeps
            // the match exhaustive without a panic path.
            _ => Err(CodecError::Truncated {
                needed: self.pos,
                got: self.frame.len(),
            }),
        }
    }

    fn u32_le(&mut self) -> Result<u32, CodecError> {
        match *self.take(4)? {
            [a, b, c, d] => Ok(u32::from_le_bytes([a, b, c, d])),
            _ => Err(CodecError::Truncated {
                needed: self.pos,
                got: self.frame.len(),
            }),
        }
    }
}

/// Encodes a packet into its wire representation.
///
/// ```
/// use loramesher::codec::{decode, encode};
/// use loramesher::packet::{Forwarding, Packet};
/// use loramesher::Address;
///
/// let packet = Packet::Data {
///     dst: Address::new(2),
///     src: Address::new(1),
///     id: 0,
///     fwd: Forwarding { via: Address::new(2), ttl: 10 },
///     payload: b"sensor reading".to_vec(),
/// };
/// let wire = encode(&packet)?;
/// assert_eq!(decode(&wire)?, packet);
/// # Ok::<(), loramesher::CodecError>(())
/// ```
///
/// # Errors
///
/// Returns [`CodecError::FrameTooLarge`] when the encoded frame would
/// exceed the 255-byte PHY limit.
pub fn encode(packet: &Packet) -> Result<Vec<u8>, CodecError> {
    let mut buf = Vec::new();
    encode_into(packet, &mut buf)?;
    Ok(buf)
}

/// Encodes a packet into a caller-supplied buffer, clearing it first.
///
/// The allocation-free sibling of [`encode`]: a reused buffer reaches a
/// steady-state capacity after which encoding never touches the heap.
/// On error the buffer is left cleared.
///
/// # Errors
///
/// Returns [`CodecError::FrameTooLarge`] when the encoded frame would
/// exceed the 255-byte PHY limit.
pub fn encode_into(packet: &Packet, buf: &mut Vec<u8>) -> Result<(), CodecError> {
    // Compute the length first so `plen` is written once, correctly,
    // instead of patched after the fact — and so the PHY limit is
    // enforced before the buffer grows past it.
    buf.clear();
    let total = encoded_len(packet);
    if total > MAX_FRAME_LEN {
        return Err(CodecError::FrameTooLarge(total));
    }
    let plen = sat_u8(total - COMMON_HEADER_LEN);

    buf.reserve(total);
    put_u16(buf, packet.dst().value());
    put_u16(buf, packet.src().value());
    buf.push(packet.kind().wire());
    buf.push(packet.id());
    buf.push(plen);

    if let Some(Forwarding { via, ttl }) = packet.forwarding() {
        put_u16(buf, via.value());
        buf.push(ttl);
    }

    match packet {
        Packet::Hello { role, entries, .. } => {
            buf.push(*role);
            for e in entries {
                put_u16(buf, e.address.value());
                buf.push(e.metric);
                buf.push(e.role);
            }
        }
        Packet::Data { payload, .. } => buf.extend_from_slice(payload),
        Packet::Sync {
            seq,
            frag_count,
            total_len,
            ..
        } => {
            buf.push(*seq);
            put_u16(buf, *frag_count);
            put_u32(buf, *total_len);
        }
        Packet::Frag {
            seq, index, data, ..
        } => {
            buf.push(*seq);
            put_u16(buf, *index);
            buf.extend_from_slice(data);
        }
        Packet::Ack { seq, index, .. } => {
            buf.push(*seq);
            put_u16(buf, *index);
        }
        Packet::Lost { seq, missing, .. } => {
            buf.push(*seq);
            for m in missing {
                put_u16(buf, *m);
            }
        }
    }

    debug_assert_eq!(buf.len(), total, "encoded_len disagrees with encode");
    Ok(())
}

/// A validated frame whose variable-length parts still borrow the wire
/// bytes: what [`parse`] returns and [`decode`] copies into a
/// [`Packet`]. Most frames a mesh node hears are not for it, so the
/// receive path dispatches on this and copies only what it consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameView<'a> {
    /// A routing broadcast.
    Hello(HelloView<'a>),
    /// Any other kind: all of them carry the forwarding extension.
    Unicast(UnicastView<'a>),
}

/// A validated Hello frame; the entries are read off the wire on demand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelloView<'a> {
    /// The advertising node.
    pub src: Address,
    /// The sender's packet id.
    pub id: u8,
    /// Role bits of the advertising node itself.
    pub role: u8,
    entries: &'a [[u8; ROUTE_ENTRY_LEN]],
}

/// A validated frame of a forwarded kind (Data, Sync, Frag, Ack, Lost).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnicastView<'a> {
    /// Final destination.
    pub dst: Address,
    /// Originating node.
    pub src: Address,
    /// The originator's packet id.
    pub id: u8,
    /// Forwarding state.
    pub fwd: Forwarding,
    /// The kind-specific rest of the frame.
    pub body: UnicastBody<'a>,
}

/// The kind-specific body of a [`UnicastView`]; fields as in the
/// [`Packet`] variant of the same name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnicastBody<'a> {
    Data {
        payload: &'a [u8],
    },
    Sync {
        seq: u8,
        frag_count: u16,
        total_len: u32,
    },
    Frag {
        seq: u8,
        index: u16,
        data: &'a [u8],
    },
    Ack {
        seq: u8,
        index: u16,
    },
    Lost {
        seq: u8,
        missing: &'a [[u8; 2]],
    },
}

impl<'a> HelloView<'a> {
    /// The advertised routes, in wire order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = RouteEntry> + Clone + 'a {
        self.entries
            .iter()
            .map(|&[lo, hi, metric, role]| RouteEntry {
                address: Address::new(u16::from_le_bytes([lo, hi])),
                metric,
                role,
            })
    }
}

impl UnicastView<'_> {
    /// The packet's kind.
    #[must_use]
    pub fn kind(&self) -> PacketKind {
        match self.body {
            UnicastBody::Data { .. } => PacketKind::Data,
            UnicastBody::Sync { .. } => PacketKind::Sync,
            UnicastBody::Frag { .. } => PacketKind::Frag,
            UnicastBody::Ack { .. } => PacketKind::Ack,
            UnicastBody::Lost { .. } => PacketKind::Lost,
        }
    }

    /// Copies the frame into an owned [`Packet`].
    #[must_use]
    pub fn to_packet(&self) -> Packet {
        let UnicastView {
            dst, src, id, fwd, ..
        } = *self;
        match self.body {
            UnicastBody::Data { payload } => Packet::Data {
                dst,
                src,
                id,
                fwd,
                payload: payload.to_vec(),
            },
            UnicastBody::Sync {
                seq,
                frag_count,
                total_len,
            } => Packet::Sync {
                dst,
                src,
                id,
                fwd,
                seq,
                frag_count,
                total_len,
            },
            UnicastBody::Frag { seq, index, data } => Packet::Frag {
                dst,
                src,
                id,
                fwd,
                seq,
                index,
                data: data.to_vec(),
            },
            UnicastBody::Ack { seq, index } => Packet::Ack {
                dst,
                src,
                id,
                fwd,
                seq,
                index,
            },
            UnicastBody::Lost { seq, missing } => Packet::Lost {
                dst,
                src,
                id,
                fwd,
                seq,
                missing: missing.iter().map(|&m| u16::from_le_bytes(m)).collect(),
            },
        }
    }
}

impl FrameView<'_> {
    /// The originating node.
    #[must_use]
    pub fn src(&self) -> Address {
        match self {
            FrameView::Hello(h) => h.src,
            FrameView::Unicast(u) => u.src,
        }
    }

    /// The packet's kind.
    #[must_use]
    pub fn kind(&self) -> PacketKind {
        match self {
            FrameView::Hello(_) => PacketKind::Hello,
            FrameView::Unicast(u) => u.kind(),
        }
    }

    /// Copies the frame into an owned [`Packet`].
    #[must_use]
    pub fn to_packet(&self) -> Packet {
        match self {
            FrameView::Hello(h) => Packet::Hello {
                src: h.src,
                id: h.id,
                role: h.role,
                entries: h.entries().collect(),
            },
            FrameView::Unicast(u) => u.to_packet(),
        }
    }
}

/// Validates a wire frame — header, declared length and the whole
/// kind-specific body — without copying any of it.
///
/// # Errors
///
/// Returns a [`CodecError`] when the frame is truncated, declares a wrong
/// length, uses an unknown kind, or carries a malformed payload.
pub fn parse(frame: &[u8]) -> Result<FrameView<'_>, CodecError> {
    if frame.len() < COMMON_HEADER_LEN {
        return Err(CodecError::Truncated {
            needed: COMMON_HEADER_LEN,
            got: frame.len(),
        });
    }
    let mut r = Reader::new(frame);
    let dst = Address::new(r.u16_le()?);
    let src = Address::new(r.u16_le()?);
    let kind_byte = r.u8()?;
    let kind = PacketKind::from_wire(kind_byte).ok_or(CodecError::UnknownKind(kind_byte))?;
    let id = r.u8()?;
    let declared = usize::from(r.u8()?);
    let actual = r.remaining();
    if declared != actual {
        return Err(CodecError::LengthMismatch { declared, actual });
    }

    if kind == PacketKind::Hello {
        if actual == 0 {
            return Err(CodecError::MalformedRoutingPayload);
        }
        let role = r.u8()?;
        let (entries, ragged) = r.rest().as_chunks();
        if !ragged.is_empty() {
            return Err(CodecError::MalformedRoutingPayload);
        }
        return Ok(FrameView::Hello(HelloView {
            src,
            id,
            role,
            entries,
        }));
    }

    // All remaining kinds carry the forwarding extension.
    let fwd = Forwarding {
        via: Address::new(r.u16_le()?),
        ttl: r.u8()?,
    };
    let body = match kind {
        // Returned above; this arm only keeps the match exhaustive
        // without reintroducing a panic path.
        PacketKind::Hello => return Err(CodecError::UnknownKind(kind_byte)),
        PacketKind::Data => UnicastBody::Data { payload: r.rest() },
        PacketKind::Sync => UnicastBody::Sync {
            seq: r.u8()?,
            frag_count: r.u16_le()?,
            total_len: r.u32_le()?,
        },
        PacketKind::Frag => UnicastBody::Frag {
            seq: r.u8()?,
            index: r.u16_le()?,
            data: r.rest(),
        },
        PacketKind::Ack => UnicastBody::Ack {
            seq: r.u8()?,
            index: r.u16_le()?,
        },
        PacketKind::Lost => {
            let seq = r.u8()?;
            let (missing, ragged) = r.rest().as_chunks();
            if !ragged.is_empty() {
                return Err(CodecError::MalformedRoutingPayload);
            }
            UnicastBody::Lost { seq, missing }
        }
    };
    // Only the fixed-size bodies (Sync, Ack) can leave bytes behind.
    if r.remaining() > 0 {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(FrameView::Unicast(UnicastView {
        dst,
        src,
        id,
        fwd,
        body,
    }))
}

/// Decodes a wire frame into a packet: [`parse`], then one copy.
///
/// # Errors
///
/// Returns a [`CodecError`] when the frame is truncated, declares a wrong
/// length, uses an unknown kind, or carries a malformed payload.
pub fn decode(frame: &[u8]) -> Result<Packet, CodecError> {
    parse(frame).map(|view| view.to_packet())
}

/// The encoded size of a packet without actually encoding it.
#[must_use]
pub fn encoded_len(packet: &Packet) -> usize {
    COMMON_HEADER_LEN
        + match packet {
            Packet::Hello { entries, .. } => 1 + entries.len() * ROUTE_ENTRY_LEN,
            Packet::Data { payload, .. } => FORWARDING_LEN + payload.len(),
            Packet::Sync { .. } => FORWARDING_LEN + 7,
            Packet::Frag { data, .. } => FORWARDING_LEN + 3 + data.len(),
            Packet::Ack { .. } => FORWARDING_LEN + 3,
            Packet::Lost { missing, .. } => FORWARDING_LEN + 1 + 2 * missing.len(),
        }
}

#[cfg(test)]
// Tests index into frames they just built; a panic here is a test
// failure, not a protocol crash.
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::packet::SYNC_ACK_INDEX;

    fn fwd() -> Forwarding {
        Forwarding {
            via: Address::new(0x0202),
            ttl: 10,
        }
    }

    fn samples() -> Vec<Packet> {
        let src = Address::new(0x0A0A);
        let dst = Address::new(0x1414);
        vec![
            Packet::Hello {
                src,
                id: 7,
                role: 1,
                entries: vec![
                    RouteEntry {
                        address: Address::new(3),
                        metric: 1,
                        role: 0,
                    },
                    RouteEntry {
                        address: Address::new(4),
                        metric: 2,
                        role: 1,
                    },
                ],
            },
            Packet::Data {
                dst,
                src,
                id: 8,
                fwd: fwd(),
                payload: b"hello mesh".to_vec(),
            },
            Packet::Sync {
                dst,
                src,
                id: 9,
                fwd: fwd(),
                seq: 3,
                frag_count: 12,
                total_len: 2800,
            },
            Packet::Frag {
                dst,
                src,
                id: 10,
                fwd: fwd(),
                seq: 3,
                index: 5,
                data: vec![0xAA; 100],
            },
            Packet::Ack {
                dst,
                src,
                id: 11,
                fwd: fwd(),
                seq: 3,
                index: SYNC_ACK_INDEX,
            },
            Packet::Lost {
                dst,
                src,
                id: 12,
                fwd: fwd(),
                seq: 3,
                missing: vec![2, 7, 9],
            },
        ]
    }

    #[test]
    fn round_trip_all_kinds() {
        for p in samples() {
            let wire = encode(&p).unwrap();
            let back = decode(&wire).unwrap();
            assert_eq!(back, p, "kind {}", p.kind());
            assert_eq!(wire.len(), encoded_len(&p), "encoded_len for {}", p.kind());
        }
    }

    #[test]
    fn header_layout_matches_spec() {
        let p = Packet::Data {
            dst: Address::new(0x2211),
            src: Address::new(0x4433),
            id: 0x55,
            fwd: Forwarding {
                via: Address::new(0x7766),
                ttl: 0x08,
            },
            payload: vec![0xAB, 0xCD],
        };
        let wire = encode(&p).unwrap();
        assert_eq!(
            wire,
            vec![
                0x11, 0x22, // dst LE
                0x33, 0x44, // src LE
                0x02, // kind Data
                0x55, // id
                0x05, // plen: via(2)+ttl(1)+payload(2)
                0x66, 0x77, // via LE
                0x08, // ttl
                0xAB, 0xCD,
            ]
        );
    }

    #[test]
    fn overhead_constants_match_reality() {
        let data = Packet::Data {
            dst: Address::new(1),
            src: Address::new(2),
            id: 0,
            fwd: fwd(),
            payload: vec![],
        };
        assert_eq!(encode(&data).unwrap().len(), DATA_OVERHEAD);
        let frag = Packet::Frag {
            dst: Address::new(1),
            src: Address::new(2),
            id: 0,
            fwd: fwd(),
            seq: 0,
            index: 0,
            data: vec![],
        };
        assert_eq!(encode(&frag).unwrap().len(), FRAG_OVERHEAD);
    }

    #[test]
    fn max_payload_fits_min_over_does_not() {
        let mk = |n: usize| Packet::Data {
            dst: Address::new(1),
            src: Address::new(2),
            id: 0,
            fwd: fwd(),
            payload: vec![0; n],
        };
        assert_eq!(encode(&mk(MAX_DATA_PAYLOAD)).unwrap().len(), MAX_FRAME_LEN);
        assert_eq!(
            encode(&mk(MAX_DATA_PAYLOAD + 1)),
            Err(CodecError::FrameTooLarge(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn hello_with_max_entries_fits() {
        let entries = vec![
            RouteEntry {
                address: Address::new(9),
                metric: 3,
                role: 0
            };
            MAX_HELLO_ENTRIES
        ];
        let p = Packet::Hello {
            src: Address::new(1),
            id: 0,
            role: 0,
            entries,
        };
        let wire = encode(&p).unwrap();
        assert!(wire.len() <= MAX_FRAME_LEN);
        assert!(
            matches!(decode(&wire).unwrap(), Packet::Hello { entries, .. } if entries.len() == MAX_HELLO_ENTRIES)
        );
    }

    #[test]
    fn decode_rejects_truncated() {
        assert_eq!(
            decode(&[0, 0, 0]),
            Err(CodecError::Truncated { needed: 7, got: 3 })
        );
        // Unicast frame cut before its forwarding extension.
        let mut wire = encode(&samples()[1]).unwrap();
        wire.truncate(8);
        wire[6] = 1; // make declared length consistent with the cut
        assert!(matches!(decode(&wire), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        let mut wire = encode(&samples()[1]).unwrap();
        wire[4] = 0x7F;
        assert_eq!(decode(&wire), Err(CodecError::UnknownKind(0x7F)));
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        let mut wire = encode(&samples()[1]).unwrap();
        wire[6] += 1;
        assert!(matches!(
            decode(&wire),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn decode_rejects_ragged_hello() {
        let mut wire = encode(&samples()[0]).unwrap();
        wire.push(0xEE); // half an entry
        wire[6] += 1;
        assert_eq!(decode(&wire), Err(CodecError::MalformedRoutingPayload));
    }

    #[test]
    fn decode_rejects_ragged_lost() {
        let p = Packet::Lost {
            dst: Address::new(1),
            src: Address::new(2),
            id: 0,
            fwd: fwd(),
            seq: 1,
            missing: vec![4],
        };
        let mut wire = encode(&p).unwrap();
        wire.push(0x01);
        wire[6] += 1;
        assert_eq!(decode(&wire), Err(CodecError::MalformedRoutingPayload));
    }

    /// Sync and Ack bodies have a fixed size; anything after them is an
    /// error, not ignored padding.
    #[test]
    fn decode_rejects_trailing_bytes_after_fixed_size_bodies() {
        for p in [&samples()[2], &samples()[4]] {
            let mut wire = encode(p).unwrap();
            wire.extend_from_slice(&[0xEE, 0xEE]);
            wire[6] += 2;
            assert_eq!(decode(&wire), Err(CodecError::TrailingBytes(2)), "{p:?}");
        }
    }

    /// The view's variable-length parts are the frame's own bytes.
    #[test]
    fn parse_borrows_from_the_frame() {
        let wire = encode(&samples()[1]).unwrap();
        match parse(&wire).unwrap() {
            FrameView::Unicast(UnicastView {
                body: UnicastBody::Data { payload },
                ..
            }) => assert!(core::ptr::eq(payload, &wire[DATA_OVERHEAD..])),
            v => panic!("unexpected {v:?}"),
        }
        let wire = encode(&samples()[0]).unwrap();
        match parse(&wire).unwrap() {
            FrameView::Hello(hello) => {
                assert_eq!(
                    (hello.src, hello.id, hello.role),
                    (Address::new(0x0A0A), 7, 1)
                );
                let metrics: Vec<u8> = hello.entries().map(|e| e.metric).collect();
                assert_eq!(metrics, vec![1, 2]);
            }
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn empty_data_payload_round_trips() {
        let p = Packet::Data {
            dst: Address::new(1),
            src: Address::new(2),
            id: 0,
            fwd: fwd(),
            payload: vec![],
        };
        assert_eq!(decode(&encode(&p).unwrap()).unwrap(), p);
    }

    #[test]
    fn empty_hello_round_trips() {
        let p = Packet::Hello {
            src: Address::new(2),
            id: 0,
            role: 3,
            entries: vec![],
        };
        assert_eq!(decode(&encode(&p).unwrap()).unwrap(), p);
    }
}
