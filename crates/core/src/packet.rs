//! The packet types of the LoRaMesher protocol.
//!
//! Six packet kinds cover the whole protocol:
//!
//! | kind  | purpose                                              |
//! |-------|------------------------------------------------------|
//! | Hello | periodic routing-table broadcast (distance vector)   |
//! | Data  | single-frame application datagram, forwarded via `via` |
//! | Sync  | opens a reliable large-payload transfer              |
//! | Frag  | one fragment of a reliable transfer                  |
//! | Ack   | acknowledges the Sync or one fragment                |
//! | Lost  | receiver-side request to resend missing fragments    |
//!
//! All packets share a 7-byte header (`dst`, `src`, kind, id, length);
//! unicast packets add a 3-byte forwarding extension (`via` next hop and a
//! TTL). See [`crate::codec`] for the exact wire layout.

use alloc::vec::Vec;
use core::fmt;

use crate::addr::Address;

/// Packet type discriminants as they appear on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PacketKind {
    /// Routing-table broadcast.
    Hello = 0x01,
    /// Application datagram.
    Data = 0x02,
    /// Reliable-transfer handshake.
    Sync = 0x03,
    /// Reliable-transfer fragment.
    Frag = 0x04,
    /// Reliable-transfer acknowledgement.
    Ack = 0x05,
    /// Reliable-transfer retransmission request.
    Lost = 0x06,
}

impl PacketKind {
    /// Parses a wire discriminant.
    #[must_use]
    pub fn from_wire(byte: u8) -> Option<Self> {
        match byte {
            0x01 => Some(PacketKind::Hello),
            0x02 => Some(PacketKind::Data),
            0x03 => Some(PacketKind::Sync),
            0x04 => Some(PacketKind::Frag),
            0x05 => Some(PacketKind::Ack),
            0x06 => Some(PacketKind::Lost),
            _ => None,
        }
    }

    /// The wire discriminant (inverse of [`PacketKind::from_wire`]).
    #[must_use]
    pub fn wire(self) -> u8 {
        match self {
            PacketKind::Hello => 0x01,
            PacketKind::Data => 0x02,
            PacketKind::Sync => 0x03,
            PacketKind::Frag => 0x04,
            PacketKind::Ack => 0x05,
            PacketKind::Lost => 0x06,
        }
    }
}

impl fmt::Display for PacketKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PacketKind::Hello => "HELLO",
            PacketKind::Data => "DATA",
            PacketKind::Sync => "SYNC",
            PacketKind::Frag => "FRAG",
            PacketKind::Ack => "ACK",
            PacketKind::Lost => "LOST",
        };
        f.write_str(name)
    }
}

/// One routing-table entry as carried in a Hello broadcast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteEntry {
    /// The advertised destination.
    pub address: Address,
    /// Hop-count metric to reach it from the advertiser.
    pub metric: u8,
    /// Role bits of the destination (e.g. gateway).
    pub role: u8,
}

/// Fragment index used in an [`Packet::Ack`] that acknowledges the Sync
/// handshake rather than a fragment.
pub const SYNC_ACK_INDEX: u16 = 0xFFFF;

/// Forwarding fields shared by all unicast packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Forwarding {
    /// The next hop that should relay this packet.
    pub via: Address,
    /// Remaining hop budget; decremented at each relay.
    pub ttl: u8,
}

/// A decoded LoRaMesher packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Packet {
    /// Periodic routing broadcast: the sender's routing table.
    Hello {
        /// The advertising node.
        src: Address,
        /// The sender's packet id.
        id: u8,
        /// Role bits of the advertising node itself.
        role: u8,
        /// The advertised routes (the sender's table).
        entries: Vec<RouteEntry>,
    },
    /// A single-frame application datagram.
    Data {
        /// Final destination.
        dst: Address,
        /// Originating node.
        src: Address,
        /// The originator's packet id.
        id: u8,
        /// Forwarding state.
        fwd: Forwarding,
        /// Application payload.
        payload: Vec<u8>,
    },
    /// Opens a reliable transfer of `total_len` bytes in `frag_count`
    /// fragments.
    Sync {
        /// Final destination.
        dst: Address,
        /// Originating node.
        src: Address,
        /// The originator's packet id.
        id: u8,
        /// Forwarding state.
        fwd: Forwarding,
        /// Transfer sequence id (per originator).
        seq: u8,
        /// Number of fragments to follow.
        frag_count: u16,
        /// Total payload length in bytes.
        total_len: u32,
    },
    /// One fragment of a reliable transfer.
    Frag {
        /// Final destination.
        dst: Address,
        /// Originating node.
        src: Address,
        /// The originator's packet id.
        id: u8,
        /// Forwarding state.
        fwd: Forwarding,
        /// Transfer sequence id.
        seq: u8,
        /// Zero-based fragment index.
        index: u16,
        /// Fragment bytes.
        data: Vec<u8>,
    },
    /// Acknowledges the Sync ([`SYNC_ACK_INDEX`]) or fragment `index`.
    Ack {
        /// Final destination (the transfer's sender).
        dst: Address,
        /// Originating node (the transfer's receiver).
        src: Address,
        /// The originator's packet id.
        id: u8,
        /// Forwarding state.
        fwd: Forwarding,
        /// Transfer sequence id.
        seq: u8,
        /// Acknowledged fragment index, or [`SYNC_ACK_INDEX`].
        index: u16,
    },
    /// Requests retransmission of the listed fragments.
    Lost {
        /// Final destination (the transfer's sender).
        dst: Address,
        /// Originating node (the transfer's receiver).
        src: Address,
        /// The originator's packet id.
        id: u8,
        /// Forwarding state.
        fwd: Forwarding,
        /// Transfer sequence id.
        seq: u8,
        /// Missing fragment indices.
        missing: Vec<u16>,
    },
}

impl Packet {
    /// The packet's kind.
    #[must_use]
    pub fn kind(&self) -> PacketKind {
        match self {
            Packet::Hello { .. } => PacketKind::Hello,
            Packet::Data { .. } => PacketKind::Data,
            Packet::Sync { .. } => PacketKind::Sync,
            Packet::Frag { .. } => PacketKind::Frag,
            Packet::Ack { .. } => PacketKind::Ack,
            Packet::Lost { .. } => PacketKind::Lost,
        }
    }

    /// The originating node.
    #[must_use]
    pub fn src(&self) -> Address {
        match *self {
            Packet::Hello { src, .. }
            | Packet::Data { src, .. }
            | Packet::Sync { src, .. }
            | Packet::Frag { src, .. }
            | Packet::Ack { src, .. }
            | Packet::Lost { src, .. } => src,
        }
    }

    /// The final destination ([`Address::BROADCAST`] for Hello).
    #[must_use]
    pub fn dst(&self) -> Address {
        match *self {
            Packet::Hello { .. } => Address::BROADCAST,
            Packet::Data { dst, .. }
            | Packet::Sync { dst, .. }
            | Packet::Frag { dst, .. }
            | Packet::Ack { dst, .. }
            | Packet::Lost { dst, .. } => dst,
        }
    }

    /// The originator's packet id.
    #[must_use]
    pub fn id(&self) -> u8 {
        match *self {
            Packet::Hello { id, .. }
            | Packet::Data { id, .. }
            | Packet::Sync { id, .. }
            | Packet::Frag { id, .. }
            | Packet::Ack { id, .. }
            | Packet::Lost { id, .. } => id,
        }
    }

    /// The forwarding fields of a unicast packet (`None` for Hello).
    #[must_use]
    pub fn forwarding(&self) -> Option<Forwarding> {
        match *self {
            Packet::Hello { .. } => None,
            Packet::Data { fwd, .. }
            | Packet::Sync { fwd, .. }
            | Packet::Frag { fwd, .. }
            | Packet::Ack { fwd, .. }
            | Packet::Lost { fwd, .. } => Some(fwd),
        }
    }

    /// Mutable access to the forwarding fields (`None` for Hello).
    pub fn forwarding_mut(&mut self) -> Option<&mut Forwarding> {
        match self {
            Packet::Hello { .. } => None,
            Packet::Data { fwd, .. }
            | Packet::Sync { fwd, .. }
            | Packet::Frag { fwd, .. }
            | Packet::Ack { fwd, .. }
            | Packet::Lost { fwd, .. } => Some(fwd),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fwd() -> Forwarding {
        Forwarding {
            via: Address::new(2),
            ttl: 8,
        }
    }

    #[test]
    fn kind_round_trips_wire_byte() {
        for kind in [
            PacketKind::Hello,
            PacketKind::Data,
            PacketKind::Sync,
            PacketKind::Frag,
            PacketKind::Ack,
            PacketKind::Lost,
        ] {
            assert_eq!(PacketKind::from_wire(kind as u8), Some(kind));
        }
        assert_eq!(PacketKind::from_wire(0x00), None);
        assert_eq!(PacketKind::from_wire(0x07), None);
    }

    #[test]
    fn accessors_cover_all_variants() {
        let src = Address::new(10);
        let dst = Address::new(20);
        let packets = [
            Packet::Hello {
                src,
                id: 1,
                role: 0,
                entries: vec![],
            },
            Packet::Data {
                dst,
                src,
                id: 2,
                fwd: fwd(),
                payload: vec![1],
            },
            Packet::Sync {
                dst,
                src,
                id: 3,
                fwd: fwd(),
                seq: 1,
                frag_count: 4,
                total_len: 700,
            },
            Packet::Frag {
                dst,
                src,
                id: 4,
                fwd: fwd(),
                seq: 1,
                index: 2,
                data: vec![9],
            },
            Packet::Ack {
                dst,
                src,
                id: 5,
                fwd: fwd(),
                seq: 1,
                index: SYNC_ACK_INDEX,
            },
            Packet::Lost {
                dst,
                src,
                id: 6,
                fwd: fwd(),
                seq: 1,
                missing: vec![3],
            },
        ];
        for (id, p) in (1u8..).zip(&packets) {
            assert_eq!(p.src(), src);
            assert_eq!(p.id(), id);
            if matches!(p, Packet::Hello { .. }) {
                assert_eq!(p.dst(), Address::BROADCAST);
                assert!(p.forwarding().is_none());
            } else {
                assert_eq!(p.dst(), dst);
                assert_eq!(p.forwarding(), Some(fwd()));
            }
        }
    }

    #[test]
    fn forwarding_mut_rewrites_via() {
        let mut p = Packet::Data {
            dst: Address::new(20),
            src: Address::new(10),
            id: 0,
            fwd: fwd(),
            payload: vec![],
        };
        let f = p.forwarding_mut().unwrap();
        f.via = Address::new(99);
        f.ttl -= 1;
        assert_eq!(
            p.forwarding(),
            Some(Forwarding {
                via: Address::new(99),
                ttl: 7
            })
        );
        let mut hello = Packet::Hello {
            src: Address::new(1),
            id: 0,
            role: 0,
            entries: vec![],
        };
        assert!(hello.forwarding_mut().is_none());
    }

    #[test]
    fn kind_display() {
        assert_eq!(PacketKind::Hello.to_string(), "HELLO");
        assert_eq!(PacketKind::Lost.to_string(), "LOST");
    }
}
