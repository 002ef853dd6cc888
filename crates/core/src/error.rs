//! Error types.

use core::fmt;

use crate::addr::Address;

/// Errors arising when decoding a frame from the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The frame is shorter than its mandatory header.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The packet-type byte is not a known [`crate::PacketKind`].
    UnknownKind(u8),
    /// The header's payload length disagrees with the frame length.
    LengthMismatch {
        /// Length declared in the header.
        declared: usize,
        /// Length actually present.
        actual: usize,
    },
    /// A routing packet's payload is not a whole number of entries.
    MalformedRoutingPayload,
    /// The encoded frame would exceed the LoRa PHY payload limit.
    FrameTooLarge(usize),
    /// A fixed-size body carries bytes past its defined end.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, got {got}")
            }
            CodecError::UnknownKind(k) => write!(f, "unknown packet kind 0x{k:02X}"),
            CodecError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "length mismatch: header declares {declared}, frame has {actual}"
                )
            }
            CodecError::MalformedRoutingPayload => write!(f, "malformed routing payload"),
            CodecError::FrameTooLarge(n) => {
                write!(f, "encoded frame of {n} bytes exceeds the PHY limit")
            }
            CodecError::TrailingBytes(n) => {
                write!(f, "{n} unexpected byte(s) after a fixed-size body")
            }
        }
    }
}

#[cfg(feature = "std")]
impl std::error::Error for CodecError {}

/// Errors returned when an application submits traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// No route to the destination is known.
    NoRoute(Address),
    /// The payload exceeds the limit of the service it was sent with:
    /// one frame for a datagram (use the reliable large-payload service
    /// instead), [`crate::codec::MAX_RELIABLE_PAYLOAD`] for a reliable
    /// transfer.
    PayloadTooLarge {
        /// Bytes submitted.
        len: usize,
        /// The service's maximum payload.
        max: usize,
    },
    /// The transmit queue is full.
    QueueFull,
    /// The payload is empty.
    EmptyPayload,
    /// A reliable transfer to this destination is already in progress.
    TransferInProgress(Address),
    /// Reliable transfers cannot be broadcast.
    BroadcastUnsupported,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::NoRoute(a) => write!(f, "no route to {a}"),
            SendError::PayloadTooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte limit")
            }
            SendError::QueueFull => write!(f, "transmit queue full"),
            SendError::EmptyPayload => write!(f, "payload is empty"),
            SendError::TransferInProgress(a) => {
                write!(f, "a reliable transfer to {a} is already in progress")
            }
            SendError::BroadcastUnsupported => {
                write!(f, "reliable transfers cannot be broadcast")
            }
        }
    }
}

#[cfg(feature = "std")]
impl std::error::Error for SendError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_errors_display() {
        assert_eq!(
            CodecError::Truncated { needed: 7, got: 3 }.to_string(),
            "truncated frame: need 7 bytes, got 3"
        );
        assert_eq!(
            CodecError::UnknownKind(0xAB).to_string(),
            "unknown packet kind 0xAB"
        );
        assert!(CodecError::MalformedRoutingPayload
            .to_string()
            .contains("routing"));
    }

    #[test]
    fn send_errors_display() {
        assert_eq!(
            SendError::NoRoute(Address::new(0x0009)).to_string(),
            "no route to 0009"
        );
        assert!(SendError::PayloadTooLarge { len: 500, max: 200 }
            .to_string()
            .contains("500"));
        assert!(SendError::QueueFull.to_string().contains("full"));
    }

    #[test]
    fn errors_implement_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&CodecError::UnknownKind(1));
        takes_err(&SendError::QueueFull);
    }
}
