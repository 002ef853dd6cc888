//! Typed application messages for the flooding stack.
//!
//! Meshtastic multiplexes application traffic over numbered ports; the
//! four message types its deployments live on — text, position,
//! node-info and telemetry — are reproduced here with a compact binary
//! encoding: one port byte, then the port-specific body. The port
//! numbers match Meshtastic's so the mapping is recognisable
//! (`TEXT_MESSAGE_APP = 1`, `POSITION_APP = 3`, `NODEINFO_APP = 4`,
//! `TELEMETRY_APP = 67`).
//!
//! Like the frame codec, decoding operates on untrusted over-the-air
//! bytes and must return `Err`, never panic: all reads are
//! bounds-checked and strings decode lossily.

use alloc::string::String;
use alloc::vec::Vec;

use crate::cast::sat_u8;
use crate::error::CodecError;

/// Port byte of [`FloodMessage::Text`].
pub const PORT_TEXT: u8 = 1;
/// Port byte of [`FloodMessage::Position`].
pub const PORT_POSITION: u8 = 3;
/// Port byte of [`FloodMessage::NodeInfo`].
pub const PORT_NODE_INFO: u8 = 4;
/// Port byte of [`FloodMessage::Telemetry`].
pub const PORT_TELEMETRY: u8 = 67;

/// A typed application message carried in a flood payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FloodMessage {
    /// A UTF-8 text message.
    Text(String),
    /// A position report in 1e-7 degree fixed point (Meshtastic's
    /// integer-degree convention, which survives no-FPU targets).
    Position {
        /// Latitude × 1e7.
        latitude_i: i32,
        /// Longitude × 1e7.
        longitude_i: i32,
        /// Altitude above sea level in metres.
        altitude_m: i32,
    },
    /// An identity beacon.
    NodeInfo {
        /// Stable hardware id.
        id: u32,
        /// Human-readable name (truncated to 255 bytes on the wire).
        long_name: String,
        /// Short display name (truncated to 255 bytes on the wire).
        short_name: String,
        /// Hardware model discriminator.
        hw_model: u8,
    },
    /// A device-metrics report.
    Telemetry {
        /// Battery level, 0–100 (255 = externally powered).
        battery_pct: u8,
        /// Battery voltage in millivolts.
        voltage_mv: u16,
        /// Channel utilisation percentage observed by the node.
        channel_util_pct: u8,
        /// Seconds since boot.
        uptime_s: u32,
    },
}

/// Bounds-checked cursor over an untrusted message body.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.saturating_add(n);
        let chunk = self.bytes.get(self.pos..end).ok_or(CodecError::Truncated {
            needed: end,
            got: self.bytes.len(),
        })?;
        self.pos = end;
        Ok(chunk)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    fn u16_le(&mut self) -> Result<u16, CodecError> {
        let mut b = [0u8; 2];
        b.copy_from_slice(self.take(2)?);
        Ok(u16::from_le_bytes(b))
    }

    fn u32_le(&mut self) -> Result<u32, CodecError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn i32_le(&mut self) -> Result<i32, CodecError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(i32::from_le_bytes(b))
    }

    /// A u8-length-prefixed string, decoded lossily (corruption turns
    /// into replacement characters, never an error or a panic).
    fn string(&mut self) -> Result<String, CodecError> {
        let len = usize::from(self.u8()?);
        Ok(String::from_utf8_lossy(self.take(len)?).into_owned())
    }

    fn finish(self) -> Result<(), CodecError> {
        let left = self.bytes.len().saturating_sub(self.pos);
        if left == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(left))
        }
    }
}

/// Appends a u8-length-prefixed string, truncating to 255 bytes on a
/// character boundary.
fn put_string(out: &mut Vec<u8>, s: &str) {
    let mut end = s.len().min(255);
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    let bytes = s.as_bytes().get(..end).unwrap_or(&[]);
    out.push(sat_u8(bytes.len()));
    out.extend_from_slice(bytes);
}

impl FloodMessage {
    /// The message's port byte.
    #[must_use]
    pub fn port(&self) -> u8 {
        match self {
            FloodMessage::Text(_) => PORT_TEXT,
            FloodMessage::Position { .. } => PORT_POSITION,
            FloodMessage::NodeInfo { .. } => PORT_NODE_INFO,
            FloodMessage::Telemetry { .. } => PORT_TELEMETRY,
        }
    }

    /// Encodes the message as a flood payload: port byte + body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(self.port());
        match self {
            FloodMessage::Text(text) => {
                // Text owns the rest of the payload: no length prefix,
                // so the 255-byte string cap does not apply.
                out.extend_from_slice(text.as_bytes());
            }
            FloodMessage::Position {
                latitude_i,
                longitude_i,
                altitude_m,
            } => {
                out.extend_from_slice(&latitude_i.to_le_bytes());
                out.extend_from_slice(&longitude_i.to_le_bytes());
                out.extend_from_slice(&altitude_m.to_le_bytes());
            }
            FloodMessage::NodeInfo {
                id,
                long_name,
                short_name,
                hw_model,
            } => {
                out.extend_from_slice(&id.to_le_bytes());
                put_string(&mut out, long_name);
                put_string(&mut out, short_name);
                out.push(*hw_model);
            }
            FloodMessage::Telemetry {
                battery_pct,
                voltage_mv,
                channel_util_pct,
                uptime_s,
            } => {
                out.push(*battery_pct);
                out.extend_from_slice(&voltage_mv.to_le_bytes());
                out.push(*channel_util_pct);
                out.extend_from_slice(&uptime_s.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a flood payload produced by [`FloodMessage::encode`].
    ///
    /// # Errors
    ///
    /// * [`CodecError::Truncated`] — the body is shorter than the port
    ///   requires.
    /// * [`CodecError::UnknownKind`] — the port byte is not one of the
    ///   four known applications.
    /// * [`CodecError::TrailingBytes`] — a fixed-size body carries
    ///   extra bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(payload);
        let port = r.u8()?;
        match port {
            PORT_TEXT => {
                let rest = r.take(payload.len().saturating_sub(1))?;
                Ok(FloodMessage::Text(
                    String::from_utf8_lossy(rest).into_owned(),
                ))
            }
            PORT_POSITION => {
                let msg = FloodMessage::Position {
                    latitude_i: r.i32_le()?,
                    longitude_i: r.i32_le()?,
                    altitude_m: r.i32_le()?,
                };
                r.finish()?;
                Ok(msg)
            }
            PORT_NODE_INFO => {
                let msg = FloodMessage::NodeInfo {
                    id: r.u32_le()?,
                    long_name: r.string()?,
                    short_name: r.string()?,
                    hw_model: r.u8()?,
                };
                r.finish()?;
                Ok(msg)
            }
            PORT_TELEMETRY => {
                let msg = FloodMessage::Telemetry {
                    battery_pct: r.u8()?,
                    voltage_mv: r.u16_le()?,
                    channel_util_pct: r.u8()?,
                    uptime_s: r.u32_le()?,
                };
                r.finish()?;
                Ok(msg)
            }
            other => Err(CodecError::UnknownKind(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::string::ToString;
    use alloc::vec;

    fn round_trip(msg: FloodMessage) {
        let wire = msg.encode();
        assert_eq!(FloodMessage::decode(&wire), Ok(msg));
    }

    #[test]
    fn every_kind_round_trips() {
        round_trip(FloodMessage::Text("hello mesh".to_string()));
        round_trip(FloodMessage::Position {
            latitude_i: 413_850_000,
            longitude_i: 21_683_000,
            altitude_m: -12,
        });
        round_trip(FloodMessage::NodeInfo {
            id: 0xDEAD_BEEF,
            long_name: "Gateway über alles".to_string(),
            short_name: "GW1".to_string(),
            hw_model: 9,
        });
        round_trip(FloodMessage::Telemetry {
            battery_pct: 87,
            voltage_mv: 3912,
            channel_util_pct: 14,
            uptime_s: 86_400,
        });
    }

    #[test]
    fn empty_text_round_trips() {
        round_trip(FloodMessage::Text(String::new()));
    }

    #[test]
    fn long_names_truncate_on_char_boundaries() {
        let msg = FloodMessage::NodeInfo {
            id: 1,
            long_name: "é".repeat(200), // 400 bytes of 2-byte chars
            short_name: String::new(),
            hw_model: 0,
        };
        let wire = msg.encode();
        match FloodMessage::decode(&wire) {
            Ok(FloodMessage::NodeInfo { long_name, .. }) => {
                assert_eq!(long_name, "é".repeat(127)); // 254 bytes fit
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_port_and_truncation_are_errors_not_panics() {
        assert_eq!(
            FloodMessage::decode(&[200]),
            Err(CodecError::UnknownKind(200))
        );
        assert!(matches!(
            FloodMessage::decode(&[PORT_POSITION, 1, 2]),
            Err(CodecError::Truncated { .. })
        ));
        assert!(matches!(
            FloodMessage::decode(&[]),
            Err(CodecError::Truncated { .. })
        ));
        // Trailing garbage after a fixed-size body is rejected, so a
        // decoded message always re-encodes to the exact input.
        let mut wire = FloodMessage::Telemetry {
            battery_pct: 1,
            voltage_mv: 2,
            channel_util_pct: 3,
            uptime_s: 4,
        }
        .encode();
        wire.push(0xFF);
        assert_eq!(
            FloodMessage::decode(&wire),
            Err(CodecError::TrailingBytes(1))
        );
    }

    #[test]
    fn corrupt_utf8_decodes_lossily() {
        let wire = vec![PORT_TEXT, 0xFF, 0xFE, b'a'];
        match FloodMessage::decode(&wire) {
            Ok(FloodMessage::Text(t)) => assert!(t.ends_with('a')),
            other => panic!("unexpected {other:?}"),
        }
    }
}
