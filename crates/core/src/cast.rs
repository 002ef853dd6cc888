//! Checked narrowing conversions (the crate denies
//! `clippy::cast_possible_truncation`).
//!
//! Addresses, lengths, fragment counts and sequence numbers travel the
//! wire as `u8`/`u16`; a bare `as` cast silently wraps when the value
//! outgrew the field, corrupting the frame in a way no test catches
//! until routing misbehaves. These helpers make the overflow policy
//! explicit at the call site: saturate (for counters that only feed
//! diagnostics) or error (for values that end up on the wire).

/// Saturating `usize` → `u16`: values above `u16::MAX` clamp to
/// `u16::MAX` instead of wrapping.
#[must_use]
pub fn sat_u16(n: usize) -> u16 {
    u16::try_from(n).unwrap_or(u16::MAX)
}

/// Saturating `usize` → `u8`: values above `u8::MAX` clamp to
/// `u8::MAX` instead of wrapping.
#[must_use]
pub fn sat_u8(n: usize) -> u8 {
    u8::try_from(n).unwrap_or(u8::MAX)
}

/// Saturating `usize` → `u32`.
#[must_use]
pub fn sat_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_instead_of_wrapping() {
        assert_eq!(sat_u16(7), 7);
        assert_eq!(sat_u16(usize::from(u16::MAX) + 1), u16::MAX);
        assert_eq!(sat_u8(255), 255);
        assert_eq!(sat_u8(256), u8::MAX);
        assert_eq!(sat_u32(12), 12);
    }
}
