//! AES-128-CTR payload encryption for the flooding stack (feature
//! `crypto`).
//!
//! Meshtastic encrypts application payloads with AES-CTR keyed per
//! channel, deriving the counter block from the packet's originator and
//! id so every flood uses a distinct keystream. This module reproduces
//! that scheme with a self-contained, no_std AES-128 (pulling in a
//! cipher crate would break the zero-dependency rule); CTR mode needs
//! only block *encryption*, so decryption is the same XOR pass.
//!
//! The implementation favours auditability over speed — table-lookup
//! S-box, byte-level MixColumns — which is plenty for simulation and
//! for LoRa data rates (a 200-byte payload is 13 blocks). Correctness
//! is pinned against the FIPS-197 and NIST SP 800-38A known-answer
//! vectors below.
//!
//! Like every flood module this file sits on the receive path of
//! untrusted frames, so it is held to meshlint rule R1: no panicking
//! operation appears here — table lookups go through `get`, block
//! reshaping through iterators and `copy_from_slice` on exact-size
//! arrays.

use alloc::vec::Vec;

use crate::addr::Address;

/// The AES S-box (FIPS-197 figure 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

fn sbox(b: u8) -> u8 {
    SBOX.get(usize::from(b)).copied().unwrap_or(0)
}

/// Multiplication by `x` in GF(2^8) modulo the AES polynomial.
fn xtime(b: u8) -> u8 {
    let shifted = b << 1;
    if b & 0x80 != 0 {
        shifted ^ 0x1b
    } else {
        shifted
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = sbox(*b);
    }
}

fn pick(s: &[u8; 16], i: usize) -> u8 {
    s.get(i).copied().unwrap_or(0)
}

/// Row `r` of the column-major state rotates left by `r`.
fn shift_rows(s: &mut [u8; 16]) {
    let t = [
        pick(s, 0),
        pick(s, 5),
        pick(s, 10),
        pick(s, 15),
        pick(s, 4),
        pick(s, 9),
        pick(s, 14),
        pick(s, 3),
        pick(s, 8),
        pick(s, 13),
        pick(s, 2),
        pick(s, 7),
        pick(s, 12),
        pick(s, 1),
        pick(s, 6),
        pick(s, 11),
    ];
    *s = t;
}

fn mix_columns(state: &mut [u8; 16]) {
    for col in state.chunks_exact_mut(4) {
        // chunks_exact_mut(4) yields only 4-byte slices.
        if let [a, b, c, d] = *col {
            let t = a ^ b ^ c ^ d;
            let na = a ^ t ^ xtime(a ^ b);
            let nb = b ^ t ^ xtime(b ^ c);
            let nc = c ^ t ^ xtime(c ^ d);
            let nd = d ^ t ^ xtime(d ^ a);
            col.copy_from_slice(&[na, nb, nc, nd]);
        }
    }
}

fn xor16(state: &mut [u8; 16], key: &[u8; 16]) {
    for (b, k) in state.iter_mut().zip(key.iter()) {
        *b ^= *k;
    }
}

/// An expanded AES-128 key ready for CTR keystream generation.
#[derive(Clone)]
pub struct Aes128Ctr {
    round_keys: [[u8; 16]; 11],
}

impl core::fmt::Debug for Aes128Ctr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.write_str("Aes128Ctr { .. }")
    }
}

impl Aes128Ctr {
    /// Expands `key` into the 11 round keys (FIPS-197 §5.2).
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let mut words: Vec<[u8; 4]> = Vec::with_capacity(44);
        for chunk in key.chunks_exact(4) {
            let mut w = [0u8; 4];
            w.copy_from_slice(chunk);
            words.push(w);
        }
        for i in 4..44usize {
            let mut t = words.get(i - 1).copied().unwrap_or_default();
            if i % 4 == 0 {
                t.rotate_left(1);
                for b in t.iter_mut() {
                    *b = sbox(*b);
                }
                if let Some(first) = t.first_mut() {
                    *first ^= RCON.get(i / 4 - 1).copied().unwrap_or(0);
                }
            }
            let prev = words.get(i - 4).copied().unwrap_or_default();
            for (b, p) in t.iter_mut().zip(prev.iter()) {
                *b ^= *p;
            }
            words.push(t);
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (rk, four_words) in round_keys.iter_mut().zip(words.chunks_exact(4)) {
            for (dst, w) in rk.chunks_exact_mut(4).zip(four_words.iter()) {
                dst.copy_from_slice(w);
            }
        }
        Aes128Ctr { round_keys }
    }

    /// Encrypts one block (used only to generate keystream).
    fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let mut s = block;
        let mut rounds = self.round_keys.iter();
        if let Some(k0) = rounds.next() {
            xor16(&mut s, k0);
        }
        for (round, key) in rounds.enumerate() {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            if round < 9 {
                mix_columns(&mut s);
            }
            xor16(&mut s, key);
        }
        s
    }

    /// XORs the CTR keystream for `counter_block` (incremented in its
    /// trailing 32 bits per 16-byte block) into `data`. Applying it
    /// twice with the same parameters restores the plaintext.
    pub fn apply_keystream(&self, counter_block: &[u8; 16], data: &mut [u8]) {
        for (block_index, chunk) in data.chunks_mut(16).enumerate() {
            let mut counter = *counter_block;
            let mut tail = [0u8; 4];
            for (b, c) in tail.iter_mut().zip(counter.iter().skip(12)) {
                *b = *c;
            }
            let start = u32::from_be_bytes(tail);
            let index = u32::try_from(block_index).unwrap_or(u32::MAX);
            let bumped = start.wrapping_add(index).to_be_bytes();
            for (c, b) in counter.iter_mut().skip(12).zip(bumped.iter()) {
                *c = *b;
            }
            let keystream = self.encrypt_block(counter);
            for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
                *b ^= *k;
            }
        }
    }
}

/// The counter block of a flood payload: originator address and packet
/// id in the leading bytes, zero elsewhere. Every `(origin, id)` pair —
/// exactly the flood's dedup key — gets a distinct keystream under one
/// key, and both ends can derive it from the cleartext header alone.
#[must_use]
pub fn flood_counter_block(origin: Address, id: u8) -> [u8; 16] {
    let addr = origin.value().to_le_bytes();
    let mut block = [0u8; 16];
    for (dst, src) in block.iter_mut().zip(addr.iter()) {
        *dst = *src;
    }
    if let Some(slot) = block.get_mut(2) {
        *slot = id;
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec;

    /// FIPS-197 appendix C.1: AES-128 single-block known answer.
    #[test]
    fn fips_197_known_answer() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let plain: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let cipher = Aes128Ctr::new(&key);
        assert_eq!(cipher.encrypt_block(plain), expected);
    }

    /// NIST SP 800-38A F.5.1: CTR-AES128 first two blocks.
    #[test]
    fn sp800_38a_ctr_known_answer() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let counter: [u8; 16] = [
            0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd,
            0xfe, 0xff,
        ];
        let mut data = vec![
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, // block 1
            0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf,
            0x8e, 0x51, // block 2
        ];
        let expected = vec![
            0x87, 0x4d, 0x61, 0x91, 0xb6, 0x20, 0xe3, 0x26, 0x1b, 0xef, 0x68, 0x64, 0x99, 0x0d,
            0xb6, 0xce, 0x98, 0x06, 0xf6, 0x6b, 0x79, 0x70, 0xfd, 0xff, 0x86, 0x17, 0x18, 0x7b,
            0xb9, 0xff, 0xfd, 0xff,
        ];
        let cipher = Aes128Ctr::new(&key);
        cipher.apply_keystream(&counter, &mut data);
        assert_eq!(data, expected);
    }

    #[test]
    fn keystream_is_an_involution() {
        let cipher = Aes128Ctr::new(b"sixteen byte key");
        let counter = flood_counter_block(Address::new(0x1234), 7);
        let original: Vec<u8> = (0..100u8).collect();
        let mut data = original.clone();
        cipher.apply_keystream(&counter, &mut data);
        assert_ne!(data, original, "keystream must change the payload");
        cipher.apply_keystream(&counter, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn distinct_flood_keys_get_distinct_keystreams() {
        let cipher = Aes128Ctr::new(b"sixteen byte key");
        let mut a = vec![0u8; 16];
        let mut b = vec![0u8; 16];
        let mut c = vec![0u8; 16];
        cipher.apply_keystream(&flood_counter_block(Address::new(1), 0), &mut a);
        cipher.apply_keystream(&flood_counter_block(Address::new(1), 1), &mut b);
        cipher.apply_keystream(&flood_counter_block(Address::new(2), 0), &mut c);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn debug_never_leaks_key_material() {
        let cipher = Aes128Ctr::new(&[0xAA; 16]);
        let shown = alloc::format!("{cipher:?}");
        assert!(!shown.contains("170"), "round key bytes leaked: {shown}");
        assert!(shown.contains(".."));
    }
}
