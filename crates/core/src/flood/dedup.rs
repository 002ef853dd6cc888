//! The duplicate-suppression cache: a bounded FIFO set over
//! `(origin, packet id)` keys.
//!
//! Managed flooding has no routing state; the only thing a node must
//! remember is which floods it has already taken part in. Three of four
//! overheard frames are duplicates, so the membership test is the hot
//! operation. The keys, packed as `origin << 8 | id`, sit once each in
//! a ring of the last `capacity` keys seen. Membership is one
//! branch-free pass over the ring (512 bytes at the default capacity,
//! which the compiler vectorises; no hashing — `clippy.toml` disallows
//! it), and a new key overwrites the oldest slot, so memory stays
//! bounded no matter how long the node runs.
//!
//! The contract is that of a FIFO set: a key reads as seen exactly
//! while it is among the last `capacity` *new* keys inserted. A
//! duplicate neither refreshes its key's age nor evicts anything.

use alloc::vec::Vec;

use crate::addr::Address;

/// A bounded first-in-first-out set of flood keys.
#[derive(Debug)]
pub(crate) struct DedupCache {
    /// The remembered keys. Until the ring is full they are in arrival
    /// order; after that, `ring[next]` is the oldest.
    ring: Vec<u32>,
    /// The slot the next new key overwrites once the ring is full.
    next: usize,
    capacity: usize,
}

impl DedupCache {
    /// A cache remembering at most `capacity` keys (clamped to ≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        DedupCache {
            ring: Vec::with_capacity(capacity),
            next: 0,
            capacity,
        }
    }

    /// Records `(origin, id)`. Returns `true` when the key is new —
    /// i.e. this node has not taken part in the flood yet — evicting
    /// the oldest remembered key if the cache is full.
    pub(crate) fn insert(&mut self, origin: Address, id: u8) -> bool {
        let key = u32::from(origin.value()) << 8 | u32::from(id);
        if self.contains(key) {
            return false;
        }
        if self.ring.len() < self.capacity {
            self.ring.push(key);
        } else if let Some(oldest) = self.ring.get_mut(self.next) {
            *oldest = key;
            self.next += 1;
            if self.next == self.capacity {
                self.next = 0;
            }
        }
        true
    }

    /// Whether `key` is remembered: a scan without early exit, so the
    /// loop has no data-dependent branch and vectorises.
    fn contains(&self, key: u32) -> bool {
        self.ring.iter().fold(false, |hit, &k| hit | (k == key))
    }

    /// Number of keys currently remembered.
    pub(crate) fn len(&self) -> usize {
        self.ring.len()
    }

    /// The configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec;

    const A: Address = Address::new(1);
    const B: Address = Address::new(2);

    /// The remembered keys among `(A, 0..16)` and `(B, 0..16)`, ascending
    /// — read through the membership test, without mutating the cache.
    fn held(c: &DedupCache) -> Vec<u32> {
        (0x0100..0x0110)
            .chain(0x0200..0x0210)
            .filter(|&k| c.contains(k))
            .collect()
    }

    #[test]
    fn first_insert_is_new_second_is_duplicate() {
        let mut c = DedupCache::new(8);
        assert!(c.insert(A, 0));
        assert!(!c.insert(A, 0));
        assert!(c.insert(A, 1));
        assert!(c.insert(B, 0));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn eviction_is_fifo_and_len_stays_bounded() {
        let mut c = DedupCache::new(2);
        assert!(c.insert(A, 0));
        assert!(c.insert(A, 1));
        assert!(c.insert(A, 2)); // evicts (A, 0)
        assert_eq!(c.len(), 2);
        assert!(c.insert(A, 0), "evicted key must read as new again");
        assert_eq!(c.len(), 2);
    }

    /// Evicted keys that sort before, after and next to the new key
    /// leave the set exact.
    #[test]
    fn eviction_on_either_side_of_the_insertion_point_keeps_the_set_exact() {
        let mut c = DedupCache::new(3);
        assert!(c.insert(A, 1));
        assert!(c.insert(A, 5));
        assert!(c.insert(B, 0));
        assert!(c.insert(A, 9)); // evicts (A, 1), sorts between (A, 5) and (B, 0)
        assert_eq!(held(&c), vec![0x0105, 0x0109, 0x0200]);
        assert!(c.insert(A, 0)); // evicts (A, 5), which sorts after it
        assert_eq!(held(&c), vec![0x0100, 0x0109, 0x0200]);
        assert!(c.insert(B, 1)); // evicts (B, 0), its neighbour
        assert_eq!(held(&c), vec![0x0100, 0x0109, 0x0201]);
        assert!(c.insert(A, 8)); // evicts (A, 9), its neighbour
        assert_eq!(held(&c), vec![0x0100, 0x0108, 0x0201]);
        for (origin, id, new) in [(A, 0, false), (A, 8, false), (B, 1, false), (A, 9, true)] {
            assert_eq!(c.insert(origin, id), new, "{origin:?}/{id}");
        }
        assert_eq!(c.len(), 3);
    }

    /// A duplicate neither refreshes its key nor evicts: the oldest new
    /// key still goes first.
    #[test]
    fn a_duplicate_does_not_refresh_its_key() {
        let mut c = DedupCache::new(2);
        assert!(c.insert(A, 0));
        assert!(c.insert(A, 1));
        assert!(!c.insert(A, 0));
        assert!(c.insert(A, 2)); // evicts (A, 0) despite the repeat
        assert_eq!(held(&c), vec![0x0101, 0x0102]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut c = DedupCache::new(0);
        assert_eq!(c.capacity(), 1);
        assert!(c.insert(A, 0));
        assert!(!c.insert(A, 0));
        assert!(c.insert(A, 1));
        assert_eq!(held(&c), vec![0x0101]);
    }
}
