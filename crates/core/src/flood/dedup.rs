//! The duplicate-suppression cache: a bounded FIFO set over
//! `(origin, packet id)` keys.
//!
//! Managed flooding has no routing state; the only thing a node must
//! remember is which floods it has already taken part in. Three of four
//! overheard frames are duplicates, so the membership test is the hot
//! operation: the keys, packed as `origin << 8 | id`, sit in one sorted
//! `Vec<u32>` (a 7-step binary search over 512 bytes at the default
//! capacity; no hashing — `clippy.toml` disallows it), paired with a
//! FIFO eviction queue so memory stays bounded no matter how long the
//! node runs.

use alloc::collections::VecDeque;
use alloc::vec::Vec;

use crate::addr::Address;

/// A bounded first-in-first-out set of flood keys.
#[derive(Debug)]
pub(crate) struct DedupCache {
    /// The remembered keys, ascending.
    seen: Vec<u32>,
    /// The same keys in arrival order, oldest first.
    order: VecDeque<u32>,
    capacity: usize,
}

impl DedupCache {
    /// A cache remembering at most `capacity` keys (clamped to ≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        DedupCache {
            seen: Vec::new(),
            order: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Records `(origin, id)`. Returns `true` when the key is new —
    /// i.e. this node has not taken part in the flood yet — evicting
    /// the oldest remembered key if the cache is full.
    pub(crate) fn insert(&mut self, origin: Address, id: u8) -> bool {
        let key = u32::from(origin.value()) << 8 | u32::from(id);
        let Err(mut at) = self.seen.binary_search(&key) else {
            return false;
        };
        if self.order.len() == self.capacity {
            let evicted = self.order.pop_front();
            if let Some(gone) = evicted.and_then(|old| self.seen.binary_search(&old).ok()) {
                self.seen.remove(gone);
                // Everything after the evicted key moved down one place,
                // the new key's insertion point included.
                at -= usize::from(gone < at);
            }
        }
        self.seen.insert(at, key);
        self.order.push_back(key);
        true
    }

    /// Number of keys currently remembered.
    pub(crate) fn len(&self) -> usize {
        self.seen.len()
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

    #[test]
    fn eviction_on_either_side_of_the_insertion_point_keeps_the_set_exact() {
        // Evicted key sorts before the new one: the insertion index shifts.
        let mut c = DedupCache::new(3);
        assert!(c.insert(A, 1));
        assert!(c.insert(A, 5));
        assert!(c.insert(B, 0));
        assert!(c.insert(A, 9)); // evicts (A, 1), lands between (A, 5) and (B, 0)
        assert_eq!(c.seen, vec![0x0105, 0x0109, 0x0200]);
        // Evicted key sorts after the new one: the index stands.
        assert!(c.insert(A, 0)); // evicts (A, 5)
        assert_eq!(c.seen, vec![0x0100, 0x0109, 0x0200]);
        // Evicted key is the new key's immediate neighbour on either side.
        assert!(c.insert(B, 1)); // evicts (B, 0), lands where it was
        assert_eq!(c.seen, vec![0x0100, 0x0109, 0x0201]);
        assert!(c.insert(A, 8)); // evicts (A, 9), lands where it was
        assert_eq!(c.seen, vec![0x0100, 0x0108, 0x0201]);
        for (origin, id, new) in [(A, 0, false), (A, 8, false), (B, 1, false), (A, 9, true)] {
            assert_eq!(c.insert(origin, id), new, "{origin:?}/{id}");
        }
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut c = DedupCache::new(0);
        assert_eq!(c.capacity(), 1);
        assert!(c.insert(A, 0));
        assert!(!c.insert(A, 0));
    }
}
