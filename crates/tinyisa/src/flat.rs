//! The hash table of the trace hot path.

/// A flat map from `u64` keys: open addressing with linear probing,
/// power-of-two capacity, load at most ½, and Fibonacci hashing (the top
/// bits of `key × 2^64/φ` pick a key's home slot).
///
/// Key 0 marks a free slot, so its value lives beside the slots. A probe
/// that ends on a free slot is the only place that tests for key 0: a hit
/// on any other key never pays for it.
#[derive(Debug, Clone)]
pub struct FlatTable<V> {
    slots: Vec<(u64, V)>,
    /// The value under key 0, if present.
    zero: Option<V>,
    /// Keys present, key 0 included.
    len: usize,
    /// `64 - log2(slots.len())`.
    shift: u32,
}

impl<V: Copy + Default> Default for FlatTable<V> {
    fn default() -> Self {
        Self::with_slots(64)
    }
}

impl<V: Copy + Default> FlatTable<V> {
    /// An empty table of `n` slots, which doubles as keys arrive.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two of at least 2.
    pub fn with_slots(n: usize) -> Self {
        assert!(n >= 2 && n.is_power_of_two(), "slot count must be a power of two >= 2");
        FlatTable { slots: vec![(0, V::default()); n], zero: None, len: 0, shift: 64 - n.trailing_zeros() }
    }

    /// Keys present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no key is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value under `key`, if present.
    pub fn get(&self, key: u64) -> Option<&V> {
        let (k, v) = &self.slots[self.find(key)];
        if *k != 0 {
            Some(v)
        } else if key == 0 {
            self.zero.as_ref()
        } else {
            None
        }
    }

    /// The value under `key`, inserted as `V::default()` if absent.
    pub fn get_or_insert(&mut self, key: u64) -> &mut V {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let i = self.find(key);
        if self.slots[i].0 == 0 {
            if key == 0 {
                return self.zero_value();
            }
            self.slots[i].0 = key;
            self.len += 1;
        }
        &mut self.slots[i].1
    }

    /// Put `value` under `key`; returns the value it replaced, if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let len = self.len;
        let old = std::mem::replace(self.get_or_insert(key), value);
        (self.len == len).then_some(old)
    }

    /// The value under key 0, inserted as `V::default()` if absent.
    #[cold]
    fn zero_value(&mut self) -> &mut V {
        if self.zero.is_none() {
            self.len += 1;
        }
        self.zero.get_or_insert_with(V::default)
    }

    /// The slot holding `key`, or the free slot where it belongs (for key
    /// 0, always a free slot).
    fn find(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        while self.slots[i].0 != key && self.slots[i].0 != 0 {
            i = (i + 1) & mask;
        }
        i
    }

    // Cold and out of line: growth is rare, and keeping it out of
    // `get_or_insert` keeps the lookup short.
    #[cold]
    fn grow(&mut self) {
        let doubled = Self { zero: self.zero, len: self.len, ..Self::with_slots(2 * self.slots.len()) };
        let old = std::mem::replace(self, doubled);
        for slot in old.slots.into_iter().filter(|&(k, _)| k != 0) {
            let i = self.find(slot.0);
            self.slots[i] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A xorshift stream over a small key space plus the edge keys, so
    /// repeats, key 0 and `u64::MAX` all occur.
    fn keys(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match x % 16 {
                    0 => 0,
                    1 => u64::MAX,
                    2 => x,
                    _ => x % 300,
                }
            })
            .collect()
    }

    #[test]
    fn matches_a_hash_map_from_two_slots() {
        for seed in 1..=4u64 {
            let mut table = FlatTable::<u64>::with_slots(2);
            let mut map = HashMap::new();
            for (i, key) in keys(seed, 5_000).into_iter().enumerate() {
                let value = i as u64 + 1;
                if i % 3 == 0 {
                    assert_eq!(table.insert(key, value), map.insert(key, value), "seed {seed}: insert {key}");
                } else {
                    *table.get_or_insert(key) += value;
                    *map.entry(key).or_insert(0) += value;
                }
                assert_eq!(table.len(), map.len(), "seed {seed}: len after {key}");
            }
            for key in keys(seed + 100, 1_000) {
                assert_eq!(table.get(key), map.get(&key), "seed {seed}: get {key}");
            }
            for (&key, value) in &map {
                assert_eq!(table.get(key), Some(value), "seed {seed}: get {key}");
            }
        }
    }

    #[test]
    fn key_zero_is_a_key_like_any_other() {
        let mut t = FlatTable::<u32>::with_slots(2);
        assert!(t.is_empty());
        assert_eq!(t.get(0), None);
        assert_eq!(t.insert(0, 7), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0), Some(&7));
        assert_eq!(t.get(1), None, "key 0's value is not a free slot's");
        *t.get_or_insert(0) += 1;
        assert_eq!(t.insert(0, 9), Some(8));
        assert_eq!(t.len(), 1);
        for key in 1..100 {
            t.insert(key, key as u32);
        }
        assert_eq!(t.get(0), Some(&9), "key 0 survives growth");
        assert_eq!(t.len(), 100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn one_slot_is_rejected() {
        let _ = FlatTable::<u8>::with_slots(1);
    }
}
