//! LRU stack (reuse) distance measurement.
//!
//! The reuse distance of a memory access is the number of *distinct* blocks
//! touched since the previous access to the same block — the classic
//! microarchitecture-independent locality metric (a block hits in any LRU
//! cache of capacity greater than its reuse distance). The released MICA
//! tool measures it as its `memreusedist` category; this module implements
//! it with the standard Mattson/Bennett-Kruskal algorithm: a Fenwick tree
//! over access timestamps gives O(log n) per access.

use std::collections::HashMap;
use tinyisa::{DynInst, TraceSink};

/// A Fenwick (binary indexed) tree over dynamic timestamps, supporting
/// point updates and suffix counts.
#[derive(Debug, Clone)]
pub(crate) struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Fenwick { tree: vec![0; n + 1] }
    }

    /// Number of indexed positions.
    pub(crate) fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Add `delta` at 0-based position `i`, growing if needed.
    pub(crate) fn add(&mut self, i: usize, delta: i64) {
        if i >= self.len() {
            let new_len = (i + 1).next_power_of_two().max(64);
            self.grow(new_len);
        }
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u64);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i` (0-based, saturating at the end).
    pub(crate) fn prefix(&self, i: usize) -> u64 {
        let mut i = (i + 1).min(self.len());
        let mut s = 0u64;
        while i > 0 {
            s = s.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Total of all positions.
    pub(crate) fn total(&self) -> u64 {
        self.prefix(self.len().saturating_sub(1))
    }

    /// Rebuild into a larger tree, preserving contents.
    fn grow(&mut self, new_len: usize) {
        // Extract point values, then re-add into the bigger tree.
        let old_len = self.len();
        let mut vals = Vec::with_capacity(old_len);
        for i in 0..old_len {
            let v = self.prefix(i) - if i == 0 { 0 } else { self.prefix(i - 1) };
            vals.push(v);
        }
        self.tree = vec![0; new_len + 1];
        for (i, v) in vals.into_iter().enumerate() {
            if v != 0 {
                self.add(i, v as i64);
            }
        }
    }
}

/// Cumulative reuse-distance bucket limits (in distinct 32-byte blocks):
/// `P[distance < 2^k]` for cache-relevant powers of two, plus a cold-miss
/// fraction. Chosen to straddle L1 (256 blocks), L2 (thousands) and beyond.
pub const REUSE_BUCKETS: [u64; 6] = [16, 64, 256, 1024, 8192, 65536];

/// Measures the distribution of data reuse distances at 32-byte-block
/// granularity, in O(log n) per access.
#[derive(Debug, Clone)]
pub struct ReuseDistance {
    fenwick: Fenwick,
    /// Block -> timestamp of its most recent access.
    last_access: HashMap<u64, usize>,
    clock: usize,
    buckets: [u64; 6],
    accesses_with_reuse: u64,
    cold: u64,
}

const BLOCK_SHIFT: u64 = 5;

impl Default for ReuseDistance {
    fn default() -> Self {
        Self::new()
    }
}

impl ReuseDistance {
    /// Create an empty analyzer.
    pub fn new() -> Self {
        ReuseDistance {
            fenwick: Fenwick::with_capacity(1 << 16),
            last_access: HashMap::new(),
            clock: 0,
            buckets: [0; 6],
            accesses_with_reuse: 0,
            cold: 0,
        }
    }

    /// Record an access to the block containing `addr`; returns its reuse
    /// distance (`None` on first touch).
    pub fn access(&mut self, addr: u64) -> Option<u64> {
        let block = addr >> BLOCK_SHIFT;
        let now = self.clock;
        self.clock += 1;
        let dist = match self.last_access.insert(block, now) {
            Some(prev) => {
                // Distinct blocks touched after `prev`: total marks minus
                // marks at or before prev.
                let d = self.fenwick.total() - self.fenwick.prefix(prev);
                self.fenwick.add(prev, -1);
                Some(d)
            }
            None => {
                self.cold += 1;
                None
            }
        };
        self.fenwick.add(now, 1);
        if let Some(d) = dist {
            self.accesses_with_reuse += 1;
            for (b, &lim) in self.buckets.iter_mut().zip(&REUSE_BUCKETS) {
                if d < lim {
                    *b += 1;
                }
            }
        }
        dist
    }

    /// Fraction of accesses that were first touches (cold).
    pub fn cold_fraction(&self) -> f64 {
        let total = self.accesses_with_reuse + self.cold;
        if total == 0 {
            0.0
        } else {
            self.cold as f64 / total as f64
        }
    }

    /// `P[reuse distance < REUSE_BUCKETS[k]]` over reused accesses.
    pub fn cdf(&self) -> [f64; 6] {
        if self.accesses_with_reuse == 0 {
            return [0.0; 6];
        }
        let t = self.accesses_with_reuse as f64;
        let mut out = [0.0; 6];
        for (o, &c) in out.iter_mut().zip(&self.buckets) {
            *o = c as f64 / t;
        }
        out
    }

    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.accesses_with_reuse + self.cold
    }
}

impl TraceSink for ReuseDistance {
    fn retire(&mut self, inst: &DynInst) {
        if let Some(m) = inst.mem {
            self.access(m.addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fenwick_prefix_sums() {
        let mut f = Fenwick::with_capacity(16);
        f.add(0, 3);
        f.add(5, 2);
        f.add(15, 1);
        assert_eq!(f.prefix(0), 3);
        assert_eq!(f.prefix(4), 3);
        assert_eq!(f.prefix(5), 5);
        assert_eq!(f.prefix(15), 6);
        assert_eq!(f.total(), 6);
        f.add(5, -2);
        assert_eq!(f.total(), 4);
    }

    #[test]
    fn fenwick_grows_transparently() {
        let mut f = Fenwick::with_capacity(4);
        f.add(2, 1);
        f.add(1000, 7);
        assert_eq!(f.prefix(2), 1);
        assert_eq!(f.prefix(1000), 8);
    }

    #[test]
    fn first_access_is_cold() {
        let mut r = ReuseDistance::new();
        assert_eq!(r.access(0x1000), None);
        assert_eq!(r.cold_fraction(), 1.0);
    }

    #[test]
    fn immediate_reuse_has_distance_zero() {
        let mut r = ReuseDistance::new();
        r.access(0x1000);
        assert_eq!(r.access(0x1008), Some(0), "same 32B block, nothing in between");
    }

    #[test]
    fn distance_counts_distinct_intervening_blocks() {
        let mut r = ReuseDistance::new();
        r.access(0x0); // block A
        r.access(0x100); // B
        r.access(0x200); // C
        r.access(0x100); // B again: only C intervened
        assert_eq!(r.access(0x0), Some(2), "B and C intervened (B's re-touch counts once)");
    }

    #[test]
    fn repeated_touches_count_once() {
        let mut r = ReuseDistance::new();
        r.access(0x0); // A
        for _ in 0..10 {
            r.access(0x100); // B many times
        }
        assert_eq!(r.access(0x0), Some(1), "B counts once, not ten times");
    }

    #[test]
    fn streaming_has_no_reuse_and_loop_has_full_reuse() {
        let mut stream = ReuseDistance::new();
        for i in 0..1000u64 {
            stream.access(i * 64);
        }
        assert_eq!(stream.cold_fraction(), 1.0);

        let mut looped = ReuseDistance::new();
        for _ in 0..10 {
            for i in 0..32u64 {
                looped.access(i * 64);
            }
        }
        // After warmup every access has reuse distance 31 (< 64).
        let cdf = looped.cdf();
        assert_eq!(cdf[1], 1.0, "{cdf:?}");
        assert_eq!(cdf[0], 0.0, "distance 31 is not < 16: {cdf:?}");
    }

    #[test]
    fn cdf_is_monotone() {
        let mut r = ReuseDistance::new();
        let mut x = 7u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            r.access(x % (1 << 20));
        }
        let cdf = r.cdf();
        for w in cdf.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn matches_naive_oracle_on_random_trace() {
        use std::collections::HashSet;
        let mut r = ReuseDistance::new();
        let mut trace = Vec::new();
        let mut x = 3u64;
        for _ in 0..400 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            trace.push((x % 50) * 32);
        }
        for (i, &addr) in trace.iter().enumerate() {
            let fast = r.access(addr);
            // Naive oracle: distinct blocks since previous access to this
            // block.
            let block = addr >> 5;
            let prev = trace[..i].iter().rposition(|&a| a >> 5 == block);
            let naive = prev.map(|p| {
                trace[p + 1..i].iter().map(|&a| a >> 5).collect::<HashSet<_>>().len() as u64
            });
            assert_eq!(fast, naive, "at access {i}");
        }
    }
}
