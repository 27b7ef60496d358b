//! A fully-associative LRU translation lookaside buffer.

use crate::cache::CacheStats;

/// A fully-associative, LRU data TLB.
///
/// The EV56's DTB holds 64 entries of 8 KiB pages; those are the defaults of
/// [`Tlb::ev56_dtlb`].
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<(u64, u64)>, // (vpn, stamp)
    capacity: usize,
    page_shift: u32,
    stats: CacheStats,
    clock: u64,
    /// The page accessed last. It is resident and the newest entry, so an
    /// access to it hits and leaves the LRU order as it is.
    last_vpn: Option<u64>,
}

impl Tlb {
    /// A TLB holding `capacity` pages of `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `page_size` is not a power of two.
    pub fn new(capacity: usize, page_size: u64) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        assert!(page_size.is_power_of_two(), "page size must be a power of two");
        Tlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            page_shift: page_size.trailing_zeros(),
            stats: CacheStats::default(),
            clock: 0,
            last_vpn: None,
        }
    }

    /// The EV56-like 64-entry, 8 KiB-page data TLB.
    pub fn ev56_dtlb() -> Self {
        Tlb::new(64, 8192)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look up the page containing `addr`; returns `true` on hit and fills
    /// on miss (LRU eviction).
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let vpn = addr >> self.page_shift;
        if self.last_vpn == Some(vpn) {
            return true;
        }
        self.last_vpn = Some(vpn);
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == vpn) {
            e.1 = self.clock;
            return true;
        }
        self.stats.misses += 1;
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(i, _)| i)
                .expect("non-empty");
            self.entries.swap_remove(lru);
        }
        self.entries.push((vpn, self.clock));
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut t = Tlb::new(4, 4096);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1fff)); // same page
        assert!(!t.access(0x2000)); // next page
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2, 4096);
        t.access(0x1000);
        t.access(0x2000);
        t.access(0x1000); // page 1 is MRU
        t.access(0x3000); // evicts page 2
        assert!(t.access(0x1000));
        assert!(!t.access(0x2000));
    }

    #[test]
    fn miss_rate_for_thrashing_pattern() {
        let mut t = Tlb::new(4, 4096);
        // Cycle through 8 pages repeatedly: with LRU, every access misses.
        for _ in 0..10 {
            for p in 0..8u64 {
                t.access(p * 4096);
            }
        }
        assert_eq!(t.stats().miss_rate(), 1.0);
    }

    #[test]
    fn ev56_default_capacity() {
        let mut t = Tlb::ev56_dtlb();
        for p in 0..64u64 {
            t.access(p * 8192);
        }
        for p in 0..64u64 {
            assert!(t.access(p * 8192), "64 pages fit in the EV56 DTB");
        }
    }
}
