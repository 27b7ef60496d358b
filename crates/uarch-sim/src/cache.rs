//! Set-associative LRU caches.

use serde::{Deserialize, Serialize};

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl CacheConfig {
    /// The EV56-like 8 KiB direct-mapped L1 (32-byte lines).
    pub fn ev56_l1() -> Self {
        CacheConfig { size: 8 * 1024, line: 32, assoc: 1 }
    }

    /// The EV56-like 96 KiB 3-way on-chip L2 (64-byte lines).
    pub fn ev56_l2() -> Self {
        CacheConfig { size: 96 * 1024, line: 64, assoc: 3 }
    }

    /// The EV67-like 64 KiB 2-way L1 (64-byte lines).
    pub fn ev67_l1() -> Self {
        CacheConfig { size: 64 * 1024, line: 64, assoc: 2 }
    }

    /// The EV67-like 2 MiB direct-mapped board-level L2 (64-byte lines).
    pub fn ev67_l2() -> Self {
        CacheConfig { size: 2 * 1024 * 1024, line: 64, assoc: 1 }
    }

    fn num_sets(&self) -> usize {
        self.size / (self.line * self.assoc)
    }
}

/// Access counters of a cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    pub accesses: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Misses per access, 0.0 when never accessed.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    stamp: u64,
}

/// A set-associative cache with true-LRU replacement.
///
/// The model is purely a hit/miss filter (no dirty/writeback modeling): both
/// loads and stores allocate on miss, which matches the write-allocate
/// behavior assumed by the timing models. An optional next-line prefetcher
/// ([`Cache::with_next_line_prefetch`]) fills the sequentially following
/// line on every demand miss — fills are not counted as accesses.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Line>,
    set_shift: u32,
    set_mask: u64,
    stats: CacheStats,
    clock: u64,
    prefetch: bool,
    /// The line touched last. It is resident and the newest in its set, so
    /// an access to it hits and leaves the LRU order as it is.
    last_line: Option<u64>,
}

impl Cache {
    /// Build a cache for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two or the geometry does
    /// not divide evenly into at least one set.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line.is_power_of_two(), "line size must be a power of two");
        assert!(config.assoc >= 1, "associativity must be at least 1");
        let sets = config.num_sets();
        assert!(sets >= 1, "cache must have at least one set");
        assert!(sets.is_power_of_two(), "number of sets must be a power of two");
        Cache {
            config,
            sets: vec![Line { tag: 0, valid: false, stamp: 0 }; sets * config.assoc],
            set_shift: config.line.trailing_zeros(),
            set_mask: sets as u64 - 1,
            stats: CacheStats::default(),
            clock: 0,
            prefetch: false,
            last_line: None,
        }
    }

    /// Enable next-line prefetching.
    pub fn with_next_line_prefetch(mut self) -> Self {
        self.prefetch = true;
        self
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Access the line containing `addr`; returns `true` on hit. On a miss,
    /// the line is filled (evicting the LRU way), and — with prefetching
    /// enabled — the next sequential line is filled too.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line = addr >> self.set_shift;
        if self.last_line == Some(line) {
            return true;
        }
        let hit = self.touch(line);
        if !hit {
            self.stats.misses += 1;
            if self.prefetch {
                self.touch(line + 1);
            }
        }
        hit
    }

    /// Probe one line address, filling it on a miss; returns `true` on hit.
    fn touch(&mut self, line_addr: u64) -> bool {
        self.last_line = Some(line_addr);
        self.clock += 1;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let ways = &mut self.sets[set * self.config.assoc..(set + 1) * self.config.assoc];
        for way in ways.iter_mut() {
            if way.valid && way.tag == tag {
                way.stamp = self.clock;
                return true;
            }
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.stamp } else { 0 })
            .expect("assoc >= 1");
        *victim = Line { tag, valid: true, stamp: self.clock };
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 32B lines = 256 B.
        Cache::new(CacheConfig { size: 256, line: 32, assoc: 2 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x101f)); // same 32-byte line
        assert!(!c.access(0x1020)); // next line
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 lines * 32 B).
        let (a, b, d) = (0x0, 0x80, 0x100);
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        assert!(!c.access(d)); // evicts b (LRU)
        assert!(c.access(a)); // a survived
        assert!(!c.access(b)); // b was evicted
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig { size: 128, line: 32, assoc: 1 });
        // Two addresses 128 bytes apart share a set in a 4-set DM cache.
        for _ in 0..10 {
            c.access(0x0);
            c.access(0x80);
        }
        assert_eq!(c.stats().misses, 20, "ping-pong thrashing misses every time");
    }

    #[test]
    fn working_set_smaller_than_cache_only_cold_misses() {
        let mut c = Cache::new(CacheConfig::ev56_l1());
        for round in 0..5 {
            for line in 0..128u64 {
                let hit = c.access(line * 32);
                if round > 0 {
                    assert!(hit);
                }
            }
        }
        assert_eq!(c.stats().misses, 128);
    }

    #[test]
    fn miss_rate_zero_when_unused() {
        let c = small();
        assert_eq!(c.stats().miss_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        let _ = Cache::new(CacheConfig { size: 256, line: 24, assoc: 2 });
    }

    #[test]
    fn next_line_prefetch_halves_streaming_misses() {
        let mut plain = Cache::new(CacheConfig::ev56_l1());
        let mut pf = Cache::new(CacheConfig::ev56_l1()).with_next_line_prefetch();
        for i in 0..1000u64 {
            plain.access(i * 32);
            pf.access(i * 32);
        }
        assert_eq!(plain.stats().misses, 1000);
        assert!(pf.stats().misses <= 501, "{}", pf.stats().misses);
    }

    #[test]
    fn prefetch_does_not_change_hit_accounting() {
        let mut pf = Cache::new(CacheConfig::ev56_l1()).with_next_line_prefetch();
        pf.access(0x0);
        assert!(pf.access(0x20), "next line was prefetched");
        assert_eq!(pf.stats().accesses, 2, "prefetch fills are not accesses");
    }

    #[test]
    fn preset_geometries_construct() {
        for cfg in [
            CacheConfig::ev56_l1(),
            CacheConfig::ev56_l2(),
            CacheConfig::ev67_l1(),
            CacheConfig::ev67_l2(),
        ] {
            let c = Cache::new(cfg);
            assert_eq!(c.config(), cfg);
        }
    }
}
