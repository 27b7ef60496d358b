//! The cache and TLB answer a repeat of the line or page they touched last
//! without probing. These tests check them, access by access, against
//! reference copies that probe on every access.

use rand::{rngs::StdRng, Rng, SeedableRng};
use uarch_sim::{Cache, CacheConfig, CacheStats, Tlb};

/// A true-LRU set-associative cache that probes on every access.
struct ProbingCache {
    ways: Vec<(u64, bool, u64)>, // (tag, valid, stamp)
    assoc: usize,
    set_shift: u32,
    set_mask: u64,
    stats: CacheStats,
    clock: u64,
    prefetch: bool,
}

impl ProbingCache {
    fn new(config: CacheConfig, prefetch: bool) -> Self {
        let sets = config.size / (config.line * config.assoc);
        ProbingCache {
            ways: vec![(0, false, 0); sets * config.assoc],
            assoc: config.assoc,
            set_shift: config.line.trailing_zeros(),
            set_mask: sets as u64 - 1,
            stats: CacheStats::default(),
            clock: 0,
            prefetch,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let hit = self.touch(addr >> self.set_shift);
        if !hit {
            self.stats.misses += 1;
            if self.prefetch {
                self.touch((addr >> self.set_shift) + 1);
            }
        }
        hit
    }

    fn touch(&mut self, line_addr: u64) -> bool {
        self.clock += 1;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let ways = &mut self.ways[set * self.assoc..(set + 1) * self.assoc];
        for way in ways.iter_mut() {
            if way.1 && way.0 == tag {
                way.2 = self.clock;
                return true;
            }
        }
        let victim = ways.iter_mut().min_by_key(|w| if w.1 { w.2 } else { 0 }).expect("assoc >= 1");
        *victim = (tag, true, self.clock);
        false
    }
}

/// A fully-associative LRU TLB that probes on every access.
struct ProbingTlb {
    entries: Vec<(u64, u64)>, // (vpn, stamp)
    capacity: usize,
    page_shift: u32,
    stats: CacheStats,
    clock: u64,
}

impl ProbingTlb {
    fn new(capacity: usize, page_size: u64) -> Self {
        ProbingTlb {
            entries: Vec::new(),
            capacity,
            page_shift: page_size.trailing_zeros(),
            stats: CacheStats::default(),
            clock: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let vpn = addr >> self.page_shift;
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == vpn) {
            e.1 = self.clock;
            return true;
        }
        self.stats.misses += 1;
        if self.entries.len() == self.capacity {
            let lru = (0..self.entries.len()).min_by_key(|&i| self.entries[i].1).expect("non-empty");
            self.entries.swap_remove(lru);
        }
        self.entries.push((vpn, self.clock));
        false
    }
}

/// Addresses in runs: each run repeats one unit (a line or a page) one to
/// six times at random offsets, and the units come from a pool small
/// enough to hit and to conflict, plus the neighbors a prefetch fills.
fn stream(seed: u64, unit: u64, pool: u64, len: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let base = rng.gen_range(0..pool) * unit;
        for _ in 0..rng.gen_range(1..=6) {
            out.push(base + rng.gen_range(0..unit));
        }
    }
    out.truncate(len);
    out
}

#[test]
fn caches_match_the_probing_reference() {
    let configs = [
        ("one set, 4 ways", CacheConfig { size: 128, line: 32, assoc: 4 }),
        ("one set, 1 way", CacheConfig { size: 32, line: 32, assoc: 1 }),
        ("direct-mapped", CacheConfig { size: 256, line: 32, assoc: 1 }),
        ("2-way", CacheConfig { size: 512, line: 32, assoc: 2 }),
        ("EV56 L2", CacheConfig::ev56_l2()),
    ];
    for (name, config) in configs {
        let lines = (config.size / config.line) as u64;
        for prefetch in [false, true] {
            for seed in 0..4 {
                let mut cache = Cache::new(config);
                if prefetch {
                    cache = cache.with_next_line_prefetch();
                }
                let mut reference = ProbingCache::new(config, prefetch);
                for (i, addr) in stream(seed, config.line as u64, 3 * lines, 20_000).into_iter().enumerate() {
                    assert_eq!(
                        cache.access(addr),
                        reference.access(addr),
                        "{name}, prefetch {prefetch}, seed {seed}: access {i} to {addr:#x}"
                    );
                }
                assert_eq!(cache.stats(), reference.stats, "{name}, prefetch {prefetch}, seed {seed}");
            }
        }
    }
}

#[test]
fn tlbs_match_the_probing_reference() {
    for capacity in [1, 2, 64] {
        for seed in 0..4 {
            let mut tlb = Tlb::new(capacity, 4096);
            let mut reference = ProbingTlb::new(capacity, 4096);
            for (i, addr) in stream(seed, 4096, 2 * capacity as u64 + 1, 20_000).into_iter().enumerate() {
                assert_eq!(
                    tlb.access(addr),
                    reference.access(addr),
                    "capacity {capacity}, seed {seed}: access {i} to {addr:#x}"
                );
            }
            assert_eq!(tlb.stats(), reference.stats, "capacity {capacity}, seed {seed}");
        }
    }
}
