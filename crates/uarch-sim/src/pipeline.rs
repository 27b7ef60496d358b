//! Cycle-approximate timing models for the two simulated Alpha machines.

use crate::branch::{BimodalPredictor, BranchPredictor, TournamentPredictor};
use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::tlb::Tlb;
use tinyisa::{DynInst, InstClass, TraceSink};

/// Load-to-use latencies of the memory hierarchy, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLatency {
    /// L1 hit.
    pub l1: u64,
    /// L1 miss, L2 hit.
    pub l2: u64,
    /// L2 miss (main memory).
    pub mem: u64,
    /// Additional cycles for a D-TLB miss (software fill).
    pub tlb_miss: u64,
}

impl MemoryLatency {
    /// EV56-era latencies.
    pub fn ev56() -> Self {
        MemoryLatency { l1: 2, l2: 10, mem: 60, tlb_miss: 30 }
    }

    /// EV67-era latencies (faster core clock, relatively slower memory).
    pub fn ev67() -> Self {
        MemoryLatency { l1: 3, l2: 13, mem: 80, tlb_miss: 30 }
    }
}

/// Configuration of the in-order (EV56-class) machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InOrderConfig {
    /// L1 instruction/data cache geometry (both L1s share it).
    pub l1: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Memory latencies.
    pub lat: MemoryLatency,
    /// Bimodal predictor entries (power of two).
    pub predictor_entries: usize,
    /// Branch misprediction penalty, cycles.
    pub mispredict_penalty: u64,
    /// D-TLB entries.
    pub dtlb_entries: usize,
    /// Page size for the D-TLB.
    pub page_size: u64,
    /// Enable next-line prefetching in the data hierarchy.
    pub prefetch: bool,
}

impl Default for InOrderConfig {
    fn default() -> Self {
        InOrderConfig {
            l1: CacheConfig::ev56_l1(),
            l2: CacheConfig::ev56_l2(),
            lat: MemoryLatency::ev56(),
            predictor_entries: 2048,
            mispredict_penalty: EV56_MISPREDICT_PENALTY,
            dtlb_entries: 64,
            page_size: 8192,
            prefetch: false,
        }
    }
}

/// Configuration of the out-of-order (EV67-class) machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OooConfig {
    /// L1 instruction/data cache geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// Memory latencies.
    pub lat: MemoryLatency,
    /// Instruction-window (reorder) size.
    pub window: usize,
    /// Branch misprediction penalty, cycles.
    pub mispredict_penalty: u64,
    /// D-TLB entries.
    pub dtlb_entries: usize,
    /// Page size for the D-TLB.
    pub page_size: u64,
    /// Enable next-line prefetching in the data hierarchy.
    pub prefetch: bool,
}

impl Default for OooConfig {
    fn default() -> Self {
        OooConfig {
            l1: CacheConfig::ev67_l1(),
            l2: CacheConfig::ev67_l2(),
            lat: MemoryLatency::ev67(),
            window: EV67_WINDOW,
            mispredict_penalty: EV67_MISPREDICT_PENALTY,
            dtlb_entries: 128,
            page_size: 8192,
            prefetch: false,
        }
    }
}

fn exec_latency(class: InstClass) -> u64 {
    match class {
        InstClass::IntAlu => 1,
        InstClass::IntMul => 8,
        InstClass::Fp => 4,
        InstClass::Load | InstClass::Store => 1, // cache latency added separately
        InstClass::Branch | InstClass::Jump => 1,
    }
}

/// The in-order dual-issue EV56-like machine (Alpha 21164A class).
///
/// In-order issue of up to two instructions per cycle; an instruction stalls
/// until its register inputs are ready. Loads see the cache hierarchy (L1D →
/// L2 → memory) and the D-TLB; fetches see L1I → L2. Conditional-branch
/// mispredictions (bimodal predictor) stall the front end.
#[derive(Debug, Clone)]
pub struct Ev56Model {
    lat: MemoryLatency,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dtlb: Tlb,
    predictor: BimodalPredictor,
    mispredict_penalty: u64,
    reg_ready: [u64; 64],
    cycle: u64,
    issued_this_cycle: u32,
    fetch_ready: u64,
    retired: u64,
    last_cycle: u64,
}

/// EV56 branch misprediction penalty, cycles.
const EV56_MISPREDICT_PENALTY: u64 = 5;
/// EV56 issue width.
const EV56_WIDTH: u32 = 2;

impl Ev56Model {
    /// Build with the EV56-like configuration.
    pub fn new() -> Self {
        Self::with_config(InOrderConfig::default())
    }

    /// Build with a custom machine configuration.
    pub fn with_config(cfg: InOrderConfig) -> Self {
        let mk = |c: CacheConfig| {
            let cache = Cache::new(c);
            if cfg.prefetch {
                cache.with_next_line_prefetch()
            } else {
                cache
            }
        };
        Ev56Model {
            lat: cfg.lat,
            l1i: Cache::new(cfg.l1),
            l1d: mk(cfg.l1),
            l2: mk(cfg.l2),
            dtlb: Tlb::new(cfg.dtlb_entries, cfg.page_size),
            predictor: BimodalPredictor::new(cfg.predictor_entries),
            mispredict_penalty: cfg.mispredict_penalty,
            reg_ready: [0; 64],
            cycle: 0,
            issued_this_cycle: 0,
            fetch_ready: 0,
            retired: 0,
            last_cycle: 0,
        }
    }

    /// Committed IPC so far.
    pub fn ipc(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.retired as f64 / self.last_cycle.max(1) as f64
        }
    }

    /// L1 instruction cache statistics.
    pub fn l1i_stats(&self) -> CacheStats {
        self.l1i.stats()
    }

    /// L1 data cache statistics.
    pub fn l1d_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// Unified L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Data TLB statistics.
    pub fn dtlb_stats(&self) -> CacheStats {
        self.dtlb.stats()
    }

    /// Branch predictor statistics (misses = mispredictions).
    pub fn branch_stats(&self) -> CacheStats {
        self.predictor.stats()
    }
}

impl Default for Ev56Model {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for Ev56Model {
    fn retire(&mut self, inst: &DynInst) {
        // Front end: instruction fetch through L1I / L2.
        let mut fetch_penalty = 0;
        if !self.l1i.access(inst.pc) {
            fetch_penalty = if self.l2.access(inst.pc) { self.lat.l2 } else { self.lat.mem };
        }
        if fetch_penalty > 0 {
            self.fetch_ready = self.fetch_ready.max(self.cycle) + fetch_penalty;
        }

        // In-order issue: earliest cycle where the front end has delivered
        // the instruction and all register inputs are ready.
        let mut earliest = self.fetch_ready.max(self.cycle);
        for s in inst.sources() {
            earliest = earliest.max(self.reg_ready[s.unified()]);
        }
        if earliest > self.cycle {
            self.cycle = earliest;
            self.issued_this_cycle = 0;
        } else if self.issued_this_cycle >= EV56_WIDTH {
            self.cycle += 1;
            self.issued_this_cycle = 0;
        }
        self.issued_this_cycle += 1;
        let issue = self.cycle;

        // Execute.
        let mut latency = exec_latency(inst.class);
        if let Some(m) = inst.mem {
            let tlb_penalty = if self.dtlb.access(m.addr) { 0 } else { self.lat.tlb_miss };
            let mem_lat = if self.l1d.access(m.addr) {
                self.lat.l1
            } else if self.l2.access(m.addr) {
                self.lat.l2
            } else {
                self.lat.mem
            };
            // Stores retire through a write buffer and do not stall
            // dependents (they have no destination register anyway).
            latency = if m.is_store { 1 } else { mem_lat + tlb_penalty };
            // The EV56 L1 D-cache is blocking: a load miss drains the
            // in-order pipeline until the data returns.
            if !m.is_store && latency > self.lat.l1 {
                self.cycle = issue + latency;
                self.issued_this_cycle = 0;
            }
        }
        let complete = issue + latency;
        if let Some(d) = inst.dst {
            self.reg_ready[d.unified()] = complete;
        }

        // Resolve control flow.
        if let Some(ctrl) = inst.ctrl {
            if ctrl.conditional && !self.predictor.observe(inst.pc, ctrl.taken) {
                self.fetch_ready = complete + self.mispredict_penalty;
            }
        }

        self.retired += 1;
        self.last_cycle = self.last_cycle.max(complete);
    }
}

/// The out-of-order four-wide EV67-like machine (Alpha 21264A class).
///
/// Dependence-driven scheduling inside an 80-entry instruction window,
/// at most four issues per cycle, EV67-like caches and a tournament branch
/// predictor. Mispredictions stall dispatch of younger instructions until
/// the branch resolves plus a pipeline-refill penalty.
#[derive(Debug, Clone)]
pub struct Ev67Model {
    lat: MemoryLatency,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dtlb: Tlb,
    predictor: TournamentPredictor,
    mispredict_penalty: u64,
    reg_ready: [u64; 64],
    /// Completion cycles of the last `window` instructions, 0 before the
    /// ring fills; `slot` holds the oldest.
    ring: Vec<u64>,
    slot: usize,
    /// Issue-bandwidth bookkeeping: `(cycle, instructions issued)` in slot
    /// `cycle % ISSUE_RING`.
    issued: Vec<(u64, u32)>,
    fetch_ready: u64,
    retired: u64,
    last_cycle: u64,
}

/// EV67 reorder-window size.
const EV67_WINDOW: usize = 80;
/// EV67 issue width.
const EV67_WIDTH: u32 = 4;
/// EV67 branch misprediction penalty, cycles.
const EV67_MISPREDICT_PENALTY: u64 = 7;
/// Cycles of issue counts the EV67 model remembers (a power of two).
const ISSUE_RING: usize = 1 << 16;

impl Ev67Model {
    /// Build with the EV67-like configuration.
    pub fn new() -> Self {
        Self::with_config(OooConfig::default())
    }

    /// Build with a custom machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the window size is zero.
    pub fn with_config(cfg: OooConfig) -> Self {
        assert!(cfg.window > 0, "window must be positive");
        let mk = |c: CacheConfig| {
            let cache = Cache::new(c);
            if cfg.prefetch {
                cache.with_next_line_prefetch()
            } else {
                cache
            }
        };
        Ev67Model {
            lat: cfg.lat,
            l1i: Cache::new(cfg.l1),
            l1d: mk(cfg.l1),
            l2: mk(cfg.l2),
            dtlb: Tlb::new(cfg.dtlb_entries, cfg.page_size),
            predictor: TournamentPredictor::ev67(),
            mispredict_penalty: cfg.mispredict_penalty,
            reg_ready: [0; 64],
            ring: vec![0; cfg.window],
            slot: 0,
            issued: vec![(0, 0); ISSUE_RING],
            fetch_ready: 0,
            retired: 0,
            last_cycle: 0,
        }
    }

    /// Committed IPC so far.
    pub fn ipc(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.retired as f64 / self.last_cycle.max(1) as f64
        }
    }

    /// Issue in the first cycle from `from` on that has an issue slot free.
    ///
    /// `issued` keeps only the latest cycle of each residue class, so a
    /// claim 2^16 or more cycles behind the newest one can find its
    /// cycle's count reset. Claims do land that far back: an instruction waits for
    /// its inputs and for the completion of the instruction one window
    /// earlier, not for in-order retirement, so independent work issues
    /// far behind a long chain of misses. Over the paper's kernel table,
    /// claims trail the newest by up to 252,502 cycles (MediaBench
    /// unepic/test2, the one kernel past 2^16); a ring large enough to count
    /// them exactly gives the same committed profiles and sensitivity sweep.
    fn claim_issue_slot(&mut self, from: u64) -> u64 {
        let mut c = from;
        loop {
            let slot = &mut self.issued[c as usize & (ISSUE_RING - 1)];
            if slot.0 != c {
                *slot = (c, 0);
            }
            if slot.1 < EV67_WIDTH {
                slot.1 += 1;
                return c;
            }
            c += 1;
        }
    }
}

impl Default for Ev67Model {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for Ev67Model {
    fn retire(&mut self, inst: &DynInst) {
        if !self.l1i.access(inst.pc) {
            let penalty = if self.l2.access(inst.pc) { self.lat.l2 } else { self.lat.mem };
            self.fetch_ready += penalty;
        }

        let mut ready = self.ring[self.slot].max(self.fetch_ready);
        for s in inst.sources() {
            ready = ready.max(self.reg_ready[s.unified()]);
        }
        let issue = self.claim_issue_slot(ready);

        let mut latency = exec_latency(inst.class);
        if let Some(m) = inst.mem {
            let tlb_penalty = if self.dtlb.access(m.addr) { 0 } else { self.lat.tlb_miss };
            let mem_lat = if self.l1d.access(m.addr) {
                self.lat.l1
            } else if self.l2.access(m.addr) {
                self.lat.l2
            } else {
                self.lat.mem
            };
            latency = if m.is_store { 1 } else { mem_lat + tlb_penalty };
        }
        let complete = issue + latency;

        if let Some(d) = inst.dst {
            self.reg_ready[d.unified()] = complete;
        }
        if let Some(ctrl) = inst.ctrl {
            if ctrl.conditional && !self.predictor.observe(inst.pc, ctrl.taken) {
                self.fetch_ready = self.fetch_ready.max(complete + self.mispredict_penalty);
            }
        }

        self.ring[self.slot] = complete;
        self.slot += 1;
        if self.slot == self.ring.len() {
            self.slot = 0;
        }
        self.retired += 1;
        self.last_cycle = self.last_cycle.max(complete);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::{CtrlInfo, MemAccess, RegRef};

    fn alu(pc: u64, dst: u8, srcs: &[u8]) -> DynInst {
        let mut s = [None; 3];
        for (i, &r) in srcs.iter().enumerate() {
            s[i] = Some(RegRef::Int(r));
        }
        DynInst {
            pc,
            class: InstClass::IntAlu,
            dst: Some(RegRef::Int(dst)),
            srcs: s,
            mem: None,
            ctrl: None,
        }
    }

    fn load(pc: u64, dst: u8, addr: u64) -> DynInst {
        DynInst {
            pc,
            class: InstClass::Load,
            dst: Some(RegRef::Int(dst)),
            srcs: [None; 3],
            mem: Some(MemAccess { addr, size: 8, is_store: false }),
            ctrl: None,
        }
    }

    fn branch(pc: u64, taken: bool) -> DynInst {
        DynInst {
            pc,
            class: InstClass::Branch,
            dst: None,
            srcs: [None; 3],
            mem: None,
            ctrl: Some(CtrlInfo { taken, target: pc + 4, conditional: true }),
        }
    }

    /// A tight code loop touching a tiny data footprint.
    fn run_friendly<M: TraceSink>(m: &mut M, n: u64) {
        for i in 0..n {
            m.retire(&alu(0x1000 + (i % 16) * 4, (i % 8 + 1) as u8, &[]));
        }
    }

    #[test]
    fn ev56_ipc_bounded_by_width() {
        let mut m = Ev56Model::new();
        run_friendly(&mut m, 50_000);
        let ipc = m.ipc();
        assert!(ipc <= 2.0 + 1e-9, "EV56 is dual-issue: {ipc}");
        assert!(ipc > 1.5, "independent ALU stream should near-saturate: {ipc}");
    }

    #[test]
    fn ev67_ipc_bounded_by_width_and_beats_ev56() {
        let mut e56 = Ev56Model::new();
        let mut e67 = Ev67Model::new();
        run_friendly(&mut e56, 50_000);
        run_friendly(&mut e67, 50_000);
        assert!(e67.ipc() <= 4.0 + 1e-9);
        assert!(e67.ipc() > e56.ipc(), "ev67 {} vs ev56 {}", e67.ipc(), e56.ipc());
    }

    #[test]
    fn serial_dependences_hurt_ev67_less_than_width_allows() {
        let mut m = Ev67Model::new();
        for i in 0..20_000u64 {
            m.retire(&alu(0x1000 + (i % 16) * 4, 1, &[1]));
        }
        assert!(m.ipc() < 1.1, "serial chain caps IPC near 1: {}", m.ipc());
    }

    #[test]
    fn cache_thrashing_lowers_ipc() {
        let mut friendly = Ev56Model::new();
        let mut hostile = Ev56Model::new();
        for i in 0..20_000u64 {
            // Friendly: one hot line. Hostile: stride bigger than L2.
            friendly.retire(&load(0x1000, 1, 0x10_0000));
            hostile.retire(&load(0x1000, 1, 0x10_0000 + i * 4096 * 37));
        }
        assert!(hostile.ipc() < friendly.ipc() * 0.3);
        assert!(hostile.l1d_stats().miss_rate() > 0.9);
        assert!(friendly.l1d_stats().miss_rate() < 0.01);
        assert!(hostile.dtlb_stats().miss_rate() > 0.9);
    }

    #[test]
    fn mispredictions_lower_ipc() {
        let mut predictable = Ev56Model::new();
        let mut random = Ev56Model::new();
        let mut x = 0x2545f491u64;
        for i in 0..20_000u64 {
            predictable.retire(&branch(0x1000, true));
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            random.retire(&branch(0x1000, x & 1 == 1));
            let _ = i;
        }
        assert!(random.ipc() < predictable.ipc());
        assert!(random.branch_stats().miss_rate() > 0.3);
        assert!(predictable.branch_stats().miss_rate() < 0.01);
    }

    #[test]
    fn large_code_footprint_misses_l1i() {
        let mut m = Ev56Model::new();
        // Walk 64 KiB of code repeatedly: 8x the 8 KiB L1I.
        for round in 0..4u64 {
            for i in 0..16_384u64 {
                m.retire(&alu(0x1_0000 + i * 4, 1, &[]));
                let _ = round;
            }
        }
        assert!(m.l1i_stats().miss_rate() > 0.05, "{}", m.l1i_stats().miss_rate());
    }

    #[test]
    fn empty_models_report_zero_ipc() {
        assert_eq!(Ev56Model::new().ipc(), 0.0);
        assert_eq!(Ev67Model::new().ipc(), 0.0);
    }

    /// Issue counts in a map, swept of the cycles more than 2^15 behind the
    /// newest claim whenever it holds more than 2^16: the bookkeeping the
    /// issue ring replaced, and the reference it must match for claims
    /// within 2^15 of the newest.
    #[derive(Default)]
    struct SweptMap {
        counts: std::collections::BTreeMap<u64, u32>,
        newest: u64,
    }

    impl SweptMap {
        fn claim(&mut self, from: u64) -> u64 {
            let mut c = from;
            loop {
                let n = self.counts.entry(c).or_insert(0);
                if *n < EV67_WIDTH {
                    *n += 1;
                    break;
                }
                c += 1;
            }
            self.newest = self.newest.max(c);
            if self.counts.len() > 1 << 16 {
                let keep_from = self.newest.saturating_sub(1 << 15);
                self.counts.retain(|&cy, _| cy >= keep_from);
            }
            c
        }
    }

    #[test]
    fn issue_ring_matches_swept_map_within_2_15_cycles() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model = Ev67Model::new();
            let mut reference = SweptMap::default();
            let mut newest = 0u64;
            for _ in 0..400_000 {
                let from = match rng.gen_range(0..16) {
                    // Far back, but within 2^15 of the newest claim.
                    0 => newest.saturating_sub(rng.gen_range(0..1u64 << 15)),
                    // Ahead of every claim so far.
                    1 => newest + rng.gen_range(0..32u64),
                    // Contended cycles near the front.
                    _ => newest.saturating_sub(rng.gen_range(0..8)),
                };
                let claimed = model.claim_issue_slot(from);
                assert_eq!(claimed, reference.claim(from), "seed {seed}: claim from cycle {from}");
                newest = newest.max(claimed);
            }
            assert!(newest > 4 * ISSUE_RING as u64, "seed {seed}: only {newest} cycles, too few ring wraps");
        }
    }

    #[test]
    fn miss_chain_beside_independent_work_stays_within_issue_width() {
        // A pointer chase missing every cache level, one load in 16, beside
        // independent ALU work: the ALU work issues far behind the chain,
        // whose completions run through several ring wraps.
        let mut m = Ev67Model::new();
        for i in 0..200_000u64 {
            if i % 16 == 0 {
                let mut chase = load(0x1000, 1, 0x10_0000 + i * 4096 * 37);
                chase.srcs[0] = Some(RegRef::Int(1));
                m.retire(&chase);
            } else {
                m.retire(&alu(0x1000 + (i % 16) * 4, (i % 8 + 2) as u8, &[]));
            }
        }
        assert!(m.last_cycle > 2 * ISSUE_RING as u64, "{} cycles", m.last_cycle);
        assert!(m.ipc() <= 4.0, "{}", m.ipc());
    }
}
