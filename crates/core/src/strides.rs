//! Data-stream-stride characterization (metrics 24–43).

use tinyisa::{DynInst, FlatTable, TraceSink};

/// The cumulative stride thresholds of Table II: the first bucket is the
/// probability of a stride of exactly 0; the rest are `P[|stride| <= k]`.
pub const STRIDE_BUCKETS: [u64; 5] = [0, 8, 64, 512, 4096];

/// One cumulative stride distribution.
#[derive(Debug, Default, Clone)]
struct StrideDist {
    buckets: [u64; 5],
    total: u64,
}

impl StrideDist {
    fn record(&mut self, stride: u64) {
        self.total += 1;
        for (b, &threshold) in self.buckets.iter_mut().zip(&STRIDE_BUCKETS) {
            if stride <= threshold {
                *b += 1;
            }
        }
    }

    fn cdf(&self) -> [f64; 5] {
        if self.total == 0 {
            return [0.0; 5];
        }
        let t = self.total as f64;
        let mut out = [0.0; 5];
        for (o, &c) in out.iter_mut().zip(&self.buckets) {
            *o = c as f64 / t;
        }
        out
    }
}

/// Measures local and global data strides, separately for loads and stores
/// (metrics 24–43 of Table II).
///
/// A **global** stride is the absolute address difference between temporally
/// adjacent memory accesses of the same kind (load→load, store→store). A
/// **local** stride is the same but restricted to accesses issued by a single
/// static instruction (tracked per PC, as ATOM tracks per memory operation).
/// The first access of a stream produces no stride.
#[derive(Debug, Default, Clone)]
pub struct StrideAnalyzer {
    last_global_load: Option<u64>,
    last_global_store: Option<u64>,
    last_local_load: FlatTable<u64>,
    last_local_store: FlatTable<u64>,
    local_load: StrideDist,
    global_load: StrideDist,
    local_store: StrideDist,
    global_store: StrideDist,
}

impl StrideAnalyzer {
    /// Create an empty analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Metrics 24–28: local load stride CDF.
    pub fn local_load_cdf(&self) -> [f64; 5] {
        self.local_load.cdf()
    }

    /// Metrics 29–33: global load stride CDF.
    pub fn global_load_cdf(&self) -> [f64; 5] {
        self.global_load.cdf()
    }

    /// Metrics 34–38: local store stride CDF.
    pub fn local_store_cdf(&self) -> [f64; 5] {
        self.local_store.cdf()
    }

    /// Metrics 39–43: global store stride CDF.
    pub fn global_store_cdf(&self) -> [f64; 5] {
        self.global_store.cdf()
    }

    /// All 20 stride metrics in Table II order.
    pub fn all(&self) -> [f64; 20] {
        let mut out = [0.0; 20];
        out[0..5].copy_from_slice(&self.local_load_cdf());
        out[5..10].copy_from_slice(&self.global_load_cdf());
        out[10..15].copy_from_slice(&self.local_store_cdf());
        out[15..20].copy_from_slice(&self.global_store_cdf());
        out
    }
}

impl TraceSink for StrideAnalyzer {
    fn retire(&mut self, inst: &DynInst) {
        let Some(m) = inst.mem else { return };
        if m.is_store {
            if let Some(prev) = self.last_global_store.replace(m.addr) {
                self.global_store.record(prev.abs_diff(m.addr));
            }
            if let Some(prev) = self.last_local_store.insert(inst.pc, m.addr) {
                self.local_store.record(prev.abs_diff(m.addr));
            }
        } else {
            if let Some(prev) = self.last_global_load.replace(m.addr) {
                self.global_load.record(prev.abs_diff(m.addr));
            }
            if let Some(prev) = self.last_local_load.insert(inst.pc, m.addr) {
                self.local_load.record(prev.abs_diff(m.addr));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::{InstClass, MemAccess};

    fn access(pc: u64, addr: u64, is_store: bool) -> DynInst {
        DynInst {
            pc,
            class: if is_store { InstClass::Store } else { InstClass::Load },
            dst: None,
            srcs: [None; 3],
            mem: Some(MemAccess { addr, size: 8, is_store }),
            ctrl: None,
        }
    }

    #[test]
    fn first_access_produces_no_stride() {
        let mut s = StrideAnalyzer::new();
        s.retire(&access(0x100, 0x8000, false));
        assert_eq!(s.global_load_cdf(), [0.0; 5]);
        assert_eq!(s.local_load_cdf(), [0.0; 5]);
    }

    #[test]
    fn unit_stride_loads() {
        let mut s = StrideAnalyzer::new();
        for i in 0..100 {
            s.retire(&access(0x100, 0x8000 + i * 8, false));
        }
        let local = s.local_load_cdf();
        assert_eq!(local[0], 0.0); // stride 8, not 0
        assert_eq!(local[1..], [1.0; 4]); // all <= 8
        assert_eq!(s.global_load_cdf(), local); // single instruction: same
    }

    #[test]
    fn zero_stride_detected() {
        let mut s = StrideAnalyzer::new();
        for _ in 0..10 {
            s.retire(&access(0x100, 0x9000, true));
        }
        assert_eq!(s.local_store_cdf(), [1.0; 5]);
        assert_eq!(s.global_store_cdf(), [1.0; 5]);
    }

    #[test]
    fn local_vs_global_differ_with_interleaving() {
        let mut s = StrideAnalyzer::new();
        // Two instructions alternately accessing two distant arrays, each
        // with unit (8-byte) local stride. Global strides are huge.
        for i in 0..50 {
            s.retire(&access(0x100, 0x1_0000 + i * 8, false));
            s.retire(&access(0x200, 0x90_0000 + i * 8, false));
        }
        let local = s.local_load_cdf();
        let global = s.global_load_cdf();
        assert!(local[1] > 0.95, "local strides are small: {local:?}");
        assert!(global[4] < 0.05, "global strides are large: {global:?}");
    }

    #[test]
    fn loads_and_stores_tracked_separately() {
        let mut s = StrideAnalyzer::new();
        s.retire(&access(0x100, 0x8000, false));
        s.retire(&access(0x200, 0xf000_0000, true));
        s.retire(&access(0x100, 0x8008, false));
        // The intervening store must not perturb the load stride stream.
        assert_eq!(s.global_load_cdf()[1], 1.0);
        assert_eq!(s.global_store_cdf(), [0.0; 5]); // single store, no stride
    }

    #[test]
    fn local_strides_at_the_extreme_pcs() {
        let mut s = StrideAnalyzer::new();
        for i in 0..10 {
            s.retire(&access(0, 0x8000 + i * 8, false));
            s.retire(&access(u64::MAX, 0x90_0000 + i * 8, false));
            s.retire(&access(0, 0x1_0000, true));
            s.retire(&access(u64::MAX, 0xa0_0000 + i * 4096, true));
        }
        // 9 strides of 8 per load pc; 9 of 0 at pc 0 and 9 of 4096 at
        // `u64::MAX` among the stores.
        assert_eq!(s.local_load_cdf(), [0.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(s.local_store_cdf(), [0.5, 0.5, 0.5, 0.5, 1.0]);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut s = StrideAnalyzer::new();
        for i in 0..1000u64 {
            s.retire(&access(0x100, (i * i * 37) % 100_000, false));
        }
        let cdf = s.global_load_cdf();
        for w in cdf.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }
}
