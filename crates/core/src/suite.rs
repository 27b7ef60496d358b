//! One-pass driver that computes all 47 characteristics.

use crate::ilp::IlpAnalyzer;
use crate::mix::InstructionMix;
use crate::ppm::{PpmPredictor, PpmVariant};
use crate::regtraffic::RegTraffic;
use crate::strides::StrideAnalyzer;
use crate::vector::{MicaVector, NUM_METRICS};
use crate::working_set::WorkingSet;
use std::time::Instant;
use tinyisa::{DynInst, TraceSink};

/// Computes the full 47-dimensional [`MicaVector`] in a single pass over the
/// instruction trace.
///
/// Attach it to a [`tinyisa::Vm`] run as the [`TraceSink`], then call
/// [`CharacterizationSuite::finish`]. The individual analyzers are exposed
/// for callers that only need a subset (measuring fewer characteristics is
/// the entire point of the paper's Section V).
#[derive(Debug, Clone)]
pub struct CharacterizationSuite {
    /// Instruction mix (metrics 1–6).
    pub mix: InstructionMix,
    /// Idealized ILP (metrics 7–10).
    pub ilp: IlpAnalyzer,
    /// Register traffic (metrics 11–19).
    pub reg: RegTraffic,
    /// Working sets (metrics 20–23).
    pub wss: WorkingSet,
    /// Data strides (metrics 24–43).
    pub strides: StrideAnalyzer,
    /// PPM branch predictability, GAg/PAg/GAs/PAs (metrics 44–47).
    pub ppm: [PpmPredictor; 4],
    /// Batch-path scratch: the conditional-branch outcomes of the current
    /// block, extracted once and fed to all four predictors.
    branch_scratch: Vec<(u64, bool)>,
    /// Block-delivery wall time per analyzer, nanoseconds; see
    /// [`CharacterizationSuite::analyzer_ns`].
    busy_ns: [u64; 6],
}

impl Default for CharacterizationSuite {
    fn default() -> Self {
        Self::new()
    }
}

impl CharacterizationSuite {
    /// A suite with the paper's configuration.
    pub fn new() -> Self {
        CharacterizationSuite {
            mix: InstructionMix::new(),
            ilp: IlpAnalyzer::new(),
            reg: RegTraffic::new(),
            wss: WorkingSet::new(),
            strides: StrideAnalyzer::new(),
            ppm: [
                PpmPredictor::new(PpmVariant::GAg),
                PpmPredictor::new(PpmVariant::PAg),
                PpmPredictor::new(PpmVariant::GAs),
                PpmPredictor::new(PpmVariant::PAs),
            ],
            branch_scratch: Vec::new(),
            busy_ns: [0; 6],
        }
    }

    /// Wall time each analyzer spent on delivered blocks, in nanoseconds,
    /// in the order mix, ILP, register traffic, working set, strides,
    /// PPM (all four predictors plus their branch extraction). Only
    /// [`TraceSink::retire_block`] is timed: the per-instruction `retire`
    /// is the reference path and adds nothing here.
    pub fn analyzer_ns(&self) -> [u64; 6] {
        self.busy_ns
    }

    /// Total instructions observed.
    pub fn total_instructions(&self) -> u64 {
        self.mix.total()
    }

    /// Assemble the 47 metrics, in Table II order.
    pub fn finish(&self) -> MicaVector {
        let mut v = Vec::with_capacity(NUM_METRICS);
        v.extend_from_slice(&self.mix.fractions());
        v.extend(self.ilp.ipcs());
        v.push(self.reg.avg_input_operands());
        v.push(self.reg.avg_degree_of_use());
        v.extend_from_slice(&self.reg.dependency_distance_cdf());
        v.extend_from_slice(&self.wss.counts());
        v.extend_from_slice(&self.strides.all());
        v.extend(self.ppm.iter().map(|p| p.accuracy()));
        MicaVector::new(v)
    }
}

impl TraceSink for CharacterizationSuite {
    fn retire(&mut self, inst: &DynInst) {
        self.mix.retire(inst);
        self.ilp.retire(inst);
        self.reg.retire(inst);
        self.wss.retire(inst);
        self.strides.retire(inst);
        for p in &mut self.ppm {
            p.retire(inst);
        }
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        // Fan the whole block out analyzer by analyzer (each runs its own
        // `retire_block` over a hot block) instead of instruction by
        // instruction. The analyzers are independent, so per-analyzer
        // state evolves identically either way. One clock read between
        // analyzers charges each its share of the block.
        let mut clock = Instant::now();
        self.mix.retire_block(block);
        self.busy_ns[0] += lap(&mut clock);
        self.ilp.retire_block(block);
        self.busy_ns[1] += lap(&mut clock);
        self.reg.retire_block(block);
        self.busy_ns[2] += lap(&mut clock);
        self.wss.retire_block(block);
        self.busy_ns[3] += lap(&mut clock);
        self.strides.retire_block(block);
        self.busy_ns[4] += lap(&mut clock);
        // Extract the (usually sparse) conditional branches once, then
        // feed all four predictors from the same scratch.
        self.branch_scratch.clear();
        for inst in block {
            if let Some(ctrl) = inst.ctrl {
                if ctrl.conditional {
                    self.branch_scratch.push((inst.pc, ctrl.taken));
                }
            }
        }
        for p in &mut self.ppm {
            p.observe_block(&self.branch_scratch);
        }
        self.busy_ns[5] += lap(&mut clock);
    }
}

/// Nanoseconds from `*clock` to now; moves `*clock` to now.
fn lap(clock: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*clock).as_nanos() as u64;
    *clock = now;
    ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use tinyisa::{regs::*, Asm, Vm};

    /// A loop that strides through an array, with one multiply and one FP op
    /// per iteration — every analyzer gets exercised.
    fn sample_suite() -> CharacterizationSuite {
        let mut a = Asm::new();
        let head = a.label();
        a.li(T0, 0);
        a.li(T2, 0x10_0000);
        a.fli(F0, 1.5);
        a.bind(head);
        a.ld8(T3, T2, 0);
        a.mul(T4, T3, T3);
        a.st8(T4, T2, 8);
        a.fadd(F1, F0, F0);
        a.addi(T2, T2, 16);
        a.addi(T0, T0, 1);
        a.slti(T1, T0, 500);
        a.bne(T1, ZERO, head);
        a.halt();
        let mut suite = CharacterizationSuite::new();
        let mut vm = Vm::new(a.assemble().unwrap());
        vm.run(&mut suite, 100_000).unwrap();
        suite
    }

    fn sample_vector() -> MicaVector {
        sample_suite().finish()
    }

    #[test]
    fn finish_produces_47_sane_values() {
        let v = sample_vector();
        assert_eq!(v.values().len(), 47);
        for (i, x) in v.values().iter().enumerate() {
            assert!(x.is_finite(), "metric {i} not finite: {x}");
            assert!(*x >= 0.0, "metric {i} negative: {x}");
        }
    }

    #[test]
    fn mix_fractions_sum_to_one() {
        let v = sample_vector();
        let s: f64 = v.values()[..6].iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ilp_monotone_in_window() {
        let v = sample_vector();
        let ilp = &v.values()[6..10];
        for w in ilp.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "{ilp:?}");
        }
    }

    #[test]
    fn loop_branch_is_highly_predictable() {
        let v = sample_vector();
        for m in [metrics::PPM_GAG, metrics::PPM_PAG, metrics::PPM_GAS, metrics::PPM_PAS] {
            assert!(v.get(m) > 0.95, "{m}: {}", v.get(m));
        }
    }

    #[test]
    fn working_set_matches_touched_range() {
        let v = sample_vector();
        // 500 iterations * 16 bytes = 8000 bytes = 250 blocks, 2-3 pages.
        let blocks = v.get(metrics::D_WSS_BLOCKS);
        assert!((245.0..=255.0).contains(&blocks), "blocks {blocks}");
        let pages = v.get(metrics::D_WSS_PAGES);
        assert!((1.0..=4.0).contains(&pages), "pages {pages}");
    }

    #[test]
    fn block_delivery_times_every_analyzer() {
        let ns = sample_suite().analyzer_ns();
        assert!(ns.iter().all(|&t| t > 0), "{ns:?}");
    }

    #[test]
    fn strided_loop_has_small_local_strides() {
        let v = sample_vector();
        assert!(v.get(metrics::LOCAL_LOAD_STRIDE_64) > 0.95);
        assert_eq!(v.get(metrics::LOCAL_LOAD_STRIDE_0), 0.0);
    }
}
