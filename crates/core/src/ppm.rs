//! Branch-predictability characterization via Prediction by Partial
//! Matching (metrics 44–47).

use tinyisa::{DynInst, FlatTable, TraceSink};

/// Default maximum PPM context order (history bits): the paper's, and the
/// highest [`PpmPredictor::with_max_order`] accepts.
pub const DEFAULT_MAX_ORDER: usize = 8;

/// The four PPM predictor variants of the paper.
///
/// Following the two-level-predictor naming of Yeh & Patt that the paper
/// adopts: the first letter selects the history register (**G**lobal — one
/// shared outcome history — or **P**er-address, one history per static
/// branch); the last letter selects the pattern tables (**g**lobal — shared
/// by all branches — or **s**eparate tables per branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PpmVariant {
    GAg,
    PAg,
    GAs,
    PAs,
}

impl PpmVariant {
    /// All four variants in Table II order.
    pub const ALL: [PpmVariant; 4] = [PpmVariant::GAg, PpmVariant::PAg, PpmVariant::GAs, PpmVariant::PAs];

    fn per_address_history(self) -> bool {
        matches!(self, PpmVariant::PAg | PpmVariant::PAs)
    }

    fn per_branch_tables(self) -> bool {
        matches!(self, PpmVariant::GAs | PpmVariant::PAs)
    }
}

impl std::fmt::Display for PpmVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PpmVariant::GAg => "GAg",
            PpmVariant::PAg => "PAg",
            PpmVariant::GAs => "GAs",
            PpmVariant::PAs => "PAs",
        };
        f.write_str(s)
    }
}

/// The slot of a context within its table: a marker bit `1 << order` above
/// the low `order` history bits. The marker keeps the orders apart, so the
/// orders `0..=top` fill a block of `2 << top` slots.
fn context_slot(order: usize, hist: u64) -> u64 {
    (1 << order) | (hist & ((1 << order) - 1))
}

/// Slots the branch-id table starts with (a power of two).
const INITIAL_SLOTS: usize = 1 << 10;

/// A theoretical Prediction-by-Partial-Matching branch predictor
/// (Chen, Coffey & Mudge).
///
/// Maintains frequency counts for every context order from `max_order` down
/// to 0 and predicts with the longest context that has been seen before,
/// falling back to shorter contexts (the compression-model "escape"). The
/// reported **accuracy** — the fraction of conditional branches predicted
/// correctly — is the microarchitecture-independent branch-predictability
/// characteristic: PPM is a theoretical upper bound, not a hardware design.
#[derive(Debug, Clone)]
pub struct PpmPredictor {
    variant: PpmVariant,
    max_order: usize,
    global_hist: u64,
    /// One history per branch id (read only by the per-address variants).
    local_hist: Vec<u64>,
    /// Branch id + 1 by pc, 0 until the branch is first seen.
    ids: FlatTable<u32>,
    /// `[not-taken, taken]` counts of every order, by [`context_slot`]
    /// within one block per table; a table's block starts at
    /// `table × block_len`.
    direct: Vec<[u32; 2]>,
    correct: u64,
    total: u64,
}

impl PpmPredictor {
    /// Predictor with the default maximum order.
    pub fn new(variant: PpmVariant) -> Self {
        Self::with_max_order(variant, DEFAULT_MAX_ORDER)
    }

    /// Predictor with a custom maximum context order (history bits).
    ///
    /// # Panics
    ///
    /// Panics if `max_order` is above 8, the paper's order.
    pub fn with_max_order(variant: PpmVariant, max_order: usize) -> Self {
        assert!(max_order <= DEFAULT_MAX_ORDER, "PPM order above {DEFAULT_MAX_ORDER} is not supported");
        let mut p = PpmPredictor {
            variant,
            max_order,
            global_hist: 0,
            local_hist: Vec::new(),
            ids: FlatTable::with_slots(INITIAL_SLOTS),
            direct: Vec::new(),
            correct: 0,
            total: 0,
        };
        if !variant.per_branch_tables() {
            p.direct.resize(p.block_len(), [0; 2]);
        }
        p
    }

    /// Slots in one table's block.
    fn block_len(&self) -> usize {
        2 << self.max_order
    }

    /// The configured variant.
    pub fn variant(&self) -> PpmVariant {
        self.variant
    }

    /// Conditional branches observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of conditional branches predicted correctly, in `[0, 1]`.
    /// Returns 1.0 for a trace without conditional branches (trivially
    /// predictable).
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// The dense id of the branch at `pc`, handing out the next one (with a
    /// history, and a block for per-branch tables) on first sight.
    fn branch_id(&mut self, pc: u64) -> usize {
        let block_len = if self.variant.per_branch_tables() { self.block_len() } else { 0 };
        let slot = self.ids.get_or_insert(pc);
        if *slot == 0 {
            // The slot stores the id + 1, the length after the push, as a
            // u32: this guard keeps `len + 1` inside one.
            assert!(self.local_hist.len() < 1 << 31, "more than 2^31 static branches");
            self.local_hist.push(0);
            *slot = self.local_hist.len() as u32;
            self.direct.resize(self.direct.len() + block_len, [0; 2]);
        }
        *slot as usize - 1
    }

    /// Feed one conditional branch outcome; returns whether the prediction
    /// was correct.
    pub fn observe(&mut self, pc: u64, taken: bool) -> bool {
        let id = if self.variant == PpmVariant::GAg { 0 } else { self.branch_id(pc) };
        let hist = if self.variant.per_address_history() { self.local_hist[id] } else { self.global_hist };
        let table = if self.variant.per_branch_tables() { id } else { 0 };

        // One probe per order, shortest context first. A context's counts
        // stay [0, 0] until it is first seen, so the last nonzero counts
        // read belong to the longest context seen before — the prediction
        // of the longest-match escape. Each probe then counts this outcome
        // in a context no later probe reads.
        let mut prediction = true; // static default for a never-seen branch
        let block_len = self.block_len();
        let block = &mut self.direct[table * block_len..][..block_len];
        for order in 0..=self.max_order {
            let counts = &mut block[context_slot(order, hist) as usize];
            let [nt, t] = *counts;
            if nt | t != 0 {
                prediction = t >= nt;
            }
            counts[taken as usize] = counts[taken as usize].saturating_add(1);
        }

        let correct = prediction == taken;
        self.total += 1;
        if correct {
            self.correct += 1;
        }

        // Shift the outcome into the history register.
        let new_hist = (hist << 1) | taken as u64;
        if self.variant.per_address_history() {
            self.local_hist[id] = new_hist;
        } else {
            self.global_hist = new_hist;
        }
        correct
    }

    /// Feed a run of conditional-branch outcomes, in order — the batch
    /// path's entry point. [`CharacterizationSuite`](crate::CharacterizationSuite)
    /// extracts the branches of a block once and feeds all four predictors
    /// from the same scratch buffer.
    pub fn observe_block(&mut self, outcomes: &[(u64, bool)]) {
        for &(pc, taken) in outcomes {
            self.observe(pc, taken);
        }
    }
}

impl TraceSink for PpmPredictor {
    fn retire(&mut self, inst: &DynInst) {
        if let Some(ctrl) = inst.ctrl {
            if ctrl.conditional {
                self.observe(inst.pc, ctrl.taken);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_taken_branch_is_learned() {
        for v in PpmVariant::ALL {
            let mut p = PpmPredictor::new(v);
            for _ in 0..1000 {
                p.observe(0x100, true);
            }
            assert!(p.accuracy() > 0.99, "{v}: {}", p.accuracy());
        }
    }

    #[test]
    fn alternating_pattern_is_learned() {
        for v in PpmVariant::ALL {
            let mut p = PpmPredictor::new(v);
            let mut correct_late = 0;
            for i in 0..2000 {
                let c = p.observe(0x100, i % 2 == 0);
                if i >= 1000 && c {
                    correct_late += 1;
                }
            }
            assert!(correct_late > 990, "{v} should learn T/NT alternation: {correct_late}");
        }
    }

    #[test]
    fn long_periodic_pattern_needs_history() {
        // Period-6 pattern TTTTTN: learnable with order >= 6.
        let mut p = PpmPredictor::with_max_order(PpmVariant::GAg, 8);
        let mut correct_late = 0;
        for i in 0..6000 {
            let c = p.observe(0x100, i % 6 != 5);
            if i >= 3000 && c {
                correct_late += 1;
            }
        }
        assert!(correct_late > 2900, "periodic pattern should be learned: {correct_late}");
    }

    #[test]
    fn random_outcomes_are_hard() {
        // A pseudo-random sequence should sit near 50% for every variant.
        let mut x = 0x12345678u64;
        let mut outcomes = Vec::new();
        for _ in 0..20_000 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            outcomes.push(x & 1 == 1);
        }
        for v in PpmVariant::ALL {
            let mut p = PpmPredictor::new(v);
            for &t in &outcomes {
                p.observe(0x100, t);
            }
            assert!(
                (p.accuracy() - 0.5).abs() < 0.05,
                "{v} on random outcomes: {}",
                p.accuracy()
            );
        }
    }

    #[test]
    fn per_address_history_separates_interleaved_branches() {
        // Two branches with opposite constant behavior, interleaved. With
        // per-branch tables (or per-branch history) both are trivial; GAg
        // also learns the global alternation here. The interesting check is
        // that PAs is essentially perfect.
        let mut p = PpmPredictor::new(PpmVariant::PAs);
        for _ in 0..1000 {
            p.observe(0x100, true);
            p.observe(0x200, false);
        }
        assert!(p.accuracy() > 0.99);
    }

    #[test]
    fn gag_confused_by_aliasing_where_gas_is_not() {
        // Two branches: one always taken, one random-ish. With shared
        // tables and shared history, the noisy branch pollutes the quiet
        // one's contexts; per-branch tables isolate them.
        let mut x = 0x9e3779b9u64;
        let mut gag = PpmPredictor::new(PpmVariant::GAg);
        let mut gas = PpmPredictor::new(PpmVariant::GAs);
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let noisy = x & 1 == 1;
            for p in [&mut gag, &mut gas] {
                p.observe(0x100, true);
                p.observe(0x200, noisy);
            }
        }
        assert!(gas.accuracy() >= gag.accuracy() - 0.01);
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn order_9_is_rejected_at_construction() {
        let _ = PpmPredictor::with_max_order(PpmVariant::GAg, DEFAULT_MAX_ORDER + 1);
    }

    #[test]
    fn max_supported_order_works_end_to_end() {
        let mut p = PpmPredictor::with_max_order(PpmVariant::PAs, DEFAULT_MAX_ORDER);
        for i in 0..500 {
            p.observe(0x100, i % 3 == 0);
        }
        assert_eq!(p.total(), 500);
        assert!(p.accuracy() > 0.5, "{}", p.accuracy());
    }

    #[test]
    fn no_branches_means_perfectly_predictable() {
        let p = PpmPredictor::new(PpmVariant::GAg);
        assert_eq!(p.accuracy(), 1.0);
    }

    #[test]
    fn saturated_context_predicts_without_overflow() {
        // Both counts at u32::MAX sum past 2^32: the seen-before test must
        // not add them.
        let mut p = PpmPredictor::new(PpmVariant::GAg);
        let slot = context_slot(0, 0) as usize;
        p.direct[slot] = [u32::MAX, u32::MAX];
        assert!(p.observe(0x100, true), "ties predict taken");
        assert_eq!(p.direct[slot], [u32::MAX, u32::MAX]);
        assert_eq!(p.total(), 1);
    }

    #[test]
    fn shared_tables_hold_one_block_and_separate_tables_one_per_branch() {
        let pcs = [0x100, 0x200, 0x100, 0x300, 0x200, u64::MAX, 0];
        for order in [0, 1, 8] {
            for v in PpmVariant::ALL {
                let mut p = PpmPredictor::with_max_order(v, order);
                for (i, &pc) in pcs.iter().enumerate() {
                    p.observe(pc, i % 2 == 0);
                }
                let blocks = if v.per_branch_tables() { 5 } else { 1 };
                assert_eq!(p.direct.len(), blocks << (order + 1), "{v} order {order}");
            }
        }
    }

    #[test]
    fn only_conditional_branches_are_scored() {
        use tinyisa::{CtrlInfo, InstClass};
        let mut p = PpmPredictor::new(PpmVariant::GAg);
        let jump = DynInst {
            pc: 0x50,
            class: InstClass::Jump,
            dst: None,
            srcs: [None; 3],
            mem: None,
            ctrl: Some(CtrlInfo { taken: true, target: 0x100, conditional: false }),
        };
        p.retire(&jump);
        assert_eq!(p.total(), 0);
    }
}
