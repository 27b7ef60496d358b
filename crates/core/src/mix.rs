//! Instruction-mix characterization (metrics 1–6).

use tinyisa::{DynInst, InstClass, TraceSink};

/// Counts retired instructions per class and reports the mix as fractions of
/// the total (metrics 1–6 of Table II).
///
/// "Arithmetic operations" are integer ALU operations; integer multiplies
/// and divides are reported separately, matching the paper's split.
#[derive(Debug, Default, Clone)]
pub struct InstructionMix {
    loads: u64,
    stores: u64,
    control: u64,
    arith: u64,
    int_mul: u64,
    fp: u64,
    total: u64,
}

impl InstructionMix {
    /// Create an empty mix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total instructions observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The six mix fractions in Table II order: loads, stores, control
    /// transfers, arithmetic, integer multiplies, fp operations.
    ///
    /// All six are zero if no instruction was observed.
    pub fn fractions(&self) -> [f64; 6] {
        if self.total == 0 {
            return [0.0; 6];
        }
        let t = self.total as f64;
        [
            self.loads as f64 / t,
            self.stores as f64 / t,
            self.control as f64 / t,
            self.arith as f64 / t,
            self.int_mul as f64 / t,
            self.fp as f64 / t,
        ]
    }
}

impl TraceSink for InstructionMix {
    fn retire(&mut self, inst: &DynInst) {
        self.total += 1;
        match inst.class {
            InstClass::Load => self.loads += 1,
            InstClass::Store => self.stores += 1,
            InstClass::Branch | InstClass::Jump => self.control += 1,
            InstClass::IntAlu => self.arith += 1,
            InstClass::IntMul => self.int_mul += 1,
            InstClass::Fp => self.fp += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::RegRef;

    fn inst(class: InstClass) -> DynInst {
        DynInst {
            pc: 0,
            class,
            dst: Some(RegRef::Int(1)),
            srcs: [None; 3],
            mem: None,
            ctrl: None,
        }
    }

    #[test]
    fn empty_mix_is_zero() {
        assert_eq!(InstructionMix::new().fractions(), [0.0; 6]);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut m = InstructionMix::new();
        for class in [
            InstClass::Load,
            InstClass::Store,
            InstClass::Branch,
            InstClass::Jump,
            InstClass::IntAlu,
            InstClass::IntMul,
            InstClass::Fp,
        ] {
            m.retire(&inst(class));
        }
        let f = m.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Branch + Jump both count as control.
        assert!((f[2] - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn class_attribution() {
        let mut m = InstructionMix::new();
        m.retire(&inst(InstClass::Load));
        m.retire(&inst(InstClass::Load));
        m.retire(&inst(InstClass::Fp));
        m.retire(&inst(InstClass::IntMul));
        let f = m.fractions();
        assert_eq!(f[0], 0.5); // loads
        assert_eq!(f[5], 0.25); // fp
        assert_eq!(f[4], 0.25); // int mul
        assert_eq!(f[1], 0.0); // stores
        assert_eq!(m.total(), 4);
    }
}
