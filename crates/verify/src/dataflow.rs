//! Forward may-uninitialized dataflow over the CFG.
//!
//! A classic worklist fixpoint. Facts live at block boundaries; reporting
//! walks each reachable block once with its entry fact.

use crate::cfg::Cfg;
use tinyisa::{Program, RegRef};

/// A set of architectural registers over the unified 64-register index
/// space ([`RegRef::unified`]): bits 0..32 integer, 32..64 FP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegSet(pub u64);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);
    /// Every register, integer and FP.
    pub const ALL: RegSet = RegSet(u64::MAX);

    /// Insert a register.
    pub fn insert(&mut self, r: RegRef) {
        self.0 |= 1 << r.unified();
    }

    /// Remove a register.
    pub fn remove(&mut self, r: RegRef) {
        self.0 &= !(1 << r.unified());
    }

    /// Membership test.
    pub fn contains(self, r: RegRef) -> bool {
        self.0 & (1 << r.unified()) != 0
    }

    /// Set union.
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }
}

/// One may-uninitialized read: instruction `idx` reads `reg` while some
/// path from the entry reaches it without writing `reg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UninitRead {
    /// Instruction index of the reading site.
    pub idx: usize,
    /// The register read before any write.
    pub reg: RegRef,
}

/// May-uninitialized analysis: for every reachable instruction, which
/// registers could still hold their power-on value on some path.
///
/// `initialized_at_entry` is the entry fact — registers the harness
/// guarantees (the hardwired zero always; callers add any registers they
/// preset through `Vm::set_reg` before running). The lattice is the
/// powerset of registers ordered by inclusion, join is union (*may*), and
/// the transfer function of an instruction removes its definition
/// ([`Op::def`](tinyisa::Op::def)); reads do not change the fact, so every
/// use of a maybe-uninitialized register is reported, not just the first.
pub fn may_uninit_reads(
    prog: &Program,
    cfg: &Cfg,
    initialized_at_entry: RegSet,
) -> Vec<UninitRead> {
    let insts = prog.insts();
    let nb = cfg.blocks().len();

    // Per-block transfer: the set of registers the block definitely writes.
    let defs: Vec<RegSet> = cfg
        .blocks()
        .iter()
        .map(|b| {
            let mut d = RegSet::EMPTY;
            for op in &insts[b.start..b.end] {
                if let Some(r) = op.def() {
                    d.insert(r);
                }
            }
            d
        })
        .collect();

    // in[b] = union of out[preds]; entry additionally seeds the
    // maybe-uninit universe. Blocks start at bottom (empty) so unreachable
    // predecessors contribute nothing.
    let mut entry_fact = RegSet::ALL;
    entry_fact.0 &= !initialized_at_entry.0;
    // x0 is never a dependence (filtered from uses), but keep it out of the
    // universe anyway.
    entry_fact.remove(RegRef::Int(0));

    let mut inb = vec![RegSet::EMPTY; nb];
    let mut outb = vec![RegSet::EMPTY; nb];
    inb[0] = entry_fact;
    let mut work: Vec<usize> = (0..nb).collect();
    while let Some(b) = work.pop() {
        let mut i = inb[b];
        if b == 0 {
            i = i.union(entry_fact);
        }
        for p in &cfg.blocks()[b].preds {
            i = i.union(outb[*p]);
        }
        inb[b] = i;
        let o = RegSet(i.0 & !defs[b].0);
        if o != outb[b] {
            outb[b] = o;
            for s in &cfg.blocks()[b].succs {
                if !work.contains(s) {
                    work.push(*s);
                }
            }
        }
    }

    // Report pass: walk each reachable block with its entry fact.
    let mut reads = Vec::new();
    for (bi, b) in cfg.blocks().iter().enumerate() {
        if !cfg.is_reachable(bi) {
            continue;
        }
        let mut fact = inb[bi];
        for (idx, op) in insts.iter().enumerate().take(b.end).skip(b.start) {
            for r in op.uses().iter().flatten() {
                if fact.contains(*r) {
                    reads.push(UninitRead { idx, reg: *r });
                }
            }
            if let Some(d) = op.def() {
                fact.remove(d);
            }
        }
    }
    reads.sort_by_key(|r| (r.idx, r.reg.unified()));
    reads
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::{regs::*, Asm};

    fn analyze(build: impl FnOnce(&mut Asm)) -> (Program, Cfg) {
        let mut a = Asm::new();
        build(&mut a);
        let p = a.assemble().unwrap();
        let cfg = Cfg::build(&p);
        (p, cfg)
    }

    fn uninit(build: impl FnOnce(&mut Asm)) -> Vec<UninitRead> {
        let (p, cfg) = analyze(build);
        let mut entry = RegSet::EMPTY;
        entry.insert(RegRef::Int(0));
        may_uninit_reads(&p, &cfg, entry)
    }

    #[test]
    fn read_before_write_is_flagged_and_write_clears() {
        let reads = uninit(|a| {
            a.addi(T0, T1, 1); // T1 read uninitialized
            a.li(T1, 5);
            a.addi(T2, T1, 1); // T1 now initialized
            a.halt();
        });
        assert_eq!(reads, vec![UninitRead { idx: 0, reg: RegRef::Int(8) }]);
    }

    #[test]
    fn one_uninit_path_is_enough_for_may_analysis() {
        let reads = uninit(|a| {
            let (skip, join) = (a.label(), a.label());
            a.li(T0, 1);
            a.beq(T0, ZERO, skip); // never taken dynamically, but a path
            a.li(T1, 7);
            a.jmp(join);
            a.bind(skip);
            a.li(T2, 0); // T1 not written on this path
            a.bind(join);
            a.add(T3, T1, T0); // T1 maybe-uninit
            a.halt();
        });
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].reg, RegRef::Int(8));
    }

    #[test]
    fn both_paths_initialized_is_clean() {
        let reads = uninit(|a| {
            let (other, join) = (a.label(), a.label());
            a.li(T0, 1);
            a.beq(T0, ZERO, other);
            a.li(T1, 7);
            a.jmp(join);
            a.bind(other);
            a.li(T1, 9);
            a.bind(join);
            a.add(T3, T1, T0);
            a.halt();
        });
        assert!(reads.is_empty(), "{reads:?}");
    }

    #[test]
    fn fp_registers_are_tracked_separately() {
        let reads = uninit(|a| {
            a.fadd(F2, F0, F1); // both FP sources uninit
            a.fli(F0, 1.0);
            a.fadd(F3, F0, F2); // F2 written above: clean
            a.halt();
        });
        assert_eq!(
            reads,
            vec![
                UninitRead { idx: 0, reg: RegRef::Fp(0) },
                UninitRead { idx: 0, reg: RegRef::Fp(1) },
            ]
        );
    }

    #[test]
    fn x0_and_entry_registers_are_never_uninit() {
        let (p, cfg) = analyze(|a| {
            a.add(T0, ZERO, A0); // x0 filtered; A0 preset by the harness
            a.halt();
        });
        let mut entry = RegSet::EMPTY;
        entry.insert(RegRef::Int(0));
        entry.insert(RegRef::Int(1)); // A0
        assert!(may_uninit_reads(&p, &cfg, entry).is_empty());
    }

    #[test]
    fn loop_carried_initialization_converges() {
        // T1 is written inside the loop before the loop re-reads it; the
        // only uninit read is the first iteration's T1... which is written
        // at the top. Fixpoint must not oscillate.
        let reads = uninit(|a| {
            let head = a.label();
            a.li(T0, 0);
            a.bind(head);
            a.li(T1, 3);
            a.add(T0, T0, T1);
            a.slti(T2, T0, 100);
            a.bne(T2, ZERO, head);
            a.halt();
        });
        assert!(reads.is_empty(), "{reads:?}");
    }

    #[test]
    fn call_site_initialization_reaches_the_callee() {
        let reads = uninit(|a| {
            let (f, after) = (a.label(), a.label());
            a.li(A0, 10);
            a.call(f);
            a.jmp(after);
            a.bind(f);
            a.addi(A0, A0, 1); // A0 written at the call site
            a.ret(); // RA written by the call itself
            a.bind(after);
            a.halt();
        });
        assert!(reads.is_empty(), "{reads:?}");
    }
}
