//! Backward liveness over the CFG.
//!
//! Liveness is the classic backward may-analysis: a register is live at a
//! point if some path from that point reads it before writing it. Because
//! the CFG over-approximates indirect control flow (see
//! [`Cfg`](crate::cfg::Cfg)), the computed live sets over-approximate the
//! dynamic ones — which is the sound direction for the dead-store lint (a
//! store is only reported dead if *no* static path reads it) and for the
//! soundness harness (every dynamic read must be statically live).

use crate::cfg::Cfg;
use crate::dataflow::RegSet;
use tinyisa::Program;

/// Per-block and per-instruction liveness facts.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live on entry to each block.
    pub live_in: Vec<RegSet>,
    /// Registers live on exit from each block.
    pub live_out: Vec<RegSet>,
    /// Registers live immediately *before* each instruction executes.
    inst_live_in: Vec<RegSet>,
    /// Registers live immediately *after* each instruction executes.
    inst_live_out: Vec<RegSet>,
}

impl Liveness {
    /// Compute liveness for `prog` over `cfg`.
    pub fn compute(prog: &Program, cfg: &Cfg) -> Liveness {
        let insts = prog.insts();
        let nb = cfg.blocks().len();

        // Per-block gen (upward-exposed uses) and kill (defs).
        let mut gen = vec![RegSet::EMPTY; nb];
        let mut kill = vec![RegSet::EMPTY; nb];
        for (bi, b) in cfg.blocks().iter().enumerate() {
            for op in insts[b.start..b.end].iter().rev() {
                if let Some(d) = op.def() {
                    gen[bi].remove(d);
                    kill[bi].insert(d);
                }
                for u in op.uses().iter().flatten() {
                    gen[bi].insert(*u);
                }
            }
        }

        // Backward worklist: out[b] = union of in[succs]; blocks with no
        // successors (halt, fall-off-end) have an empty out set.
        let mut live_in = vec![RegSet::EMPTY; nb];
        let mut live_out = vec![RegSet::EMPTY; nb];
        let mut work: Vec<usize> = (0..nb).collect();
        while let Some(b) = work.pop() {
            let mut o = RegSet::EMPTY;
            for s in &cfg.blocks()[b].succs {
                o = o.union(live_in[*s]);
            }
            live_out[b] = o;
            let i = RegSet(gen[b].0 | (o.0 & !kill[b].0));
            if i != live_in[b] {
                live_in[b] = i;
                for p in &cfg.blocks()[b].preds {
                    if !work.contains(p) {
                        work.push(*p);
                    }
                }
            }
        }

        // Per-instruction facts by a single backward walk per block.
        let n = insts.len();
        let mut inst_live_in = vec![RegSet::EMPTY; n];
        let mut inst_live_out = vec![RegSet::EMPTY; n];
        for (bi, b) in cfg.blocks().iter().enumerate() {
            let mut live = live_out[bi];
            for idx in (b.start..b.end).rev() {
                inst_live_out[idx] = live;
                if let Some(d) = insts[idx].def() {
                    live.remove(d);
                }
                for u in insts[idx].uses().iter().flatten() {
                    live.insert(*u);
                }
                inst_live_in[idx] = live;
            }
        }

        Liveness { live_in, live_out, inst_live_in, inst_live_out }
    }

    /// Registers live immediately before instruction `idx` executes. Every
    /// register `idx` reads is in this set by construction; the interesting
    /// content is what flows through from later uses.
    pub fn inst_live_in(&self, idx: usize) -> RegSet {
        self.inst_live_in[idx]
    }

    /// Registers live immediately after instruction `idx` executes. A
    /// definition at `idx` not in this set is a dead store.
    pub fn inst_live_out(&self, idx: usize) -> RegSet {
        self.inst_live_out[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::{regs::*, Asm, Program, RegRef};

    fn setup(f: impl FnOnce(&mut Asm)) -> (Program, Cfg, Liveness) {
        let mut a = Asm::new();
        f(&mut a);
        let p = a.assemble().unwrap();
        let cfg = Cfg::build(&p);
        let l = Liveness::compute(&p, &cfg);
        (p, cfg, l)
    }

    #[test]
    fn straight_line_dead_and_live_defs() {
        let (_, _, l) = setup(|a| {
            a.li(T0, 1); // dead: overwritten before any read
            a.li(T0, 2);
            a.addi(T1, T0, 1);
            a.halt();
        });
        let t0 = RegRef::Int(7);
        assert!(!l.inst_live_out(0).contains(t0), "first li T0 is dead");
        assert!(l.inst_live_out(1).contains(t0), "second li T0 is read");
        assert!(l.inst_live_in(2).contains(t0));
    }

    #[test]
    fn loop_keeps_the_induction_variable_live() {
        let (_, cfg, l) = setup(|a| {
            let head = a.label();
            a.li(T0, 0);
            a.bind(head);
            a.addi(T0, T0, 1);
            a.slti(T1, T0, 9);
            a.bne(T1, ZERO, head);
            a.halt();
        });
        let t0 = RegRef::Int(7);
        let head = cfg.block_of(1);
        assert!(l.live_in[head].contains(t0));
        assert!(l.live_out[head].contains(t0), "loop-carried T0 stays live at the latch");
    }

    #[test]
    fn branch_use_keeps_the_condition_live_only_up_to_the_branch() {
        let (_, _, l) = setup(|a| {
            let end = a.label();
            a.li(T1, 3);
            a.beq(T1, ZERO, end);
            a.li(T2, 1);
            a.bind(end);
            a.halt();
        });
        let t1 = RegRef::Int(8);
        assert!(l.inst_live_in(1).contains(t1));
        assert!(!l.inst_live_out(1).contains(t1));
    }

    #[test]
    fn fp_liveness_is_tracked_in_the_upper_half() {
        let (_, _, l) = setup(|a| {
            a.fli(F1, 2.5);
            a.fadd(F2, F1, F1);
            a.halt();
        });
        assert!(l.inst_live_out(0).contains(RegRef::Fp(1)));
        assert!(!l.inst_live_out(1).contains(RegRef::Fp(2)), "F2 is never read");
    }
}
