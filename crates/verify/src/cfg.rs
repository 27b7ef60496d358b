//! Basic-block control-flow graph construction over assembled programs.
//!
//! Direct branch/jump/call targets are read straight from the [`Op`]
//! operands ([`Op::flow`]). Indirect transfers (`jr`, `callr`, `ret`) have
//! no static target; they are modeled conservatively against a shared pool
//! of *plausible indirect targets*:
//!
//! - the return site of every `call`/`callr` (where a `ret` lands), and
//! - every text address materialized by a `li` constant (the only way a
//!   kernel can compute a code pointer without arithmetic).
//!
//! Every pool member becomes a block leader and every indirect transfer
//! gets an edge to every pool member, so the static edge set
//! over-approximates anything the program can do short of *arithmetically*
//! constructing a code address (a case the verifier reports as a
//! [`Lint::IndirectUnresolved`](crate::Lint::IndirectUnresolved) warning
//! rather than silently mismodeling).

use std::collections::BTreeSet;
use tinyisa::{Flow, Op, Program, INST_BYTES};

/// One basic block: the half-open instruction index range `start..end` plus
/// its CFG edges (as block indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Index of the first instruction.
    pub start: usize,
    /// One past the index of the last instruction.
    pub end: usize,
    /// Successor blocks, deduplicated, in ascending order.
    pub succs: Vec<usize>,
    /// Predecessor blocks, deduplicated, in ascending order.
    pub preds: Vec<usize>,
    /// True if execution can fall off the end of the text segment from this
    /// block (its last instruction falls through past the last instruction).
    pub falls_off_end: bool,
}

impl Block {
    /// Index of the block's terminator (its last instruction).
    pub fn last(&self) -> usize {
        self.end - 1
    }
}

/// The control-flow graph of a [`Program`].
#[derive(Debug, Clone)]
pub struct Cfg {
    blocks: Vec<Block>,
    /// `block_of[i]` is the index of the block containing instruction `i`.
    block_of: Vec<usize>,
    /// The conservative indirect-target pool (instruction indices).
    indirect_targets: Vec<usize>,
    /// Blocks reachable from the entry block, as a bitvec.
    reachable: Vec<bool>,
}

impl Cfg {
    /// Build the CFG of `prog`. Block 0 is the entry block (instruction 0).
    pub fn build(prog: &Program) -> Cfg {
        let insts = prog.insts();
        let n = insts.len();

        // The conservative indirect-target pool: call return sites plus
        // li-materialized text addresses.
        let mut pool: BTreeSet<usize> = BTreeSet::new();
        let text_end = prog.base() + n as u64 * INST_BYTES;
        for (i, op) in insts.iter().enumerate() {
            match op.flow() {
                Flow::Call(_) | Flow::IndirectCall if i + 1 < n => {
                    pool.insert(i + 1);
                }
                _ => {}
            }
            if let Op::Li(_, imm) = *op {
                let v = imm as u64;
                if v >= prog.base() && v < text_end && (v - prog.base()).is_multiple_of(INST_BYTES)
                {
                    pool.insert(((v - prog.base()) / INST_BYTES) as usize);
                }
            }
        }
        let indirect_targets: Vec<usize> = pool.iter().copied().collect();

        // Leaders: entry, direct targets, the instruction after any control
        // transfer, and every indirect-pool member.
        let mut leader = vec![false; n];
        leader[0] = true;
        for (i, op) in insts.iter().enumerate() {
            let flow = op.flow();
            if let Some(t) = flow.direct_target() {
                if t < n {
                    leader[t] = true;
                }
            }
            if flow != Flow::Next && i + 1 < n {
                leader[i + 1] = true;
            }
        }
        for &t in &indirect_targets {
            leader[t] = true;
        }

        // Carve blocks and map instructions to them.
        let mut blocks: Vec<Block> = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for i in 0..n {
            block_of[i] = blocks.len();
            let is_last = i + 1 == n || leader[i + 1];
            if is_last {
                blocks.push(Block {
                    start,
                    end: i + 1,
                    succs: Vec::new(),
                    preds: Vec::new(),
                    falls_off_end: false,
                });
                start = i + 1;
            }
        }

        // Wire edges.
        let nb = blocks.len();
        for b in 0..nb {
            let last = blocks[b].last();
            let mut succs: BTreeSet<usize> = BTreeSet::new();
            let flow = insts[last].flow();
            match flow {
                Flow::Next | Flow::Branch(_) => {
                    if let Flow::Branch(t) = flow {
                        succs.insert(block_of[t]);
                    }
                    if last + 1 < n {
                        succs.insert(block_of[last + 1]);
                    } else {
                        blocks[b].falls_off_end = true;
                    }
                }
                Flow::Jump(t) | Flow::Call(t) => {
                    // A call's fall-through is its *return site*: control
                    // reaches it through the callee's `ret`, not from here.
                    succs.insert(block_of[t]);
                }
                Flow::IndirectJump | Flow::IndirectCall | Flow::Ret => {
                    for &t in &indirect_targets {
                        succs.insert(block_of[t]);
                    }
                }
                Flow::Halt => {}
            }
            let succs: Vec<usize> = succs.into_iter().collect();
            for &s in &succs {
                blocks[s].preds.push(b);
            }
            blocks[b].succs = succs;
        }
        for blk in &mut blocks {
            blk.preds.sort_unstable();
            blk.preds.dedup();
        }

        // Reachability from the entry block.
        let mut reachable = vec![false; nb];
        let mut stack = vec![0usize];
        reachable[0] = true;
        while let Some(b) = stack.pop() {
            for &s in &blocks[b].succs {
                if !reachable[s] {
                    reachable[s] = true;
                    stack.push(s);
                }
            }
        }

        Cfg { blocks, block_of, indirect_targets, reachable }
    }

    /// The basic blocks, in text order (block 0 is the entry).
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Index of the block containing instruction `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range of the program.
    pub fn block_of(&self, idx: usize) -> usize {
        self.block_of[idx]
    }

    /// True if `block` is reachable from the entry block.
    pub fn is_reachable(&self, block: usize) -> bool {
        self.reachable[block]
    }

    /// The conservative indirect-target pool (instruction indices): call
    /// return sites and li-materialized text addresses.
    pub fn indirect_targets(&self) -> &[usize] {
        &self.indirect_targets
    }

    /// True if the CFG has an edge from the block containing `from` to the
    /// block containing `to` — the check used by the dynamic-edge soundness
    /// property test.
    pub fn has_edge(&self, from_block: usize, to_block: usize) -> bool {
        self.blocks[from_block].succs.binary_search(&to_block).is_ok()
    }

    /// A copy of this CFG with the indirect terminators named in `resolved`
    /// narrowed to a single successor: `resolved` maps a block index (whose
    /// terminator is `jr`/`callr`/`ret`) to the one instruction index its
    /// target register provably holds. Each target must be a block leader —
    /// constant propagation only resolves to addresses, and a non-leader
    /// address would require re-carving blocks. Predecessor lists and
    /// reachability are recomputed; blocks, `block_of`, and the conservative
    /// pool are unchanged.
    pub fn refine_indirect(&self, resolved: &std::collections::BTreeMap<usize, usize>) -> Cfg {
        let mut blocks = self.blocks.clone();
        for (&b, &t) in resolved {
            debug_assert!(self.blocks[self.block_of(t)].start == t, "target must lead a block");
            blocks[b].succs = vec![self.block_of(t)];
        }
        for blk in &mut blocks {
            blk.preds.clear();
        }
        let nb = blocks.len();
        for b in 0..nb {
            let succs = blocks[b].succs.clone();
            for s in succs {
                blocks[s].preds.push(b);
            }
        }
        for blk in &mut blocks {
            blk.preds.sort_unstable();
            blk.preds.dedup();
        }
        let mut reachable = vec![false; nb];
        let mut stack = vec![0usize];
        reachable[0] = true;
        while let Some(b) = stack.pop() {
            for &s in &blocks[b].succs {
                if !reachable[s] {
                    reachable[s] = true;
                    stack.push(s);
                }
            }
        }
        Cfg {
            blocks,
            block_of: self.block_of.clone(),
            indirect_targets: self.indirect_targets.clone(),
            reachable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::{regs::*, Asm};

    fn cfg_of(build: impl FnOnce(&mut Asm)) -> Cfg {
        let mut a = Asm::new();
        build(&mut a);
        Cfg::build(&a.assemble().unwrap())
    }

    #[test]
    fn straight_line_is_one_block() {
        let cfg = cfg_of(|a| {
            a.li(T0, 1);
            a.addi(T0, T0, 2);
            a.halt();
        });
        assert_eq!(cfg.blocks().len(), 1);
        assert!(cfg.blocks()[0].succs.is_empty());
        assert!(cfg.is_reachable(0));
    }

    #[test]
    fn branch_splits_blocks_and_wires_both_edges() {
        let cfg = cfg_of(|a| {
            let done = a.label();
            a.li(T0, 1); // b0
            a.beq(T0, ZERO, done);
            a.addi(T0, T0, 1); // b1 (fallthrough)
            a.bind(done);
            a.halt(); // b2
        });
        assert_eq!(cfg.blocks().len(), 3);
        assert_eq!(cfg.blocks()[0].succs, vec![1, 2]);
        assert_eq!(cfg.blocks()[1].succs, vec![2]);
        assert_eq!(cfg.blocks()[2].preds, vec![0, 1]);
    }

    #[test]
    fn back_edge_forms_a_loop() {
        let cfg = cfg_of(|a| {
            let head = a.label();
            a.li(T0, 0); // b0
            a.bind(head);
            a.addi(T0, T0, 1); // b1
            a.slti(T1, T0, 9);
            a.bne(T1, ZERO, head);
            a.halt(); // b2
        });
        assert_eq!(cfg.blocks().len(), 3);
        assert!(cfg.has_edge(1, 1));
        assert!(cfg.has_edge(1, 2));
    }

    #[test]
    fn call_edges_go_to_callee_and_ret_returns_to_return_sites() {
        let cfg = cfg_of(|a| {
            let (f, after) = (a.label(), a.label());
            a.call(f); // b0: edge to callee only
            a.jmp(after); // b1: the return site
            a.bind(f);
            a.addi(A0, A0, 1); // b2
            a.ret();
            a.bind(after);
            a.halt(); // b3
        });
        let callee = cfg.block_of(2);
        let ret_site = cfg.block_of(1);
        assert_eq!(cfg.blocks()[0].succs, vec![callee]);
        assert!(cfg.has_edge(callee, ret_site), "ret must reach the call return site");
        assert_eq!(cfg.indirect_targets(), &[1]);
    }

    #[test]
    fn li_text_constant_joins_the_indirect_pool() {
        let cfg = cfg_of(|a| {
            a.li(T0, (0x1_0000 + 2 * INST_BYTES) as i64); // address of inst 2
            a.jr(T0);
            a.halt(); // inst 2: indirect target
        });
        assert_eq!(cfg.indirect_targets(), &[2]);
        let jr_block = cfg.block_of(1);
        assert!(cfg.has_edge(jr_block, cfg.block_of(2)));
    }

    #[test]
    fn unreachable_code_after_a_jump_is_detected() {
        let cfg = cfg_of(|a| {
            let end = a.label();
            a.jmp(end); // b0
            a.li(T0, 7); // b1: unreachable
            a.bind(end);
            a.halt(); // b2
        });
        assert!(cfg.is_reachable(0));
        assert!(!cfg.is_reachable(cfg.block_of(1)));
        assert!(cfg.is_reachable(cfg.block_of(2)));
    }

    #[test]
    fn falling_off_the_end_is_flagged() {
        let cfg = cfg_of(|a| {
            a.li(T0, 1);
            a.addi(T0, T0, 1); // no halt, no jump: runs off text
        });
        assert_eq!(cfg.blocks().len(), 1);
        assert!(cfg.blocks()[0].falls_off_end);
    }

    #[test]
    fn refine_indirect_narrows_succs_and_recomputes_reachability() {
        let cfg = cfg_of(|a| {
            let (f, g, after) = (a.label(), a.label(), a.label());
            a.call(f); // 0: return site is 1
            a.bind(after);
            a.jmp(after); // 1: spin at the return site
            a.bind(f);
            a.ret(); // 2: conservatively reaches every pool member
            a.bind(g);
            a.halt(); // 3: only reachable through the conservative ret edge
            let _ = g;
        });
        let ret_block = cfg.block_of(2);
        assert!(!cfg.blocks()[ret_block].succs.is_empty());
        let resolved = std::collections::BTreeMap::from([(ret_block, 1usize)]);
        let refined = cfg.refine_indirect(&resolved);
        assert_eq!(refined.blocks()[ret_block].succs, vec![refined.block_of(1)]);
        assert!(refined.blocks()[refined.block_of(1)].preds.contains(&ret_block));
        // Block structure is untouched.
        assert_eq!(refined.blocks().len(), cfg.blocks().len());
    }

    #[test]
    fn endless_kernel_shape_has_no_halt_and_no_fall_off() {
        let cfg = cfg_of(|a| {
            let outer = a.label();
            a.li(T0, 0);
            a.bind(outer);
            a.addi(T0, T0, 1);
            a.jmp(outer);
        });
        assert!(cfg.blocks().iter().all(|b| !b.falls_off_end));
    }
}
