//! Dominator tree and natural-loop forest over the CFG.
//!
//! Dominators are computed with the Cooper-Harvey-Kennedy iterative
//! algorithm over a reverse postorder of the reachable blocks; unreachable
//! blocks have no dominator information. Natural loops are formed from
//! *back edges* (an edge `u -> h` whose target `h` dominates `u`); a
//! retreating edge whose target does *not* dominate its source marks an
//! irreducible region, which is recorded rather than forced into a loop —
//! the analyses that consume the forest (widening points, loop lints, the
//! static report) treat irreducible edges conservatively.

use crate::cfg::Cfg;

/// The dominator tree of a [`Cfg`], plus the reverse postorder it was
/// computed over.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per block; `idom[entry] == Some(entry)`,
    /// unreachable blocks are `None`.
    idom: Vec<Option<usize>>,
    /// Position of each block in reverse postorder (`None` if unreachable).
    rpo_index: Vec<Option<usize>>,
    /// The reachable blocks in reverse postorder (entry first).
    rpo: Vec<usize>,
}

impl DomTree {
    /// Compute the dominator tree of `cfg`.
    pub fn compute(cfg: &Cfg) -> DomTree {
        let nb = cfg.blocks().len();

        // Iterative DFS postorder from the entry block.
        let mut post: Vec<usize> = Vec::new();
        let mut seen = vec![false; nb];
        // Stack of (block, next-successor-position) frames.
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        seen[0] = true;
        while let Some(&mut (b, ref mut pos)) = stack.last_mut() {
            let succs = &cfg.blocks()[b].succs;
            if *pos < succs.len() {
                let s = succs[*pos];
                *pos += 1;
                if !seen[s] {
                    seen[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<usize> = post.into_iter().rev().collect();
        let mut rpo_index = vec![None; nb];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b] = Some(i);
        }

        let mut idom: Vec<Option<usize>> = vec![None; nb];
        idom[0] = Some(0);
        let intersect = |idom: &[Option<usize>], rpo_index: &[Option<usize>], a: usize, b: usize| {
            let (mut x, mut y) = (a, b);
            while x != y {
                while rpo_index[x] > rpo_index[y] {
                    x = idom[x].expect("processed block has an idom");
                }
                while rpo_index[y] > rpo_index[x] {
                    y = idom[y].expect("processed block has an idom");
                }
            }
            x
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<usize> = None;
                for &p in &cfg.blocks()[b].preds {
                    if idom[p].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, p, cur),
                    });
                }
                if new_idom != idom[b] {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }

        DomTree { idom, rpo_index, rpo }
    }

    /// The immediate dominator of `b` (`Some(b)` itself for the entry,
    /// `None` for unreachable blocks).
    pub fn idom(&self, b: usize) -> Option<usize> {
        self.idom[b]
    }

    /// The reachable blocks in reverse postorder (entry first).
    pub fn rpo(&self) -> &[usize] {
        &self.rpo
    }

    /// Position of `b` in reverse postorder, `None` if unreachable.
    pub fn rpo_index(&self, b: usize) -> Option<usize> {
        self.rpo_index[b]
    }

    /// True if `a` dominates `b` (reflexive). Unreachable blocks dominate
    /// nothing and are dominated by nothing.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if self.idom[b].is_none() || self.idom[a].is_none() {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            let up = self.idom[cur].expect("reachable block has an idom");
            if up == cur {
                return false; // reached the entry
            }
            cur = up;
        }
    }
}

/// One natural loop: a header and the set of blocks that can reach one of
/// its back edges without leaving through the header.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// The loop header (the single entry of the loop).
    pub header: usize,
    /// All blocks of the loop, sorted ascending (includes the header).
    pub body: Vec<usize>,
    /// Sources of the back edges (`latch -> header`), sorted ascending.
    pub latches: Vec<usize>,
    /// CFG edges leaving the loop: `(from, to)` with `from` in the body
    /// and `to` outside it.
    pub exits: Vec<(usize, usize)>,
    /// Nesting depth: 1 for an outermost loop.
    pub depth: usize,
    /// Index (into [`LoopForest::loops`]) of the innermost enclosing loop.
    pub parent: Option<usize>,
}

impl NaturalLoop {
    /// True if `block` belongs to this loop's body.
    pub fn contains(&self, block: usize) -> bool {
        self.body.binary_search(&block).is_ok()
    }
}

/// The natural loops of a CFG, with per-block innermost-loop lookup.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// All natural loops, one per distinct header, outermost-first by
    /// nesting (parents precede children).
    pub loops: Vec<NaturalLoop>,
    /// `innermost[b]` is the index of the innermost loop containing block
    /// `b`, if any.
    innermost: Vec<Option<usize>>,
    /// Retreating edges whose target does not dominate the source —
    /// irreducible control flow no natural loop models.
    pub irreducible_edges: Vec<(usize, usize)>,
}

impl LoopForest {
    /// Build the loop forest from a CFG and its dominator tree.
    pub fn compute(cfg: &Cfg, dom: &DomTree) -> LoopForest {
        let nb = cfg.blocks().len();

        // Classify edges; collect back-edge latches per header.
        let mut latches_of: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        let mut irreducible_edges = Vec::new();
        for &u in dom.rpo() {
            for &v in &cfg.blocks()[u].succs {
                let retreating = match (dom.rpo_index(v), dom.rpo_index(u)) {
                    (Some(iv), Some(iu)) => iv <= iu,
                    _ => false,
                };
                if !retreating {
                    continue;
                }
                if dom.dominates(v, u) {
                    latches_of.entry(v).or_default().push(u);
                } else {
                    irreducible_edges.push((u, v));
                }
            }
        }

        // Loop bodies: backward walk from the latches, stopping at the
        // header.
        let mut loops: Vec<NaturalLoop> = Vec::new();
        for (header, mut latches) in latches_of {
            latches.sort_unstable();
            let mut in_body = vec![false; nb];
            in_body[header] = true;
            let mut stack: Vec<usize> = latches.iter().copied().filter(|&l| l != header).collect();
            for &l in &stack {
                in_body[l] = true;
            }
            while let Some(b) = stack.pop() {
                for &p in &cfg.blocks()[b].preds {
                    if !in_body[p] && dom.rpo_index(p).is_some() {
                        in_body[p] = true;
                        stack.push(p);
                    }
                }
            }
            let body: Vec<usize> = (0..nb).filter(|&b| in_body[b]).collect();
            let mut exits = Vec::new();
            for &b in &body {
                for &s in &cfg.blocks()[b].succs {
                    if !in_body[s] {
                        exits.push((b, s));
                    }
                }
            }
            loops.push(NaturalLoop { header, body, latches, exits, depth: 1, parent: None });
        }

        // Nesting: parent = smallest other loop whose body strictly
        // contains this loop's body. Sort outermost-first so parents get
        // their depth before children.
        loops.sort_by_key(|l| std::cmp::Reverse(l.body.len()));
        let snapshot: Vec<(usize, Vec<usize>)> =
            loops.iter().map(|l| (l.header, l.body.clone())).collect();
        for i in 0..loops.len() {
            let mut best: Option<usize> = None;
            for (j, (header, body)) in snapshot.iter().enumerate() {
                if j == i || *header == loops[i].header {
                    continue;
                }
                let contains_all =
                    loops[i].body.iter().all(|b| body.binary_search(b).is_ok());
                if contains_all && body.len() > loops[i].body.len() {
                    let better = match best {
                        None => true,
                        Some(cur) => snapshot[cur].1.len() > body.len(),
                    };
                    if better {
                        best = Some(j);
                    }
                }
            }
            loops[i].parent = best;
            loops[i].depth = match best {
                Some(p) => loops[p].depth + 1,
                None => 1,
            };
        }

        // Innermost loop per block: the containing loop with the smallest
        // body. `loops` is sorted big-to-small, so later wins.
        let mut innermost = vec![None; nb];
        for (li, l) in loops.iter().enumerate() {
            for &b in &l.body {
                innermost[b] = Some(li);
            }
        }

        LoopForest { loops, innermost, irreducible_edges }
    }

    /// Index of the innermost loop containing `block`, if any.
    pub fn innermost(&self, block: usize) -> Option<usize> {
        self.innermost.get(block).copied().flatten()
    }

    /// Iterate the chain of loops containing `block`, innermost first.
    pub fn chain(&self, block: usize) -> impl Iterator<Item = &NaturalLoop> {
        let mut cur = self.innermost(block);
        std::iter::from_fn(move || {
            let li = cur?;
            cur = self.loops[li].parent;
            Some(&self.loops[li])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::{regs::*, Asm, Program};

    fn build(f: impl FnOnce(&mut Asm)) -> (Program, Cfg, DomTree, LoopForest) {
        let mut a = Asm::new();
        f(&mut a);
        let p = a.assemble().unwrap();
        let cfg = Cfg::build(&p);
        let dom = DomTree::compute(&cfg);
        let loops = LoopForest::compute(&cfg, &dom);
        (p, cfg, dom, loops)
    }

    #[test]
    fn entry_dominates_everything_reachable() {
        let (_, cfg, dom, _) = build(|a| {
            let (t, e) = (a.label(), a.label());
            a.li(T0, 1);
            a.beq(T0, ZERO, t);
            a.li(T1, 2);
            a.jmp(e);
            a.bind(t);
            a.li(T1, 3);
            a.bind(e);
            a.halt();
        });
        for b in 0..cfg.blocks().len() {
            if cfg.is_reachable(b) {
                assert!(dom.dominates(0, b), "entry must dominate block {b}");
            }
        }
    }

    #[test]
    fn diamond_join_is_dominated_by_the_fork_not_the_arms() {
        let (_, cfg, dom, _) = build(|a| {
            let (other, join) = (a.label(), a.label());
            a.li(T0, 1); // b0
            a.beq(T0, ZERO, other);
            a.li(T1, 2); // b1
            a.jmp(join);
            a.bind(other);
            a.li(T1, 3); // b2
            a.bind(join);
            a.halt(); // b3
        });
        let join = cfg.block_of(5);
        assert_eq!(dom.idom(join), Some(0));
        assert!(dom.dominates(0, join));
        assert!(!dom.dominates(cfg.block_of(2), join));
        assert!(!dom.dominates(cfg.block_of(4), join));
    }

    #[test]
    fn nested_loops_get_headers_bodies_and_depths() {
        let (_, cfg, _, loops) = build(|a| {
            let (outer, inner) = (a.label(), a.label());
            a.li(T0, 0); // b0: preamble
            a.bind(outer);
            a.li(T1, 0); // outer header
            a.bind(inner);
            a.addi(T1, T1, 1); // inner header/latch
            a.slti(T2, T1, 8);
            a.bne(T2, ZERO, inner);
            a.addi(T0, T0, 1); // outer latch tail
            a.slti(T2, T0, 8);
            a.bne(T2, ZERO, outer);
            a.halt();
        });
        assert_eq!(loops.loops.len(), 2);
        let outer = &loops.loops[0];
        let inner = &loops.loops[1];
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert_eq!(inner.parent, Some(0));
        assert!(outer.body.len() > inner.body.len());
        for b in &inner.body {
            assert!(outer.contains(*b), "inner body must nest inside outer");
        }
        // The innermost lookup prefers the deeper loop.
        let inner_header_block = cfg.block_of(2);
        assert_eq!(loops.innermost(inner_header_block), Some(1));
        assert_eq!(loops.chain(inner_header_block).count(), 2);
        // Exits: the inner loop exits to the outer latch tail.
        assert!(!inner.exits.is_empty());
    }

    #[test]
    fn self_loop_is_a_one_block_loop() {
        let (_, cfg, _, loops) = build(|a| {
            let spin = a.label();
            a.li(T0, 1);
            a.bind(spin);
            a.addi(T0, T0, 1);
            a.jmp(spin);
        });
        assert_eq!(loops.loops.len(), 1);
        let l = &loops.loops[0];
        assert_eq!(l.body, vec![l.header]);
        assert_eq!(l.latches, vec![l.header]);
        assert!(l.exits.is_empty());
        assert_eq!(cfg.block_of(1), l.header);
    }

    #[test]
    fn irreducible_retreating_edge_is_recorded_not_looped() {
        // Two blocks jumping into each other's middle from a branch: the
        // classic two-entry cycle, reducible for neither header.
        let (_, _, _, loops) = build(|a| {
            let (x, y) = (a.label(), a.label());
            a.li(T0, 1); // b0
            a.beq(T0, ZERO, y); // enter the cycle at y ...
            a.bind(x);
            a.addi(T0, T0, 1);
            a.jmp(y);
            a.bind(y);
            a.addi(T0, T0, 2); // ... or fall in via x
            a.jmp(x);
        });
        // Neither x nor y dominates the other, so no natural loop forms,
        // but the retreating edge is recorded as irreducible.
        assert!(loops.loops.is_empty(), "{:?}", loops.loops);
        assert!(!loops.irreducible_edges.is_empty());
    }

    #[test]
    fn unreachable_blocks_have_no_dominator_info() {
        let (_, cfg, dom, _) = build(|a| {
            let end = a.label();
            a.jmp(end);
            a.li(T0, 7); // unreachable
            a.bind(end);
            a.halt();
        });
        let dead = cfg.block_of(1);
        assert_eq!(dom.idom(dead), None);
        assert_eq!(dom.rpo_index(dead), None);
        assert!(!dom.dominates(0, dead));
    }
}
