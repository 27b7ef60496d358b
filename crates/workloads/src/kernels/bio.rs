//! Bioinformatics kernels: banded dynamic-programming alignment, database
//! scanning, Markov-model scoring, Viterbi decoding, and phylogenetic
//! tree evaluation.

use super::Build;
use crate::data::DataGen;
use crate::{DATA2_BASE, DATA3_BASE, DATA_BASE, STACK_TOP};
use tinyisa::{regs::*, Asm, AsmError, Vm};

/// Banded Smith-Waterman-style alignment of two sequences over a given
/// alphabet: the DP core of clustalw, fasta, ce and predator. The DP row
/// buffer working set scales with `band`.
pub(crate) fn dp_align(
    m: u64,
    band: u64,
    alphabet: u8,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // seq A (m bytes)
    a.li(S1, (DATA_BASE + m) as i64); // seq B
    a.li(S2, DATA2_BASE as i64); // previous DP row (i64 x band)
    a.li(S3, (DATA2_BASE + band * 8) as i64); // current DP row
    a.li(S4, m as i64);
    a.li(S5, band as i64);
    let outer = a.label();
    a.bind(outer);
    let (i_loop, j_loop, row_swap) = (a.label(), a.label(), a.label());
    a.li(T0, 1); // i
    a.bind(i_loop);
    a.add(T1, S0, T0);
    a.ld1(S6, T1, 0); // A[i]
    a.li(T2, 1); // j (within band)
    a.bind(j_loop);
    a.add(T3, S1, T2);
    a.ld1(T4, T3, 0); // B[j]
    // score = (A[i] == B[j]) ? 2 : -1
    let (mismatch, scored) = (a.label(), a.label());
    a.bne(S6, T4, mismatch);
    a.li(T5, 2);
    a.jmp(scored);
    a.bind(mismatch);
    a.li(T5, -1);
    a.bind(scored);
    // diag = prev[j-1] + score; up = prev[j] - 1; left = cur[j-1] - 1
    a.slli(T6, T2, 3);
    a.add(T7, S2, T6);
    a.ld8(T8, T7, -8);
    a.add(T8, T8, T5); // diag
    a.ld8(T9, T7, 0);
    a.addi(T9, T9, -1); // up
    a.add(T7, S3, T6);
    a.ld8(T5, T7, -8);
    a.addi(T5, T5, -1); // left
    // cell = max(0, diag, up, left)
    let (d1, d2, d3) = (a.label(), a.label(), a.label());
    a.bge(T8, T9, d1);
    a.mov(T8, T9);
    a.bind(d1);
    a.bge(T8, T5, d2);
    a.mov(T8, T5);
    a.bind(d2);
    a.bge(T8, ZERO, d3);
    a.li(T8, 0);
    a.bind(d3);
    a.st8(T8, T7, 0);
    a.addi(T2, T2, 1);
    a.blt(T2, S5, j_loop);
    // Swap row pointers.
    a.mov(T3, S2);
    a.mov(S2, S3);
    a.mov(S3, T3);
    // Intentional jump-to-fallthrough (mica-lint warns): the merge jump
    // unoptimized codegen emits after the swap arm; keeps a taken `jmp`
    // in the characterized control mix.
    a.jmp(row_swap);
    a.bind(row_swap);
    a.addi(T0, T0, 1);
    a.blt(T0, S4, i_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_alphabet(vm.mem_mut(), DATA_BASE, m, alphabet);
    g.fill_alphabet(vm.mem_mut(), DATA_BASE + m, band + 2, alphabet);
    Ok(vm)
}

/// blast-class database scan: slide a query fingerprint over a very large
/// sequence database with word-hash seeding; hits trigger a short
/// verification loop. The database size dominates the data working set.
pub(crate) fn db_scan(db_bytes: u64, word: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // database
    a.li(S1, DATA2_BASE as i64); // query (64 bytes)
    a.li(S2, DATA3_BASE as i64); // hit counters (u32 x 4096)
    a.li(S3, (db_bytes - 64) as i64);
    a.li(S4, word as i64);
    let outer = a.label();
    a.bind(outer);
    let (scan, verify, verify_loop, nohit, next) =
        (a.label(), a.label(), a.label(), a.label(), a.label());
    a.li(T0, 0); // db position
    a.bind(scan);
    // Rolling word hash of `word` bytes.
    a.li(T1, 0); // hash
    a.li(T2, 0); // k
    let hash_loop = a.label();
    a.bind(hash_loop);
    a.add(T3, S0, T0);
    a.add(T3, T3, T2);
    a.ld1(T4, T3, 0);
    a.slli(T1, T1, 2);
    a.xor(T1, T1, T4);
    a.addi(T2, T2, 1);
    a.blt(T2, S4, hash_loop);
    a.andi(T1, T1, 4095);
    // Seed hit if hash matches low bits of query fingerprint byte.
    a.add(T5, S1, ZERO);
    a.ld1(T6, T5, 0);
    a.andi(T6, T6, 63);
    a.andi(T7, T1, 63);
    a.beq(T6, T7, verify);
    a.jmp(nohit);
    a.bind(verify);
    // Verify: compare 16 query bytes at this position.
    a.li(T2, 0);
    a.li(T8, 0); // matches
    a.bind(verify_loop);
    a.add(T3, S0, T0);
    a.add(T3, T3, T2);
    a.ld1(T4, T3, 0);
    a.add(T5, S1, T2);
    a.ld1(T6, T5, 0);
    let nom = a.label();
    a.bne(T4, T6, nom);
    a.addi(T8, T8, 1);
    a.bind(nom);
    a.addi(T2, T2, 1);
    a.slti(T9, T2, 16);
    a.bne(T9, ZERO, verify_loop);
    // Record the hit count in a histogram bucket.
    a.slli(T9, T1, 2);
    a.add(T9, S2, T9);
    a.ld4(T4, T9, 0);
    a.add(T4, T4, T8);
    a.st4(T4, T9, 0);
    a.bind(nohit);
    // Intentional jump-to-fallthrough (mica-lint warns): the no-hit arm's
    // merge jump, kept for the characterized control mix.
    a.jmp(next);
    a.bind(next);
    a.addi(T0, T0, 7); // skip-stride scan
    a.blt(T0, S3, scan);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_alphabet(vm.mem_mut(), DATA_BASE, db_bytes, 20); // protein-like
    g.fill_alphabet(vm.mem_mut(), DATA2_BASE, 64, 20);
    Ok(vm)
}

/// glimmer-class interpolated-Markov scoring: walk a sequence, index a
/// `k`-mer context table of log-probabilities and accumulate.
pub(crate) fn markov_scan(
    seq_bytes: u64,
    order: u32,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let table_entries = 1u64 << (2 * order); // DNA: 2 bits per base
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // sequence (2-bit coded bases, one per byte)
    a.li(S1, DATA2_BASE as i64); // probability table (f64)
    a.li(S2, (seq_bytes - order as u64 - 1) as i64);
    a.li(S3, (table_entries - 1) as i64);
    a.li(S4, order as i64);
    let outer = a.label();
    a.bind(outer);
    let (i_loop, ctx_loop) = (a.label(), a.label());
    a.li(T0, 0);
    a.fli(F0, 0.0); // score
    a.bind(i_loop);
    // Build context index from `order` bases.
    a.li(T1, 0);
    a.li(T2, 0);
    a.bind(ctx_loop);
    a.add(T3, S0, T0);
    a.add(T3, T3, T2);
    a.ld1(T4, T3, 0);
    a.slli(T1, T1, 2);
    a.or(T1, T1, T4);
    a.addi(T2, T2, 1);
    a.blt(T2, S4, ctx_loop);
    a.and(T1, T1, S3);
    a.slli(T1, T1, 3);
    a.add(T1, S1, T1);
    a.ldf(F1, T1, 0);
    a.fadd(F0, F0, F1);
    a.addi(T0, T0, 1);
    a.blt(T0, S2, i_loop);
    a.li(T5, DATA3_BASE as i64);
    a.stf(F0, T5, 0);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_alphabet(vm.mem_mut(), DATA_BASE, seq_bytes, 4);
    g.fill_f64(vm.mem_mut(), DATA2_BASE, table_entries);
    Ok(vm)
}

/// hmmer-class Viterbi decoding: integer max-plus DP over `states` HMM
/// states per sequence position (match/insert/delete transitions).
pub(crate) fn viterbi(states: u64, steps: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // previous scores (i64 x states)
    a.li(S1, (DATA_BASE + states * 8) as i64); // current scores
    a.li(S2, DATA2_BASE as i64); // transition costs (i64 x states x 3)
    a.li(S3, DATA3_BASE as i64); // observation sequence (bytes)
    a.li(S4, states as i64);
    a.li(S5, steps as i64);
    let outer = a.label();
    a.bind(outer);
    let (t_loop, s_loop) = (a.label(), a.label());
    a.li(T0, 1); // t
    a.bind(t_loop);
    a.add(T1, S3, T0);
    a.ld1(S7, T1, 0); // observation
    a.li(T2, 1); // state (leave edges at 0)
    a.bind(s_loop);
    a.slli(T3, T2, 3);
    // candidates: prev[s-1] + tc[s][0], prev[s] + tc[s][1], cur[s-1] + tc[s][2]
    a.add(T4, S0, T3);
    a.ld8(T5, T4, -8);
    a.ld8(T6, T4, 0);
    a.slli(T7, T2, 5); // s * 32 (3 costs padded to 4)
    a.add(T7, S2, T7);
    a.ld8(T8, T7, 0);
    a.add(T5, T5, T8); // diag
    a.ld8(T8, T7, 8);
    a.add(T6, T6, T8); // up
    a.add(T9, S1, T3);
    a.ld8(T1, T9, -8);
    a.ld8(T8, T7, 16);
    a.add(T1, T1, T8); // left
    let (m1, m2) = (a.label(), a.label());
    a.bge(T5, T6, m1);
    a.mov(T5, T6);
    a.bind(m1);
    a.bge(T5, T1, m2);
    a.mov(T5, T1);
    a.bind(m2);
    // Add emission score derived from the observation.
    a.xor(T6, T2, S7);
    a.andi(T6, T6, 7);
    a.sub(T5, T5, T6);
    a.st8(T5, T9, 0);
    a.addi(T2, T2, 1);
    a.blt(T2, S4, s_loop);
    // Swap rows.
    a.mov(T3, S0);
    a.mov(S0, S1);
    a.mov(S1, T3);
    a.addi(T0, T0, 1);
    a.blt(T0, S5, t_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_u64_below(vm.mem_mut(), DATA2_BASE, states * 4, 16);
    g.fill_alphabet(vm.mem_mut(), DATA3_BASE, steps + 1, 20);
    Ok(vm)
}

/// phylip-class phylogenetic likelihood: post-order traversal of a binary
/// tree with explicit recursion (call/ret and a real stack), combining
/// per-site FP likelihoods at each internal node.
pub(crate) fn phylo_eval(leaves: u64, sites: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let nodes = 2 * leaves - 1;
    let mut a = Asm::new();
    // Node layout (32 bytes): left(u32), right(u32), lik array ptr(u64),
    // branch length (f64), pad. Leaves have left == right == 0xffffffff.
    a.li(S0, DATA_BASE as i64); // node table
    a.li(S1, sites as i64);
    a.li(SP, STACK_TOP as i64);
    let (outer, recurse, is_leaf, after) = (a.label(), a.label(), a.label(), a.label());
    a.bind(outer);
    a.li(A0, (nodes - 1) as i64); // root index
    a.call(recurse);
    a.jmp(outer);

    // fn recurse(A0 = node index)
    a.bind(recurse);
    a.slli(T0, A0, 5);
    a.add(T0, S0, T0); // node base
    a.ld4(T1, T0, 0); // left
    a.li(T2, 0xffff_ffff);
    a.beq(T1, T2, is_leaf);
    // Internal: push node + ra, recurse on children.
    a.addi(SP, SP, -24);
    a.st8(RA, SP, 0);
    a.st8(A0, SP, 8);
    a.st8(T1, SP, 16);
    a.mov(A0, T1);
    a.call(recurse);
    a.ld8(T3, SP, 8); // this node
    a.slli(T0, T3, 5);
    a.add(T0, S0, T0);
    a.ld4(A0, T0, 4); // right child
    a.call(recurse);
    // Combine children likelihoods into this node, per site.
    a.ld8(A0, SP, 8);
    a.slli(T0, A0, 5);
    a.add(T0, S0, T0);
    a.ld4(T1, T0, 0);
    a.ld4(T2, T0, 4);
    a.ld8(T4, T0, 8); // own lik ptr
    a.ldf(F3, T0, 16); // branch length
    a.slli(T5, T1, 5);
    a.add(T5, S0, T5);
    a.ld8(T5, T5, 8); // left lik ptr
    a.slli(T6, T2, 5);
    a.add(T6, S0, T6);
    a.ld8(T6, T6, 8); // right lik ptr
    let site_loop = a.label();
    a.li(T7, 0);
    a.bind(site_loop);
    a.slli(T8, T7, 3);
    a.add(T9, T5, T8);
    a.ldf(F0, T9, 0);
    a.add(T9, T6, T8);
    a.ldf(F1, T9, 0);
    a.fmul(F0, F0, F1);
    a.fmul(F0, F0, F3); // scale by branch factor
    a.fli(F2, 1e-3);
    a.fadd(F0, F0, F2); // avoid underflow to zero
    a.add(T9, T4, T8);
    a.stf(F0, T9, 0);
    a.addi(T7, T7, 1);
    a.blt(T7, S1, site_loop);
    a.ld8(RA, SP, 0);
    a.addi(SP, SP, 24);
    a.ret();
    a.bind(is_leaf);
    // Intentional jump-to-fallthrough (mica-lint warns): the leaf arm's
    // merge jump, kept for the characterized control mix.
    a.jmp(after);
    a.bind(after);
    a.ret();

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    // Build a balanced tree: internal node i has children 2i+1, 2i+2 in a
    // heap-like layout, stored in reverse so the root is the last node.
    let lik_base = DATA2_BASE;
    for n in 0..nodes {
        let node_addr = DATA_BASE + n * 32;
        // Heap index counted from the root at `nodes - 1`.
        let heap = nodes - 1 - n;
        let (l, r) = (2 * heap + 1, 2 * heap + 2);
        if l < nodes {
            vm.mem_mut().write_le(node_addr, 4, nodes - 1 - l);
            vm.mem_mut().write_le(node_addr + 4, 4, nodes - 1 - r);
        } else {
            vm.mem_mut().write_le(node_addr, 4, 0xffff_ffff);
            vm.mem_mut().write_le(node_addr + 4, 4, 0xffff_ffff);
        }
        vm.mem_mut().write_le(node_addr + 8, 8, lik_base + n * sites * 8);
        vm.mem_mut().write_f64(node_addr + 16, 0.5 + g.unit_f64() * 0.5);
    }
    // Leaf likelihoods.
    for n in 0..nodes {
        for s in 0..sites {
            vm.mem_mut().write_f64(lik_base + (n * sites + s) * 8, 0.1 + g.unit_f64());
        }
    }
    Ok(vm)
}

#[cfg(test)]
mod tests {
    use crate::kernels::test_support::mix_of;
    use crate::kernels::Build;

    #[test]
    fn dp_align_is_branchy_int_dp() {
        let mix = mix_of(super::dp_align(512, 128, 20, 1, Build::Full).unwrap(), 60_000);
        assert!(mix.control > 0.15, "control {}", mix.control);
        assert!(mix.loads > 0.1);
        assert_eq!(mix.fp, 0.0);
    }

    #[test]
    fn db_scan_runs_over_big_table() {
        let mix = mix_of(super::db_scan(1 << 20, 8, 2, Build::Full).unwrap(), 80_000);
        assert!(mix.loads > 0.12, "loads {}", mix.loads);
    }

    #[test]
    fn markov_scan_mixes_fp_accumulation() {
        let mix = mix_of(super::markov_scan(1 << 14, 6, 3, Build::Full).unwrap(), 50_000);
        assert!(mix.fp > 0.01, "fp {}", mix.fp);
    }

    #[test]
    fn viterbi_is_integer_max_plus() {
        let mix = mix_of(super::viterbi(64, 256, 4, Build::Full).unwrap(), 60_000);
        assert!(mix.loads > 0.2);
        assert_eq!(mix.fp, 0.0);
    }

    #[test]
    fn phylo_uses_calls_and_fp() {
        let mix = mix_of(super::phylo_eval(64, 32, 5, Build::Full).unwrap(), 80_000);
        assert!(mix.fp > 0.1, "fp {}", mix.fp);
        assert!(mix.control > 0.05);
    }
}
