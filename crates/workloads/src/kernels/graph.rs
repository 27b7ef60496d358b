//! Graph and pointer-structure kernels: Dijkstra shortest paths, radix-trie
//! lookups, network-simplex-style pointer chasing, and hash dictionaries.

use super::Build;
use crate::data::DataGen;
use crate::{DATA2_BASE, DATA3_BASE, DATA_BASE};
use tinyisa::{regs::*, Asm, AsmError, Vm};

/// Dijkstra over a dense adjacency matrix without a heap (the MiBench
/// dijkstra implementation): repeated linear scans for the minimum-distance
/// unvisited node, then relaxation of its row.
pub(crate) fn dijkstra(nodes: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // adjacency (u32 weights, nodes x nodes)
    a.li(S1, DATA2_BASE as i64); // dist (u32)
    a.li(S2, (DATA2_BASE + nodes * 4) as i64); // visited (u8)
    a.li(S3, nodes as i64);
    let outer = a.label();
    a.bind(outer);
    // Reset dist = INF (except source), visited = 0.
    let reset = a.label();
    a.li(T0, 0);
    a.li(T9, 0x3fff_ffff);
    a.bind(reset);
    a.slli(T1, T0, 2);
    a.add(T1, S1, T1);
    a.st4(T9, T1, 0);
    a.add(T2, S2, T0);
    a.st1(ZERO, T2, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, reset);
    a.st4(ZERO, S1, 0); // dist[0] = 0

    let (round_loop, scan, scan_skip, relax, relax_skip, no_improve) =
        (a.label(), a.label(), a.label(), a.label(), a.label(), a.label());
    a.li(S4, 0); // round
    a.bind(round_loop);
    // Find unvisited minimum.
    a.li(T0, 0);
    a.li(T5, -1); // argmin
    a.li(T6, 0x7fff_ffff); // min
    a.bind(scan);
    a.add(T1, S2, T0);
    a.ld1(T2, T1, 0);
    a.bne(T2, ZERO, scan_skip);
    a.slli(T3, T0, 2);
    a.add(T3, S1, T3);
    a.ld4(T4, T3, 0);
    a.bge(T4, T6, scan_skip);
    a.mov(T6, T4);
    a.mov(T5, T0);
    a.bind(scan_skip);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, scan);
    // Mark visited; relax its row.
    a.add(T1, S2, T5);
    a.li(T2, 1);
    a.st1(T2, T1, 0);
    a.mul(S5, T5, S3); // row offset (elements)
    a.li(T0, 0);
    a.bind(relax);
    a.add(T1, S2, T0);
    a.ld1(T2, T1, 0);
    a.bne(T2, ZERO, relax_skip);
    a.add(T3, S5, T0);
    a.slli(T3, T3, 2);
    a.add(T3, S0, T3);
    a.ld4(T4, T3, 0); // weight
    a.add(T4, T4, T6); // candidate = min + w
    a.slli(T7, T0, 2);
    a.add(T7, S1, T7);
    a.ld4(T8, T7, 0);
    a.bge(T4, T8, no_improve);
    a.st4(T4, T7, 0);
    a.bind(no_improve);
    a.bind(relax_skip);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, relax);
    a.addi(S4, S4, 1);
    a.addi(T9, S3, -1);
    a.blt(S4, T9, round_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_u32_below(vm.mem_mut(), DATA_BASE, nodes * nodes, 1000);
    Ok(vm)
}

/// Patricia/radix-trie lookups (MiBench patricia, CommBench rtr route
/// lookup): walk a binary trie keyed by address bits for each query.
pub(crate) fn trie_lookup(
    keys: u64,
    queries: u64,
    depth: u64,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // trie nodes: 24 bytes = left, right, value
    a.li(S1, DATA2_BASE as i64); // query keys (u32)
    a.li(S2, DATA3_BASE as i64); // result accumulator
    a.li(S3, queries as i64);
    a.li(S4, depth as i64);
    let outer = a.label();
    a.bind(outer);
    let (q_loop, walk, go_right, step_done, walk_end) =
        (a.label(), a.label(), a.label(), a.label(), a.label());
    a.li(T0, 0); // query index
    a.li(S6, 0); // checksum
    a.bind(q_loop);
    a.slli(T1, T0, 2);
    a.add(T1, S1, T1);
    a.ld4(T2, T1, 0); // key
    a.mov(T3, S0); // node = root
    a.li(T4, 0); // bit index
    a.bind(walk);
    a.srl(T5, T2, T4);
    a.andi(T5, T5, 1);
    a.bne(T5, ZERO, go_right);
    a.ld8(T6, T3, 0); // left
    a.jmp(step_done);
    a.bind(go_right);
    a.ld8(T6, T3, 8); // right
    a.bind(step_done);
    a.beq(T6, ZERO, walk_end);
    a.mov(T3, T6);
    a.addi(T4, T4, 1);
    a.blt(T4, S4, walk);
    a.bind(walk_end);
    a.ld8(T7, T3, 16); // stored value
    a.add(S6, S6, T7);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, q_loop);
    a.st8(S6, S2, 0);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    // Host-side trie construction over random keys.
    let node_bytes = 24u64;
    let mut next_free = 1u64; // node 0 is the root
    let mem = vm.mem_mut();
    for _ in 0..keys {
        let key = g.below(1 << 31);
        let mut node = 0u64;
        for bit in 0..depth {
            let side = (key >> bit) & 1;
            let slot = DATA_BASE + node * node_bytes + side * 8;
            let mut child = mem.read_le(slot, 8);
            if child == 0 {
                child = DATA_BASE + next_free * node_bytes;
                next_free += 1;
                mem.write_le(slot, 8, child);
            }
            node = (child - DATA_BASE) / node_bytes;
        }
        mem.write_le(DATA_BASE + node * node_bytes + 16, 8, key);
    }
    g.fill_u32_below(mem, DATA2_BASE, queries, 1 << 31);
    Ok(vm)
}

/// mcf-class pointer chasing with arithmetic: walk a randomly permuted ring
/// of fat nodes, relaxing a per-node potential against its neighbor —
/// dependent loads over a working set far larger than any cache.
pub(crate) fn pointer_chase(
    nodes: u64,
    node_bytes: u64,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S1, nodes as i64);
    let outer = a.label();
    // S0 = current node pointer, loaded once from the head slot.
    a.li(T0, DATA2_BASE as i64);
    a.ld8(S0, T0, 0); // head pointer parked at DATA2_BASE
    a.bind(outer);
    let (chase, no_update) = (a.label(), a.label());
    a.li(T1, 0); // step
    a.bind(chase);
    a.ld8(T2, S0, 0); // next pointer (dependent load)
    a.ld8(T3, S0, 8); // potential
    a.ld8(T4, T2, 8); // neighbor potential
    a.ld8(T5, S0, 16); // cost
    a.add(T6, T4, T5);
    a.bge(T3, T6, no_update);
    a.st8(T6, S0, 8); // relax
    a.bind(no_update);
    a.mov(S0, T2);
    a.addi(T1, T1, 1);
    a.blt(T1, S1, chase);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    let head = g.build_random_ring(vm.mem_mut(), DATA3_BASE, nodes, node_bytes);
    // Potentials and costs.
    for n in 0..nodes {
        let base = DATA3_BASE + n * node_bytes;
        vm.mem_mut().write_le(base + 8, 8, g.below(1000));
        vm.mem_mut().write_le(base + 16, 8, g.below(50));
    }
    vm.mem_mut().write_le(DATA2_BASE, 8, head);
    Ok(vm)
}

/// Hash-dictionary probing (ispell, vortex's OO-database lookups, the
/// symbol tables of gcc/perlbmk): open-addressed probes with string-ish
/// key compares; `hit_rate` is the per-mille fraction of present keys.
pub(crate) fn hash_dict(
    entries: u64,
    queries: u64,
    hit_rate: u64,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let buckets = (entries * 2).next_power_of_two();
    let slot_bytes = 16u64; // key u64 + value u64 (0 = empty)
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // table
    a.li(S1, DATA2_BASE as i64); // query keys (u64)
    a.li(S2, queries as i64);
    a.li(S3, (buckets - 1) as i64);
    let outer = a.label();
    a.bind(outer);
    let (q_loop, probe, found, next_q) = (a.label(), a.label(), a.label(), a.label());
    a.li(T0, 0);
    a.li(S6, 0); // hits
    a.bind(q_loop);
    a.slli(T1, T0, 3);
    a.add(T1, S1, T1);
    a.ld8(T2, T1, 0); // key
    // hash = key * golden >> 13
    a.li(T3, 0x9e37_79b9_7f4a_7c15u64 as i64);
    a.mul(T4, T2, T3);
    a.srli(T4, T4, 13);
    a.and(T4, T4, S3); // bucket
    a.bind(probe);
    a.slli(T5, T4, 4);
    a.add(T5, S0, T5);
    a.ld8(T6, T5, 0); // slot key
    a.beq(T6, T2, found);
    a.beq(T6, ZERO, next_q); // empty slot: miss
    a.addi(T4, T4, 1);
    a.and(T4, T4, S3);
    a.jmp(probe);
    a.bind(found);
    a.ld8(T7, T5, 8);
    a.add(S6, S6, T7);
    a.bind(next_q);
    a.addi(T0, T0, 1);
    a.blt(T0, S2, q_loop);
    a.li(T8, DATA3_BASE as i64);
    a.st8(S6, T8, 0);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    // Insert `entries` keys host-side with the same probe function.
    let mut keys = Vec::with_capacity(entries as usize);
    let mem = vm.mem_mut();
    for _ in 0..entries {
        let key = g.next_u64() | 1; // nonzero
        keys.push(key);
        let mut b = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 13) & (buckets - 1);
        loop {
            let addr = DATA_BASE + b * slot_bytes;
            if mem.read_le(addr, 8) == 0 {
                mem.write_le(addr, 8, key);
                mem.write_le(addr + 8, 8, key & 0xffff);
                break;
            }
            b = (b + 1) & (buckets - 1);
        }
    }
    for q in 0..queries {
        let key = if g.below(1000) < hit_rate {
            keys[g.below(entries) as usize]
        } else {
            g.next_u64() | 1
        };
        mem.write_le(DATA2_BASE + q * 8, 8, key);
    }
    Ok(vm)
}

/// Boyer-Moore-Horspool substring search of many patterns over a large
/// text: skip-table lookups, backward compare loops, data-dependent
/// shifts (fasta's word-search phase; grep-class scanning generally).
pub(crate) fn str_search(
    text_bytes: u64,
    patterns: u64,
    pat_len: u64,
    alphabet: u8,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // text
    a.li(S1, DATA2_BASE as i64); // patterns (pat_len bytes each)
    a.li(S2, (DATA2_BASE + patterns * pat_len) as i64); // skip tables (256 B each)
    a.li(S3, (text_bytes - pat_len) as i64);
    a.li(S4, patterns as i64);
    a.li(S5, pat_len as i64);
    a.li(S6, DATA3_BASE as i64); // match counter
    let outer = a.label();
    a.bind(outer);
    let (p_loop, pos_loop, cmp_loop, mismatch, matched, advance) =
        (a.label(), a.label(), a.label(), a.label(), a.label(), a.label());
    a.li(T9, 0); // pattern index
    a.bind(p_loop);
    a.mul(T0, T9, S5);
    a.add(T0, S1, T0); // pattern base -> S8
    a.mov(S8, T0);
    a.slli(T0, T9, 8);
    a.add(T0, S2, T0); // skip table base -> S9
    a.mov(S9, T0);
    a.li(T1, 0); // text position
    a.bind(pos_loop);
    // Compare backwards from the end of the window.
    a.addi(T2, S5, -1); // k
    a.bind(cmp_loop);
    a.add(T3, T1, T2);
    a.add(T3, S0, T3);
    a.ld1(T4, T3, 0);
    a.add(T5, S8, T2);
    a.ld1(T6, T5, 0);
    a.bne(T4, T6, mismatch);
    a.beq(T2, ZERO, matched);
    a.addi(T2, T2, -1);
    a.jmp(cmp_loop);
    a.bind(matched);
    a.ld8(T7, S6, 0);
    a.addi(T7, T7, 1);
    a.st8(T7, S6, 0);
    a.addi(T1, T1, 1);
    a.jmp(advance);
    a.bind(mismatch);
    // Horspool shift: skip[text[pos + m - 1]].
    a.add(T3, T1, S5);
    a.addi(T3, T3, -1);
    a.add(T3, S0, T3);
    a.ld1(T4, T3, 0);
    a.add(T4, S9, T4);
    a.ld1(T5, T4, 0);
    a.add(T1, T1, T5);
    a.bind(advance);
    a.blt(T1, S3, pos_loop);
    a.addi(T9, T9, 1);
    a.blt(T9, S4, p_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_alphabet(vm.mem_mut(), DATA_BASE, text_bytes, alphabet);
    for p in 0..patterns {
        let pat_base = DATA2_BASE + p * pat_len;
        // Half the patterns are sampled from the text (guaranteed hits).
        if p % 2 == 0 {
            let pos = g.below(text_bytes - pat_len);
            for k in 0..pat_len {
                let b = vm.mem().read_u8(DATA_BASE + pos + k);
                vm.mem_mut().write_u8(pat_base + k, b);
            }
        } else {
            g.fill_alphabet(vm.mem_mut(), pat_base, pat_len, alphabet);
        }
        // Horspool skip table.
        let table = DATA2_BASE + patterns * pat_len + p * 256;
        for c in 0..256u64 {
            vm.mem_mut().write_u8(table + c, pat_len as u8);
        }
        for k in 0..pat_len - 1 {
            let b = vm.mem().read_u8(pat_base + k);
            vm.mem_mut().write_u8(table + b as u64, (pat_len - 1 - k) as u8);
        }
    }
    Ok(vm)
}

#[cfg(test)]
mod tests {
    use crate::kernels::test_support::mix_of;
    use crate::kernels::Build;

    #[test]
    fn dijkstra_scans_and_branches() {
        let mix = mix_of(super::dijkstra(96, 1, Build::Full).unwrap(), 80_000);
        assert!(mix.control > 0.15, "control {}", mix.control);
        assert!(mix.loads > 0.15);
    }

    #[test]
    fn trie_walk_is_dependent_loads() {
        let mix = mix_of(super::trie_lookup(2048, 4096, 20, 2, Build::Full).unwrap(), 60_000);
        assert!(mix.loads > 0.1, "loads {}", mix.loads);
        assert!(mix.control > 0.15);
    }

    #[test]
    fn pointer_chase_is_load_bound() {
        let mix = mix_of(super::pointer_chase(1 << 14, 64, 3, Build::Full).unwrap(), 60_000);
        assert!(mix.loads > 0.3, "loads {}", mix.loads);
    }

    #[test]
    fn hash_dict_probes() {
        let mix = mix_of(super::hash_dict(4096, 8192, 700, 4, Build::Full).unwrap(), 60_000);
        assert!(mix.loads > 0.15);
        assert!(mix.int_mul > 0.02, "hash multiply: {}", mix.int_mul);
    }

    #[test]
    fn str_search_is_comparison_heavy() {
        let mix = mix_of(super::str_search(1 << 16, 8, 12, 20, 9, Build::Full).unwrap(), 60_000);
        assert!(mix.loads > 0.2, "loads {}", mix.loads);
        assert!(mix.control > 0.1, "control {}", mix.control);
    }
}
