//! Compression kernels: hash-chain LZ77 compression, LZ decompression, and
//! a BWT-style block transform (counting sort + move-to-front + RLE).

use super::Build;
use crate::data::DataGen;
use crate::{DATA2_BASE, DATA3_BASE, DATA_BASE};
use tinyisa::{regs::*, Asm, AsmError, Memory, Vm};

/// Fill an input buffer whose compressibility is controlled by `entropy`
/// (0 = maximally repetitive, 100 = uniform random) — used to mirror the
/// gzip/bzip2 input variants (graphic, log, program, random, source).
fn fill_input(g: &mut DataGen, mem: &mut Memory, base: u64, len: u64, entropy: u64) {
    match entropy {
        0..=20 => g.fill_repetitive(mem, base, len, 24, entropy * 10),
        21..=50 => g.fill_repetitive(mem, base, len, 96, 200 + entropy * 5),
        51..=80 => g.fill_alphabet(mem, base, len, 64),
        _ => g.fill_random(mem, base, len),
    }
}

/// gzip/zip-class LZ77 compression: hash the next 3 bytes, probe a chain
/// table for a previous occurrence, extend the match, emit a token.
pub(crate) fn lz_compress(
    bytes: u64,
    window: u64,
    entropy: u64,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let hash_entries: u64 = 1 << 13;
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // input
    a.li(S1, DATA2_BASE as i64); // hash table (u32 positions)
    a.li(S2, DATA3_BASE as i64); // token output
    a.li(S3, (bytes - 16) as i64); // scan limit
    a.li(S4, (hash_entries - 1) as i64);
    a.li(S5, window as i64);
    let outer = a.label();
    a.bind(outer);
    // Reset the hash table at the start of each pass (stores sweep).
    let clear_loop = a.label();
    a.li(T0, 0);
    a.bind(clear_loop);
    a.slli(T1, T0, 2);
    a.add(T1, S1, T1);
    a.st4(ZERO, T1, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, S4, clear_loop);
    a.li(S6, 0); // output cursor
    let pos_loop = a.label();
    a.li(T0, 1); // position (0 means "empty" in the table)
    a.bind(pos_loop);
    // h = (b0*131 ^ b1*31 ^ b2) & mask
    a.add(T1, S0, T0);
    a.ld1(T2, T1, 0);
    a.ld1(T3, T1, 1);
    a.ld1(T4, T1, 2);
    a.li(T5, 131);
    a.mul(T2, T2, T5);
    a.slli(T3, T3, 5);
    a.xor(T2, T2, T3);
    a.xor(T2, T2, T4);
    a.and(T2, T2, S4);
    a.slli(T2, T2, 2);
    a.add(T2, S1, T2);
    a.ld4(T3, T2, 0); // candidate position
    a.st4(T0, T2, 0); // update table
    let (no_match, emit_done, match_loop, match_end) =
        (a.label(), a.label(), a.label(), a.label());
    a.beq(T3, ZERO, no_match);
    // Too far back?
    a.sub(T4, T0, T3);
    a.bge(T4, S5, no_match);
    // Extend match up to 16 bytes.
    a.li(T5, 0); // match length
    a.bind(match_loop);
    a.add(T6, S0, T3);
    a.add(T6, T6, T5);
    a.ld1(T7, T6, 0);
    a.add(T6, S0, T0);
    a.add(T6, T6, T5);
    a.ld1(T8, T6, 0);
    a.bne(T7, T8, match_end);
    a.addi(T5, T5, 1);
    a.slti(T9, T5, 16);
    a.bne(T9, ZERO, match_loop);
    a.bind(match_end);
    a.slti(T9, T5, 3);
    a.bne(T9, ZERO, no_match);
    // Emit (offset, len) token: 4 bytes offset + 1 byte len.
    a.add(T6, S2, S6);
    a.st4(T4, T6, 0);
    a.st1(T5, T6, 4);
    a.addi(S6, S6, 5);
    a.add(T0, T0, T5); // skip matched bytes
    a.jmp(emit_done);
    a.bind(no_match);
    // Emit literal.
    a.add(T6, S0, T0);
    a.ld1(T7, T6, 0);
    a.add(T6, S2, S6);
    a.st1(T7, T6, 0);
    a.addi(S6, S6, 1);
    a.addi(T0, T0, 1);
    a.bind(emit_done);
    a.blt(T0, S3, pos_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    fill_input(&mut g, vm.mem_mut(), DATA_BASE, bytes, entropy);
    Ok(vm)
}

/// LZ77 decompression of a host-compressed token stream: short branchy
/// loop of copies — the gzip/zip "decode" sides.
pub(crate) fn lz_decompress(
    bytes: u64,
    entropy: u64,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    // Host-side: generate data, LZ-compress it into (tag, payload) tokens.
    // Tag byte 0 = literal (1 byte follows), 1 = match (u16 offset, u8 len).
    let mut g = DataGen::new(seed);
    let mut scratch = Memory::new();
    fill_input(&mut g, &mut scratch, 0, bytes, entropy);
    let data = scratch.read_bytes(0, bytes as usize);
    let mut tokens: Vec<u8> = Vec::new();
    let mut pos = 0usize;
    while pos < data.len() {
        // Look back up to 4096 for a match of >= 4.
        let start = pos.saturating_sub(4096);
        let mut best = (0usize, 0usize);
        let mut cand = start;
        while cand + 8 < pos {
            let mut l = 0;
            while l < 255 && pos + l < data.len() && data[cand + l] == data[pos + l] {
                l += 1;
            }
            if l > best.1 {
                best = (pos - cand, l);
            }
            cand += 67; // sparse probing keeps host-side cost linear
        }
        if best.1 >= 4 {
            tokens.push(1);
            tokens.extend_from_slice(&(best.0 as u16).to_le_bytes());
            tokens.push(best.1 as u8);
            pos += best.1;
        } else {
            tokens.push(0);
            tokens.push(data[pos]);
            pos += 1;
        }
    }

    let token_len = tokens.len() as u64;
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // token stream
    a.li(S1, DATA2_BASE as i64); // output buffer
    a.li(S2, token_len as i64);
    let outer = a.label();
    a.bind(outer);
    let (t_loop, literal, done_tok, copy_loop) = (a.label(), a.label(), a.label(), a.label());
    a.li(T0, 0); // input cursor
    a.li(T1, 0); // output cursor
    a.bind(t_loop);
    a.add(T2, S0, T0);
    a.ld1(T3, T2, 0); // tag
    a.beq(T3, ZERO, literal);
    // Match: offset u16 at +1, len u8 at +3.
    a.ld2(T4, T2, 1);
    a.ld1(T5, T2, 3);
    a.addi(T0, T0, 4);
    a.sub(T6, T1, T4); // source cursor
    a.bind(copy_loop);
    a.add(T7, S1, T6);
    a.ld1(T8, T7, 0);
    a.add(T7, S1, T1);
    a.st1(T8, T7, 0);
    a.addi(T6, T6, 1);
    a.addi(T1, T1, 1);
    a.addi(T5, T5, -1);
    a.bne(T5, ZERO, copy_loop);
    a.jmp(done_tok);
    a.bind(literal);
    a.ld1(T4, T2, 1);
    a.addi(T0, T0, 2);
    a.add(T7, S1, T1);
    a.st1(T4, T7, 0);
    a.addi(T1, T1, 1);
    a.bind(done_tok);
    a.blt(T0, S2, t_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    vm.mem_mut().write_bytes(DATA_BASE, &tokens);
    Ok(vm)
}

/// bzip2-flavored block transform: per block, a two-pass counting sort of
/// leading bytes (histogram + scatter), a move-to-front pass over the sorted
/// permutation, and run-length counting. Captures bzip2's sort-dominated,
/// large-working-set behavior.
pub(crate) fn bwtish(block: u64, entropy: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // input block
    a.li(S1, DATA2_BASE as i64); // histogram (256 x u32)
    a.li(S2, DATA3_BASE as i64); // sorted index output (u32)
    a.li(S3, (block - 1) as i64);
    a.li(S4, (DATA3_BASE + block * 4 + 4096) as i64); // MTF list (256 B)
    let outer = a.label();
    a.bind(outer);
    // Zero the histogram.
    let (hz, hcount, hprefix, hscatter) = (a.label(), a.label(), a.label(), a.label());
    a.li(T0, 0);
    a.li(T9, 256);
    a.bind(hz);
    a.slli(T1, T0, 2);
    a.add(T1, S1, T1);
    a.st4(ZERO, T1, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, T9, hz);
    // Count bigrams.
    a.li(T0, 0);
    a.bind(hcount);
    a.add(T1, S0, T0);
    a.ld1(T2, T1, 0);
    a.slli(T2, T2, 2);
    a.add(T2, S1, T2);
    a.ld4(T4, T2, 0);
    a.addi(T4, T4, 1);
    a.st4(T4, T2, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, hcount);
    // Prefix sum.
    a.li(T0, 0);
    a.li(T5, 0); // running total
    a.bind(hprefix);
    a.slli(T1, T0, 2);
    a.add(T1, S1, T1);
    a.ld4(T4, T1, 0);
    a.st4(T5, T1, 0);
    a.add(T5, T5, T4);
    a.addi(T0, T0, 1);
    a.blt(T0, T9, hprefix);
    // Scatter positions into sorted order.
    a.li(T0, 0);
    a.bind(hscatter);
    a.add(T1, S0, T0);
    a.ld1(T2, T1, 0);
    a.slli(T2, T2, 2);
    a.add(T2, S1, T2);
    a.ld4(T4, T2, 0); // slot
    a.addi(T5, T4, 1);
    a.st4(T5, T2, 0);
    a.slli(T4, T4, 2);
    a.add(T4, S2, T4);
    a.st4(T0, T4, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, hscatter);
    // MTF over the byte at each sorted position (linear list search).
    let (mtf_init, mtf_loop, find_loop, found, shift_loop, shift_done) =
        (a.label(), a.label(), a.label(), a.label(), a.label(), a.label());
    a.li(T0, 0);
    a.li(T9, 256);
    a.bind(mtf_init);
    a.add(T1, S4, T0);
    a.st1(T0, T1, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, T9, mtf_init);
    a.li(T0, 0);
    a.bind(mtf_loop);
    a.slli(T1, T0, 2);
    a.add(T1, S2, T1);
    a.ld4(T2, T1, 0); // original index
    a.add(T2, S0, T2);
    a.ld1(T3, T2, 0); // byte value
    // find rank of T3 in MTF list
    a.li(T4, 0);
    a.bind(find_loop);
    a.add(T5, S4, T4);
    a.ld1(T6, T5, 0);
    a.beq(T6, T3, found);
    a.addi(T4, T4, 1);
    a.blt(T4, T9, find_loop);
    a.bind(found);
    // shift list [0, rank) right by one, put byte at front
    a.mov(T5, T4);
    a.bind(shift_loop);
    a.beq(T5, ZERO, shift_done);
    a.add(T6, S4, T5);
    a.ld1(T7, T6, -1);
    a.st1(T7, T6, 0);
    a.addi(T5, T5, -1);
    a.jmp(shift_loop);
    a.bind(shift_done);
    a.st1(T3, S4, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, mtf_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    fill_input(&mut g, vm.mem_mut(), DATA_BASE, block, entropy);
    Ok(vm)
}

#[cfg(test)]
mod tests {
    use crate::kernels::test_support::mix_of;
    use crate::kernels::Build;

    #[test]
    fn lz_compress_is_branchy_with_loads() {
        let mix = mix_of(super::lz_compress(1 << 16, 4096, 30, 1, Build::Full).unwrap(), 80_000);
        assert!(mix.control > 0.1, "control {}", mix.control);
        assert!(mix.loads > 0.08, "loads {}", mix.loads);
    }

    #[test]
    fn lz_entropy_changes_behavior() {
        let low = mix_of(super::lz_compress(1 << 15, 4096, 5, 1, Build::Full).unwrap(), 60_000);
        let high = mix_of(super::lz_compress(1 << 15, 4096, 95, 1, Build::Full).unwrap(), 60_000);
        // Random input finds fewer matches -> different store (token) rate.
        assert!(
            (low.stores - high.stores).abs() > 0.005,
            "low {} vs high {}",
            low.stores,
            high.stores
        );
    }

    #[test]
    fn lz_decompress_runs() {
        let mix = mix_of(super::lz_decompress(1 << 14, 10, 2, Build::Full).unwrap(), 50_000);
        assert!(mix.stores > 0.1, "copy loop stores: {}", mix.stores);
    }

    #[test]
    fn bwtish_touches_large_histogram() {
        let mix = mix_of(super::bwtish(1 << 14, 60, 3, Build::Full).unwrap(), 100_000);
        assert!(mix.stores > 0.1);
        assert!(mix.loads > 0.1);
    }
}
