//! Cryptography and coding kernels: Feistel block cipher, SHA-style hash,
//! CRC32, modular exponentiation, Reed-Solomon Galois-field coding.

use super::Build;
use crate::data::DataGen;
use crate::{DATA2_BASE, DATA3_BASE, DATA_BASE};
use tinyisa::{regs::*, Asm, AsmError, Vm};

/// A Feistel-network block cipher with S-box lookups (CAST/Blowfish class):
/// `rounds` rounds over 8-byte blocks, four `1 << sbox_bits`-entry S-boxes.
pub(crate) fn feistel(
    blocks: u64,
    rounds: u64,
    sbox_bits: u32,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let sbox_entries = 1u64 << sbox_bits;
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // plaintext blocks
    a.li(S1, DATA2_BASE as i64); // s-boxes (4 tables of u32)
    a.li(S2, DATA3_BASE as i64); // round keys (u32)
    a.li(S3, blocks as i64);
    a.li(S4, rounds as i64);
    a.li(S5, (sbox_entries - 1) as i64); // index mask
    let outer = a.label();
    a.bind(outer);
    let (b_loop, r_loop) = (a.label(), a.label());
    a.li(T0, 0); // block
    a.bind(b_loop);
    a.slli(T1, T0, 3);
    a.add(T1, S0, T1);
    a.ld4(T2, T1, 0); // L
    a.ld4(T3, T1, 4); // R
    a.li(T4, 0); // round
    a.bind(r_loop);
    // F(R, k) = (S0[x>>24 & m] + S1[x>>16 & m]) ^ (S2[x>>8 & m] + S3[x & m])
    a.slli(T5, T4, 2);
    a.add(T5, S2, T5);
    a.ld4(T5, T5, 0); // round key
    a.xor(T5, T3, T5); // x = R ^ k
    // S-box 0 term.
    a.srli(T6, T5, 24);
    a.and(T6, T6, S5);
    a.slli(T6, T6, 2);
    a.add(T6, S1, T6);
    a.ld4(T7, T6, 0);
    // S-box 1 term.
    a.srli(T6, T5, 16);
    a.and(T6, T6, S5);
    a.slli(T6, T6, 2);
    a.add(T6, S1, T6);
    a.ld4(T8, T6, (sbox_entries * 4) as i64);
    a.add(T7, T7, T8);
    // S-box 2 term.
    a.srli(T6, T5, 8);
    a.and(T6, T6, S5);
    a.slli(T6, T6, 2);
    a.add(T6, S1, T6);
    a.ld4(T8, T6, (sbox_entries * 8) as i64);
    // S-box 3 term.
    a.and(T6, T5, S5);
    a.slli(T6, T6, 2);
    a.add(T6, S1, T6);
    a.ld4(T9, T6, (sbox_entries * 12) as i64);
    a.add(T8, T8, T9);
    a.xor(T7, T7, T8); // F value
    // Feistel swap: (L, R) = (R, L ^ F)
    a.xor(T7, T2, T7);
    a.mov(T2, T3);
    a.mov(T3, T7);
    a.addi(T4, T4, 1);
    a.blt(T4, S4, r_loop);
    a.st4(T2, T1, 0);
    a.st4(T3, T1, 4);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, b_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_random(vm.mem_mut(), DATA_BASE, blocks * 8);
    g.fill_u32_below(vm.mem_mut(), DATA2_BASE, sbox_entries * 4, 1 << 32);
    g.fill_u32_below(vm.mem_mut(), DATA3_BASE, rounds, 1 << 32);
    Ok(vm)
}

/// A SHA-1-style compression loop: 64-byte chunks, 80 expand+mix rounds of
/// rotates, adds and boolean functions. Models MiBench sha and the hashing
/// phase of pgp.
pub(crate) fn sha(bytes: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let chunks = (bytes / 64).max(1);
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // message
    a.li(S1, chunks as i64);
    a.li(S2, 0x6745_2301); // h0 (a)
    a.li(S3, 0xefcd_ab89u32 as i64); // h1 (b)
    a.li(S4, 0x98ba_dcfeu32 as i64); // h2 (c)
    a.li(S5, 0x1032_5476); // h3 (d)
    a.li(S6, 0xc3d2_e1f0u32 as i64); // h4 (e)
    a.li(S11, 0xffff_ffff);
    let outer = a.label();
    a.bind(outer);
    let (c_loop, r_loop) = (a.label(), a.label());
    a.li(T0, 0); // chunk
    a.bind(c_loop);
    a.slli(S7, T0, 6);
    a.add(S7, S0, S7); // chunk base
    a.li(T1, 0); // round
    a.bind(r_loop);
    // w = word[round & 15] mixed with the round counter (schedule stand-in).
    a.andi(T2, T1, 15);
    a.slli(T2, T2, 2);
    a.add(T2, S7, T2);
    a.ld4(T3, T2, 0);
    a.xor(T3, T3, T1);
    // f = (b & c) | (~b & d) -- ch function
    a.and(T4, S3, S4);
    a.xor(T5, S3, S11); // ~b (32-bit)
    a.and(T5, T5, S5);
    a.or(T4, T4, T5);
    // temp = rotl5(a) + f + e + w + K
    a.slli(T6, S2, 5);
    a.srli(T7, S2, 27);
    a.or(T6, T6, T7);
    a.and(T6, T6, S11);
    a.add(T6, T6, T4);
    a.add(T6, T6, S6);
    a.add(T6, T6, T3);
    a.addi(T6, T6, 0x5a82);
    a.and(T6, T6, S11);
    // e=d, d=c, c=rotl30(b), b=a, a=temp
    a.mov(S6, S5);
    a.mov(S5, S4);
    a.slli(T7, S3, 30);
    a.srli(T8, S3, 2);
    a.or(T7, T7, T8);
    a.and(S4, T7, S11);
    a.mov(S3, S2);
    a.mov(S2, T6);
    a.addi(T1, T1, 1);
    a.slti(T9, T1, 80);
    a.bne(T9, ZERO, r_loop);
    a.addi(T0, T0, 1);
    a.blt(T0, S1, c_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_random(vm.mem_mut(), DATA_BASE, chunks * 64);
    Ok(vm)
}

/// Table-driven CRC32 over a byte stream (MiBench CRC32; also the checksum
/// inner loop of CommBench tcp).
pub(crate) fn crc32(bytes: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // data
    a.li(S1, DATA2_BASE as i64); // crc table (256 x u32)
    a.li(S2, bytes as i64);
    let outer = a.label();
    a.bind(outer);
    let i_loop = a.label();
    a.li(T0, 0);
    a.li(T1, 0xffff_ffff); // crc
    a.bind(i_loop);
    a.add(T2, S0, T0);
    a.ld1(T3, T2, 0);
    a.xor(T4, T1, T3);
    a.andi(T4, T4, 0xff);
    a.slli(T4, T4, 2);
    a.add(T4, S1, T4);
    a.ld4(T5, T4, 0);
    a.srli(T1, T1, 8);
    a.xor(T1, T1, T5);
    a.addi(T0, T0, 1);
    a.blt(T0, S2, i_loop);
    a.li(T6, (DATA3_BASE) as i64);
    a.st4(T1, T6, 0);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_repetitive(vm.mem_mut(), DATA_BASE, bytes, 64, 50);
    // Standard CRC-32 table.
    for i in 0..256u64 {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
        }
        vm.mem_mut().write_le(DATA2_BASE + i * 4, 4, c as u64);
    }
    Ok(vm)
}

/// Multi-word modular exponentiation by repeated square-and-multiply over
/// `words`-limb integers (schoolbook multiply + reduction by subtraction
/// stand-in). Models pgp's RSA and gap's bignum arithmetic.
pub(crate) fn modexp(words: u64, exp_bits: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let words = words.max(2);
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // base (words limbs)
    a.li(S1, (DATA_BASE + words * 8) as i64); // accumulator
    a.li(S2, (DATA_BASE + 3 * words * 8) as i64); // product scratch (2w limbs)
    a.li(S3, words as i64);
    a.li(S4, exp_bits as i64);
    a.li(S5, DATA2_BASE as i64); // exponent bits (bytes)
    let outer = a.label();
    a.bind(outer);
    let bit_loop = a.label();
    a.li(S6, 0); // bit index
    a.bind(bit_loop);

    // product = acc * (bit ? base : acc)  (schoolbook, 2w-limb result)
    let (zero_loop, i_loop, j_loop, use_base, oper_done) =
        (a.label(), a.label(), a.label(), a.label(), a.label());
    // zero scratch
    a.li(T0, 0);
    a.slli(T9, S3, 1);
    a.bind(zero_loop);
    a.slli(T1, T0, 3);
    a.add(T1, S2, T1);
    a.st8(ZERO, T1, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, T9, zero_loop);
    // pick operand
    a.add(T0, S5, S6);
    a.ld1(T0, T0, 0);
    a.bne(T0, ZERO, use_base);
    a.mov(S7, S1);
    a.jmp(oper_done);
    a.bind(use_base);
    a.mov(S7, S0);
    a.bind(oper_done);
    // multiply: for i, for j: scratch[i+j] += acc[i] * oper[j] (low), and
    // scratch[i+j+1] += high
    a.li(T0, 0); // i
    a.bind(i_loop);
    a.slli(T1, T0, 3);
    a.add(T1, S1, T1);
    a.ld8(T2, T1, 0); // acc[i]
    a.li(T3, 0); // j
    a.bind(j_loop);
    a.slli(T4, T3, 3);
    a.add(T4, S7, T4);
    a.ld8(T5, T4, 0); // oper[j]
    a.mul(T6, T2, T5); // low
    a.mulh(T7, T2, T5); // high
    a.add(T8, T0, T3);
    a.slli(T8, T8, 3);
    a.add(T8, S2, T8);
    a.ld8(T9, T8, 0);
    a.add(T9, T9, T6);
    a.st8(T9, T8, 0);
    a.ld8(T9, T8, 8);
    a.add(T9, T9, T7);
    a.st8(T9, T8, 8);
    a.addi(T3, T3, 1);
    a.blt(T3, S3, j_loop);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, i_loop);
    // "Reduce": copy the low `words` limbs back into acc, xor-folding the
    // high half in (keeps magnitudes bounded; a stand-in for Montgomery
    // reduction with the same access pattern).
    let red_loop = a.label();
    a.li(T0, 0);
    a.bind(red_loop);
    a.slli(T1, T0, 3);
    a.add(T2, S2, T1);
    a.ld8(T3, T2, 0);
    a.slli(T4, S3, 3);
    a.add(T4, T2, T4);
    a.ld8(T5, T4, 0);
    a.xor(T3, T3, T5);
    a.ori(T3, T3, 1);
    a.add(T6, S1, T1);
    a.st8(T3, T6, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, red_loop);

    a.addi(S6, S6, 1);
    a.blt(S6, S4, bit_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_u64_below(vm.mem_mut(), DATA_BASE, words, u64::MAX);
    // acc starts at 1.
    vm.mem_mut().write_le(DATA_BASE + words * 8, 8, 1);
    for i in 1..words {
        vm.mem_mut().write_le(DATA_BASE + (words + i) * 8, 8, 0);
    }
    for i in 0..exp_bits {
        vm.mem_mut().write_u8(DATA2_BASE + i, (g.next_u64() & 1) as u8);
    }
    Ok(vm)
}

/// Reed-Solomon-style encoding over GF(256): per input block, multiply the
/// message through a generator using log/antilog tables (CommBench reed).
/// `nsym` is the number of parity symbols.
pub(crate) fn reed_solomon(
    blocks: u64,
    msg_len: u64,
    nsym: u64,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // message blocks
    a.li(S1, DATA2_BASE as i64); // log table (256 B), antilog at +256
    a.li(S2, DATA3_BASE as i64); // parity output + generator at +4096
    a.li(S3, blocks as i64);
    a.li(S4, msg_len as i64);
    a.li(S5, nsym as i64);
    let outer = a.label();
    a.bind(outer);
    let (b_loop, zero_loop, m_loop, p_loop, skip_zero, p_next) =
        (a.label(), a.label(), a.label(), a.label(), a.label(), a.label());
    a.li(T0, 0); // block
    a.bind(b_loop);
    // zero parity
    a.li(T1, 0);
    a.bind(zero_loop);
    a.add(T2, S2, T1);
    a.st1(ZERO, T2, 0);
    a.addi(T1, T1, 1);
    a.blt(T1, S5, zero_loop);
    // LFSR-style division: for each message byte, feedback = msg ^ par[0];
    // shift parity; par[j] ^= gf_mul(gen[j], feedback) via log tables.
    a.mul(T1, T0, S4);
    a.add(S6, S0, T1); // message base
    a.li(T1, 0); // byte index
    a.bind(m_loop);
    a.add(T2, S6, T1);
    a.ld1(T3, T2, 0); // msg byte
    a.ld1(T4, S2, 0); // par[0]
    a.xor(T3, T3, T4); // feedback
    a.li(T5, 0); // j
    a.bind(p_loop);
    // shift: par[j] = par[j+1] (last becomes 0 implicitly via gen term)
    a.add(T6, S2, T5);
    a.ld1(T7, T6, 1);
    a.st1(T7, T6, 0);
    // gf_mul(gen[j], feedback): if either 0 -> 0 else antilog[(log[a]+log[b]) % 255]
    a.beq(T3, ZERO, skip_zero);
    a.addi(T8, T5, 4096);
    a.add(T8, S2, T8);
    a.ld1(T8, T8, 0); // gen[j]
    a.beq(T8, ZERO, p_next);
    a.add(T9, S1, T8);
    a.ld1(T9, T9, 0); // log[gen[j]]
    a.add(T8, S1, T3);
    a.ld1(T8, T8, 0); // log[feedback]
    a.add(T9, T9, T8);
    a.li(T8, 255);
    a.rem(T9, T9, T8);
    a.addi(T9, T9, 256);
    a.add(T9, S1, T9);
    a.ld1(T9, T9, 0); // antilog
    a.add(T6, S2, T5);
    a.ld1(T8, T6, 0);
    a.xor(T8, T8, T9);
    a.st1(T8, T6, 0);
    // Intentional jump-to-fallthrough (mica-lint warns): `skip_zero` binds
    // at the same pc as `p_next`, so this merge jump lands on the next
    // instruction; kept for the characterized control mix.
    a.jmp(p_next);
    a.bind(skip_zero);
    a.bind(p_next);
    a.addi(T5, T5, 1);
    a.blt(T5, S5, p_loop);
    a.addi(T1, T1, 1);
    a.blt(T1, S4, m_loop);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, b_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_random(vm.mem_mut(), DATA_BASE, blocks * msg_len);
    // GF(256) log/antilog tables for the 0x11d polynomial.
    let mut log = [0u8; 256];
    let mut alog = [0u8; 256];
    let mut x: u32 = 1;
    for (i, al) in alog.iter_mut().enumerate().take(255) {
        *al = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
    }
    for i in 0..256u64 {
        vm.mem_mut().write_u8(DATA2_BASE + i, log[i as usize]);
        vm.mem_mut().write_u8(DATA2_BASE + 256 + i, alog[(i % 255) as usize]);
    }
    // Generator coefficients (arbitrary nonzero bytes).
    for j in 0..nsym {
        vm.mem_mut().write_u8(DATA3_BASE + 4096 + j, (7 + j * 13 % 250) as u8 | 1);
    }
    Ok(vm)
}

#[cfg(test)]
mod tests {
    use crate::kernels::test_support::mix_of;
    use crate::kernels::Build;

    #[test]
    fn feistel_is_load_heavy_table_code() {
        let mix = mix_of(super::feistel(512, 16, 8, 1, Build::Full).unwrap(), 60_000);
        assert!(mix.loads > 0.15, "loads {}", mix.loads);
        assert!(mix.fp == 0.0);
    }

    #[test]
    fn sha_is_alu_dominated() {
        let mix = mix_of(super::sha(4096, 2, Build::Full).unwrap(), 60_000);
        assert!(mix.arith > 0.6, "arith {}", mix.arith);
        assert!(mix.loads < 0.1, "few memory ops: {}", mix.loads);
    }

    #[test]
    fn crc_alternates_loads_and_alu() {
        let mix = mix_of(super::crc32(65536, 3, Build::Full).unwrap(), 50_000);
        assert!(mix.loads > 0.15);
        assert!(mix.control > 0.05);
    }

    #[test]
    fn modexp_has_multiplies() {
        let mix = mix_of(super::modexp(8, 64, 4, Build::Full).unwrap(), 60_000);
        assert!(mix.int_mul > 0.02, "int_mul {}", mix.int_mul);
    }

    #[test]
    fn reed_solomon_runs_with_byte_tables() {
        let mix = mix_of(super::reed_solomon(64, 64, 16, 5, Build::Full).unwrap(), 60_000);
        assert!(mix.loads > 0.15);
        assert!(mix.stores > 0.03);
    }
}
