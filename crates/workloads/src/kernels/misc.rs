//! Remaining kernel families: a bytecode interpreter, bitboard operations,
//! quicksort, a small ray tracer, packet queue scheduling, and greedy text
//! layout.

use super::Build;
use crate::data::DataGen;
use crate::{DATA2_BASE, DATA3_BASE, DATA_BASE, STACK_TOP};
use tinyisa::{regs::*, Asm, AsmError, Vm};

/// perlbmk/gap-class bytecode interpreter: fetch a 4-byte instruction
/// (op, dst, src1, src2) over 16 memory-resident virtual registers and
/// dispatch through a compare chain — big I-footprint, hard branches.
pub(crate) fn interp(program_len: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // bytecode
    a.li(S1, DATA2_BASE as i64); // virtual registers (u64 x 16)
    a.li(S2, DATA3_BASE as i64); // virtual heap (64 KiB)
    a.li(S3, program_len as i64);
    let outer = a.label();
    a.bind(outer);
    let fetch = a.label();
    a.li(S4, 0); // vpc
    a.bind(fetch);
    a.slli(T0, S4, 2);
    a.add(T0, S0, T0);
    a.ld1(T1, T0, 0); // opcode
    a.ld1(T2, T0, 1); // dst
    a.ld1(T3, T0, 2); // src1
    a.ld1(T4, T0, 3); // src2
    // Read the two source virtual registers.
    a.slli(T5, T3, 3);
    a.add(T5, S1, T5);
    a.ld8(T5, T5, 0); // v1
    a.slli(T6, T4, 3);
    a.add(T6, S1, T6);
    a.ld8(T6, T6, 0); // v2
    let next = a.label();
    let mut op_labels = Vec::new();
    for _ in 0..8 {
        op_labels.push(a.label());
    }
    // Dispatch chain.
    for (opc, &l) in op_labels.iter().enumerate() {
        a.slti(T7, T1, opc as i64 + 1);
        a.bne(T7, ZERO, l);
    }
    a.jmp(next); // unknown op: nop
    // op 0: add
    a.bind(op_labels[0]);
    a.add(T8, T5, T6);
    a.slli(T9, T2, 3);
    a.add(T9, S1, T9);
    a.st8(T8, T9, 0);
    a.jmp(next);
    // op 1: sub
    a.bind(op_labels[1]);
    a.sub(T8, T5, T6);
    a.slli(T9, T2, 3);
    a.add(T9, S1, T9);
    a.st8(T8, T9, 0);
    a.jmp(next);
    // op 2: mul
    a.bind(op_labels[2]);
    a.mul(T8, T5, T6);
    a.slli(T9, T2, 3);
    a.add(T9, S1, T9);
    a.st8(T8, T9, 0);
    a.jmp(next);
    // op 3: xor
    a.bind(op_labels[3]);
    a.xor(T8, T5, T6);
    a.slli(T9, T2, 3);
    a.add(T9, S1, T9);
    a.st8(T8, T9, 0);
    a.jmp(next);
    // op 4: load heap[v1 & mask]
    a.bind(op_labels[4]);
    a.andi(T8, T5, 0xffff);
    a.andi(T8, T8, -8);
    a.add(T8, S2, T8);
    a.ld8(T8, T8, 0);
    a.slli(T9, T2, 3);
    a.add(T9, S1, T9);
    a.st8(T8, T9, 0);
    a.jmp(next);
    // op 5: store heap[v1 & mask] = v2
    a.bind(op_labels[5]);
    a.andi(T8, T5, 0xffff);
    a.andi(T8, T8, -8);
    a.add(T8, S2, T8);
    a.st8(T6, T8, 0);
    a.jmp(next);
    // op 6: conditional skip (if v1 < v2, vpc += 1)
    let no_skip = a.label();
    a.bind(op_labels[6]);
    a.bge(T5, T6, no_skip);
    a.addi(S4, S4, 1);
    a.bind(no_skip);
    a.jmp(next);
    // op 7: increment dst register by immediate in src1 field
    a.bind(op_labels[7]);
    a.slli(T9, T2, 3);
    a.add(T9, S1, T9);
    a.ld8(T8, T9, 0);
    a.add(T8, T8, T3);
    a.st8(T8, T9, 0);
    // Intentional jump-to-fallthrough (mica-lint warns): the last opcode
    // handler's dispatch-merge jump, kept for the characterized control mix.
    a.jmp(next);
    a.bind(next);
    a.addi(S4, S4, 1);
    a.blt(S4, S3, fetch);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    for i in 0..program_len {
        let base = DATA_BASE + i * 4;
        vm.mem_mut().write_u8(base, g.below(8) as u8);
        vm.mem_mut().write_u8(base + 1, g.below(16) as u8);
        vm.mem_mut().write_u8(base + 2, g.below(16) as u8);
        vm.mem_mut().write_u8(base + 3, g.below(16) as u8);
    }
    for r in 0..16 {
        vm.mem_mut().write_le(DATA2_BASE + r * 8, 8, g.next_u64());
    }
    Ok(vm)
}

/// crafty/bitcount-class bit manipulation: per word, extract set bits one at
/// a time (`x & -x`), count bits with shift-mask reduction, rotate and mix.
pub(crate) fn bitops(words: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // bitboards
    a.li(S1, words as i64);
    a.li(S2, DATA2_BASE as i64); // results
    let outer = a.label();
    a.bind(outer);
    let (w_loop, bit_loop, bits_done) = (a.label(), a.label(), a.label());
    a.li(T0, 0);
    a.bind(w_loop);
    a.slli(T1, T0, 3);
    a.add(T1, S0, T1);
    a.ld8(T2, T1, 0);
    // Extract set bits one by one.
    a.li(T3, 0); // popcount via extraction
    a.bind(bit_loop);
    a.beq(T2, ZERO, bits_done);
    a.sub(T4, ZERO, T2);
    a.and(T4, T2, T4); // lowest set bit
    a.xor(T2, T2, T4); // clear it
    a.addi(T3, T3, 1);
    a.jmp(bit_loop);
    a.bind(bits_done);
    // Shift-add reduction popcount of a mixed value (branch-free path).
    a.ld8(T5, T1, 0);
    a.li(T6, 0x5555_5555_5555_5555u64 as i64);
    a.srli(T7, T5, 1);
    a.and(T7, T7, T6);
    a.sub(T5, T5, T7);
    a.li(T6, 0x3333_3333_3333_3333u64 as i64);
    a.and(T7, T5, T6);
    a.srli(T5, T5, 2);
    a.and(T5, T5, T6);
    a.add(T5, T5, T7);
    a.li(T6, 0x0f0f_0f0f_0f0f_0f0fu64 as i64);
    a.srli(T7, T5, 4);
    a.add(T5, T5, T7);
    a.and(T5, T5, T6);
    a.li(T6, 0x0101_0101_0101_0101u64 as i64);
    a.mul(T5, T5, T6);
    a.srli(T5, T5, 56);
    a.add(T3, T3, T5);
    a.slli(T6, T0, 3);
    a.add(T6, S2, T6);
    a.st8(T3, T6, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, S1, w_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_u64_below(vm.mem_mut(), DATA_BASE, words, u64::MAX);
    Ok(vm)
}

/// Iterative quicksort over `elems` 16-byte records (u64 key + u64 payload),
/// explicit segment stack — MiBench qsort.
pub(crate) fn qsort(elems: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // records
    a.li(S1, elems as i64);
    let outer = a.label();
    a.bind(outer);
    // Re-randomize the array cheaply (xorshift each key) so every pass
    // sorts fresh data.
    let scramble = a.label();
    a.li(T0, 0);
    a.bind(scramble);
    a.slli(T1, T0, 4);
    a.add(T1, S0, T1);
    a.ld8(T2, T1, 0);
    a.slli(T3, T2, 13);
    a.xor(T2, T2, T3);
    a.srli(T3, T2, 7);
    a.xor(T2, T2, T3);
    a.slli(T3, T2, 17);
    a.xor(T2, T2, T3);
    a.ori(T2, T2, 1);
    a.st8(T2, T1, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, S1, scramble);
    // Push (0, n-1) onto the segment stack.
    a.li(SP, STACK_TOP as i64);
    a.addi(SP, SP, -16);
    a.st8(ZERO, SP, 0);
    a.addi(T0, S1, -1);
    a.st8(T0, SP, 8);
    let (pop_loop, done, part_loop, lo_scan, hi_scan, do_swap, part_done, push_right, no_left) = (
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
    );
    a.bind(pop_loop);
    a.li(T9, (STACK_TOP) as i64);
    a.bge(SP, T9, done);
    a.ld8(S2, SP, 0); // lo
    a.ld8(S3, SP, 8); // hi
    a.addi(SP, SP, 16);
    a.bge(S2, S3, pop_loop);
    // Canonical Hoare partition with pivot = key[lo]: both scans use
    // do-while stepping, which guarantees lo <= j < hi at the split.
    a.slli(T0, S2, 4);
    a.add(T0, S0, T0);
    a.ld8(S4, T0, 0); // pivot key
    a.addi(S5, S2, -1); // i = lo - 1
    a.addi(S6, S3, 1); // j = hi + 1
    a.bind(part_loop);
    a.bind(lo_scan);
    a.addi(S5, S5, 1);
    a.slli(T1, S5, 4);
    a.add(T1, S0, T1);
    a.ld8(T2, T1, 0);
    a.blt(T2, S4, lo_scan);
    a.bind(hi_scan);
    a.addi(S6, S6, -1);
    a.slli(T3, S6, 4);
    a.add(T3, S0, T3);
    a.ld8(T4, T3, 0);
    a.blt(S4, T4, hi_scan);
    a.bge(S5, S6, part_done);
    // Intentional jump-to-fallthrough (mica-lint warns): the partition
    // scan's merge jump, kept for the characterized control mix.
    a.jmp(do_swap);
    a.bind(do_swap);
    // Swap the 16-byte records.
    a.ld8(T5, T1, 8);
    a.ld8(T6, T3, 8);
    a.st8(T4, T1, 0);
    a.st8(T2, T3, 0);
    a.st8(T6, T1, 8);
    a.st8(T5, T3, 8);
    a.jmp(part_loop);
    a.bind(part_done);
    // Push (lo, j) and (j+1, hi) when non-trivial.
    a.bge(S2, S6, no_left);
    a.addi(SP, SP, -16);
    a.st8(S2, SP, 0);
    a.st8(S6, SP, 8);
    a.bind(no_left);
    a.addi(T7, S6, 1);
    a.bge(T7, S3, pop_loop);
    // Intentional jump-to-fallthrough (mica-lint warns): the push-right
    // guard's merge jump, kept for the characterized control mix.
    a.jmp(push_right);
    a.bind(push_right);
    a.addi(SP, SP, -16);
    a.st8(T7, SP, 0);
    a.st8(S3, SP, 8);
    a.jmp(pop_loop);
    a.bind(done);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_u64_below(vm.mem_mut(), DATA_BASE, elems * 2, u64::MAX);
    Ok(vm)
}

/// eon-class ray-sphere tracing: for each ray from a grid, test against all
/// spheres (dot products, discriminant, sqrt on hit) through a real `call`ed
/// intersection routine.
pub(crate) fn raytrace(spheres: u64, rays: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // spheres: cx, cy, cz, r (f64 x 4)
    a.li(S1, DATA2_BASE as i64); // ray dirs: dx, dy, dz (f64 x 3)
    a.li(S2, DATA3_BASE as i64); // hit distances
    a.li(S3, spheres as i64);
    a.li(S4, rays as i64);
    let (outer, r_loop, s_loop, intersect, no_hit, isect_done, keep) = (
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
    );
    a.bind(outer);
    a.li(S5, 0); // ray index
    a.bind(r_loop);
    a.li(T0, 24);
    a.mul(T0, S5, T0);
    a.add(T0, S1, T0);
    a.ldf(F10, T0, 0); // dx
    a.ldf(F11, T0, 8); // dy
    a.ldf(F12, T0, 16); // dz
    a.fli(F13, 1e30); // best t
    a.li(S6, 0); // sphere index
    a.bind(s_loop);
    a.call(intersect);
    a.fcmplt(T5, F0, F13);
    a.beq(T5, ZERO, keep);
    a.fmov(F13, F0);
    a.bind(keep);
    a.addi(S6, S6, 1);
    a.blt(S6, S3, s_loop);
    a.slli(T6, S5, 3);
    a.add(T6, S2, T6);
    a.stf(F13, T6, 0);
    a.addi(S5, S5, 1);
    a.blt(S5, S4, r_loop);
    a.jmp(outer);

    // fn intersect(sphere S6, dir F10..F12) -> F0 = t or 1e30
    a.bind(intersect);
    a.slli(T1, S6, 5);
    a.add(T1, S0, T1);
    a.ldf(F1, T1, 0); // cx (ray origin at 0)
    a.ldf(F2, T1, 8);
    a.ldf(F3, T1, 16);
    a.ldf(F4, T1, 24); // radius
    // b = dot(c, d); c2 = dot(c, c); disc = b*b - (c2 - r*r)
    a.fmul(F5, F1, F10);
    a.fmul(F6, F2, F11);
    a.fadd(F5, F5, F6);
    a.fmul(F6, F3, F12);
    a.fadd(F5, F5, F6); // b
    a.fmul(F6, F1, F1);
    a.fmul(F7, F2, F2);
    a.fadd(F6, F6, F7);
    a.fmul(F7, F3, F3);
    a.fadd(F6, F6, F7); // c2
    a.fmul(F7, F4, F4);
    a.fsub(F6, F6, F7); // c2 - r^2
    a.fmul(F7, F5, F5);
    a.fsub(F7, F7, F6); // disc
    a.fli(F8, 0.0);
    a.fcmplt(T2, F7, F8);
    a.bne(T2, ZERO, no_hit);
    a.fsqrt(F7, F7);
    a.fsub(F0, F5, F7); // t = b - sqrt(disc)
    a.fcmplt(T2, F0, F8);
    a.bne(T2, ZERO, no_hit);
    a.jmp(isect_done);
    a.bind(no_hit);
    a.fli(F0, 1e30);
    a.bind(isect_done);
    a.ret();

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    for s in 0..spheres {
        let base = DATA_BASE + s * 32;
        vm.mem_mut().write_f64(base, g.unit_f64() * 20.0 - 10.0);
        vm.mem_mut().write_f64(base + 8, g.unit_f64() * 20.0 - 10.0);
        vm.mem_mut().write_f64(base + 16, g.unit_f64() * 20.0 + 5.0);
        vm.mem_mut().write_f64(base + 24, g.unit_f64() * 2.0 + 0.2);
    }
    for r in 0..rays {
        let base = DATA2_BASE + r * 24;
        vm.mem_mut().write_f64(base, g.unit_f64() - 0.5);
        vm.mem_mut().write_f64(base + 8, g.unit_f64() - 0.5);
        vm.mem_mut().write_f64(base + 16, 1.0);
    }
    Ok(vm)
}

/// Which packet-processing discipline the `QueueSched` kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedKind {
    /// Deficit round robin over per-flow queues (CommBench drr).
    Drr,
    /// IP fragmentation: split packets into MTU-sized chunks with header
    /// rewrites and payload copies (CommBench frag).
    Frag,
    /// TCP monitoring: header parse + checksum + flow-table update
    /// (CommBench tcp).
    Tcp,
}

/// CommBench-class packet processing over a synthetic packet trace.
pub(crate) fn queue_sched(
    packets: u64,
    kind: SchedKind,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let pkt_bytes = 64u64; // descriptor: len u32, flow u32, payload 56 B
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // packet trace
    if !matches!(kind, SchedKind::Frag) {
        a.li(S1, DATA2_BASE as i64); // flow state table (u64 x 1024)
    }
    if !matches!(kind, SchedKind::Tcp) {
        a.li(S2, DATA3_BASE as i64); // output area
    }
    a.li(S3, packets as i64);
    let outer = a.label();
    a.bind(outer);
    let p_loop = a.label();
    a.li(T0, 0); // packet index
    if !matches!(kind, SchedKind::Tcp) {
        a.li(S6, 0); // output cursor
    }
    a.bind(p_loop);
    a.slli(T1, T0, 6);
    a.add(T1, S0, T1); // packet base
    a.ld4(T2, T1, 0); // len
    a.ld4(T3, T1, 4); // flow id
    match kind {
        SchedKind::Drr => {
            // deficit[flow] += quantum; if deficit >= len: send, deficit -= len.
            let skip = a.label();
            a.andi(T3, T3, 1023);
            a.slli(T4, T3, 3);
            a.add(T4, S1, T4);
            a.ld8(T5, T4, 0);
            a.addi(T5, T5, 512); // quantum
            a.blt(T5, T2, skip);
            a.sub(T5, T5, T2);
            a.add(T6, S2, S6);
            a.st4(T3, T6, 0); // record serviced flow
            a.addi(S6, S6, 4);
            a.bind(skip);
            a.st8(T5, T4, 0);
        }
        SchedKind::Frag => {
            // Copy the payload in 16-byte MTU chunks with a 4-byte header
            // prepended to each fragment.
            let (frag_loop, copy_loop, frag_end) = (a.label(), a.label(), a.label());
            a.li(T4, 0); // offset
            a.bind(frag_loop);
            a.bge(T4, T2, frag_end);
            // header = flow | offset<<16
            a.slli(T5, T4, 16);
            a.or(T5, T5, T3);
            a.add(T6, S2, S6);
            a.st4(T5, T6, 0);
            a.addi(S6, S6, 4);
            // copy min(16, len - offset) payload bytes
            a.li(T7, 0);
            a.bind(copy_loop);
            a.add(T8, T1, T4);
            a.add(T8, T8, T7);
            a.ld1(T9, T8, 8);
            a.add(T8, S2, S6);
            a.st1(T9, T8, 0);
            a.addi(S6, S6, 1);
            a.addi(T7, T7, 1);
            a.slti(T8, T7, 16);
            a.bne(T8, ZERO, copy_loop);
            a.addi(T4, T4, 16);
            a.jmp(frag_loop);
            a.bind(frag_end);
            // Wrap the output cursor to bound the output working set.
            a.andi(S6, S6, 0xffff);
        }
        SchedKind::Tcp => {
            // 16-bit ones-complement-ish checksum over the payload + flow
            // table hit counter.
            let ck_loop = a.label();
            a.li(T4, 0);
            a.li(T5, 0); // sum
            a.bind(ck_loop);
            a.add(T6, T1, T4);
            a.ld2(T7, T6, 8);
            a.add(T5, T5, T7);
            a.addi(T4, T4, 2);
            a.slti(T6, T4, 56);
            a.bne(T6, ZERO, ck_loop);
            a.srli(T6, T5, 16);
            a.add(T5, T5, T6);
            a.andi(T5, T5, 0xffff);
            a.andi(T3, T3, 1023);
            a.slli(T6, T3, 3);
            a.add(T6, S1, T6);
            a.ld8(T7, T6, 0);
            a.add(T7, T7, T5);
            a.st8(T7, T6, 0);
        }
    }
    a.addi(T0, T0, 1);
    a.blt(T0, S3, p_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    for p in 0..packets {
        let base = DATA_BASE + p * pkt_bytes;
        vm.mem_mut().write_le(base, 4, g.below(48) + 8);
        // Zipf-ish flow popularity: low ids more common.
        let flow = (g.below(32) * g.below(32)) & 1023;
        vm.mem_mut().write_le(base + 4, 4, flow);
        g.fill_random(vm.mem_mut(), base + 8, 56);
    }
    Ok(vm)
}

/// typeset-class greedy line breaking over a linked list of word records
/// (width, next); accumulates line widths, justifies with div/rem, and
/// walks pointer-linked records.
pub(crate) fn text_layout(
    words: u64,
    line_width: u64,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let node_bytes = 24u64; // next ptr, width, flags
    let mut a = Asm::new();
    a.li(S1, line_width as i64);
    a.li(S2, DATA2_BASE as i64); // line records out
    a.li(S3, words as i64);
    let outer = a.label();
    a.bind(outer);
    let (w_loop, flush, no_flush, list_end) = (a.label(), a.label(), a.label(), a.label());
    a.li(T9, DATA_BASE as i64);
    a.ld8(S0, T9, 0); // head pointer parked at DATA_BASE
    a.li(T0, 0); // words consumed
    a.li(T1, 0); // current line width
    a.li(T2, 0); // words on line
    a.li(S6, 0); // output cursor
    a.bind(w_loop);
    a.bge(T0, S3, list_end);
    a.ld8(T3, S0, 8); // word width
    a.add(T4, T1, T3);
    a.bge(T4, S1, flush);
    a.mov(T1, T4);
    a.addi(T1, T1, 1); // inter-word space
    a.addi(T2, T2, 1);
    a.jmp(no_flush);
    a.bind(flush);
    // Justify: distribute (line_width - width) over the gaps.
    let skip_just = a.label();
    a.sub(T5, S1, T1);
    a.li(T6, 0); // justification amount for unjustifiable lines
    a.beq(T2, ZERO, skip_just);
    a.div(T6, T5, T2);
    a.rem(T7, T5, T2);
    a.add(T6, T6, T7);
    a.bind(skip_just);
    a.add(T8, S2, S6);
    a.st4(T1, T8, 0);
    a.st4(T6, T8, 4); // record the justified slack with the line width
    a.addi(S6, S6, 8);
    a.andi(S6, S6, 0xfff);
    a.mov(T1, T3);
    a.li(T2, 1);
    a.bind(no_flush);
    a.ld8(S0, S0, 0); // next word
    a.addi(T0, T0, 1);
    a.jmp(w_loop);
    a.bind(list_end);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    let head = g.build_random_ring(vm.mem_mut(), DATA_BASE + 64, words, node_bytes);
    for w in 0..words {
        let base = DATA_BASE + 64 + w * node_bytes;
        vm.mem_mut().write_le(base + 8, 8, g.below(12) + 2);
    }
    vm.mem_mut().write_le(DATA_BASE, 8, head);
    Ok(vm)
}

/// twolf/vpr-class simulated annealing: propose random cell swaps in a
/// placement array, evaluate a local cost delta against neighbor positions,
/// accept or reject against a temperature threshold (xorshift RNG kept in
/// registers). Data-dependent branches over a medium working set.
pub(crate) fn annealing(
    cells: u64,
    sweeps: u64,
    temp: u64,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let mask = cells.next_power_of_two() - 1;
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // placement: cell id per slot (u32)
    a.li(S1, DATA2_BASE as i64); // affinity table per cell (u32)
    a.li(S2, cells as i64);
    a.li(S3, sweeps as i64);
    a.li(S4, mask as i64);
    a.li(S5, temp as i64);
    a.li(S6, seed.wrapping_mul(0x2545_f491_4f6c_dd1d) as i64 | 1); // rng state
    let outer = a.label();
    a.bind(outer);
    let (sweep_loop, move_loop, reject, accepted) =
        (a.label(), a.label(), a.label(), a.label());
    a.li(T9, 0); // sweep
    a.bind(sweep_loop);
    a.li(T8, 0); // move
    a.bind(move_loop);
    // xorshift64 for two slot indices.
    a.slli(T0, S6, 13);
    a.xor(S6, S6, T0);
    a.srli(T0, S6, 7);
    a.xor(S6, S6, T0);
    a.slli(T0, S6, 17);
    a.xor(S6, S6, T0);
    a.and(T1, S6, S4); // slot i
    a.srli(T0, S6, 20);
    a.and(T2, T0, S4); // slot j
    // Load the two cells.
    a.slli(T3, T1, 2);
    a.add(T3, S0, T3);
    a.ld4(T4, T3, 0); // cell at i
    a.slli(T5, T2, 2);
    a.add(T5, S0, T5);
    a.ld4(T6, T5, 0); // cell at j
    // Cost delta: affinity[cell_i] vs slot positions (toy HPWL surrogate):
    // delta = (aff_i ^ j) + (aff_j ^ i) - (aff_i ^ i) - (aff_j ^ j), masked.
    a.slli(T7, T4, 2);
    a.add(T7, S1, T7);
    a.ld4(T7, T7, 0); // aff_i
    a.xor(T0, T7, T2);
    a.and(T0, T0, S4); // cost of i at j
    a.xor(T7, T7, T1);
    a.and(T7, T7, S4); // cost of i at i
    a.sub(T0, T0, T7);
    a.slli(T7, T6, 2);
    a.add(T7, S1, T7);
    a.ld4(T7, T7, 0); // aff_j
    a.xor(S7, T7, T1);
    a.and(S7, S7, S4);
    a.xor(T7, T7, T2);
    a.and(T7, T7, S4);
    a.sub(S7, S7, T7);
    a.add(T0, T0, S7); // total delta
    // Accept if delta < temperature (temperature plays the Boltzmann role).
    a.blt(T0, S5, accepted);
    a.jmp(reject);
    a.bind(accepted);
    a.st4(T6, T3, 0);
    a.st4(T4, T5, 0);
    a.bind(reject);
    a.addi(T8, T8, 1);
    a.blt(T8, S2, move_loop);
    // Cool down.
    a.srai(T0, S5, 4);
    a.sub(S5, S5, T0);
    a.addi(T9, T9, 1);
    a.blt(T9, S3, sweep_loop);
    a.li(S5, temp as i64); // reheat for the next pass
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    for i in 0..cells {
        vm.mem_mut().write_le(DATA_BASE + i * 4, 4, i);
    }
    g.fill_u32_below(vm.mem_mut(), DATA2_BASE, cells, mask + 1);
    Ok(vm)
}

/// Variable-length (canonical Huffman) decoding: walk a binary code tree in
/// memory bit by bit over a host-encoded stream — the entropy-decode side
/// of mpeg2/jpeg-class codecs.
pub(crate) fn huffman_decode(
    symbols: u64,
    stream_bytes: u64,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    // Host side: build a Huffman tree over a skewed symbol distribution,
    // encode a random message, and lay the tree out in memory
    // (node: left u32 index, right u32 index, symbol u32, is_leaf u32).
    // The program needs only the tree's root, so the encoding waits for a
    // full build.
    let nsym = symbols.clamp(2, 256) as usize;
    // Zipf-ish frequencies.
    let freqs: Vec<u64> = (0..nsym).map(|i| 1_000_000 / (i as u64 + 1) + 1).collect();
    // Build the tree with a simple two-queue method over sorted leaves.
    #[derive(Clone)]
    struct Node {
        left: u32,
        right: u32,
        symbol: u32,
        leaf: bool,
        freq: u64,
    }
    let mut nodes: Vec<Node> = freqs
        .iter()
        .enumerate()
        .map(|(s, &f)| Node { left: 0, right: 0, symbol: s as u32, leaf: true, freq: f })
        .collect();
    let mut heap: Vec<u32> = (0..nsym as u32).collect();
    while heap.len() > 1 {
        heap.sort_by_key(|&i| std::cmp::Reverse(nodes[i as usize].freq));
        let a1 = heap.pop().expect("len > 1");
        let a2 = heap.pop().expect("len > 1");
        let f = nodes[a1 as usize].freq + nodes[a2 as usize].freq;
        nodes.push(Node { left: a1, right: a2, symbol: 0, leaf: false, freq: f });
        heap.push(nodes.len() as u32 - 1);
    }
    let root = heap[0];
    let mut asm = Asm::new();
    asm.li(S0, DATA_BASE as i64); // tree nodes (16 B each)
    asm.li(S1, DATA2_BASE as i64); // bitstream
    asm.li(S2, DATA3_BASE as i64); // decoded output
    asm.li(S3, (stream_bytes * 8) as i64);
    asm.li(S4, root as i64);
    let outer = asm.label();
    asm.bind(outer);
    let (bit_loop, go_right, step_done, emit) =
        (asm.label(), asm.label(), asm.label(), asm.label());
    asm.li(T0, 0); // bit cursor
    asm.li(T9, 0); // output cursor
    asm.mov(T1, S4); // current node
    asm.bind(bit_loop);
    // Fetch bit T0.
    asm.srli(T2, T0, 3);
    asm.add(T2, S1, T2);
    asm.ld1(T3, T2, 0);
    asm.andi(T4, T0, 7);
    asm.srl(T3, T3, T4);
    asm.andi(T3, T3, 1);
    // Walk.
    asm.slli(T5, T1, 4);
    asm.add(T5, S0, T5);
    asm.bne(T3, ZERO, go_right);
    asm.ld4(T1, T5, 0);
    asm.jmp(step_done);
    asm.bind(go_right);
    asm.ld4(T1, T5, 4);
    asm.bind(step_done);
    // Leaf?
    asm.slli(T5, T1, 4);
    asm.add(T5, S0, T5);
    asm.ld4(T6, T5, 12);
    asm.bne(T6, ZERO, emit);
    asm.addi(T0, T0, 1);
    asm.blt(T0, S3, bit_loop);
    asm.jmp(outer);
    asm.bind(emit);
    asm.ld4(T7, T5, 8); // symbol
    asm.add(T8, S2, T9);
    asm.st1(T7, T8, 0);
    asm.addi(T9, T9, 1);
    asm.andi(T9, T9, 0xffff);
    asm.mov(T1, S4); // back to the root
    asm.addi(T0, T0, 1);
    asm.blt(T0, S3, bit_loop);
    asm.jmp(outer);

    let mut vm = Vm::new(asm.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    // Codes per symbol.
    let mut codes: Vec<(u64, u32)> = vec![(0, 0); nsym];
    fn assign(nodes: &[Node], n: u32, code: u64, len: u32, codes: &mut [(u64, u32)]) {
        let node = &nodes[n as usize];
        if node.leaf {
            codes[node.symbol as usize] = (code, len.max(1));
        } else {
            assign(nodes, node.left, code << 1, len + 1, codes);
            assign(nodes, node.right, code << 1 | 1, len + 1, codes);
        }
    }
    assign(&nodes, root, 0, 0, &mut codes);
    // Encode a message until the bitstream fills `stream_bytes`.
    let mut bits: Vec<u8> = Vec::new();
    while bits.len() < (stream_bytes * 8) as usize {
        // Sample a symbol proportional to frequency (approximately).
        let mut pick = g.below(freqs.iter().sum::<u64>());
        let mut sym = 0usize;
        for (i, &f) in freqs.iter().enumerate() {
            if pick < f {
                sym = i;
                break;
            }
            pick -= f;
        }
        let (code, len) = codes[sym];
        for b in (0..len).rev() {
            bits.push((code >> b & 1) as u8);
        }
    }
    bits.truncate((stream_bytes * 8) as usize);
    let mut packed = vec![0u8; stream_bytes as usize];
    for (i, &b) in bits.iter().enumerate() {
        packed[i / 8] |= b << (i % 8);
    }
    for (i, n) in nodes.iter().enumerate() {
        let base = DATA_BASE + i as u64 * 16;
        vm.mem_mut().write_le(base, 4, n.left as u64);
        vm.mem_mut().write_le(base + 4, 4, n.right as u64);
        vm.mem_mut().write_le(base + 8, 4, n.symbol as u64);
        vm.mem_mut().write_le(base + 12, 4, n.leaf as u64);
    }
    vm.mem_mut().write_bytes(DATA2_BASE, &packed);
    Ok(vm)
}

#[cfg(test)]
mod tests {
    use super::SchedKind;
    use crate::kernels::test_support::mix_of;
    use crate::kernels::Build;

    #[test]
    fn interp_dispatch_is_branch_heavy() {
        let mix = mix_of(super::interp(4096, 1, Build::Full).unwrap(), 60_000);
        assert!(mix.control > 0.2, "control {}", mix.control);
        assert!(mix.loads > 0.15);
    }

    #[test]
    fn bitops_is_alu_with_multiplies() {
        let mix = mix_of(super::bitops(4096, 2, Build::Full).unwrap(), 60_000);
        assert!(mix.arith > 0.5, "arith {}", mix.arith);
    }

    #[test]
    fn qsort_swaps_records() {
        let mix = mix_of(super::qsort(4096, 3, Build::Full).unwrap(), 100_000);
        assert!(mix.control > 0.15);
        assert!(mix.stores > 0.02);
    }

    #[test]
    fn raytrace_uses_fp_and_calls() {
        let mix = mix_of(super::raytrace(32, 256, 4, Build::Full).unwrap(), 80_000);
        assert!(mix.fp > 0.3, "fp {}", mix.fp);
    }

    #[test]
    fn all_sched_kinds_run() {
        for kind in [SchedKind::Drr, SchedKind::Frag, SchedKind::Tcp] {
            let mix = mix_of(super::queue_sched(512, kind, 5, Build::Full).unwrap(), 50_000);
            assert!(mix.loads > 0.05, "{kind:?}");
        }
    }

    #[test]
    fn frag_stores_more_than_tcp() {
        let sched = |kind| super::queue_sched(512, kind, 5, Build::Full).unwrap();
        let tcp = mix_of(sched(SchedKind::Tcp), 50_000);
        let frag = mix_of(sched(SchedKind::Frag), 50_000);
        assert!(frag.stores > tcp.stores + 0.03, "frag {} vs tcp {}", frag.stores, tcp.stores);
    }

    #[test]
    fn text_layout_walks_list() {
        let mix = mix_of(super::text_layout(2048, 60, 6, Build::Full).unwrap(), 50_000);
        assert!(mix.loads > 0.12, "loads {}", mix.loads);
        assert!(mix.control > 0.15);
    }

    #[test]
    fn annealing_swaps_and_branches() {
        let mix = mix_of(super::annealing(4096, 8, 512, 7, Build::Full).unwrap(), 60_000);
        assert!(mix.control > 0.05, "control {}", mix.control);
        assert!(mix.loads > 0.05, "loads {}", mix.loads);
        assert!(mix.stores > 0.005, "some swaps accepted: {}", mix.stores);
    }

    #[test]
    fn huffman_decode_walks_the_tree() {
        let mix = mix_of(super::huffman_decode(64, 8192, 8, Build::Full).unwrap(), 60_000);
        assert!(mix.loads > 0.15, "tree walking loads: {}", mix.loads);
        assert!(mix.control > 0.15, "per-bit branches: {}", mix.control);
    }
}
