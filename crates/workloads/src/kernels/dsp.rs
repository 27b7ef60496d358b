//! Signal-processing kernels: FFT, FIR filtering, ADPCM coding, 8x8 DCT,
//! wavelet lifting, and scalar math loops.

use super::Build;
use crate::data::{write_twiddles, DataGen};
use crate::{DATA2_BASE, DATA3_BASE, DATA_BASE};
use tinyisa::{regs::*, Asm, AsmError, Vm};

/// Iterative radix-2 complex FFT over `1 << log2n` points
/// (decimation-in-frequency: butterfly stages with a precomputed twiddle
/// table, then the bit-reversal permutation).
/// Models MiBench FFT/fftinv, SPEC lucas' transform phase, facerec.
pub(crate) fn fft(log2n: u32, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let n = 1u64 << log2n;
    let mut a = Asm::new();
    // S0 data, S1 twiddles, S2 n, S3 log2n, S4 m, S5 half, S6 tstep.
    a.li(S0, DATA_BASE as i64);
    a.li(S1, DATA2_BASE as i64);
    a.li(S2, n as i64);
    a.li(S3, log2n as i64);
    let outer = a.label();
    a.bind(outer);

    // --- butterfly stages ---
    let (stage_loop, k_loop, j_loop) = (a.label(), a.label(), a.label());
    a.li(S4, 2); // m
    a.bind(stage_loop);
    a.srli(S5, S4, 1); // half
    a.div(S6, S2, S4); // twiddle stride
    a.li(T0, 0); // k
    a.bind(k_loop);
    a.li(T1, 0); // j
    a.bind(j_loop);
    a.mul(T2, T1, S6);
    a.slli(T2, T2, 4);
    a.add(T2, S1, T2);
    a.ldf(F0, T2, 0); // wr
    a.ldf(F1, T2, 8); // wi
    a.add(T3, T0, T1);
    a.slli(T4, T3, 4);
    a.add(T4, S0, T4); // addr of a[k+j]
    a.add(T5, T3, S5);
    a.slli(T5, T5, 4);
    a.add(T5, S0, T5); // addr of a[k+j+half]
    a.ldf(F2, T5, 0);
    a.ldf(F3, T5, 8);
    // t = w * b (complex)
    a.fmul(F4, F0, F2);
    a.fmul(F5, F1, F3);
    a.fsub(F4, F4, F5); // tr
    a.fmul(F5, F0, F3);
    a.fmul(F6, F1, F2);
    a.fadd(F5, F5, F6); // ti
    a.ldf(F6, T4, 0);
    a.ldf(F7, T4, 8);
    a.fadd(F8, F6, F4);
    a.fadd(F9, F7, F5);
    a.stf(F8, T4, 0);
    a.stf(F9, T4, 8);
    a.fsub(F8, F6, F4);
    a.fsub(F9, F7, F5);
    a.stf(F8, T5, 0);
    a.stf(F9, T5, 8);
    a.addi(T1, T1, 1);
    a.blt(T1, S5, j_loop);
    a.add(T0, T0, S4);
    a.blt(T0, S2, k_loop);
    a.slli(S4, S4, 1);
    a.bge(S2, S4, stage_loop);
    // --- bit-reversal permutation ---
    let (br_loop, rev_loop, no_swap) = (a.label(), a.label(), a.label());
    a.li(T0, 0); // i
    a.bind(br_loop);
    a.li(T1, 0); // r
    a.li(T2, 0); // b
    a.bind(rev_loop);
    a.srl(T3, T0, T2);
    a.andi(T3, T3, 1);
    a.slli(T1, T1, 1);
    a.or(T1, T1, T3);
    a.addi(T2, T2, 1);
    a.blt(T2, S3, rev_loop);
    a.bge(T0, T1, no_swap);
    a.slli(T4, T0, 4);
    a.add(T4, S0, T4);
    a.slli(T5, T1, 4);
    a.add(T5, S0, T5);
    a.ldf(F0, T4, 0);
    a.ldf(F1, T4, 8);
    a.ldf(F2, T5, 0);
    a.ldf(F3, T5, 8);
    a.stf(F2, T4, 0);
    a.stf(F3, T4, 8);
    a.stf(F0, T5, 0);
    a.stf(F1, T5, 8);
    a.bind(no_swap);
    a.addi(T0, T0, 1);
    a.blt(T0, S2, br_loop);

    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_f64(vm.mem_mut(), DATA_BASE, 2 * n);
    write_twiddles(vm.mem_mut(), DATA2_BASE, n);
    Ok(vm)
}

/// FIR filter: `y[i] = sum_t h[t] * x[i - t]` over `samples` doubles with
/// `taps` coefficients. Models MiBench mad's synthesis filter, rsynth's
/// formant filters, and lame's filterbank.
pub(crate) fn fir(taps: u64, samples: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // x
    a.li(S1, DATA2_BASE as i64); // h
    a.li(S2, DATA3_BASE as i64); // y
    a.li(S3, samples as i64);
    a.li(S4, taps as i64);
    let outer = a.label();
    a.bind(outer);
    let (i_loop, t_loop) = (a.label(), a.label());
    a.li(T0, taps as i64); // i starts at taps so x[i-t] stays in range
    a.bind(i_loop);
    a.fli(F0, 0.0); // acc
    a.li(T1, 0); // t
    a.bind(t_loop);
    a.sub(T2, T0, T1);
    a.slli(T2, T2, 3);
    a.add(T2, S0, T2);
    a.ldf(F1, T2, 0); // x[i-t]
    a.slli(T3, T1, 3);
    a.add(T3, S1, T3);
    a.ldf(F2, T3, 0); // h[t]
    a.fmul(F1, F1, F2);
    a.fadd(F0, F0, F1);
    a.addi(T1, T1, 1);
    a.blt(T1, S4, t_loop);
    a.slli(T4, T0, 3);
    a.add(T4, S2, T4);
    a.stf(F0, T4, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, i_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_f64(vm.mem_mut(), DATA_BASE, samples);
    g.fill_f64(vm.mem_mut(), DATA2_BASE, taps);
    Ok(vm)
}

/// IMA-style ADPCM coding over 16-bit samples: per-sample quantization with
/// step-size adaptation through lookup tables and data-dependent branches.
/// Models MiBench adpcm and MediaBench g721. `decode` flips the
/// reconstruct-vs-quantize ordering (same tables, slightly different branch
/// mix, like rawcaudio vs rawdaudio).
pub(crate) fn adpcm(samples: u64, decode: bool, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // input samples (i16)
    a.li(S1, DATA2_BASE as i64); // step table (89 x i64)
    a.li(S2, DATA3_BASE as i64); // output
    a.li(S3, samples as i64);
    a.li(S4, 0); // valpred
    a.li(S5, 0); // index
    let outer = a.label();
    a.bind(outer);
    let i_loop = a.label();
    a.li(T0, 0);
    a.bind(i_loop);
    // Load sample (sign-extend 16-bit by shifting).
    a.slli(T1, T0, 1);
    a.add(T1, S0, T1);
    a.ld2(T2, T1, 0);
    a.slli(T2, T2, 48);
    a.srai(T2, T2, 48);
    // step = steptable[index]
    a.slli(T3, S5, 3);
    a.add(T3, S1, T3);
    a.ld8(T4, T3, 0); // step
    // diff = sample - valpred ; sign handling
    let (pos, signdone) = (a.label(), a.label());
    a.sub(T5, T2, S4);
    a.li(T6, 0); // sign bit
    a.bge(T5, ZERO, pos);
    a.sub(T5, ZERO, T5);
    a.li(T6, 8);
    a.bind(pos);
    // Intentional jump-to-fallthrough (mica-lint warns): the positive arm's
    // merge jump, kept for the characterized control mix.
    a.jmp(signdone);
    a.bind(signdone);
    // Quantize: delta = 0; 3 data-dependent comparisons against step.
    let (skip1, skip2, skip3) = (a.label(), a.label(), a.label());
    a.li(T7, 0); // delta
    a.blt(T5, T4, skip1);
    a.ori(T7, T7, 4);
    a.sub(T5, T5, T4);
    a.bind(skip1);
    a.srai(T4, T4, 1);
    a.blt(T5, T4, skip2);
    a.ori(T7, T7, 2);
    a.sub(T5, T5, T4);
    a.bind(skip2);
    a.srai(T4, T4, 1);
    a.blt(T5, T4, skip3);
    a.ori(T7, T7, 1);
    a.bind(skip3);
    a.or(T7, T7, T6); // add sign bit
    // Reconstruct valpred (decode path recomputes from delta; encode path
    // shares the same arithmetic — like the reference codec).
    a.slli(T8, S5, 3);
    a.add(T8, S1, T8);
    a.ld8(T4, T8, 0); // reload step
    // vpdiff = step >> 3 + contributions
    let (nod4, nod2, nod1, possum) = (a.label(), a.label(), a.label(), a.label());
    a.srai(T9, T4, 3);
    a.andi(T1, T7, 4);
    a.beq(T1, ZERO, nod4);
    a.add(T9, T9, T4);
    a.bind(nod4);
    a.andi(T1, T7, 2);
    a.beq(T1, ZERO, nod2);
    a.srai(T2, T4, 1);
    a.add(T9, T9, T2);
    a.bind(nod2);
    a.andi(T1, T7, 1);
    a.beq(T1, ZERO, nod1);
    a.srai(T2, T4, 2);
    a.add(T9, T9, T2);
    a.bind(nod1);
    a.andi(T1, T7, 8);
    a.beq(T1, ZERO, possum);
    a.sub(T9, ZERO, T9);
    a.bind(possum);
    a.add(S4, S4, T9);
    // Clamp valpred to 16-bit range.
    let (no_hi, no_lo) = (a.label(), a.label());
    a.li(T1, 32767);
    a.blt(S4, T1, no_hi);
    a.mov(S4, T1);
    a.bind(no_hi);
    a.li(T1, -32768);
    a.bge(S4, T1, no_lo);
    a.mov(S4, T1);
    a.bind(no_lo);
    // index += indexTable[delta & 7] (inline table via arithmetic:
    // {-1,-1,-1,-1,2,4,6,8}), clamp to [0, 88].
    let (small, idxdone, no_ilo, no_ihi) = (a.label(), a.label(), a.label(), a.label());
    a.andi(T1, T7, 7);
    a.slti(T2, T1, 4);
    a.bne(T2, ZERO, small);
    a.addi(T2, T1, -3);
    a.slli(T2, T2, 1);
    a.add(S5, S5, T2);
    a.jmp(idxdone);
    a.bind(small);
    a.addi(S5, S5, -1);
    a.bind(idxdone);
    a.bge(S5, ZERO, no_ilo);
    a.li(S5, 0);
    a.bind(no_ilo);
    a.li(T2, 88);
    a.bge(T2, S5, no_ihi);
    a.li(S5, 88);
    a.bind(no_ihi);
    // Emit: encode stores the 4-bit code, decode stores the sample.
    a.slli(T1, T0, if decode { 1 } else { 0 } as u8);
    a.add(T1, S2, T1);
    if decode {
        a.st2(S4, T1, 0);
    } else {
        a.st1(T7, T1, 0);
    }
    a.addi(T0, T0, 1);
    a.blt(T0, S3, i_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_audio(vm.mem_mut(), DATA_BASE, samples);
    // IMA step table (89 entries).
    let mut step = 7f64;
    for i in 0..89u64 {
        vm.mem_mut().write_le(DATA2_BASE + i * 8, 8, step as u64);
        step *= 1.1;
    }
    Ok(vm)
}

/// 8x8 block DCT with quantization over a grayscale image: the compute core
/// of JPEG/MPEG-style codecs (CommBench jpeg, MiBench jpeg, MediaBench
/// mpeg2/epic pipelines). `quality` scales the quantizer.
pub(crate) fn dct8x8(blocks: u64, quality: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // input bytes
    a.li(S1, DATA2_BASE as i64); // 8x8 DCT coefficient table (f64)
    a.li(S2, DATA3_BASE as i64); // output (i16)
    a.li(S3, blocks as i64);
    a.li(S6, (DATA2_BASE + 64 * 8) as i64); // scratch 8x8 (f64)
    a.fli(F15, quality.max(1) as f64);
    let outer = a.label();
    a.bind(outer);
    let b_loop = a.label();
    a.li(S4, 0); // block index
    a.bind(b_loop);
    a.slli(S5, S4, 6);
    a.add(S5, S0, S5); // block base (64 bytes)

    // Pass 1: rows. scratch[u][x] = sum_y c[u][y] * in[y][x]
    let (u1, x1, y1) = (a.label(), a.label(), a.label());
    a.li(T0, 0); // u
    a.bind(u1);
    a.li(T1, 0); // x
    a.bind(x1);
    a.fli(F0, 0.0);
    a.li(T2, 0); // y
    a.bind(y1);
    a.slli(T3, T0, 3);
    a.add(T3, T3, T2);
    a.slli(T3, T3, 3);
    a.add(T3, S1, T3);
    a.ldf(F1, T3, 0); // c[u][y]
    a.slli(T4, T2, 3);
    a.add(T4, T4, T1);
    a.add(T4, S5, T4);
    a.ld1(T5, T4, 0); // in[y][x]
    a.fcvtif(F2, T5);
    a.fmul(F1, F1, F2);
    a.fadd(F0, F0, F1);
    a.addi(T2, T2, 1);
    a.slti(T6, T2, 8);
    a.bne(T6, ZERO, y1);
    a.slli(T3, T0, 3);
    a.add(T3, T3, T1);
    a.slli(T3, T3, 3);
    a.add(T3, S6, T3);
    a.stf(F0, T3, 0);
    a.addi(T1, T1, 1);
    a.slti(T6, T1, 8);
    a.bne(T6, ZERO, x1);
    a.addi(T0, T0, 1);
    a.slti(T6, T0, 8);
    a.bne(T6, ZERO, u1);

    // Pass 2: columns + quantize. out[u][v] = round(sum_x scratch[u][x] *
    // c[v][x] / q)
    let (u2, v2, x2) = (a.label(), a.label(), a.label());
    a.li(T0, 0); // u
    a.bind(u2);
    a.li(T1, 0); // v
    a.bind(v2);
    a.fli(F0, 0.0);
    a.li(T2, 0); // x
    a.bind(x2);
    a.slli(T3, T0, 3);
    a.add(T3, T3, T2);
    a.slli(T3, T3, 3);
    a.add(T3, S6, T3);
    a.ldf(F1, T3, 0);
    a.slli(T4, T1, 3);
    a.add(T4, T4, T2);
    a.slli(T4, T4, 3);
    a.add(T4, S1, T4);
    a.ldf(F2, T4, 0);
    a.fmul(F1, F1, F2);
    a.fadd(F0, F0, F1);
    a.addi(T2, T2, 1);
    a.slti(T6, T2, 8);
    a.bne(T6, ZERO, x2);
    a.fdiv(F0, F0, F15);
    a.fcvtfi(T5, F0);
    a.slli(T3, T0, 3);
    a.add(T3, T3, T1);
    a.slli(T3, T3, 1);
    a.slli(T4, S4, 7);
    a.add(T3, T3, T4);
    a.add(T3, S2, T3);
    a.st2(T5, T3, 0);
    a.addi(T1, T1, 1);
    a.slti(T6, T1, 8);
    a.bne(T6, ZERO, v2);
    a.addi(T0, T0, 1);
    a.slti(T6, T0, 8);
    a.bne(T6, ZERO, u2);

    a.addi(S4, S4, 1);
    a.blt(S4, S3, b_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_image(vm.mem_mut(), DATA_BASE, 64, blocks.max(1));
    // DCT-II coefficient table c[u][y].
    for u in 0..8u64 {
        for y in 0..8u64 {
            let c = if u == 0 { (1.0f64 / 8.0).sqrt() } else { 0.5 }
                * ((2.0 * y as f64 + 1.0) * u as f64 * std::f64::consts::PI / 16.0).cos();
            vm.mem_mut().write_f64(DATA2_BASE + (u * 8 + y) * 8, c);
        }
    }
    Ok(vm)
}

/// One-dimensional Haar-style lifting wavelet over an integer signal,
/// `levels` octaves, optionally inverse. Models MediaBench epic/unepic.
pub(crate) fn wavelet(
    len: u64,
    levels: u64,
    inverse: bool,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // signal (i64)
    if !inverse {
        a.li(S1, DATA2_BASE as i64); // detail output (forward only)
    }
    a.li(S2, len as i64);
    a.li(S3, levels.max(1) as i64);
    let outer = a.label();
    a.bind(outer);
    let (lvl_loop, i_loop, lvl_end) = (a.label(), a.label(), a.label());
    a.li(T8, 0); // level
    a.mov(T9, S2); // current length
    a.bind(lvl_loop);
    a.srli(T7, T9, 1); // half
    a.beq(T7, ZERO, lvl_end);
    a.li(T0, 0); // i
    a.bind(i_loop);
    a.slli(T1, T0, 4); // 2i * 8
    a.add(T1, S0, T1);
    a.ld8(T2, T1, 0); // x[2i]
    a.ld8(T3, T1, 8); // x[2i+1]
    if inverse {
        // Reconstruct pair from average + detail.
        a.add(T4, T2, T3); // a + d
        a.sub(T5, T2, T3); // a - d
        a.st8(T4, T1, 0);
        a.st8(T5, T1, 8);
    } else {
        a.add(T4, T2, T3);
        a.srai(T4, T4, 1); // average
        a.sub(T5, T2, T3); // detail
        a.slli(T6, T0, 3);
        a.add(T6, S0, T6);
        a.st8(T4, T6, 0); // pack averages at the front
        a.slli(T6, T0, 3);
        a.add(T6, S1, T6);
        a.st8(T5, T6, 0); // details to the side band
    }
    a.addi(T0, T0, 1);
    a.blt(T0, T7, i_loop);
    a.mov(T9, T7);
    a.addi(T8, T8, 1);
    a.blt(T8, S3, lvl_loop);
    a.bind(lvl_end);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_u64_below(vm.mem_mut(), DATA_BASE, len, 4096);
    Ok(vm)
}

/// Scalar math loops: Newton square roots, cubic polynomial evaluation and
/// integer GCDs — MiBench basicmath.
pub(crate) fn basicmath(values: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // f64 inputs
    a.li(S1, DATA2_BASE as i64); // u64 pairs for gcd
    a.li(S2, values as i64);
    let outer = a.label();
    a.bind(outer);
    let i_loop = a.label();
    a.li(T0, 0);
    a.bind(i_loop);
    a.slli(T1, T0, 3);
    a.add(T1, S0, T1);
    a.ldf(F0, T1, 0);
    a.fabs(F0, F0);
    // Newton iteration for sqrt: 6 fixed rounds.
    a.fli(F1, 1.0);
    for _ in 0..6 {
        a.fdiv(F2, F0, F1);
        a.fadd(F1, F1, F2);
        a.fli(F3, 0.5);
        a.fmul(F1, F1, F3);
    }
    // Cubic evaluation p(x) = ((x + 1)x + 2)x + 3 at x = sqrt result.
    a.fli(F4, 1.0);
    a.fadd(F4, F1, F4);
    a.fmul(F4, F4, F1);
    a.fli(F5, 2.0);
    a.fadd(F4, F4, F5);
    a.fmul(F4, F4, F1);
    a.fli(F5, 3.0);
    a.fadd(F4, F4, F5);
    a.stf(F4, T1, 0);
    // Integer GCD of a data pair (Euclid with remainder).
    a.slli(T2, T0, 4);
    a.add(T2, S1, T2);
    a.ld8(T3, T2, 0);
    a.ld8(T4, T2, 8);
    let (gcd_loop, gcd_done) = (a.label(), a.label());
    a.bind(gcd_loop);
    a.beq(T4, ZERO, gcd_done);
    a.rem(T5, T3, T4);
    a.mov(T3, T4);
    a.mov(T4, T5);
    a.jmp(gcd_loop);
    a.bind(gcd_done);
    a.st8(T3, T2, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, S2, i_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_f64(vm.mem_mut(), DATA_BASE, values);
    g.fill_u64_below(vm.mem_mut(), DATA2_BASE, values * 2, 1 << 30);
    Ok(vm)
}

/// Windowed MDCT: for each output bin, a long dot product against a
/// precomputed cosine basis over 50%-overlapped frames — the filterbank
/// core of perceptual audio coders (MiBench lame).
pub(crate) fn mdct(frames: u64, block: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let half = block / 2;
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // samples (f64)
    a.li(S1, DATA2_BASE as i64); // cos basis (half x block, f64)
    a.li(S2, DATA3_BASE as i64); // spectral output
    a.li(S3, frames as i64);
    a.li(S4, block as i64);
    a.li(S5, half as i64);
    let outer = a.label();
    a.bind(outer);
    let (f_loop, k_loop, n_loop) = (a.label(), a.label(), a.label());
    a.li(T0, 0); // frame
    a.bind(f_loop);
    a.mul(T1, T0, S5); // frame advance = half (overlap)
    a.slli(T1, T1, 3);
    a.add(T1, S0, T1); // frame base
    a.li(T2, 0); // k
    a.bind(k_loop);
    a.fli(F0, 0.0);
    a.mul(T3, T2, S4);
    a.slli(T3, T3, 3);
    a.add(T3, S1, T3); // basis row
    a.li(T4, 0); // n
    a.bind(n_loop);
    a.slli(T5, T4, 3);
    a.add(T6, T1, T5);
    a.ldf(F1, T6, 0); // x[n]
    a.add(T6, T3, T5);
    a.ldf(F2, T6, 0); // c[k][n]
    a.fmul(F1, F1, F2);
    a.fadd(F0, F0, F1);
    a.addi(T4, T4, 1);
    a.blt(T4, S4, n_loop);
    a.mul(T7, T0, S5);
    a.add(T7, T7, T2);
    a.slli(T7, T7, 3);
    a.add(T7, S2, T7);
    a.stf(F0, T7, 0);
    a.addi(T2, T2, 1);
    a.blt(T2, S5, k_loop);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, f_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_f64(vm.mem_mut(), DATA_BASE, (frames + 1) * half);
    for k in 0..half {
        for n in 0..block {
            let c = ((std::f64::consts::PI / block as f64)
                * (n as f64 + 0.5 + half as f64 / 2.0)
                * (k as f64 + 0.5))
                .cos();
            vm.mem_mut().write_f64(DATA2_BASE + (k * block + n) * 8, c);
        }
    }
    Ok(vm)
}

#[cfg(test)]
mod tests {
    use crate::kernels::test_support::{mix_of, run_fuel};
    use crate::kernels::Build;

    #[test]
    fn fft_runs_and_is_fp_heavy() {
        let vm = super::fft(8, 1, Build::Full).unwrap();
        let mix = mix_of(vm, 60_000);
        assert!(mix.fp > 0.15, "fp fraction {}", mix.fp);
        assert!(mix.loads > 0.1);
    }

    #[test]
    fn fir_runs_with_unit_stride_loads() {
        let vm = super::fir(32, 2048, 2, Build::Full).unwrap();
        let mix = mix_of(vm, 50_000);
        assert!(mix.fp > 0.15);
        assert!(mix.loads > 0.15, "loads {}", mix.loads);
    }

    #[test]
    fn adpcm_is_branchy_integer_code() {
        let vm = super::adpcm(4096, false, 3, Build::Full).unwrap();
        let mix = mix_of(vm, 50_000);
        assert!(mix.control > 0.15, "control {}", mix.control);
        assert!(mix.fp == 0.0);
    }

    #[test]
    fn adpcm_decode_variant_differs() {
        let enc = mix_of(super::adpcm(4096, false, 3, Build::Full).unwrap(), 50_000);
        let dec = mix_of(super::adpcm(4096, true, 3, Build::Full).unwrap(), 50_000);
        assert!((enc.stores - dec.stores).abs() < 0.05, "same order of stores");
    }

    #[test]
    fn dct_runs_and_mixes_fp_and_int() {
        let vm = super::dct8x8(16, 8, 4, Build::Full).unwrap();
        let mix = mix_of(vm, 80_000);
        assert!(mix.fp > 0.1, "fp {}", mix.fp);
    }

    #[test]
    fn wavelet_forward_and_inverse_run() {
        run_fuel(super::wavelet(4096, 6, false, 5, Build::Full).unwrap(), 30_000);
        run_fuel(super::wavelet(4096, 6, true, 5, Build::Full).unwrap(), 30_000);
    }

    #[test]
    fn basicmath_has_divides() {
        let vm = super::basicmath(512, 6, Build::Full).unwrap();
        let mix = mix_of(vm, 40_000);
        assert!(mix.int_mul > 0.001, "rem/div present: {}", mix.int_mul);
        assert!(mix.fp > 0.2);
    }

    #[test]
    fn mdct_is_a_dense_fp_dot_product() {
        let mix = mix_of(super::mdct(8, 64, 7, Build::Full).unwrap(), 60_000);
        assert!(mix.fp > 0.15, "fp {}", mix.fp);
        assert!(mix.loads > 0.15, "loads {}", mix.loads);
    }
}
