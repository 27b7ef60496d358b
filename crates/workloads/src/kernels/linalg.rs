//! Dense and sparse linear-algebra kernels: matrix multiply, covariance
//! accumulation, grid stencils, CSR sparse matrix-vector products, and
//! winner-take-all neural scans.

use super::Build;
use crate::data::DataGen;
use crate::{DATA2_BASE, DATA3_BASE, DATA_BASE};
use tinyisa::{regs::*, Asm, AsmError, Vm};

/// Dense double-precision matrix multiply `C = A * B` (n x n). The core of
/// the csu subspace projections, facerec, galgel and wupwise stand-ins.
pub(crate) fn gemm(n: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // A
    a.li(S1, (DATA_BASE + n * n * 8) as i64); // B
    a.li(S2, DATA2_BASE as i64); // C
    a.li(S3, n as i64);
    let outer = a.label();
    a.bind(outer);
    let (i_loop, j_loop, k_loop) = (a.label(), a.label(), a.label());
    a.li(T0, 0); // i
    a.bind(i_loop);
    a.li(T1, 0); // j
    a.bind(j_loop);
    a.fli(F0, 0.0);
    a.li(T2, 0); // k
    a.mul(T3, T0, S3);
    a.slli(T3, T3, 3);
    a.add(T3, S0, T3); // row base of A
    a.bind(k_loop);
    a.slli(T4, T2, 3);
    a.add(T4, T3, T4);
    a.ldf(F1, T4, 0); // A[i][k]
    a.mul(T5, T2, S3);
    a.add(T5, T5, T1);
    a.slli(T5, T5, 3);
    a.add(T5, S1, T5);
    a.ldf(F2, T5, 0); // B[k][j] (column walk: big strides)
    a.fmul(F1, F1, F2);
    a.fadd(F0, F0, F1);
    a.addi(T2, T2, 1);
    a.blt(T2, S3, k_loop);
    a.mul(T6, T0, S3);
    a.add(T6, T6, T1);
    a.slli(T6, T6, 3);
    a.add(T6, S2, T6);
    a.stf(F0, T6, 0);
    a.addi(T1, T1, 1);
    a.blt(T1, S3, j_loop);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, i_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_f64(vm.mem_mut(), DATA_BASE, 2 * n * n);
    Ok(vm)
}

/// Covariance-matrix accumulation over `samples` vectors of `dims` doubles:
/// `C[i][j] += x[i] * x[j]` — the training passes of csu Bayesian/subspace
/// and the GMM evaluation of speak.
pub(crate) fn covariance(dims: u64, samples: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // sample matrix
    a.li(S1, DATA2_BASE as i64); // covariance accumulator
    a.li(S2, dims as i64);
    a.li(S3, samples as i64);
    let outer = a.label();
    a.bind(outer);
    let (s_loop, i_loop, j_loop) = (a.label(), a.label(), a.label());
    a.li(T0, 0); // sample
    a.bind(s_loop);
    a.mul(T1, T0, S2);
    a.slli(T1, T1, 3);
    a.add(T1, S0, T1); // sample base
    a.li(T2, 0); // i
    a.bind(i_loop);
    a.slli(T3, T2, 3);
    a.add(T3, T1, T3);
    a.ldf(F0, T3, 0); // x[i]
    a.li(T4, 0); // j
    a.bind(j_loop);
    a.slli(T5, T4, 3);
    a.add(T5, T1, T5);
    a.ldf(F1, T5, 0); // x[j]
    a.fmul(F1, F0, F1);
    a.mul(T6, T2, S2);
    a.add(T6, T6, T4);
    a.slli(T6, T6, 3);
    a.add(T6, S1, T6);
    a.ldf(F2, T6, 0);
    a.fadd(F2, F2, F1);
    a.stf(F2, T6, 0);
    a.addi(T4, T4, 1);
    a.blt(T4, S2, j_loop);
    a.addi(T2, T2, 1);
    a.blt(T2, S2, i_loop);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, s_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_f64(vm.mem_mut(), DATA_BASE, dims * samples);
    Ok(vm)
}

/// Five-point Jacobi stencil over a `w x h` double grid, `iters` sweeps per
/// pass: applu/mgrid/swim/apsi-class structured-grid code.
pub(crate) fn stencil(w: u64, h: u64, iters: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // grid in
    a.li(S1, (DATA_BASE + w * h * 8) as i64); // grid out
    a.li(S2, w as i64);
    a.li(S3, h as i64);
    a.li(S4, iters as i64);
    a.fli(F15, 0.2);
    let outer = a.label();
    a.bind(outer);
    let (it_loop, y_loop, x_loop) = (a.label(), a.label(), a.label());
    a.li(T9, 0); // iter
    a.bind(it_loop);
    a.li(T0, 1); // y
    a.bind(y_loop);
    a.mul(T2, T0, S2);
    a.slli(T2, T2, 3);
    a.add(T2, S0, T2); // row base
    a.li(T1, 1); // x
    a.bind(x_loop);
    a.slli(T3, T1, 3);
    a.add(T3, T2, T3); // &in[y][x]
    a.ldf(F0, T3, 0);
    a.ldf(F1, T3, -8);
    a.ldf(F2, T3, 8);
    let row_bytes = (w * 8) as i64;
    a.ldf(F3, T3, -row_bytes);
    a.ldf(F4, T3, row_bytes);
    a.fadd(F0, F0, F1);
    a.fadd(F0, F0, F2);
    a.fadd(F0, F0, F3);
    a.fadd(F0, F0, F4);
    a.fmul(F0, F0, F15);
    // out[y][x]
    a.sub(T4, S1, S0);
    a.add(T4, T3, T4);
    a.stf(F0, T4, 0);
    a.addi(T1, T1, 1);
    a.addi(T5, S2, -1);
    a.blt(T1, T5, x_loop);
    a.addi(T0, T0, 1);
    a.addi(T5, S3, -1);
    a.blt(T0, T5, y_loop);
    // Swap grids.
    a.mov(T6, S0);
    a.mov(S0, S1);
    a.mov(S1, T6);
    a.addi(T9, T9, 1);
    a.blt(T9, S4, it_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_f64(vm.mem_mut(), DATA_BASE, 2 * w * h);
    Ok(vm)
}

/// CSR sparse matrix-vector product `y = A x`: equake/ammp-class irregular
/// gather traffic. `nnz_per_row` controls row density.
pub(crate) fn spmv(rows: u64, nnz_per_row: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let nnz = rows * nnz_per_row;
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // values (f64 x nnz)
    a.li(S1, (DATA_BASE + nnz * 8) as i64); // column indices (u32 x nnz)
    a.li(S2, DATA2_BASE as i64); // x vector
    a.li(S3, DATA3_BASE as i64); // y vector
    a.li(S4, rows as i64);
    a.li(S5, nnz_per_row as i64);
    let outer = a.label();
    a.bind(outer);
    let (r_loop, e_loop) = (a.label(), a.label());
    a.li(T0, 0); // row
    a.bind(r_loop);
    a.fli(F0, 0.0);
    a.mul(T1, T0, S5); // first element index
    a.li(T2, 0); // element in row
    a.bind(e_loop);
    a.add(T3, T1, T2);
    a.slli(T4, T3, 3);
    a.add(T4, S0, T4);
    a.ldf(F1, T4, 0); // value
    a.slli(T4, T3, 2);
    a.add(T4, S1, T4);
    a.ld4(T5, T4, 0); // column
    a.slli(T5, T5, 3);
    a.add(T5, S2, T5);
    a.ldf(F2, T5, 0); // x[col] — irregular gather
    a.fmul(F1, F1, F2);
    a.fadd(F0, F0, F1);
    a.addi(T2, T2, 1);
    a.blt(T2, S5, e_loop);
    a.slli(T6, T0, 3);
    a.add(T6, S3, T6);
    a.stf(F0, T6, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, S4, r_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_f64(vm.mem_mut(), DATA_BASE, nnz);
    g.fill_u32_below(vm.mem_mut(), DATA_BASE + nnz * 8, nnz, rows);
    g.fill_f64(vm.mem_mut(), DATA2_BASE, rows);
    Ok(vm)
}

/// art-class winner-take-all neural scan: repeatedly compute dot products
/// of an input vector against every prototype row and track the maximum.
pub(crate) fn nn_scan(neurons: u64, dims: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // weight matrix (neurons x dims)
    a.li(S1, DATA2_BASE as i64); // input vector
    a.li(S2, neurons as i64);
    a.li(S3, dims as i64);
    let outer = a.label();
    a.bind(outer);
    let (n_loop, d_loop, no_new_max) = (a.label(), a.label(), a.label());
    a.li(T0, 0); // neuron
    a.fli(F10, -1e300); // best
    a.li(S4, 0); // best index
    a.bind(n_loop);
    a.fli(F0, 0.0);
    a.mul(T1, T0, S3);
    a.slli(T1, T1, 3);
    a.add(T1, S0, T1);
    a.li(T2, 0); // dim
    a.bind(d_loop);
    a.slli(T3, T2, 3);
    a.add(T4, T1, T3);
    a.ldf(F1, T4, 0);
    a.add(T4, S1, T3);
    a.ldf(F2, T4, 0);
    a.fmul(F1, F1, F2);
    a.fadd(F0, F0, F1);
    a.addi(T2, T2, 1);
    a.blt(T2, S3, d_loop);
    a.fcmplt(T5, F10, F0);
    a.beq(T5, ZERO, no_new_max);
    a.fmov(F10, F0);
    a.mov(S4, T0);
    a.bind(no_new_max);
    a.addi(T0, T0, 1);
    a.blt(T0, S2, n_loop);
    // Reinforce the winner (adaptation pass).
    let adapt = a.label();
    a.mul(T1, S4, S3);
    a.slli(T1, T1, 3);
    a.add(T1, S0, T1);
    a.li(T2, 0);
    a.fli(F3, 1.001);
    a.bind(adapt);
    a.slli(T3, T2, 3);
    a.add(T4, T1, T3);
    a.ldf(F1, T4, 0);
    a.fmul(F1, F1, F3);
    a.stf(F1, T4, 0);
    a.addi(T2, T2, 1);
    a.blt(T2, S3, adapt);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_f64(vm.mem_mut(), DATA_BASE, neurons * dims);
    g.fill_f64(vm.mem_mut(), DATA2_BASE, dims);
    Ok(vm)
}

/// LU decomposition with partial pivoting over an `n x n` double matrix:
/// dense FP inner loops plus data-dependent pivot-selection branches and
/// row swaps (galgel-class dense solver behavior).
pub(crate) fn lu_solve(n: u64, seed: u64, build: Build) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // matrix (overwritten in place)
    a.li(S3, n as i64);
    let outer = a.label();
    a.bind(outer);
    // Refresh the matrix from the pristine copy at DATA2_BASE.
    let copy = a.label();
    a.li(T0, 0);
    a.mul(T9, S3, S3);
    a.li(T8, DATA2_BASE as i64);
    a.bind(copy);
    a.slli(T1, T0, 3);
    a.add(T2, T8, T1);
    a.ldf(F0, T2, 0);
    a.add(T2, S0, T1);
    a.stf(F0, T2, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, T9, copy);

    let (col_loop, pivot_scan, no_new_pivot, swap_loop, swap_done, elim_i, elim_j, elim_done) = (
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
    );
    a.li(S4, 0); // k (pivot column)
    a.bind(col_loop);
    // Find the largest |a[i][k]| for i >= k.
    a.mov(T0, S4);
    a.mov(S5, S4); // argmax
    a.fli(F10, -1.0); // max abs
    a.bind(pivot_scan);
    a.mul(T1, T0, S3);
    a.add(T1, T1, S4);
    a.slli(T1, T1, 3);
    a.add(T1, S0, T1);
    a.ldf(F0, T1, 0);
    a.fabs(F0, F0);
    a.fcmplt(T2, F10, F0);
    a.beq(T2, ZERO, no_new_pivot);
    a.fmov(F10, F0);
    a.mov(S5, T0);
    a.bind(no_new_pivot);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, pivot_scan);
    // Swap rows k and argmax.
    a.li(T0, 0);
    a.bind(swap_loop);
    a.beq(S5, S4, swap_done); // no swap needed (branch inside loop: cheap)
    a.mul(T1, S4, S3);
    a.add(T1, T1, T0);
    a.slli(T1, T1, 3);
    a.add(T1, S0, T1);
    a.mul(T2, S5, S3);
    a.add(T2, T2, T0);
    a.slli(T2, T2, 3);
    a.add(T2, S0, T2);
    a.ldf(F0, T1, 0);
    a.ldf(F1, T2, 0);
    a.stf(F1, T1, 0);
    a.stf(F0, T2, 0);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, swap_loop);
    a.bind(swap_done);
    // Eliminate below the pivot.
    a.mul(T9, S4, S3);
    a.add(T9, T9, S4);
    a.slli(T9, T9, 3);
    a.add(T9, S0, T9);
    a.ldf(F9, T9, 0); // pivot value
    a.fli(F8, 1e-30);
    a.fadd(F9, F9, F8); // avoid exact zero
    a.addi(T0, S4, 1); // i
    a.bind(elim_i);
    a.bge(T0, S3, elim_done);
    a.mul(T1, T0, S3);
    a.add(T1, T1, S4);
    a.slli(T1, T1, 3);
    a.add(T1, S0, T1);
    a.ldf(F0, T1, 0);
    a.fdiv(F0, F0, F9); // multiplier
    a.stf(F0, T1, 0);
    a.addi(T2, S4, 1); // j
    a.bind(elim_j);
    a.mul(T3, T0, S3);
    a.add(T3, T3, T2);
    a.slli(T3, T3, 3);
    a.add(T3, S0, T3);
    a.ldf(F1, T3, 0);
    a.mul(T4, S4, S3);
    a.add(T4, T4, T2);
    a.slli(T4, T4, 3);
    a.add(T4, S0, T4);
    a.ldf(F2, T4, 0);
    a.fmul(F2, F0, F2);
    a.fsub(F1, F1, F2);
    a.stf(F1, T3, 0);
    a.addi(T2, T2, 1);
    a.blt(T2, S3, elim_j);
    a.addi(T0, T0, 1);
    a.blt(T0, S3, elim_i);
    a.bind(elim_done);
    a.addi(S4, S4, 1);
    a.addi(T5, S3, -1);
    a.blt(S4, T5, col_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_f64(vm.mem_mut(), DATA2_BASE, n * n);
    // Make it diagonally dominant so elimination stays tame.
    for i in 0..n {
        vm.mem_mut().write_f64(DATA2_BASE + (i * n + i) * 8, 4.0 + g.unit_f64());
    }
    Ok(vm)
}

#[cfg(test)]
mod tests {
    use crate::kernels::test_support::mix_of;
    use crate::kernels::Build;

    #[test]
    fn gemm_is_fp_dominated() {
        let mix = mix_of(super::gemm(48, 1, Build::Full).unwrap(), 80_000);
        assert!(mix.fp > 0.12, "fp {}", mix.fp);
        assert!(mix.loads > 0.12);
    }

    #[test]
    fn covariance_streams_and_accumulates() {
        let mix = mix_of(super::covariance(32, 64, 2, Build::Full).unwrap(), 60_000);
        assert!(mix.fp > 0.15);
        assert!(mix.stores > 0.05, "read-modify-write of C: {}", mix.stores);
    }

    #[test]
    fn stencil_has_five_loads_per_store() {
        let mix = mix_of(super::stencil(64, 64, 4, 3, Build::Full).unwrap(), 60_000);
        assert!(mix.loads > 0.25, "loads {}", mix.loads);
        assert!(mix.fp > 0.2);
    }

    #[test]
    fn spmv_gathers() {
        let mix = mix_of(super::spmv(2048, 12, 4, Build::Full).unwrap(), 60_000);
        assert!(mix.loads > 0.2);
        assert!(mix.fp > 0.1);
    }

    #[test]
    fn nn_scan_runs_with_compares() {
        let mix = mix_of(super::nn_scan(64, 32, 5, Build::Full).unwrap(), 60_000);
        assert!(mix.fp > 0.2);
    }

    #[test]
    fn lu_solve_mixes_fp_with_pivot_branches() {
        let mix = mix_of(super::lu_solve(48, 6, Build::Full).unwrap(), 80_000);
        assert!(mix.fp > 0.1, "fp {}", mix.fp);
        assert!(mix.control > 0.08, "control {}", mix.control);
    }
}
