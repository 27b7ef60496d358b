//! Forward abstract interpretation over the register file: signed
//! intervals for the 32 integer registers (a singleton interval doubles as
//! a must-constant) and a flat IEEE-bits constant domain for the 32 FP
//! registers.
//!
//! Soundness contract (dynamically refuted by the harness in
//! `soundness.rs`): at every reachable instruction, the claimed
//! [`AbsState`] contains the concrete architectural state of any execution
//! that starts from the configured entry state. The entry state itself is
//! exact — [`tinyisa::Vm::new`] zeroes every register — except registers the
//! harness presets (`VerifyConfig::entry_regs`), which start at top.
//!
//! Transfer functions mirror the VM's wrapping semantics: any result that
//! *could* wrap in 64 bits goes straight to top instead of pretending the
//! arithmetic is mathematical. Widening fires at the targets of retreating
//! edges (every CFG cycle contains one, reducible or not), so the fixpoint
//! terminates on arbitrary — including irreducible — graphs.
//!
//! The computed states are spent three ways: value-range lints (every
//! memory lint reads the base-address interval, singleton or not; refuted
//! loop exits), dead-edge refutation via [`branch_outcome`], and tightening
//! the conservative indirect-target pool ([`Analysis::build`] re-resolves
//! `jr`/`callr`/`ret` whose target register is a singleton constant, then
//! re-runs the fixpoint on the smaller graph).

use crate::cfg::Cfg;
use crate::dom::{DomTree, LoopForest};
use crate::liveness::Liveness;
use crate::VerifyConfig;
use std::collections::{BTreeMap, VecDeque};
use tinyisa::{FCmpOp, Op, Program, Reg, RegRef, INST_BYTES};

/// Widen a block's in-state only after it has been updated this many times,
/// so short chains keep exact bounds and only genuine loop growth pays the
/// precision loss.
const WIDEN_AFTER: u32 = 3;

/// Upper bound on indirect-resolution rounds (each round re-runs the
/// fixpoint on a strictly smaller edge set).
const MAX_REFINE_ROUNDS: usize = 4;

/// A signed-interval abstraction of one integer register, over the i64 view
/// of the 64-bit value. A singleton interval is a must-constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntAbs {
    /// Smallest possible value (signed view).
    pub lo: i64,
    /// Largest possible value (signed view).
    pub hi: i64,
}

impl IntAbs {
    /// The unconstrained interval.
    pub const TOP: IntAbs = IntAbs { lo: i64::MIN, hi: i64::MAX };

    /// The singleton interval `[v, v]`.
    pub fn exact(v: i64) -> IntAbs {
        IntAbs { lo: v, hi: v }
    }

    /// The interval `[lo, hi]`; `lo <= hi` must hold.
    pub fn range(lo: i64, hi: i64) -> IntAbs {
        debug_assert!(lo <= hi);
        IntAbs { lo, hi }
    }

    /// The constant value, if this interval is a singleton.
    pub fn singleton(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// True if this is the unconstrained interval.
    pub fn is_top(self) -> bool {
        self == IntAbs::TOP
    }

    /// True if the concrete 64-bit value `v` (signed view) lies inside.
    pub fn contains(self, v: u64) -> bool {
        let s = v as i64;
        self.lo <= s && s <= self.hi
    }

    fn contains_val(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    fn join(self, o: IntAbs) -> IntAbs {
        IntAbs { lo: self.lo.min(o.lo), hi: self.hi.max(o.hi) }
    }

    /// Standard interval widening: any bound that moved jumps to infinity.
    fn widen(self, grown: IntAbs) -> IntAbs {
        IntAbs {
            lo: if grown.lo < self.lo { i64::MIN } else { self.lo },
            hi: if grown.hi > self.hi { i64::MAX } else { self.hi },
        }
    }

    fn intersect(self, o: IntAbs) -> Option<IntAbs> {
        let lo = self.lo.max(o.lo);
        let hi = self.hi.min(o.hi);
        (lo <= hi).then_some(IntAbs { lo, hi })
    }

    /// The interval as an unsigned range, when it does not straddle the
    /// sign bit (i64 order and u64 order agree within one sign class).
    fn as_unsigned(self) -> Option<(u64, u64)> {
        if self.lo >= 0 || self.hi < 0 {
            Some((self.lo as u64, self.hi as u64))
        } else {
            None
        }
    }
}

/// A flat constant abstraction of one FP register, over raw IEEE-754 bits.
/// Exact bit equality is the only claim — folding uses the very same Rust
/// float operations the VM executes, so the bits match or the value is top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpAbs {
    /// Holds exactly these bits on every path.
    Const(u64),
    /// Unknown.
    Top,
}

impl FpAbs {
    /// The constant value, if known.
    pub fn constant(self) -> Option<f64> {
        match self {
            FpAbs::Const(bits) => Some(f64::from_bits(bits)),
            FpAbs::Top => None,
        }
    }

    /// True if the concrete bit pattern is allowed by this abstraction.
    pub fn contains(self, bits: u64) -> bool {
        match self {
            FpAbs::Const(b) => b == bits,
            FpAbs::Top => true,
        }
    }

    fn join(self, o: FpAbs) -> FpAbs {
        match (self, o) {
            (FpAbs::Const(a), FpAbs::Const(b)) if a == b => FpAbs::Const(a),
            _ => FpAbs::Top,
        }
    }

    fn of(v: f64) -> FpAbs {
        FpAbs::Const(v.to_bits())
    }
}

/// The abstract register file at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    /// Integer registers (`x0` is pinned to `[0, 0]`).
    pub int: [IntAbs; 32],
    /// FP registers.
    pub fp: [FpAbs; 32],
}

impl AbsState {
    /// The entry state: every register exactly zero (the VM zero-fills),
    /// except harness-preset registers, which are unconstrained.
    pub fn entry(config: &VerifyConfig) -> AbsState {
        let mut st =
            AbsState { int: [IntAbs::exact(0); 32], fp: [FpAbs::of(0.0); 32] };
        for r in &config.entry_regs {
            match r {
                RegRef::Int(i) if *i != 0 => st.int[*i as usize] = IntAbs::TOP,
                RegRef::Int(_) => {}
                RegRef::Fp(i) => st.fp[*i as usize] = FpAbs::Top,
            }
        }
        st
    }

    /// The abstraction of integer register `r` (`x0` reads as exactly 0).
    pub fn read_int(&self, r: Reg) -> IntAbs {
        if r.0 == 0 {
            IntAbs::exact(0)
        } else {
            self.int[r.0 as usize]
        }
    }

    fn set_int(&mut self, r: Reg, v: IntAbs) {
        if r.0 != 0 {
            self.int[r.0 as usize] = v;
        }
    }

    fn join(&self, o: &AbsState) -> AbsState {
        let mut out = self.clone();
        for i in 0..32 {
            out.int[i] = out.int[i].join(o.int[i]);
            out.fp[i] = out.fp[i].join(o.fp[i]);
        }
        out
    }

    fn widen(&self, grown: &AbsState) -> AbsState {
        let mut out = grown.clone();
        for i in 0..32 {
            out.int[i] = self.int[i].widen(grown.int[i]);
            // The FP lattice is flat; the join already capped its height.
        }
        out
    }
}

fn fit(lo: i128, hi: i128) -> IntAbs {
    if lo >= i64::MIN as i128 && hi <= i64::MAX as i128 {
        IntAbs::range(lo as i64, hi as i64)
    } else {
        IntAbs::TOP // 64-bit wrap is possible: give up rather than lie
    }
}

fn add_i(a: IntAbs, b: IntAbs) -> IntAbs {
    fit(a.lo as i128 + b.lo as i128, a.hi as i128 + b.hi as i128)
}

fn sub_i(a: IntAbs, b: IntAbs) -> IntAbs {
    fit(a.lo as i128 - b.hi as i128, a.hi as i128 - b.lo as i128)
}

fn mul_i(a: IntAbs, b: IntAbs) -> IntAbs {
    let c = [
        a.lo as i128 * b.lo as i128,
        a.lo as i128 * b.hi as i128,
        a.hi as i128 * b.lo as i128,
        a.hi as i128 * b.hi as i128,
    ];
    fit(*c.iter().min().unwrap(), *c.iter().max().unwrap())
}

fn mulh_i(a: IntAbs, b: IntAbs) -> IntAbs {
    let (Some((al, ah)), Some((bl, bh))) = (a.as_unsigned(), b.as_unsigned()) else {
        return IntAbs::TOP;
    };
    // Unsigned high-multiply is monotone in both operands.
    let lo = ((al as u128 * bl as u128) >> 64) as u64;
    let hi = ((ah as u128 * bh as u128) >> 64) as u64;
    if hi <= i64::MAX as u64 || lo > i64::MAX as u64 {
        // Both bounds land on the same side of the sign bit, so the i64
        // reinterpretation is still an ordered interval.
        IntAbs::range(lo as i64, hi as i64)
    } else {
        IntAbs::TOP // the range straddles the sign bit
    }
}

fn vm_div(x: i64, y: i64) -> i64 {
    if y == 0 {
        -1 // the VM defines div-by-zero as u64::MAX
    } else {
        x.wrapping_div(y)
    }
}

fn vm_rem(x: i64, y: i64) -> i64 {
    if y == 0 {
        x
    } else {
        x.wrapping_rem(y)
    }
}

fn div_i(a: IntAbs, b: IntAbs) -> IntAbs {
    if let (Some(x), Some(y)) = (a.singleton(), b.singleton()) {
        return IntAbs::exact(vm_div(x, y));
    }
    if b.contains_val(0) {
        return IntAbs::TOP; // mixes quotients with the div-by-zero -1
    }
    if a.contains_val(i64::MIN) && b.contains_val(-1) {
        return IntAbs::TOP; // MIN / -1 wraps
    }
    // The divisor interval excludes 0, so the extreme quotients are at the
    // operand corners.
    let c = [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi];
    IntAbs::range(*c.iter().min().unwrap(), *c.iter().max().unwrap())
}

fn rem_i(a: IntAbs, b: IntAbs) -> IntAbs {
    if let (Some(x), Some(y)) = (a.singleton(), b.singleton()) {
        return IntAbs::exact(vm_rem(x, y));
    }
    // |x % y| < max(|y|) and the result keeps the dividend's sign
    // (MIN % -1 wraps to 0, which every branch below contains).
    let maxabs = b.lo.unsigned_abs().max(b.hi.unsigned_abs());
    let m = maxabs.saturating_sub(1).min(i64::MAX as u64) as i64;
    let nonzero = if b.contains_val(0) {
        None // handled by joining with the dividend below
    } else if a.lo >= 0 {
        Some(IntAbs::range(0, a.hi.min(m)))
    } else if a.hi <= 0 {
        Some(IntAbs::range(a.lo.max(-m), 0))
    } else {
        Some(IntAbs::range(a.lo.max(-m), a.hi.min(m)))
    };
    match nonzero {
        Some(r) if !b.contains_val(0) => r,
        Some(r) => r.join(a),
        // Divisor may be zero (rem yields the dividend) or not (bounded by
        // m): the union covers both.
        None => a.join(IntAbs::range(-m, m)),
    }
}

fn and_i(a: IntAbs, b: IntAbs) -> IntAbs {
    if let (Some(x), Some(y)) = (a.singleton(), b.singleton()) {
        return IntAbs::exact(((x as u64) & (y as u64)) as i64);
    }
    // x & y is unsigned-≤ either operand; a non-negative operand therefore
    // caps the result inside [0, operand.hi].
    let mut out = IntAbs::TOP;
    if a.lo >= 0 {
        out = out.intersect(IntAbs::range(0, a.hi)).unwrap();
    }
    if b.lo >= 0 {
        out = out.intersect(IntAbs::range(0, b.hi)).unwrap();
    }
    out
}

fn or_i(a: IntAbs, b: IntAbs) -> IntAbs {
    if let (Some(x), Some(y)) = (a.singleton(), b.singleton()) {
        return IntAbs::exact(((x as u64) | (y as u64)) as i64);
    }
    if a.lo >= 0 && b.lo >= 0 {
        // x | y ≥ max(x, y) and x | y ≤ x + y; both stay below 2^63.
        IntAbs::range(a.lo.max(b.lo), a.hi.saturating_add(b.hi))
    } else {
        IntAbs::TOP
    }
}

fn xor_i(a: IntAbs, b: IntAbs) -> IntAbs {
    if let (Some(x), Some(y)) = (a.singleton(), b.singleton()) {
        return IntAbs::exact(((x as u64) ^ (y as u64)) as i64);
    }
    if a.lo >= 0 && b.lo >= 0 {
        IntAbs::range(0, a.hi.saturating_add(b.hi)) // x ^ y ≤ x | y ≤ x + y
    } else {
        IntAbs::TOP
    }
}

/// The VM masks every shift amount to 6 bits (`wrapping_shl`/`shr`).
fn mask_shift(s: i64) -> u32 {
    (s as u64 & 63) as u32
}

fn sll_i(a: IntAbs, b: IntAbs) -> IntAbs {
    if let Some(s) = b.singleton() {
        let s = mask_shift(s);
        return fit((a.lo as i128) << s, (a.hi as i128) << s);
    }
    if a.singleton() == Some(0) {
        return IntAbs::exact(0);
    }
    IntAbs::TOP
}

fn srl_i(a: IntAbs, b: IntAbs) -> IntAbs {
    if let Some(s) = b.singleton() {
        let s = mask_shift(s);
        if s == 0 {
            return a;
        }
        if let Some((l, h)) = a.as_unsigned() {
            // Unsigned shift-right is monotone; s ≥ 1 keeps it below 2^63.
            return IntAbs::range((l >> s) as i64, (h >> s) as i64);
        }
        return IntAbs::range(0, (u64::MAX >> s) as i64);
    }
    if a.lo >= 0 {
        return IntAbs::range(0, a.hi); // shifting a non-negative only shrinks
    }
    if b.lo >= 1 && b.hi <= 63 {
        return IntAbs::range(0, (u64::MAX >> (b.lo as u32)) as i64);
    }
    IntAbs::TOP
}

fn sra_i(a: IntAbs, b: IntAbs) -> IntAbs {
    if let Some(s) = b.singleton() {
        let s = mask_shift(s);
        return IntAbs::range(a.lo >> s, a.hi >> s);
    }
    // Any shift drives values toward 0 (non-negative) or -1 (negative).
    IntAbs::range(a.lo.min(0), a.hi.max(-1))
}

/// Signed `a < b`, when decidable.
fn lt_signed(a: IntAbs, b: IntAbs) -> Option<bool> {
    if a.hi < b.lo {
        Some(true)
    } else if a.lo >= b.hi {
        Some(false)
    } else {
        None
    }
}

/// Unsigned `a < b`, when decidable.
fn lt_unsigned(a: IntAbs, b: IntAbs) -> Option<bool> {
    let (al, ah) = a.as_unsigned()?;
    let (bl, bh) = b.as_unsigned()?;
    if ah < bl {
        Some(true)
    } else if al >= bh {
        Some(false)
    } else {
        None
    }
}

/// `a == b`, when decidable.
fn eq_i(a: IntAbs, b: IntAbs) -> Option<bool> {
    if let (Some(x), Some(y)) = (a.singleton(), b.singleton()) {
        Some(x == y)
    } else if a.hi < b.lo || b.hi < a.lo {
        Some(false)
    } else {
        None
    }
}

fn bool_abs(o: Option<bool>) -> IntAbs {
    match o {
        Some(true) => IntAbs::exact(1),
        Some(false) => IntAbs::exact(0),
        None => IntAbs::range(0, 1),
    }
}

fn fold_fp2(a: FpAbs, f: impl Fn(f64) -> f64) -> FpAbs {
    match a.constant() {
        Some(x) => FpAbs::of(f(x)),
        None => FpAbs::Top,
    }
}

fn fold_fp3(a: FpAbs, b: FpAbs, f: impl Fn(f64, f64) -> f64) -> FpAbs {
    match (a.constant(), b.constant()) {
        (Some(x), Some(y)) => FpAbs::of(f(x, y)),
        _ => FpAbs::Top,
    }
}

/// Apply the abstract transfer of instruction `idx` to `st`. Mirrors the
/// VM's interpreter case by case; every approximation errs toward top.
pub fn transfer(prog: &Program, idx: usize, st: &mut AbsState) {
    let op = &prog.insts()[idx];
    match *op {
        Op::Add(d, a, b) => st.set_int(d, add_i(st.read_int(a), st.read_int(b))),
        Op::Sub(d, a, b) => st.set_int(d, sub_i(st.read_int(a), st.read_int(b))),
        Op::And(d, a, b) => st.set_int(d, and_i(st.read_int(a), st.read_int(b))),
        Op::Or(d, a, b) => st.set_int(d, or_i(st.read_int(a), st.read_int(b))),
        Op::Xor(d, a, b) => st.set_int(d, xor_i(st.read_int(a), st.read_int(b))),
        Op::Sll(d, a, b) => st.set_int(d, sll_i(st.read_int(a), st.read_int(b))),
        Op::Srl(d, a, b) => st.set_int(d, srl_i(st.read_int(a), st.read_int(b))),
        Op::Sra(d, a, b) => st.set_int(d, sra_i(st.read_int(a), st.read_int(b))),
        Op::Slt(d, a, b) => {
            st.set_int(d, bool_abs(lt_signed(st.read_int(a), st.read_int(b))))
        }
        Op::Sltu(d, a, b) => {
            st.set_int(d, bool_abs(lt_unsigned(st.read_int(a), st.read_int(b))))
        }
        Op::Addi(d, a, imm) => st.set_int(d, add_i(st.read_int(a), IntAbs::exact(imm))),
        Op::Andi(d, a, imm) => st.set_int(d, and_i(st.read_int(a), IntAbs::exact(imm))),
        Op::Ori(d, a, imm) => st.set_int(d, or_i(st.read_int(a), IntAbs::exact(imm))),
        Op::Xori(d, a, imm) => st.set_int(d, xor_i(st.read_int(a), IntAbs::exact(imm))),
        Op::Slli(d, a, sh) => {
            st.set_int(d, sll_i(st.read_int(a), IntAbs::exact(sh as i64)))
        }
        Op::Srli(d, a, sh) => {
            st.set_int(d, srl_i(st.read_int(a), IntAbs::exact(sh as i64)))
        }
        Op::Srai(d, a, sh) => {
            st.set_int(d, sra_i(st.read_int(a), IntAbs::exact(sh as i64)))
        }
        Op::Slti(d, a, imm) => {
            st.set_int(d, bool_abs(lt_signed(st.read_int(a), IntAbs::exact(imm))))
        }
        Op::Li(d, imm) => st.set_int(d, IntAbs::exact(imm)),
        Op::Mul(d, a, b) => st.set_int(d, mul_i(st.read_int(a), st.read_int(b))),
        Op::Mulh(d, a, b) => st.set_int(d, mulh_i(st.read_int(a), st.read_int(b))),
        Op::Div(d, a, b) => st.set_int(d, div_i(st.read_int(a), st.read_int(b))),
        Op::Rem(d, a, b) => st.set_int(d, rem_i(st.read_int(a), st.read_int(b))),
        Op::Fadd(d, a, b) => st.fp[d.0 as usize] = fold_fp3(st.fp[a.0 as usize], st.fp[b.0 as usize], |x, y| x + y),
        Op::Fsub(d, a, b) => st.fp[d.0 as usize] = fold_fp3(st.fp[a.0 as usize], st.fp[b.0 as usize], |x, y| x - y),
        Op::Fmul(d, a, b) => st.fp[d.0 as usize] = fold_fp3(st.fp[a.0 as usize], st.fp[b.0 as usize], |x, y| x * y),
        Op::Fdiv(d, a, b) => st.fp[d.0 as usize] = fold_fp3(st.fp[a.0 as usize], st.fp[b.0 as usize], |x, y| x / y),
        Op::Fsqrt(d, a) => st.fp[d.0 as usize] = fold_fp2(st.fp[a.0 as usize], |x| x.sqrt()),
        Op::Fabs(d, a) => st.fp[d.0 as usize] = fold_fp2(st.fp[a.0 as usize], |x| x.abs()),
        Op::Fneg(d, a) => st.fp[d.0 as usize] = fold_fp2(st.fp[a.0 as usize], |x| -x),
        Op::Fmin(d, a, b) => st.fp[d.0 as usize] = fold_fp3(st.fp[a.0 as usize], st.fp[b.0 as usize], |x, y| x.min(y)),
        Op::Fmax(d, a, b) => st.fp[d.0 as usize] = fold_fp3(st.fp[a.0 as usize], st.fp[b.0 as usize], |x, y| x.max(y)),
        Op::Fli(d, imm) => st.fp[d.0 as usize] = FpAbs::of(imm),
        Op::Fmov(d, a) => st.fp[d.0 as usize] = st.fp[a.0 as usize],
        Op::Fcvtif(d, a) => {
            st.fp[d.0 as usize] = match st.read_int(a).singleton() {
                Some(v) => FpAbs::of(v as f64),
                None => FpAbs::Top,
            }
        }
        Op::Fcvtfi(d, a) => {
            let v = st.fp[a.0 as usize]
                .constant()
                .map(|x| if x.is_nan() { 0 } else { x as i64 });
            st.set_int(d, v.map(IntAbs::exact).unwrap_or(IntAbs::TOP));
        }
        Op::Fcmp(d, a, b, cmp) => {
            let v = match (st.fp[a.0 as usize].constant(), st.fp[b.0 as usize].constant()) {
                (Some(x), Some(y)) => Some(match cmp {
                    FCmpOp::Lt => x < y,
                    FCmpOp::Le => x <= y,
                    FCmpOp::Eq => x == y,
                }),
                _ => None,
            };
            st.set_int(d, bool_abs(v));
        }
        Op::Ld(d, _, _, w) => {
            // Loads are unmodeled memory, but a narrow load zero-extends.
            let v = match w.bytes() {
                8 => IntAbs::TOP,
                b => IntAbs::range(0, (1i64 << (8 * b)) - 1),
            };
            st.set_int(d, v);
        }
        Op::Ldf(d, _, _) => st.fp[d.0 as usize] = FpAbs::Top,
        Op::Call(_) | Op::Callr(_) => {
            // The RA write: the exact return byte address.
            st.int[31] = IntAbs::exact(prog.pc_of(idx + 1) as i64);
        }
        Op::St(..)
        | Op::Stf(..)
        | Op::Beq(..)
        | Op::Bne(..)
        | Op::Blt(..)
        | Op::Bge(..)
        | Op::Bltu(..)
        | Op::Bgeu(..)
        | Op::Jmp(_)
        | Op::Jr(_)
        | Op::Ret
        | Op::Halt => {}
    }
}

/// The statically-known outcome of a conditional branch in state `st`:
/// `Some(true)` = always taken, `Some(false)` = never taken, `None` =
/// undecidable. Non-branches return `None`.
pub fn branch_outcome(op: &Op, st: &AbsState) -> Option<bool> {
    match *op {
        Op::Beq(a, b, _) => eq_i(st.read_int(a), st.read_int(b)),
        Op::Bne(a, b, _) => eq_i(st.read_int(a), st.read_int(b)).map(|e| !e),
        Op::Blt(a, b, _) => lt_signed(st.read_int(a), st.read_int(b)),
        Op::Bge(a, b, _) => lt_signed(st.read_int(a), st.read_int(b)).map(|l| !l),
        Op::Bltu(a, b, _) => lt_unsigned(st.read_int(a), st.read_int(b)),
        Op::Bgeu(a, b, _) => lt_unsigned(st.read_int(a), st.read_int(b)).map(|l| !l),
        _ => None,
    }
}

/// Exclude value `v` from an interval, when it sits on an endpoint.
fn exclude(a: IntAbs, v: i64) -> Option<IntAbs> {
    if let Some(x) = a.singleton() {
        return (x != v).then_some(a);
    }
    if a.lo == v {
        Some(IntAbs::range(v + 1, a.hi))
    } else if a.hi == v {
        Some(IntAbs::range(a.lo, v - 1))
    } else {
        Some(a)
    }
}

/// The state on one outgoing edge of a conditional branch: `st` constrained
/// by the branch outcome, or `None` if that outcome is infeasible.
fn refine_edge(op: &Op, taken: bool, st: &AbsState) -> Option<AbsState> {
    if branch_outcome(op, st) == Some(!taken) {
        return None; // the interval analysis already refutes this edge
    }
    let mut out = st.clone();
    let constrain = |r: Reg, v: IntAbs, out: &mut AbsState| -> bool {
        if r.0 == 0 {
            return v.contains_val(0);
        }
        match out.int[r.0 as usize].intersect(v) {
            Some(n) => {
                out.int[r.0 as usize] = n;
                true
            }
            None => false,
        }
    };
    let feasible = match (*op, taken) {
        (Op::Beq(a, b, _), true) | (Op::Bne(a, b, _), false) => {
            // a == b: both collapse to the intersection.
            match st.read_int(a).intersect(st.read_int(b)) {
                Some(n) => constrain(a, n, &mut out) && constrain(b, n, &mut out),
                None => false,
            }
        }
        (Op::Beq(a, b, _), false) | (Op::Bne(a, b, _), true) => {
            // a != b: only a singleton on one side can trim the other.
            let (ia, ib) = (st.read_int(a), st.read_int(b));
            let na = match ib.singleton() {
                Some(v) => exclude(ia, v),
                None => Some(ia),
            };
            let nb = match ia.singleton() {
                Some(v) => exclude(ib, v),
                None => Some(ib),
            };
            match (na, nb) {
                (Some(na), Some(nb)) => constrain(a, na, &mut out) && constrain(b, nb, &mut out),
                _ => false,
            }
        }
        (Op::Blt(a, b, _), true) | (Op::Bge(a, b, _), false) => {
            // a < b
            let (ia, ib) = (st.read_int(a), st.read_int(b));
            ib.hi != i64::MIN
                && ia.lo != i64::MAX
                && constrain(a, IntAbs::range(i64::MIN, ib.hi - 1), &mut out)
                && constrain(b, IntAbs::range(ia.lo + 1, i64::MAX), &mut out)
        }
        (Op::Blt(a, b, _), false) | (Op::Bge(a, b, _), true) => {
            // a >= b
            let (ia, ib) = (st.read_int(a), st.read_int(b));
            constrain(a, IntAbs::range(ib.lo, i64::MAX), &mut out)
                && constrain(b, IntAbs::range(i64::MIN, ia.hi), &mut out)
        }
        // Unsigned comparisons: feasibility was already checked above;
        // interval trimming across the sign boundary is not worth the
        // subtlety, so pass the state through unchanged.
        (Op::Bltu(..), _) | (Op::Bgeu(..), _) => true,
        _ => true, // not a conditional branch
    };
    feasible.then_some(out)
}

/// Run the widening fixpoint over `cfg`, returning the abstract state at
/// the entry of every instruction (`None` = statically unreachable).
fn run_fixpoint(prog: &Program, cfg: &Cfg, config: &VerifyConfig) -> Vec<Option<AbsState>> {
    let insts = prog.insts();
    let nb = cfg.blocks().len();

    // Widening points: targets of retreating edges in some RPO. Every
    // cycle — natural or irreducible — has one, which bounds the fixpoint.
    let dom = DomTree::compute(cfg);
    let mut widen_point = vec![false; nb];
    for &u in dom.rpo() {
        for &v in &cfg.blocks()[u].succs {
            if let (Some(iv), Some(iu)) = (dom.rpo_index(v), dom.rpo_index(u)) {
                if iv <= iu {
                    widen_point[v] = true;
                }
            }
        }
    }

    let mut inb: Vec<Option<AbsState>> = vec![None; nb];
    inb[0] = Some(AbsState::entry(config));
    let mut updates = vec![0u32; nb];
    let mut queue: VecDeque<usize> = VecDeque::from([0]);
    let mut queued = vec![false; nb];
    queued[0] = true;
    // Belt-and-braces cap: past it, widen on every update, which forces
    // convergence in a handful of further passes.
    let cap = 128 * (nb + 1);
    let mut steps = 0usize;

    while let Some(b) = queue.pop_front() {
        queued[b] = false;
        steps += 1;
        let force_widen = steps > cap;
        let Some(start_state) = inb[b].clone() else { continue };

        let block = &cfg.blocks()[b];
        let mut st = start_state;
        for idx in block.start..block.end {
            transfer(prog, idx, &mut st);
        }
        let last = block.last();
        let term = &insts[last];
        let taken_block = term.flow().direct_target().map(|t| cfg.block_of(t));
        let fall_block = (last + 1 < insts.len()).then(|| cfg.block_of(last + 1));

        for &s in &block.succs {
            let edge_state = if matches!(term.flow(), tinyisa::Flow::Branch(_)) {
                if Some(s) == taken_block && Some(s) == fall_block {
                    // Degenerate branch-to-fallthrough: both outcomes land
                    // here, so no constraint applies.
                    Some(st.clone())
                } else if Some(s) == taken_block {
                    refine_edge(term, true, &st)
                } else {
                    refine_edge(term, false, &st)
                }
            } else {
                Some(st.clone())
            };
            let Some(es) = edge_state else { continue };
            let joined = match &inb[s] {
                None => es,
                Some(old) => old.join(&es),
            };
            let next = if widen_point[s] && (updates[s] >= WIDEN_AFTER || force_widen) {
                match &inb[s] {
                    Some(old) => old.widen(&joined),
                    None => joined,
                }
            } else {
                joined
            };
            if inb[s].as_ref() != Some(&next) {
                inb[s] = Some(next);
                updates[s] += 1;
                if !queued[s] {
                    queued[s] = true;
                    queue.push_back(s);
                }
            }
        }
    }

    // Expand block-entry states to per-instruction states.
    let mut inst_in: Vec<Option<AbsState>> = vec![None; insts.len()];
    for (bi, block) in cfg.blocks().iter().enumerate() {
        if let Some(entry) = &inb[bi] {
            let mut st = entry.clone();
            for (off, slot) in inst_in[block.start..block.end].iter_mut().enumerate() {
                *slot = Some(st.clone());
                transfer(prog, block.start + off, &mut st);
            }
        }
    }
    inst_in
}

/// Resolve indirect terminators whose target register is a singleton
/// constant naming a block leader: `block index -> target instruction`.
fn resolve_indirect(
    prog: &Program,
    cfg: &Cfg,
    inst_in: &[Option<AbsState>],
) -> BTreeMap<usize, usize> {
    let insts = prog.insts();
    let mut resolved = BTreeMap::new();
    for (bi, block) in cfg.blocks().iter().enumerate() {
        if !cfg.is_reachable(bi) {
            continue;
        }
        let last = block.last();
        let reg = match insts[last] {
            Op::Jr(r) | Op::Callr(r) => r,
            Op::Ret => Reg(31),
            _ => continue,
        };
        let Some(st) = &inst_in[last] else { continue };
        let Some(v) = st.read_int(reg).singleton() else { continue };
        let addr = v as u64;
        let base = prog.base();
        if addr < base || !(addr - base).is_multiple_of(INST_BYTES) {
            continue;
        }
        let t = ((addr - base) / INST_BYTES) as usize;
        if t >= insts.len() {
            continue;
        }
        // Only a block leader can become the single successor without
        // re-carving blocks; non-leader targets keep the conservative pool.
        if cfg.blocks()[cfg.block_of(t)].start == t {
            resolved.insert(bi, t);
        }
    }
    resolved
}

/// Every analysis this crate computes for one program, over a shared
/// (possibly indirect-refined) CFG: natural loops, liveness, and
/// per-instruction abstract states.
#[derive(Debug, Clone)]
pub struct Analysis {
    cfg: Cfg,
    loops: LoopForest,
    liveness: Liveness,
    inst_in: Vec<Option<AbsState>>,
    refined_blocks: usize,
    rounds: usize,
}

impl Analysis {
    /// Build the full analysis bundle: run the abstract interpretation,
    /// use singleton targets to narrow indirect edges, re-run on the
    /// refined graph until nothing else resolves (at most
    /// [`MAX_REFINE_ROUNDS`] rounds), then derive loops and liveness from
    /// the final CFG.
    pub fn build(prog: &Program, config: &VerifyConfig) -> Analysis {
        let mut cfg = Cfg::build(prog);
        let mut resolved: BTreeMap<usize, usize> = BTreeMap::new();
        let mut rounds = 0;
        let inst_in = loop {
            rounds += 1;
            let inst_in = run_fixpoint(prog, &cfg, config);
            if rounds >= MAX_REFINE_ROUNDS {
                break inst_in;
            }
            let found = resolve_indirect(prog, &cfg, &inst_in);
            // Only edge-set changes warrant another fixpoint round; proven
            // targets that match the conservative pool still count as
            // resolved.
            let fresh: Vec<(usize, usize)> = found
                .iter()
                .map(|(&b, &t)| (b, t))
                .filter(|&(b, t)| cfg.blocks()[b].succs != [cfg.block_of(t)])
                .collect();
            resolved.extend(found);
            if fresh.is_empty() {
                break inst_in;
            }
            cfg = cfg.refine_indirect(&resolved);
        };
        let dom = DomTree::compute(&cfg);
        let loops = LoopForest::compute(&cfg, &dom);
        let liveness = Liveness::compute(prog, &cfg);
        Analysis {
            cfg,
            loops,
            liveness,
            inst_in,
            refined_blocks: resolved.len(),
            rounds,
        }
    }

    /// The CFG all other analyses are computed over (indirect edges
    /// narrowed where constant propagation resolved them).
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The natural-loop forest.
    pub fn loops(&self) -> &LoopForest {
        &self.loops
    }

    /// Liveness facts.
    pub fn liveness(&self) -> &Liveness {
        &self.liveness
    }

    /// The abstract state on entry to instruction `idx`, `None` if the
    /// instruction is statically unreachable.
    pub fn inst_state(&self, idx: usize) -> Option<&AbsState> {
        self.inst_in[idx].as_ref()
    }

    /// How many indirect terminators were narrowed to a single target.
    pub fn refined_blocks(&self) -> usize {
        self.refined_blocks
    }

    /// Fixpoint/refinement rounds run (1 = nothing resolved).
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::{regs::*, Asm};

    fn analyze(f: impl FnOnce(&mut Asm)) -> (Program, Analysis) {
        let mut a = Asm::new();
        f(&mut a);
        let p = a.assemble().unwrap();
        let an = Analysis::build(&p, &VerifyConfig::default());
        (p, an)
    }

    #[test]
    fn straight_line_constants_stay_exact() {
        let (_, an) = analyze(|a| {
            a.li(T0, 10);
            a.addi(T1, T0, 5);
            a.mul(T2, T1, T0);
            a.sub(T3, T2, T1);
            a.halt(); // idx 4
        });
        let st = an.inst_state(4).unwrap();
        assert_eq!(st.read_int(T1).singleton(), Some(15));
        assert_eq!(st.read_int(T2).singleton(), Some(150));
        assert_eq!(st.read_int(T3).singleton(), Some(135));
    }

    #[test]
    fn entry_state_is_exactly_zero() {
        let (_, an) = analyze(|a| {
            a.add(T0, T1, T2); // everything still zero
            a.halt();
        });
        let st = an.inst_state(1).unwrap();
        assert_eq!(st.read_int(T0).singleton(), Some(0));
        assert_eq!(st.fp[3], FpAbs::of(0.0));
    }

    #[test]
    fn entry_regs_are_top() {
        let mut a = Asm::new();
        a.halt();
        let p = a.assemble().unwrap();
        let config = VerifyConfig {
            entry_regs: vec![RegRef::Int(1), RegRef::Fp(0)],
            ..VerifyConfig::default()
        };
        let an = Analysis::build(&p, &config);
        let st = an.inst_state(0).unwrap();
        assert!(st.read_int(A0).is_top());
        assert_eq!(st.fp[0], FpAbs::Top);
        assert_eq!(st.read_int(T0).singleton(), Some(0));
    }

    #[test]
    fn loop_counter_widens_to_a_sound_range() {
        let (_, an) = analyze(|a| {
            let head = a.label();
            a.li(T0, 0);
            a.bind(head);
            a.addi(T0, T0, 1); // idx 1
            a.slti(T1, T0, 9);
            a.bne(T1, ZERO, head);
            a.halt(); // idx 4
        });
        // The header state must contain every concrete counter value
        // (0, 1, ..., 8 on entry to the addi).
        let st = an.inst_state(1).unwrap();
        for v in 0..=8u64 {
            assert!(st.read_int(T0).contains(v), "{:?} missing {v}", st.read_int(T0));
        }
        // And the flag is always 0/1.
        let st4 = an.inst_state(4).unwrap();
        assert!(IntAbs::range(0, 1).intersect(st4.read_int(T1)).is_some());
    }

    #[test]
    fn branch_refinement_constrains_the_taken_edge() {
        let (_, an) = analyze(|a| {
            let big = a.label();
            a.li(T0, 7);
            a.blt(T0, T1, big); // T1 is 0: never taken (7 < 0 is false)
            a.addi(T2, T0, 1); // idx 2: fallthrough, T0 = 7
            a.halt();
            a.bind(big);
            a.halt(); // idx 4: statically unreachable via refutation
        });
        assert_eq!(an.inst_state(2).unwrap().read_int(T0).singleton(), Some(7));
        // The refuted edge leaves the taken block unreached.
        assert!(an.inst_state(4).is_none(), "refuted branch target must stay bottom");
    }

    #[test]
    fn fp_constants_fold_bit_exactly() {
        let (_, an) = analyze(|a| {
            a.fli(F0, 0.1);
            a.fli(F1, 0.2);
            a.fadd(F2, F0, F1);
            a.fsqrt(F3, F2);
            a.fcvtfi(T0, F3);
            a.fcmplt(T1, F0, F1);
            a.halt(); // idx 6
        });
        let st = an.inst_state(6).unwrap();
        let expect = (0.1f64 + 0.2).sqrt();
        assert_eq!(st.fp[3], FpAbs::of(expect));
        assert_eq!(st.read_int(T0).singleton(), Some(expect as i64));
        assert_eq!(st.read_int(T1).singleton(), Some(1));
    }

    #[test]
    fn division_semantics_match_the_vm() {
        let (_, an) = analyze(|a| {
            a.li(T0, 42);
            a.div(T1, T0, ZERO); // div-by-zero: u64::MAX = -1 signed
            a.rem(T2, T0, ZERO); // rem-by-zero: dividend
            a.halt(); // idx 3
        });
        let st = an.inst_state(3).unwrap();
        assert_eq!(st.read_int(T1).singleton(), Some(-1));
        assert_eq!(st.read_int(T2).singleton(), Some(42));
    }

    #[test]
    fn narrow_loads_are_bounded_by_width() {
        let (_, an) = analyze(|a| {
            a.li(T0, 0x8000);
            a.ld1(T1, T0, 0);
            a.ld8(T2, T0, 0);
            a.halt(); // idx 3
        });
        let st = an.inst_state(3).unwrap();
        assert_eq!(st.read_int(T1), IntAbs::range(0, 255));
        assert!(st.read_int(T2).is_top());
    }

    #[test]
    fn ret_through_exact_ra_is_resolved_to_one_edge() {
        let (p, an) = analyze(|a| {
            let (f, after) = (a.label(), a.label());
            a.call(f); // 0
            a.jmp(after); // 1: the return site
            a.bind(f);
            a.addi(A0, A0, 1); // 2
            a.ret(); // 3
            a.bind(after);
            a.halt(); // 4
        });
        assert_eq!(an.refined_blocks(), 1);
        let ret_block = an.cfg().block_of(3);
        let ret_site = an.cfg().block_of(1);
        assert_eq!(an.cfg().blocks()[ret_block].succs, vec![ret_site]);
        // RA at the ret is the exact return address.
        let st = an.inst_state(3).unwrap();
        assert_eq!(st.read_int(RA).singleton(), Some(p.pc_of(1) as i64));
    }

    #[test]
    fn jr_through_li_text_address_is_resolved() {
        let (_, an) = analyze(|a| {
            a.li(T0, (0x1_0000 + 2 * INST_BYTES) as i64); // address of idx 2
            a.jr(T0); // 1
            a.halt(); // 2: pool member and actual target
        });
        assert_eq!(an.refined_blocks(), 1);
        let jr_block = an.cfg().block_of(1);
        assert_eq!(an.cfg().blocks()[jr_block].succs, vec![an.cfg().block_of(2)]);
    }

    #[test]
    fn two_call_sites_keep_ret_conservative() {
        let (_, an) = analyze(|a| {
            let (f, after) = (a.label(), a.label());
            a.call(f); // 0
            a.call(f); // 1 -> two return sites join RA to non-singleton
            a.jmp(after); // 2
            a.bind(f);
            a.ret(); // 3
            a.bind(after);
            a.halt(); // 4
        });
        assert_eq!(an.refined_blocks(), 0);
        let ret_block = an.cfg().block_of(3);
        assert!(an.cfg().blocks()[ret_block].succs.len() >= 2);
    }

    #[test]
    fn branch_outcome_decides_constant_comparisons() {
        let mut st = AbsState::entry(&VerifyConfig::default());
        st.int[7] = IntAbs::exact(5); // T0
        st.int[8] = IntAbs::range(10, 20); // T1
        assert_eq!(branch_outcome(&Op::Blt(T0, T1, 0), &st), Some(true));
        assert_eq!(branch_outcome(&Op::Bge(T0, T1, 0), &st), Some(false));
        assert_eq!(branch_outcome(&Op::Beq(T0, T1, 0), &st), Some(false));
        st.int[8] = IntAbs::range(0, 20);
        assert_eq!(branch_outcome(&Op::Blt(T0, T1, 0), &st), None);
    }

    #[test]
    fn interval_arithmetic_goes_top_on_possible_wrap() {
        let a = IntAbs::range(i64::MAX - 1, i64::MAX);
        assert!(add_i(a, IntAbs::exact(2)).is_top());
        assert_eq!(add_i(a, IntAbs::exact(-1)), IntAbs::range(i64::MAX - 2, i64::MAX - 1));
        assert!(mul_i(a, a).is_top());
        assert!(sll_i(IntAbs::exact(1), IntAbs::exact(63)).is_top());
    }

    #[test]
    fn shift_and_mask_bounds_are_sound() {
        // srl of a non-negative shrinks it; andi with a mask caps it.
        let a = IntAbs::range(0, 1000);
        assert_eq!(srl_i(a, IntAbs::exact(3)), IntAbs::range(0, 125));
        assert_eq!(and_i(IntAbs::TOP, IntAbs::exact(0xff)), IntAbs::range(0, 0xff));
        assert_eq!(sra_i(IntAbs::range(-8, 8), IntAbs::exact(1)), IntAbs::range(-4, 4));
        // Unknown shift amounts stay sound.
        assert_eq!(sra_i(IntAbs::range(-8, 8), IntAbs::TOP), IntAbs::range(-8, 8));
        assert_eq!(srl_i(a, IntAbs::TOP), IntAbs::range(0, 1000));
    }

    #[test]
    fn irreducible_cycle_terminates_and_stays_sound() {
        // Two-entry cycle with a growing counter: widening must fire even
        // though no natural loop forms.
        let (_, an) = analyze(|a| {
            let (x, y, out) = (a.label(), a.label(), a.label());
            a.li(T0, 1);
            a.beq(T0, ZERO, y);
            a.bind(x);
            a.addi(T1, T1, 1);
            a.jmp(y);
            a.bind(y);
            a.addi(T1, T1, 2);
            a.slti(T2, T1, 100);
            a.bne(T2, ZERO, x);
            a.bind(out);
            a.halt();
        });
        assert!(!an.loops().irreducible_edges.is_empty() || !an.loops().loops.is_empty());
        // Fixpoint converged (we got here) and the counter's state at y is
        // a sound superset of {2, 3, 5, ...}.
        let st = an.inst_state(4).unwrap();
        assert!(st.read_int(T1).contains(0) || st.read_int(T1).contains(1));
    }
}
