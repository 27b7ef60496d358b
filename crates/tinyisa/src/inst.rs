//! Instruction definitions and the retired-instruction event type.

use crate::{FReg, Reg};

/// Width of a scalar memory access, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    B1,
    B2,
    B4,
    B8,
}

impl MemWidth {
    /// Size of the access in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

/// Comparison predicate used by [`Op::Fcmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FCmpOp {
    Lt,
    Le,
    Eq,
}

/// A static instruction.
///
/// Branch/jump/call targets are indices into the program's instruction
/// vector; they are produced by [`crate::Asm`], which resolves labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    // --- integer ALU (three-register) ---
    Add(Reg, Reg, Reg),
    Sub(Reg, Reg, Reg),
    And(Reg, Reg, Reg),
    Or(Reg, Reg, Reg),
    Xor(Reg, Reg, Reg),
    Sll(Reg, Reg, Reg),
    Srl(Reg, Reg, Reg),
    Sra(Reg, Reg, Reg),
    /// Set-if-less-than, signed: `dst = (a < b) as u64`.
    Slt(Reg, Reg, Reg),
    /// Set-if-less-than, unsigned.
    Sltu(Reg, Reg, Reg),
    // --- integer ALU (immediate) ---
    Addi(Reg, Reg, i64),
    Andi(Reg, Reg, i64),
    Ori(Reg, Reg, i64),
    Xori(Reg, Reg, i64),
    Slli(Reg, Reg, u8),
    Srli(Reg, Reg, u8),
    Srai(Reg, Reg, u8),
    Slti(Reg, Reg, i64),
    /// Load immediate: `dst = imm`. No register sources.
    Li(Reg, i64),
    // --- integer multiply / divide (classified as `IntMul`) ---
    Mul(Reg, Reg, Reg),
    /// Upper 64 bits of the unsigned 128-bit product.
    Mulh(Reg, Reg, Reg),
    /// Signed division; division by zero yields `u64::MAX` (no trap).
    Div(Reg, Reg, Reg),
    /// Signed remainder; remainder by zero yields the dividend.
    Rem(Reg, Reg, Reg),
    // --- floating point ---
    Fadd(FReg, FReg, FReg),
    Fsub(FReg, FReg, FReg),
    Fmul(FReg, FReg, FReg),
    Fdiv(FReg, FReg, FReg),
    Fsqrt(FReg, FReg),
    Fabs(FReg, FReg),
    Fneg(FReg, FReg),
    Fmin(FReg, FReg, FReg),
    Fmax(FReg, FReg, FReg),
    /// Load floating-point immediate. No register sources.
    Fli(FReg, f64),
    /// Move between FP registers.
    Fmov(FReg, FReg),
    /// Convert signed integer to double: `fd = xs as f64`.
    Fcvtif(FReg, Reg),
    /// Convert double to signed integer (truncating): `xd = fs as i64`.
    Fcvtfi(Reg, FReg),
    /// FP compare writing 0/1 to an integer register.
    Fcmp(Reg, FReg, FReg, FCmpOp),
    // --- memory ---
    /// Zero-extending load: `dst = mem[base + off]`.
    Ld(Reg, Reg, i64, MemWidth),
    /// Store: `mem[base + off] = src`.
    St(Reg, Reg, i64, MemWidth),
    /// Load a 64-bit double into an FP register.
    Ldf(FReg, Reg, i64),
    /// Store a 64-bit double from an FP register.
    Stf(FReg, Reg, i64),
    // --- control ---
    Beq(Reg, Reg, usize),
    Bne(Reg, Reg, usize),
    Blt(Reg, Reg, usize),
    Bge(Reg, Reg, usize),
    Bltu(Reg, Reg, usize),
    Bgeu(Reg, Reg, usize),
    /// Unconditional direct jump.
    Jmp(usize),
    /// Indirect jump to the byte address in a register.
    Jr(Reg),
    /// Direct call: writes the return byte address to `RA` and jumps.
    Call(usize),
    /// Indirect call through a register.
    Callr(Reg),
    /// Return: jump to the byte address in `RA`.
    Ret,
    /// Stop the machine.
    Halt,
}

/// Static control-flow behavior of an instruction, as exposed by
/// [`Op::flow`] for CFG construction.
///
/// Direct targets are instruction indices (label-resolved by
/// [`crate::Asm`]); indirect transfers carry no target — a static analysis
/// must model them conservatively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flow {
    /// Falls through to the next instruction.
    Next,
    /// Conditional branch: transfers to the target index or falls through.
    Branch(usize),
    /// Unconditional direct jump.
    Jump(usize),
    /// Direct call: writes the return address to `RA`, transfers to the
    /// target; control eventually comes back via [`Flow::Ret`].
    Call(usize),
    /// Indirect jump through a register.
    IndirectJump,
    /// Indirect call through a register (also writes `RA`).
    IndirectCall,
    /// Return through `RA`.
    Ret,
    /// Stops the machine; no successor.
    Halt,
}

impl Flow {
    /// The direct target index, if this is a direct transfer.
    pub fn direct_target(self) -> Option<usize> {
        match self {
            Flow::Branch(t) | Flow::Jump(t) | Flow::Call(t) => Some(t),
            _ => None,
        }
    }

    /// True if execution can continue at the next instruction (fall-through
    /// or a not-taken branch; a call's fall-through is its *return site*,
    /// reached via `ret`, so it does not count here).
    pub fn falls_through(self) -> bool {
        matches!(self, Flow::Next | Flow::Branch(_))
    }
}

/// A statically-known memory reference, as exposed by [`Op::mem_ref`]:
/// the effective address is `base + offset` at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StaticMemRef {
    /// Base address register.
    pub base: Reg,
    /// Constant byte offset added to the base.
    pub offset: i64,
    /// Access width.
    pub width: MemWidth,
    /// True for stores.
    pub is_store: bool,
}

/// Filter the hardwired-zero register out of a source/destination slot,
/// matching the [`DynInst`] convention.
fn reg_ref(r: Reg) -> Option<RegRef> {
    if r.0 == 0 {
        None
    } else {
        Some(RegRef::Int(r.0))
    }
}

impl Op {
    /// Static control-flow behavior of this instruction.
    pub fn flow(&self) -> Flow {
        match *self {
            Op::Beq(_, _, t)
            | Op::Bne(_, _, t)
            | Op::Blt(_, _, t)
            | Op::Bge(_, _, t)
            | Op::Bltu(_, _, t)
            | Op::Bgeu(_, _, t) => Flow::Branch(t),
            Op::Jmp(t) => Flow::Jump(t),
            Op::Call(t) => Flow::Call(t),
            Op::Jr(_) => Flow::IndirectJump,
            Op::Callr(_) => Flow::IndirectCall,
            Op::Ret => Flow::Ret,
            Op::Halt => Flow::Halt,
            _ => Flow::Next,
        }
    }

    /// The architectural register this instruction writes, if any.
    ///
    /// Mirrors the [`DynInst::dst`] convention exactly: writes to the
    /// hardwired-zero `x0` are reported as `None` (they carry no data
    /// dependence), and `call`/`callr` report their `RA` write.
    pub fn def(&self) -> Option<RegRef> {
        match *self {
            Op::Add(d, ..)
            | Op::Sub(d, ..)
            | Op::And(d, ..)
            | Op::Or(d, ..)
            | Op::Xor(d, ..)
            | Op::Sll(d, ..)
            | Op::Srl(d, ..)
            | Op::Sra(d, ..)
            | Op::Slt(d, ..)
            | Op::Sltu(d, ..)
            | Op::Addi(d, ..)
            | Op::Andi(d, ..)
            | Op::Ori(d, ..)
            | Op::Xori(d, ..)
            | Op::Slli(d, ..)
            | Op::Srli(d, ..)
            | Op::Srai(d, ..)
            | Op::Slti(d, ..)
            | Op::Li(d, ..)
            | Op::Mul(d, ..)
            | Op::Mulh(d, ..)
            | Op::Div(d, ..)
            | Op::Rem(d, ..)
            | Op::Fcvtfi(d, ..)
            | Op::Fcmp(d, ..)
            | Op::Ld(d, ..) => reg_ref(d),
            Op::Fadd(d, ..)
            | Op::Fsub(d, ..)
            | Op::Fmul(d, ..)
            | Op::Fdiv(d, ..)
            | Op::Fsqrt(d, ..)
            | Op::Fabs(d, ..)
            | Op::Fneg(d, ..)
            | Op::Fmin(d, ..)
            | Op::Fmax(d, ..)
            | Op::Fli(d, ..)
            | Op::Fmov(d, ..)
            | Op::Fcvtif(d, ..)
            | Op::Ldf(d, ..) => Some(d.into()),
            Op::Call(_) | Op::Callr(_) => Some(RegRef::Int(31)),
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
            | Op::Halt => None,
        }
    }

    /// The architectural registers this instruction reads.
    ///
    /// Mirrors the [`DynInst::srcs`] convention exactly: same slot order as
    /// the VM reports, reads of `x0` omitted, `ret` reports its `RA` read,
    /// and `None` entries are trailing.
    pub fn uses(&self) -> [Option<RegRef>; 3] {
        let none = [None, None, None];
        match *self {
            Op::Add(_, a, b)
            | Op::Sub(_, a, b)
            | Op::And(_, a, b)
            | Op::Or(_, a, b)
            | Op::Xor(_, a, b)
            | Op::Sll(_, a, b)
            | Op::Srl(_, a, b)
            | Op::Sra(_, a, b)
            | Op::Slt(_, a, b)
            | Op::Sltu(_, a, b)
            | Op::Mul(_, a, b)
            | Op::Mulh(_, a, b)
            | Op::Div(_, a, b)
            | Op::Rem(_, a, b) => [reg_ref(a), reg_ref(b), None],
            Op::Addi(_, a, _)
            | Op::Andi(_, a, _)
            | Op::Ori(_, a, _)
            | Op::Xori(_, a, _)
            | Op::Slli(_, a, _)
            | Op::Srli(_, a, _)
            | Op::Srai(_, a, _)
            | Op::Slti(_, a, _) => [reg_ref(a), None, None],
            Op::Li(..) | Op::Fli(..) | Op::Jmp(_) | Op::Call(_) | Op::Halt => none,
            Op::Fadd(_, a, b)
            | Op::Fsub(_, a, b)
            | Op::Fmul(_, a, b)
            | Op::Fdiv(_, a, b)
            | Op::Fmin(_, a, b)
            | Op::Fmax(_, a, b) => [Some(a.into()), Some(b.into()), None],
            Op::Fsqrt(_, a) | Op::Fabs(_, a) | Op::Fneg(_, a) | Op::Fmov(_, a) => {
                [Some(a.into()), None, None]
            }
            Op::Fcvtif(_, a) => [reg_ref(a), None, None],
            Op::Fcvtfi(_, a) => [Some(a.into()), None, None],
            Op::Fcmp(_, a, b, _) => [Some(a.into()), Some(b.into()), None],
            Op::Ld(_, base, ..) | Op::Ldf(_, base, ..) => [reg_ref(base), None, None],
            Op::St(s, base, ..) => [reg_ref(s), reg_ref(base), None],
            Op::Stf(s, base, ..) => [Some(s.into()), reg_ref(base), None],
            Op::Beq(a, b, _)
            | Op::Bne(a, b, _)
            | Op::Blt(a, b, _)
            | Op::Bge(a, b, _)
            | Op::Bltu(a, b, _)
            | Op::Bgeu(a, b, _) => [reg_ref(a), reg_ref(b), None],
            Op::Jr(r) | Op::Callr(r) => [reg_ref(r), None, None],
            Op::Ret => [Some(RegRef::Int(31)), None, None],
        }
    }

    /// The coarse [`InstClass`] this instruction retires as.
    ///
    /// Mirrors the class the VM stamps on the corresponding [`DynInst`]
    /// exactly (parity-tested against execution), so a static analysis can
    /// compute the instruction-mix of a region without running it.
    pub fn class(&self) -> InstClass {
        match *self {
            Op::Add(..)
            | Op::Sub(..)
            | Op::And(..)
            | Op::Or(..)
            | Op::Xor(..)
            | Op::Sll(..)
            | Op::Srl(..)
            | Op::Sra(..)
            | Op::Slt(..)
            | Op::Sltu(..)
            | Op::Addi(..)
            | Op::Andi(..)
            | Op::Ori(..)
            | Op::Xori(..)
            | Op::Slli(..)
            | Op::Srli(..)
            | Op::Srai(..)
            | Op::Slti(..)
            | Op::Li(..)
            | Op::Halt => InstClass::IntAlu,
            Op::Mul(..) | Op::Mulh(..) | Op::Div(..) | Op::Rem(..) => InstClass::IntMul,
            Op::Fadd(..)
            | Op::Fsub(..)
            | Op::Fmul(..)
            | Op::Fdiv(..)
            | Op::Fsqrt(..)
            | Op::Fabs(..)
            | Op::Fneg(..)
            | Op::Fmin(..)
            | Op::Fmax(..)
            | Op::Fli(..)
            | Op::Fmov(..)
            | Op::Fcvtif(..)
            | Op::Fcvtfi(..)
            | Op::Fcmp(..) => InstClass::Fp,
            Op::Ld(..) | Op::Ldf(..) => InstClass::Load,
            Op::St(..) | Op::Stf(..) => InstClass::Store,
            Op::Beq(..) | Op::Bne(..) | Op::Blt(..) | Op::Bge(..) | Op::Bltu(..)
            | Op::Bgeu(..) => InstClass::Branch,
            Op::Jmp(_) | Op::Jr(_) | Op::Call(_) | Op::Callr(_) | Op::Ret => InstClass::Jump,
        }
    }

    /// The data-memory reference this instruction performs, if any.
    pub fn mem_ref(&self) -> Option<StaticMemRef> {
        match *self {
            Op::Ld(_, base, offset, width) => {
                Some(StaticMemRef { base, offset, width, is_store: false })
            }
            Op::St(_, base, offset, width) => {
                Some(StaticMemRef { base, offset, width, is_store: true })
            }
            Op::Ldf(_, base, offset) => {
                Some(StaticMemRef { base, offset, width: MemWidth::B8, is_store: false })
            }
            Op::Stf(_, base, offset) => {
                Some(StaticMemRef { base, offset, width: MemWidth::B8, is_store: true })
            }
            _ => None,
        }
    }
}

/// Coarse class of a retired instruction, as used by the instruction-mix
/// characterization (loads, stores, control transfers, arithmetic, integer
/// multiplies, floating point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Integer ALU and move operations.
    IntAlu,
    /// Integer multiply, divide, remainder.
    IntMul,
    /// Floating-point operations (including converts and FP compares).
    Fp,
    /// Memory loads (integer or FP).
    Load,
    /// Memory stores (integer or FP).
    Store,
    /// Conditional branches.
    Branch,
    /// Unconditional jumps, calls and returns.
    Jump,
}

/// A reference to an architectural register in a [`DynInst`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegRef {
    Int(u8),
    Fp(u8),
}

impl RegRef {
    /// A dense index over the unified register file: integer registers map to
    /// `0..32`, FP registers to `32..64`.
    pub fn unified(self) -> usize {
        match self {
            RegRef::Int(r) => r as usize,
            RegRef::Fp(r) => 32 + r as usize,
        }
    }
}

impl From<Reg> for RegRef {
    fn from(r: Reg) -> Self {
        RegRef::Int(r.0)
    }
}

impl From<FReg> for RegRef {
    fn from(r: FReg) -> Self {
        RegRef::Fp(r.0)
    }
}

/// A data-memory access performed by a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// True for stores.
    pub is_store: bool,
}

/// Control-flow outcome of a retired control-transfer instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CtrlInfo {
    /// Whether the transfer was taken (always true for jumps).
    pub taken: bool,
    /// Byte address of the target (the fall-through address for a not-taken
    /// branch).
    pub target: u64,
    /// True for conditional branches, false for jumps/calls/returns.
    pub conditional: bool,
}

/// One retired dynamic instruction, as observed by a [`crate::TraceSink`].
///
/// Reads of the hardwired-zero register `x0` are omitted from `srcs`, and
/// writes to it are omitted from `dst` — `x0` carries no data dependence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynInst {
    /// Byte address of the instruction.
    pub pc: u64,
    /// Coarse class, for the instruction-mix characterization.
    pub class: InstClass,
    /// Destination register, if any.
    pub dst: Option<RegRef>,
    /// Source registers (up to three; `None` entries are trailing).
    pub srcs: [Option<RegRef>; 3],
    /// Data-memory access, if this is a load or store.
    pub mem: Option<MemAccess>,
    /// Control-flow outcome, if this is a control transfer.
    pub ctrl: Option<CtrlInfo>,
}

impl DynInst {
    /// Iterate over the (non-`None`) source registers.
    pub fn sources(&self) -> impl Iterator<Item = RegRef> + '_ {
        self.srcs.iter().flatten().copied()
    }

    /// Number of register input operands.
    pub fn num_sources(&self) -> usize {
        self.srcs.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B1.bytes(), 1);
        assert_eq!(MemWidth::B2.bytes(), 2);
        assert_eq!(MemWidth::B4.bytes(), 4);
        assert_eq!(MemWidth::B8.bytes(), 8);
    }

    #[test]
    fn unified_register_indices_are_disjoint() {
        assert_eq!(RegRef::Int(0).unified(), 0);
        assert_eq!(RegRef::Int(31).unified(), 31);
        assert_eq!(RegRef::Fp(0).unified(), 32);
        assert_eq!(RegRef::Fp(31).unified(), 63);
    }

    #[test]
    fn op_flow_classification() {
        use crate::regs::*;
        assert_eq!(Op::Add(T0, T1, T2).flow(), Flow::Next);
        assert_eq!(Op::Beq(T0, T1, 7).flow(), Flow::Branch(7));
        assert_eq!(Op::Jmp(3).flow(), Flow::Jump(3));
        assert_eq!(Op::Call(9).flow(), Flow::Call(9));
        assert_eq!(Op::Jr(T0).flow(), Flow::IndirectJump);
        assert_eq!(Op::Callr(T0).flow(), Flow::IndirectCall);
        assert_eq!(Op::Ret.flow(), Flow::Ret);
        assert_eq!(Op::Halt.flow(), Flow::Halt);
        assert_eq!(Flow::Branch(7).direct_target(), Some(7));
        assert_eq!(Flow::Ret.direct_target(), None);
        assert!(Flow::Next.falls_through());
        assert!(Flow::Branch(0).falls_through());
        assert!(!Flow::Jump(0).falls_through());
        assert!(!Flow::Call(0).falls_through());
        assert!(!Flow::Halt.falls_through());
    }

    #[test]
    fn op_defs_and_uses_follow_dyn_inst_conventions() {
        use crate::regs::*;
        // x0 is filtered from both defs and uses.
        assert_eq!(Op::Li(ZERO, 5).def(), None);
        assert_eq!(Op::Add(T0, ZERO, T1).uses(), [None, Some(RegRef::Int(8)), None]);
        // Calls define RA; ret reads it.
        assert_eq!(Op::Call(0).def(), Some(RegRef::Int(31)));
        assert_eq!(Op::Callr(T0).def(), Some(RegRef::Int(31)));
        assert_eq!(Op::Ret.uses()[0], Some(RegRef::Int(31)));
        // Stores read both the value and the base; loads define.
        assert_eq!(Op::St(T1, T0, 0, MemWidth::B8).def(), None);
        assert_eq!(
            Op::St(T1, T0, 0, MemWidth::B8).uses(),
            [Some(RegRef::Int(8)), Some(RegRef::Int(7)), None]
        );
        assert_eq!(Op::Ld(T1, T0, 0, MemWidth::B4).def(), Some(RegRef::Int(8)));
        // FP ops use the FP register space.
        assert_eq!(Op::Fadd(F2, F0, F1).def(), Some(RegRef::Fp(2)));
        assert_eq!(Op::Fcvtif(F0, T0).uses(), [Some(RegRef::Int(7)), None, None]);
        assert_eq!(Op::Fcvtfi(T0, F0).uses(), [Some(RegRef::Fp(0)), None, None]);
    }

    #[test]
    fn op_mem_ref_widths_and_direction() {
        use crate::regs::*;
        let ld = Op::Ld(T0, T1, 16, MemWidth::B2).mem_ref().unwrap();
        assert_eq!((ld.base, ld.offset, ld.width, ld.is_store), (T1, 16, MemWidth::B2, false));
        let stf = Op::Stf(F0, T1, -8).mem_ref().unwrap();
        assert_eq!((stf.base, stf.offset, stf.width, stf.is_store), (T1, -8, MemWidth::B8, true));
        assert_eq!(Op::Add(T0, T1, T2).mem_ref(), None);
        assert_eq!(Op::Jmp(0).mem_ref(), None);
    }

    #[test]
    fn op_class_covers_every_group() {
        use crate::regs::*;
        assert_eq!(Op::Add(T0, T1, T2).class(), InstClass::IntAlu);
        assert_eq!(Op::Li(T0, 3).class(), InstClass::IntAlu);
        assert_eq!(Op::Halt.class(), InstClass::IntAlu);
        assert_eq!(Op::Mul(T0, T1, T2).class(), InstClass::IntMul);
        assert_eq!(Op::Rem(T0, T1, T2).class(), InstClass::IntMul);
        assert_eq!(Op::Fadd(F0, F1, F2).class(), InstClass::Fp);
        assert_eq!(Op::Fcvtfi(T0, F0).class(), InstClass::Fp);
        assert_eq!(Op::Ld(T0, T1, 0, MemWidth::B8).class(), InstClass::Load);
        assert_eq!(Op::Ldf(F0, T1, 0).class(), InstClass::Load);
        assert_eq!(Op::St(T0, T1, 0, MemWidth::B1).class(), InstClass::Store);
        assert_eq!(Op::Stf(F0, T1, 0).class(), InstClass::Store);
        assert_eq!(Op::Beq(T0, T1, 0).class(), InstClass::Branch);
        assert_eq!(Op::Jmp(0).class(), InstClass::Jump);
        assert_eq!(Op::Ret.class(), InstClass::Jump);
        assert_eq!(Op::Callr(T0).class(), InstClass::Jump);
    }

    #[test]
    fn dyn_inst_sources() {
        let d = DynInst {
            pc: 0,
            class: InstClass::IntAlu,
            dst: Some(RegRef::Int(1)),
            srcs: [Some(RegRef::Int(2)), Some(RegRef::Fp(3)), None],
            mem: None,
            ctrl: None,
        };
        assert_eq!(d.num_sources(), 2);
        let v: Vec<_> = d.sources().collect();
        assert_eq!(v, vec![RegRef::Int(2), RegRef::Fp(3)]);
    }
}
