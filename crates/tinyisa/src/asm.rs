//! A label-resolving assembler builder for [`Op`] programs.

use crate::inst::{FCmpOp, MemWidth, Op};
use crate::{FReg, Reg, INST_BYTES};
use std::fmt;

/// A forward-referencable code label created by [`Asm::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Errors produced when assembling a program.
///
/// Label errors identify the *referencing site* — the instruction index and
/// its resolved pc — so a kernel builder emitting hundreds of instructions
/// can be debugged without bisecting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound to a position. The site is
    /// the first instruction referencing it.
    UnboundLabel {
        /// Label id (in allocation order).
        label: usize,
        /// Index of the first instruction referencing the label.
        inst_idx: usize,
        /// Byte address of that instruction.
        pc: u64,
    },
    /// A label resolved to a position past the last instruction, so the
    /// transfer would leave the text segment. (This happens when a label is
    /// bound after the final emitted instruction.)
    TargetOutOfText {
        /// Label id (in allocation order).
        label: usize,
        /// Index of the first instruction referencing the label.
        inst_idx: usize,
        /// Byte address of that instruction.
        pc: u64,
        /// The out-of-range instruction index the label resolved to.
        target_idx: usize,
    },
    /// A label was bound more than once.
    RedefinedLabel(usize),
    /// The program contains no instructions.
    EmptyProgram,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel { label, inst_idx, pc } => write!(
                f,
                "label L{label} referenced at inst {inst_idx} (pc {pc:#x}) but never bound"
            ),
            AsmError::TargetOutOfText { label, inst_idx, pc, target_idx } => write!(
                f,
                "label L{label} referenced at inst {inst_idx} (pc {pc:#x}) resolves to \
                 inst {target_idx}, past the end of the text segment"
            ),
            AsmError::RedefinedLabel(i) => write!(f, "label L{i} bound twice"),
            AsmError::EmptyProgram => write!(f, "program has no instructions"),
        }
    }
}

impl std::error::Error for AsmError {}

/// An assembled, label-resolved program ready to run on [`crate::Vm`].
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    insts: Vec<Op>,
    base: u64,
}

impl Program {
    /// The instructions, in program order.
    pub fn insts(&self) -> &[Op] {
        &self.insts
    }

    /// Base byte address of the text segment.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program has no instructions (never produced by [`Asm`]).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Byte address of the instruction at `idx`.
    pub fn pc_of(&self, idx: usize) -> u64 {
        self.base + idx as u64 * INST_BYTES
    }

    /// Instruction index of the byte address `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not a valid instruction address of this program.
    pub fn idx_of(&self, pc: u64) -> usize {
        assert!(pc >= self.base && (pc - self.base).is_multiple_of(INST_BYTES), "bad pc {pc:#x}");
        let idx = ((pc - self.base) / INST_BYTES) as usize;
        assert!(idx < self.insts.len(), "pc {pc:#x} out of text segment");
        idx
    }
}

/// Builder that emits instructions and resolves labels into a [`Program`].
///
/// Every instruction has a dedicated method; control transfers take [`Label`]
/// operands which may be bound before or after use. See the crate-level
/// example.
#[derive(Debug, Default)]
pub struct Asm {
    insts: Vec<Op>,
    /// `labels[i]` is the instruction index label `i` is bound to.
    labels: Vec<Option<usize>>,
    /// Instructions whose target field holds a label id to be patched.
    fixups: Vec<(usize, usize)>,
    base: u64,
}

impl Asm {
    /// Create an assembler with the default text base address (`0x1_0000`).
    pub fn new() -> Self {
        Asm { base: 0x1_0000, ..Asm::default() }
    }

    /// Create an assembler with a custom text base address.
    pub fn with_base(base: u64) -> Self {
        Asm { base, ..Asm::default() }
    }

    /// Allocate a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound (this is a programming error in
    /// the kernel being assembled; [`Asm::assemble`] would also report it).
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label L{} bound twice", label.0);
        *slot = Some(self.insts.len());
    }

    /// Current number of emitted instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if nothing was emitted yet.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    fn emit(&mut self, op: Op) {
        self.insts.push(op);
    }

    fn emit_ctrl(&mut self, op: Op, label: Label) {
        self.fixups.push((self.insts.len(), label.0));
        self.insts.push(op);
    }

    /// Labels that were bound but never referenced by any control transfer.
    ///
    /// An unused label is not an error — [`Asm::assemble`] accepts it — but
    /// in a generated kernel it usually marks a control path the builder
    /// meant to emit and didn't; `mica-verify`'s structural lints surface it
    /// through this accessor.
    pub fn unused_labels(&self) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(id, bound)| {
                bound.is_some() && !self.fixups.iter().any(|&(_, l)| l == *id)
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Resolve all labels and produce the final [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UnboundLabel`] if any referenced label was never
    /// bound, [`AsmError::TargetOutOfText`] if a referenced label resolved
    /// past the last instruction, and [`AsmError::EmptyProgram`] for an
    /// empty program. Label errors report the first referencing site.
    pub fn assemble(mut self) -> Result<Program, AsmError> {
        if self.insts.is_empty() {
            return Err(AsmError::EmptyProgram);
        }
        for &(inst_idx, label_id) in &self.fixups {
            let pc = self.base + inst_idx as u64 * INST_BYTES;
            let target = self.labels[label_id].ok_or(AsmError::UnboundLabel {
                label: label_id,
                inst_idx,
                pc,
            })?;
            if target >= self.insts.len() {
                return Err(AsmError::TargetOutOfText {
                    label: label_id,
                    inst_idx,
                    pc,
                    target_idx: target,
                });
            }
            match &mut self.insts[inst_idx] {
                Op::Beq(_, _, t)
                | Op::Bne(_, _, t)
                | Op::Blt(_, _, t)
                | Op::Bge(_, _, t)
                | Op::Bltu(_, _, t)
                | Op::Bgeu(_, _, t)
                | Op::Jmp(t)
                | Op::Call(t) => *t = target,
                other => unreachable!("fixup on non-control op {other:?}"),
            }
        }
        Ok(Program { insts: self.insts, base: self.base })
    }

    // --- integer ALU ---
    pub fn add(&mut self, d: Reg, a: Reg, b: Reg) {
        self.emit(Op::Add(d, a, b));
    }
    pub fn sub(&mut self, d: Reg, a: Reg, b: Reg) {
        self.emit(Op::Sub(d, a, b));
    }
    pub fn and(&mut self, d: Reg, a: Reg, b: Reg) {
        self.emit(Op::And(d, a, b));
    }
    pub fn or(&mut self, d: Reg, a: Reg, b: Reg) {
        self.emit(Op::Or(d, a, b));
    }
    pub fn xor(&mut self, d: Reg, a: Reg, b: Reg) {
        self.emit(Op::Xor(d, a, b));
    }
    pub fn sll(&mut self, d: Reg, a: Reg, b: Reg) {
        self.emit(Op::Sll(d, a, b));
    }
    pub fn srl(&mut self, d: Reg, a: Reg, b: Reg) {
        self.emit(Op::Srl(d, a, b));
    }
    pub fn sra(&mut self, d: Reg, a: Reg, b: Reg) {
        self.emit(Op::Sra(d, a, b));
    }
    pub fn slt(&mut self, d: Reg, a: Reg, b: Reg) {
        self.emit(Op::Slt(d, a, b));
    }
    pub fn sltu(&mut self, d: Reg, a: Reg, b: Reg) {
        self.emit(Op::Sltu(d, a, b));
    }
    pub fn addi(&mut self, d: Reg, a: Reg, imm: i64) {
        self.emit(Op::Addi(d, a, imm));
    }
    pub fn andi(&mut self, d: Reg, a: Reg, imm: i64) {
        self.emit(Op::Andi(d, a, imm));
    }
    pub fn ori(&mut self, d: Reg, a: Reg, imm: i64) {
        self.emit(Op::Ori(d, a, imm));
    }
    pub fn xori(&mut self, d: Reg, a: Reg, imm: i64) {
        self.emit(Op::Xori(d, a, imm));
    }
    pub fn slli(&mut self, d: Reg, a: Reg, sh: u8) {
        self.emit(Op::Slli(d, a, sh));
    }
    pub fn srli(&mut self, d: Reg, a: Reg, sh: u8) {
        self.emit(Op::Srli(d, a, sh));
    }
    pub fn srai(&mut self, d: Reg, a: Reg, sh: u8) {
        self.emit(Op::Srai(d, a, sh));
    }
    pub fn slti(&mut self, d: Reg, a: Reg, imm: i64) {
        self.emit(Op::Slti(d, a, imm));
    }
    pub fn li(&mut self, d: Reg, imm: i64) {
        self.emit(Op::Li(d, imm));
    }
    /// Register move, encoded as `addi d, a, 0`.
    pub fn mov(&mut self, d: Reg, a: Reg) {
        self.emit(Op::Addi(d, a, 0));
    }

    // --- integer multiply / divide ---
    pub fn mul(&mut self, d: Reg, a: Reg, b: Reg) {
        self.emit(Op::Mul(d, a, b));
    }
    pub fn mulh(&mut self, d: Reg, a: Reg, b: Reg) {
        self.emit(Op::Mulh(d, a, b));
    }
    pub fn div(&mut self, d: Reg, a: Reg, b: Reg) {
        self.emit(Op::Div(d, a, b));
    }
    pub fn rem(&mut self, d: Reg, a: Reg, b: Reg) {
        self.emit(Op::Rem(d, a, b));
    }

    // --- floating point ---
    pub fn fadd(&mut self, d: FReg, a: FReg, b: FReg) {
        self.emit(Op::Fadd(d, a, b));
    }
    pub fn fsub(&mut self, d: FReg, a: FReg, b: FReg) {
        self.emit(Op::Fsub(d, a, b));
    }
    pub fn fmul(&mut self, d: FReg, a: FReg, b: FReg) {
        self.emit(Op::Fmul(d, a, b));
    }
    pub fn fdiv(&mut self, d: FReg, a: FReg, b: FReg) {
        self.emit(Op::Fdiv(d, a, b));
    }
    pub fn fsqrt(&mut self, d: FReg, a: FReg) {
        self.emit(Op::Fsqrt(d, a));
    }
    pub fn fabs(&mut self, d: FReg, a: FReg) {
        self.emit(Op::Fabs(d, a));
    }
    pub fn fneg(&mut self, d: FReg, a: FReg) {
        self.emit(Op::Fneg(d, a));
    }
    pub fn fmin(&mut self, d: FReg, a: FReg, b: FReg) {
        self.emit(Op::Fmin(d, a, b));
    }
    pub fn fmax(&mut self, d: FReg, a: FReg, b: FReg) {
        self.emit(Op::Fmax(d, a, b));
    }
    pub fn fli(&mut self, d: FReg, imm: f64) {
        self.emit(Op::Fli(d, imm));
    }
    pub fn fmov(&mut self, d: FReg, a: FReg) {
        self.emit(Op::Fmov(d, a));
    }
    pub fn fcvtif(&mut self, d: FReg, a: Reg) {
        self.emit(Op::Fcvtif(d, a));
    }
    pub fn fcvtfi(&mut self, d: Reg, a: FReg) {
        self.emit(Op::Fcvtfi(d, a));
    }
    /// `d = (a < b) as u64`
    pub fn fcmplt(&mut self, d: Reg, a: FReg, b: FReg) {
        self.emit(Op::Fcmp(d, a, b, FCmpOp::Lt));
    }
    /// `d = (a <= b) as u64`
    pub fn fcmple(&mut self, d: Reg, a: FReg, b: FReg) {
        self.emit(Op::Fcmp(d, a, b, FCmpOp::Le));
    }
    /// `d = (a == b) as u64`
    pub fn fcmpeq(&mut self, d: Reg, a: FReg, b: FReg) {
        self.emit(Op::Fcmp(d, a, b, FCmpOp::Eq));
    }

    // --- memory ---
    pub fn ld8(&mut self, d: Reg, base: Reg, off: i64) {
        self.emit(Op::Ld(d, base, off, MemWidth::B8));
    }
    pub fn ld4(&mut self, d: Reg, base: Reg, off: i64) {
        self.emit(Op::Ld(d, base, off, MemWidth::B4));
    }
    pub fn ld2(&mut self, d: Reg, base: Reg, off: i64) {
        self.emit(Op::Ld(d, base, off, MemWidth::B2));
    }
    pub fn ld1(&mut self, d: Reg, base: Reg, off: i64) {
        self.emit(Op::Ld(d, base, off, MemWidth::B1));
    }
    pub fn st8(&mut self, src: Reg, base: Reg, off: i64) {
        self.emit(Op::St(src, base, off, MemWidth::B8));
    }
    pub fn st4(&mut self, src: Reg, base: Reg, off: i64) {
        self.emit(Op::St(src, base, off, MemWidth::B4));
    }
    pub fn st2(&mut self, src: Reg, base: Reg, off: i64) {
        self.emit(Op::St(src, base, off, MemWidth::B2));
    }
    pub fn st1(&mut self, src: Reg, base: Reg, off: i64) {
        self.emit(Op::St(src, base, off, MemWidth::B1));
    }
    pub fn ldf(&mut self, d: FReg, base: Reg, off: i64) {
        self.emit(Op::Ldf(d, base, off));
    }
    pub fn stf(&mut self, src: FReg, base: Reg, off: i64) {
        self.emit(Op::Stf(src, base, off));
    }

    // --- control ---
    pub fn beq(&mut self, a: Reg, b: Reg, l: Label) {
        self.emit_ctrl(Op::Beq(a, b, 0), l);
    }
    pub fn bne(&mut self, a: Reg, b: Reg, l: Label) {
        self.emit_ctrl(Op::Bne(a, b, 0), l);
    }
    pub fn blt(&mut self, a: Reg, b: Reg, l: Label) {
        self.emit_ctrl(Op::Blt(a, b, 0), l);
    }
    pub fn bge(&mut self, a: Reg, b: Reg, l: Label) {
        self.emit_ctrl(Op::Bge(a, b, 0), l);
    }
    pub fn bltu(&mut self, a: Reg, b: Reg, l: Label) {
        self.emit_ctrl(Op::Bltu(a, b, 0), l);
    }
    pub fn bgeu(&mut self, a: Reg, b: Reg, l: Label) {
        self.emit_ctrl(Op::Bgeu(a, b, 0), l);
    }
    pub fn jmp(&mut self, l: Label) {
        self.emit_ctrl(Op::Jmp(0), l);
    }
    pub fn jr(&mut self, r: Reg) {
        self.emit(Op::Jr(r));
    }
    pub fn call(&mut self, l: Label) {
        self.emit_ctrl(Op::Call(0), l);
    }
    pub fn callr(&mut self, r: Reg) {
        self.emit(Op::Callr(r));
    }
    pub fn ret(&mut self) {
        self.emit(Op::Ret);
    }
    pub fn halt(&mut self) {
        self.emit(Op::Halt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::*;

    #[test]
    fn empty_program_is_rejected() {
        assert_eq!(Asm::new().assemble().unwrap_err(), AsmError::EmptyProgram);
    }

    #[test]
    fn unbound_label_reports_first_referencing_site() {
        let mut a = Asm::new();
        let l = a.label();
        a.li(T0, 1); // inst 0
        a.jmp(l); // inst 1: first reference
        a.jmp(l); // inst 2: second reference
        let err = a.assemble().unwrap_err();
        assert_eq!(err, AsmError::UnboundLabel { label: 0, inst_idx: 1, pc: 0x1_0000 + 4 });
        let msg = err.to_string();
        assert!(msg.contains("inst 1"), "{msg}");
        assert!(msg.contains("0x10004"), "{msg}");
    }

    #[test]
    fn label_bound_past_the_end_is_out_of_text() {
        let mut a = Asm::with_base(0x2000);
        let l = a.label();
        a.jmp(l); // inst 0
        a.halt(); // inst 1
        a.bind(l); // binds to inst 2 == len: off the end of text
        let err = a.assemble().unwrap_err();
        assert_eq!(
            err,
            AsmError::TargetOutOfText { label: 0, inst_idx: 0, pc: 0x2000, target_idx: 2 }
        );
        let msg = err.to_string();
        assert!(msg.contains("inst 0") && msg.contains("inst 2"), "{msg}");
    }

    #[test]
    fn redefined_label_renders_its_id() {
        assert_eq!(AsmError::RedefinedLabel(3).to_string(), "label L3 bound twice");
    }

    #[test]
    fn unused_labels_are_reported_but_allowed() {
        let mut a = Asm::new();
        let used = a.label();
        let unused = a.label();
        let unbound_unused = a.label(); // never bound, never referenced: ignored
        a.bind(used);
        a.li(T0, 1);
        a.bind(unused);
        a.jmp(used);
        assert_eq!(a.unused_labels(), vec![unused.0]);
        assert!(!a.unused_labels().contains(&unbound_unused.0));
        assert!(a.assemble().is_ok());
    }

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Asm::new();
        let back = a.label();
        let fwd = a.label();
        a.bind(back);
        a.li(T0, 1);
        a.jmp(fwd); // forward reference
        a.jmp(back); // backward reference
        a.bind(fwd);
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.insts()[1], Op::Jmp(3));
        assert_eq!(p.insts()[2], Op::Jmp(0));
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn rebinding_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.bind(l);
        a.bind(l);
    }

    #[test]
    fn pc_index_round_trip() {
        let mut a = Asm::with_base(0x4000);
        a.li(T0, 0);
        a.li(T1, 1);
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.base(), 0x4000);
        for i in 0..p.len() {
            assert_eq!(p.idx_of(p.pc_of(i)), i);
        }
    }
}
