//! The interpreting, tracing virtual machine.

use crate::asm::Program;
use crate::inst::{CtrlInfo, DynInst, FCmpOp, InstClass, MemAccess, MemWidth, Op, RegRef};
use crate::mem::Memory;
use crate::{FReg, Reg, INST_BYTES, NUM_FP_REGS, NUM_INT_REGS};
use std::fmt;

/// Largest block [`Vm::run`] delivers to [`TraceSink::retire_block`].
pub const BATCH_CAPACITY: usize = 256;

/// Fill level past which the next basic-block end (any control-flow
/// instruction) flushes the batch, so blocks tend to align with basic-block
/// boundaries without letting tiny loops degrade delivery to single digits.
pub const BATCH_WATERMARK: usize = 192;

/// Observer of retired instructions — the ATOM-analysis analogue.
///
/// Implementations receive every retired [`DynInst`] in program order.
/// Multiple analyzers are usually fanned out from a single sink.
///
/// Delivery happens at two granularities: [`TraceSink::retire`] hands over
/// one instruction, [`TraceSink::retire_block`] a contiguous run of them.
/// The two are interchangeable — a block is exactly the instructions that
/// `retire` would have seen, in the same order, with nothing added or
/// dropped — so sinks override `retire_block` only as an optimization and
/// must keep it observably identical to the per-instruction loop.
pub trait TraceSink {
    /// Called once per retired dynamic instruction, in order.
    fn retire(&mut self, inst: &DynInst);

    /// Called with a run of consecutively retired instructions, in order.
    ///
    /// The default implementation loops [`TraceSink::retire`], so existing
    /// sinks keep working unchanged. Overrides must leave the sink in a
    /// state indistinguishable from the default (`mica-core`'s
    /// differential delivery harness enforces this for the analyzers).
    fn retire_block(&mut self, block: &[DynInst]) {
        for inst in block {
            self.retire(inst);
        }
    }
}

/// A trivial [`TraceSink`] that counts retired instructions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingSink {
    retired: u64,
}

impl CountingSink {
    /// Number of instructions observed so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }
}

impl TraceSink for CountingSink {
    fn retire(&mut self, _inst: &DynInst) {
        self.retired += 1;
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        self.retired += block.len() as u64;
    }
}

impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    fn retire(&mut self, inst: &DynInst) {
        (**self).retire(inst);
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        (**self).retire_block(block);
    }
}

/// Why [`Vm::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// A `halt` instruction retired.
    Halted,
    /// The instruction budget was exhausted before `halt`.
    FuelExhausted,
}

/// Runtime errors. The ISA itself is trap-free (division by zero is defined),
/// so the only failure mode is control flow leaving the text segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// An indirect jump or return targeted an address outside the program,
    /// or one not aligned to an instruction boundary.
    BadPc(u64),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::BadPc(pc) => write!(f, "control transfer to invalid pc {pc:#x}"),
        }
    }
}

impl std::error::Error for VmError {}

/// The virtual machine: architectural register state, memory, and a program.
#[derive(Debug, Clone)]
pub struct Vm {
    prog: Program,
    regs: [u64; NUM_INT_REGS],
    fregs: [f64; NUM_FP_REGS],
    mem: Memory,
    /// Instruction index of the next instruction to execute.
    next: usize,
    retired: u64,
}

/// Link register index (`x31`), written by `call`.
const RA: u8 = 31;

fn src(r: Reg) -> Option<RegRef> {
    if r.0 == 0 {
        None
    } else {
        Some(RegRef::Int(r.0))
    }
}

fn dst(r: Reg) -> Option<RegRef> {
    src(r)
}

impl Vm {
    /// Create a machine positioned at the first instruction of `prog`, with
    /// zeroed registers and empty memory.
    pub fn new(prog: Program) -> Self {
        Vm {
            prog,
            regs: [0; NUM_INT_REGS],
            fregs: [0.0; NUM_FP_REGS],
            mem: Memory::new(),
            next: 0,
            retired: 0,
        }
    }

    /// Read an integer register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.0 as usize]
    }

    /// Write an integer register (writes to `x0` are discarded).
    pub fn set_reg(&mut self, r: Reg, val: u64) {
        if r.0 != 0 {
            self.regs[r.0 as usize] = val;
        }
    }

    /// Read an FP register.
    pub fn freg(&self, r: FReg) -> f64 {
        self.fregs[r.0 as usize]
    }

    /// Write an FP register.
    pub fn set_freg(&mut self, r: FReg, val: f64) {
        self.fregs[r.0 as usize] = val;
    }

    /// The machine's memory (e.g. to read back results).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory access (e.g. to set up data segments before running).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Total instructions retired so far across all `run` calls.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Instruction index of the next instruction [`Vm::run`] would execute.
    ///
    /// Together with single-instruction fuel this lets a harness observe
    /// the architectural state *between* retirements — the hook the
    /// abstract-interpretation soundness checker uses to compare claimed
    /// value ranges against actual register contents.
    pub fn next_idx(&self) -> usize {
        self.next
    }

    fn indirect_target(&self, addr: u64) -> Result<usize, VmError> {
        let base = self.prog.base();
        if addr < base || !(addr - base).is_multiple_of(INST_BYTES) {
            return Err(VmError::BadPc(addr));
        }
        let idx = ((addr - base) / INST_BYTES) as usize;
        if idx >= self.prog.len() {
            return Err(VmError::BadPc(addr));
        }
        Ok(idx)
    }

    /// Execute until `halt`, an error, or `fuel` retired instructions.
    ///
    /// Retired instructions are delivered to `sink` in program order.
    /// Delivery is batched: instructions are buffered into blocks of at
    /// most [`BATCH_CAPACITY`] and handed over via
    /// [`TraceSink::retire_block`], with flushes at taken-control-flow
    /// boundaries (once the buffer passes [`BATCH_WATERMARK`]), at `halt`,
    /// at fuel exhaustion, and before any error return — so every executed
    /// instruction reaches the sink exactly once regardless of how the run
    /// ends. The machine can be resumed by calling `run` again after a
    /// [`RunExit::FuelExhausted`].
    ///
    /// # Errors
    ///
    /// [`VmError::BadPc`] if an indirect control transfer leaves the text
    /// segment; also returned if execution falls off the end of the program.
    /// Instructions retired before the fault are flushed to `sink` first
    /// (the faulting instruction itself never retires).
    pub fn run<S: TraceSink + ?Sized>(
        &mut self,
        sink: &mut S,
        fuel: u64,
    ) -> Result<RunExit, VmError> {
        let mut batch: Vec<DynInst> = Vec::with_capacity(BATCH_CAPACITY);
        let result = self.run_batched(sink, fuel, &mut batch);
        if !batch.is_empty() {
            sink.retire_block(&batch);
        }
        result
    }

    /// The interpreter loop. Buffers retired instructions into `batch`,
    /// flushing to `sink` at capacity and at basic-block ends past the
    /// watermark; the caller flushes whatever remains on any return path.
    fn run_batched<S: TraceSink + ?Sized>(
        &mut self,
        sink: &mut S,
        fuel: u64,
        batch: &mut Vec<DynInst>,
    ) -> Result<RunExit, VmError> {
        let mut remaining = fuel;
        while remaining > 0 {
            if self.next >= self.prog.len() {
                return Err(VmError::BadPc(self.prog.pc_of(self.next)));
            }
            let idx = self.next;
            let pc = self.prog.pc_of(idx);
            let fallthrough = idx + 1;
            let op = self.prog.insts()[idx];

            let mut d = DynInst {
                pc,
                class: InstClass::IntAlu,
                dst: None,
                srcs: [None, None, None],
                mem: None,
                ctrl: None,
            };
            let mut next = fallthrough;
            let mut halted = false;

            macro_rules! alu3 {
                ($d:expr, $a:expr, $b:expr, $f:expr) => {{
                    let v = $f(self.reg($a), self.reg($b));
                    self.set_reg($d, v);
                    d.dst = dst($d);
                    d.srcs = [src($a), src($b), None];
                }};
            }
            macro_rules! alui {
                ($d:expr, $a:expr, $f:expr) => {{
                    let v = $f(self.reg($a));
                    self.set_reg($d, v);
                    d.dst = dst($d);
                    d.srcs = [src($a), None, None];
                }};
            }
            macro_rules! fp3 {
                ($d:expr, $a:expr, $b:expr, $f:expr) => {{
                    let v = $f(self.freg($a), self.freg($b));
                    self.set_freg($d, v);
                    d.class = InstClass::Fp;
                    d.dst = Some($d.into());
                    d.srcs = [Some($a.into()), Some($b.into()), None];
                }};
            }
            macro_rules! fp2 {
                ($d:expr, $a:expr, $f:expr) => {{
                    let v = $f(self.freg($a));
                    self.set_freg($d, v);
                    d.class = InstClass::Fp;
                    d.dst = Some($d.into());
                    d.srcs = [Some($a.into()), None, None];
                }};
            }
            macro_rules! branch {
                ($a:expr, $b:expr, $t:expr, $cond:expr) => {{
                    let taken = $cond(self.reg($a), self.reg($b));
                    d.class = InstClass::Branch;
                    d.srcs = [src($a), src($b), None];
                    let target_pc =
                        if taken { self.prog.pc_of($t) } else { self.prog.pc_of(fallthrough) };
                    d.ctrl = Some(CtrlInfo { taken, target: target_pc, conditional: true });
                    if taken {
                        next = $t;
                    }
                }};
            }

            match op {
                Op::Add(dr, a, b) => alu3!(dr, a, b, |x: u64, y: u64| x.wrapping_add(y)),
                Op::Sub(dr, a, b) => alu3!(dr, a, b, |x: u64, y: u64| x.wrapping_sub(y)),
                Op::And(dr, a, b) => alu3!(dr, a, b, |x, y| x & y),
                Op::Or(dr, a, b) => alu3!(dr, a, b, |x, y| x | y),
                Op::Xor(dr, a, b) => alu3!(dr, a, b, |x, y| x ^ y),
                Op::Sll(dr, a, b) => alu3!(dr, a, b, |x: u64, y: u64| x.wrapping_shl(y as u32)),
                Op::Srl(dr, a, b) => alu3!(dr, a, b, |x: u64, y: u64| x.wrapping_shr(y as u32)),
                Op::Sra(dr, a, b) => {
                    alu3!(dr, a, b, |x: u64, y: u64| ((x as i64).wrapping_shr(y as u32)) as u64)
                }
                Op::Slt(dr, a, b) => alu3!(dr, a, b, |x, y| ((x as i64) < (y as i64)) as u64),
                Op::Sltu(dr, a, b) => alu3!(dr, a, b, |x, y| (x < y) as u64),
                Op::Addi(dr, a, imm) => alui!(dr, a, |x: u64| x.wrapping_add(imm as u64)),
                Op::Andi(dr, a, imm) => alui!(dr, a, |x| x & imm as u64),
                Op::Ori(dr, a, imm) => alui!(dr, a, |x| x | imm as u64),
                Op::Xori(dr, a, imm) => alui!(dr, a, |x| x ^ imm as u64),
                Op::Slli(dr, a, sh) => alui!(dr, a, |x: u64| x.wrapping_shl(sh as u32)),
                Op::Srli(dr, a, sh) => alui!(dr, a, |x: u64| x.wrapping_shr(sh as u32)),
                Op::Srai(dr, a, sh) => {
                    alui!(dr, a, |x: u64| ((x as i64).wrapping_shr(sh as u32)) as u64)
                }
                Op::Slti(dr, a, imm) => alui!(dr, a, |x| ((x as i64) < imm) as u64),
                Op::Li(dr, imm) => {
                    self.set_reg(dr, imm as u64);
                    d.dst = dst(dr);
                }
                Op::Mul(dr, a, b) => {
                    alu3!(dr, a, b, |x: u64, y: u64| x.wrapping_mul(y));
                    d.class = InstClass::IntMul;
                }
                Op::Mulh(dr, a, b) => {
                    alu3!(dr, a, b, |x: u64, y: u64| ((x as u128 * y as u128) >> 64) as u64);
                    d.class = InstClass::IntMul;
                }
                Op::Div(dr, a, b) => {
                    alu3!(dr, a, b, |x: u64, y: u64| {
                        if y == 0 {
                            u64::MAX
                        } else {
                            ((x as i64).wrapping_div(y as i64)) as u64
                        }
                    });
                    d.class = InstClass::IntMul;
                }
                Op::Rem(dr, a, b) => {
                    alu3!(dr, a, b, |x: u64, y: u64| {
                        if y == 0 {
                            x
                        } else {
                            ((x as i64).wrapping_rem(y as i64)) as u64
                        }
                    });
                    d.class = InstClass::IntMul;
                }
                Op::Fadd(fd, a, b) => fp3!(fd, a, b, |x: f64, y: f64| x + y),
                Op::Fsub(fd, a, b) => fp3!(fd, a, b, |x: f64, y: f64| x - y),
                Op::Fmul(fd, a, b) => fp3!(fd, a, b, |x: f64, y: f64| x * y),
                Op::Fdiv(fd, a, b) => fp3!(fd, a, b, |x: f64, y: f64| x / y),
                Op::Fsqrt(fd, a) => fp2!(fd, a, |x: f64| x.sqrt()),
                Op::Fabs(fd, a) => fp2!(fd, a, |x: f64| x.abs()),
                Op::Fneg(fd, a) => fp2!(fd, a, |x: f64| -x),
                Op::Fmin(fd, a, b) => fp3!(fd, a, b, |x: f64, y: f64| x.min(y)),
                Op::Fmax(fd, a, b) => fp3!(fd, a, b, |x: f64, y: f64| x.max(y)),
                Op::Fli(fd, imm) => {
                    self.set_freg(fd, imm);
                    d.class = InstClass::Fp;
                    d.dst = Some(fd.into());
                }
                Op::Fmov(fd, a) => fp2!(fd, a, |x| x),
                Op::Fcvtif(fd, a) => {
                    let v = self.reg(a) as i64 as f64;
                    self.set_freg(fd, v);
                    d.class = InstClass::Fp;
                    d.dst = Some(fd.into());
                    d.srcs = [src(a), None, None];
                }
                Op::Fcvtfi(dr, a) => {
                    let x = self.freg(a);
                    let v = if x.is_nan() { 0 } else { x as i64 as u64 };
                    self.set_reg(dr, v);
                    d.class = InstClass::Fp;
                    d.dst = dst(dr);
                    d.srcs = [Some(a.into()), None, None];
                }
                Op::Fcmp(dr, a, b, cmp) => {
                    let (x, y) = (self.freg(a), self.freg(b));
                    let v = match cmp {
                        FCmpOp::Lt => x < y,
                        FCmpOp::Le => x <= y,
                        FCmpOp::Eq => x == y,
                    } as u64;
                    self.set_reg(dr, v);
                    d.class = InstClass::Fp;
                    d.dst = dst(dr);
                    d.srcs = [Some(a.into()), Some(b.into()), None];
                }
                Op::Ld(dr, base, off, w) => {
                    let addr = self.reg(base).wrapping_add(off as u64);
                    let v = self.mem.read_le(addr, w.bytes());
                    self.set_reg(dr, v);
                    d.class = InstClass::Load;
                    d.dst = dst(dr);
                    d.srcs = [src(base), None, None];
                    d.mem = Some(MemAccess { addr, size: w.bytes(), is_store: false });
                }
                Op::St(sr, base, off, w) => {
                    let addr = self.reg(base).wrapping_add(off as u64);
                    self.mem.write_le(addr, w.bytes(), self.reg(sr));
                    d.class = InstClass::Store;
                    d.srcs = [src(sr), src(base), None];
                    d.mem = Some(MemAccess { addr, size: w.bytes(), is_store: true });
                }
                Op::Ldf(fd, base, off) => {
                    let addr = self.reg(base).wrapping_add(off as u64);
                    let v = self.mem.read_f64(addr);
                    self.set_freg(fd, v);
                    d.class = InstClass::Load;
                    d.dst = Some(fd.into());
                    d.srcs = [src(base), None, None];
                    d.mem = Some(MemAccess { addr, size: MemWidth::B8.bytes(), is_store: false });
                }
                Op::Stf(fs, base, off) => {
                    let addr = self.reg(base).wrapping_add(off as u64);
                    self.mem.write_f64(addr, self.freg(fs));
                    d.class = InstClass::Store;
                    d.srcs = [Some(fs.into()), src(base), None];
                    d.mem = Some(MemAccess { addr, size: MemWidth::B8.bytes(), is_store: true });
                }
                Op::Beq(a, b, t) => branch!(a, b, t, |x, y| x == y),
                Op::Bne(a, b, t) => branch!(a, b, t, |x, y| x != y),
                Op::Blt(a, b, t) => branch!(a, b, t, |x, y| (x as i64) < (y as i64)),
                Op::Bge(a, b, t) => branch!(a, b, t, |x, y| (x as i64) >= (y as i64)),
                Op::Bltu(a, b, t) => branch!(a, b, t, |x: u64, y: u64| x < y),
                Op::Bgeu(a, b, t) => branch!(a, b, t, |x: u64, y: u64| x >= y),
                Op::Jmp(t) => {
                    d.class = InstClass::Jump;
                    d.ctrl =
                        Some(CtrlInfo { taken: true, target: self.prog.pc_of(t), conditional: false });
                    next = t;
                }
                Op::Jr(r) => {
                    let addr = self.reg(r);
                    let t = self.indirect_target(addr)?;
                    d.class = InstClass::Jump;
                    d.srcs = [src(r), None, None];
                    d.ctrl = Some(CtrlInfo { taken: true, target: addr, conditional: false });
                    next = t;
                }
                Op::Call(t) => {
                    let ret_pc = self.prog.pc_of(fallthrough);
                    self.regs[RA as usize] = ret_pc;
                    d.class = InstClass::Jump;
                    d.dst = Some(RegRef::Int(RA));
                    d.ctrl =
                        Some(CtrlInfo { taken: true, target: self.prog.pc_of(t), conditional: false });
                    next = t;
                }
                Op::Callr(r) => {
                    let addr = self.reg(r);
                    let t = self.indirect_target(addr)?;
                    let ret_pc = self.prog.pc_of(fallthrough);
                    self.regs[RA as usize] = ret_pc;
                    d.class = InstClass::Jump;
                    d.dst = Some(RegRef::Int(RA));
                    d.srcs = [src(r), None, None];
                    d.ctrl = Some(CtrlInfo { taken: true, target: addr, conditional: false });
                    next = t;
                }
                Op::Ret => {
                    let addr = self.regs[RA as usize];
                    let t = self.indirect_target(addr)?;
                    d.class = InstClass::Jump;
                    d.srcs = [Some(RegRef::Int(RA)), None, None];
                    d.ctrl = Some(CtrlInfo { taken: true, target: addr, conditional: false });
                    next = t;
                }
                Op::Halt => {
                    halted = true;
                }
            }

            self.next = next;
            self.retired += 1;
            remaining -= 1;
            let block_end = d.ctrl.is_some();
            batch.push(d);
            if batch.len() >= BATCH_CAPACITY || (block_end && batch.len() >= BATCH_WATERMARK) {
                sink.retire_block(batch);
                batch.clear();
            }
            if halted {
                return Ok(RunExit::Halted);
            }
        }
        Ok(RunExit::FuelExhausted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::*;
    use crate::Asm;

    fn run_prog(build: impl FnOnce(&mut Asm)) -> (Vm, Vec<DynInst>) {
        struct Rec(Vec<DynInst>);
        impl TraceSink for Rec {
            fn retire(&mut self, i: &DynInst) {
                self.0.push(*i);
            }
        }
        let mut a = Asm::new();
        build(&mut a);
        let prog = a.assemble().unwrap();
        let mut vm = Vm::new(prog);
        let mut rec = Rec(Vec::new());
        vm.run(&mut rec, 1_000_000).unwrap();
        (vm, rec.0)
    }

    #[test]
    fn arithmetic_semantics() {
        let (vm, _) = run_prog(|a| {
            a.li(T0, 7);
            a.li(T1, -3);
            a.add(T2, T0, T1); // 4
            a.sub(T3, T0, T1); // 10
            a.mul(T4, T0, T1); // -21
            a.div(T5, T1, T0); // 0
            a.rem(T6, T0, T1); // 1
            a.halt();
        });
        assert_eq!(vm.reg(T2), 4);
        assert_eq!(vm.reg(T3), 10);
        assert_eq!(vm.reg(T4) as i64, -21);
        assert_eq!(vm.reg(T5), 0);
        assert_eq!(vm.reg(T6) as i64, 1);
    }

    #[test]
    fn division_by_zero_is_defined() {
        let (vm, _) = run_prog(|a| {
            a.li(T0, 42);
            a.div(T1, T0, ZERO);
            a.rem(T2, T0, ZERO);
            a.halt();
        });
        assert_eq!(vm.reg(T1), u64::MAX);
        assert_eq!(vm.reg(T2), 42);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let (vm, trace) = run_prog(|a| {
            a.li(ZERO, 99);
            a.addi(T0, ZERO, 5);
            a.halt();
        });
        assert_eq!(vm.reg(ZERO), 0);
        assert_eq!(vm.reg(T0), 5);
        // Writes to and reads of x0 don't show up as dependencies.
        assert_eq!(trace[0].dst, None);
        assert_eq!(trace[1].num_sources(), 0);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let (vm, trace) = run_prog(|a| {
            a.li(T0, 0x8000);
            a.li(T1, 0x1234_5678);
            a.st4(T1, T0, 8);
            a.ld4(T2, T0, 8);
            a.halt();
        });
        assert_eq!(vm.reg(T2), 0x1234_5678);
        let st = trace.iter().find(|d| d.class == InstClass::Store).unwrap();
        assert_eq!(st.mem.unwrap().addr, 0x8008);
        assert!(st.mem.unwrap().is_store);
        let ld = trace.iter().find(|d| d.class == InstClass::Load).unwrap();
        assert_eq!(ld.mem.unwrap().addr, 0x8008);
        assert_eq!(ld.mem.unwrap().size, 4);
    }

    #[test]
    fn fp_semantics() {
        let (vm, _) = run_prog(|a| {
            a.fli(F0, 2.0);
            a.fli(F1, 8.0);
            a.fadd(F2, F0, F1);
            a.fsqrt(F3, F2);
            a.fdiv(F4, F1, F0);
            a.fcmplt(T0, F0, F1);
            a.fcvtfi(T1, F1);
            a.fcvtif(F5, T1);
            a.halt();
        });
        assert_eq!(vm.freg(F2), 10.0);
        assert!((vm.freg(F3) - 10.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(vm.freg(F4), 4.0);
        assert_eq!(vm.reg(T0), 1);
        assert_eq!(vm.reg(T1), 8);
        assert_eq!(vm.freg(F5), 8.0);
    }

    #[test]
    fn branch_outcomes_and_targets() {
        let (_, trace) = run_prog(|a| {
            let skip = a.label();
            a.li(T0, 1);
            a.beq(T0, ZERO, skip); // not taken
            a.bne(T0, ZERO, skip); // taken
            a.li(T1, 111); // skipped
            a.bind(skip);
            a.halt();
        });
        let branches: Vec<_> = trace.iter().filter(|d| d.class == InstClass::Branch).collect();
        assert_eq!(branches.len(), 2);
        assert!(!branches[0].ctrl.unwrap().taken);
        assert!(branches[1].ctrl.unwrap().taken);
        // Not-taken target is the fall-through pc.
        assert_eq!(branches[0].ctrl.unwrap().target, branches[0].pc + INST_BYTES);
    }

    #[test]
    fn call_and_ret() {
        let (vm, trace) = run_prog(|a| {
            let (f, after) = (a.label(), a.label());
            a.li(A0, 20);
            a.call(f);
            a.jmp(after);
            a.bind(f);
            a.addi(A0, A0, 22);
            a.ret();
            a.bind(after);
            a.halt();
        });
        assert_eq!(vm.reg(A0), 42);
        let call = trace.iter().find(|d| d.dst == Some(RegRef::Int(31))).unwrap();
        assert_eq!(call.class, InstClass::Jump);
        assert!(trace.iter().any(|d| d.srcs[0] == Some(RegRef::Int(31))));
    }

    #[test]
    fn fuel_exhaustion_and_resume() {
        let mut a = Asm::new();
        let head = a.label();
        a.bind(head);
        a.addi(T0, T0, 1);
        a.slti(T1, T0, 100);
        a.bne(T1, ZERO, head);
        a.halt();
        let mut vm = Vm::new(a.assemble().unwrap());
        let mut sink = CountingSink::default();
        assert_eq!(vm.run(&mut sink, 10).unwrap(), RunExit::FuelExhausted);
        assert_eq!(sink.retired(), 10);
        assert_eq!(vm.run(&mut sink, u64::MAX / 2).unwrap(), RunExit::Halted);
        assert_eq!(vm.reg(T0), 100);
    }

    #[test]
    fn bad_indirect_target_errors() {
        let mut a = Asm::new();
        a.li(T0, 3); // unaligned, below base
        a.jr(T0);
        a.halt();
        let mut vm = Vm::new(a.assemble().unwrap());
        let mut sink = CountingSink::default();
        assert_eq!(vm.run(&mut sink, 100), Err(VmError::BadPc(3)));
        // The instruction retired before the fault is flushed to the sink.
        assert_eq!(sink.retired(), 1);
    }

    #[test]
    fn block_delivery_concatenates_to_the_per_instruction_stream() {
        #[derive(Default)]
        struct Blocks {
            insts: Vec<DynInst>,
            sizes: Vec<usize>,
        }
        impl TraceSink for Blocks {
            fn retire(&mut self, _inst: &DynInst) {
                panic!("vm must deliver through retire_block");
            }
            fn retire_block(&mut self, block: &[DynInst]) {
                self.sizes.push(block.len());
                self.insts.extend_from_slice(block);
            }
        }
        let build = |a: &mut Asm| {
            let head = a.label();
            a.li(T0, 0);
            a.li(T2, 0x9000);
            a.bind(head);
            a.st8(T0, T2, 0);
            a.ld8(T3, T2, 0);
            a.addi(T0, T0, 1);
            a.addi(T2, T2, 8);
            a.slti(T1, T0, 400);
            a.bne(T1, ZERO, head);
            a.halt();
        };
        let (_, per_inst) = run_prog(build);
        let mut a = Asm::new();
        build(&mut a);
        let mut vm = Vm::new(a.assemble().unwrap());
        let mut sink = Blocks::default();
        assert_eq!(vm.run(&mut sink, 1_000_000).unwrap(), RunExit::Halted);
        assert_eq!(sink.insts, per_inst);
        assert!(sink.sizes.iter().all(|&n| n > 0 && n <= BATCH_CAPACITY));
        // A loop this long must need more than one block.
        assert!(sink.sizes.len() > 1, "sizes = {:?}", sink.sizes);
    }

    #[test]
    fn resume_after_fuel_exhaustion_loses_no_instructions() {
        let mut a = Asm::new();
        let head = a.label();
        a.bind(head);
        a.addi(T0, T0, 1);
        a.slti(T1, T0, 500);
        a.bne(T1, ZERO, head);
        a.halt();
        let mut vm = Vm::new(a.assemble().unwrap());
        let mut sink = CountingSink::default();
        // Fuel boundaries that don't line up with block or loop boundaries.
        let mut total = 0u64;
        for fuel in [1u64, 7, 100, 300, u64::MAX / 2] {
            let exit = vm.run(&mut sink, fuel).unwrap();
            total = vm.retired();
            if exit == RunExit::Halted {
                break;
            }
        }
        assert_eq!(sink.retired(), total);
        assert_eq!(vm.reg(T0), 500);
    }

    #[test]
    fn falling_off_the_end_errors() {
        let mut a = Asm::new();
        a.li(T0, 1);
        let mut vm = Vm::new(a.assemble().unwrap());
        let mut sink = CountingSink::default();
        assert!(matches!(vm.run(&mut sink, 100), Err(VmError::BadPc(_))));
    }

    #[test]
    fn static_class_matches_retired_class() {
        // Every retired DynInst must carry exactly Op::class() of its
        // static instruction — the parity the static-mix report rests on.
        let (vm, trace) = run_prog(|a| {
            let skip = a.label();
            a.li(T0, 3);
            a.li(T1, 0x8000);
            a.fli(F0, 1.5);
            a.mul(T2, T0, T0);
            a.fadd(F1, F0, F0);
            a.st8(T2, T1, 0);
            a.ld8(T3, T1, 0);
            a.stf(F1, T1, 8);
            a.beq(T3, ZERO, skip);
            a.bind(skip);
            a.fcvtfi(T4, F1);
            a.halt();
        });
        for d in &trace {
            let idx = vm.program().idx_of(d.pc);
            assert_eq!(d.class, vm.program().insts()[idx].class(), "pc {:#x}", d.pc);
        }
    }

    #[test]
    fn determinism_same_program_same_trace() {
        let build = |a: &mut Asm| {
            let head = a.label();
            a.li(T0, 0);
            a.li(T2, 0x9000);
            a.bind(head);
            a.st8(T0, T2, 0);
            a.ld8(T3, T2, 0);
            a.addi(T0, T0, 1);
            a.addi(T2, T2, 8);
            a.slti(T1, T0, 50);
            a.bne(T1, ZERO, head);
            a.halt();
        };
        let (_, t1) = run_prog(build);
        let (_, t2) = run_prog(build);
        assert_eq!(t1, t2);
    }
}
