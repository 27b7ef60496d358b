//! A small Alpha-like 64-bit load/store RISC ISA with an assembler and a
//! tracing virtual machine.
//!
//! This crate is the execution substrate for the MICA reproduction: the
//! original paper instrumented Alpha binaries with ATOM; here, workloads are
//! written against [`Asm`] (a label-resolving assembler builder), executed by
//! [`Vm`], and every retired instruction is delivered as a [`DynInst`] event
//! to a [`TraceSink`] observer — the moral equivalent of an ATOM analysis
//! routine.
//!
//! # Example
//!
//! Count retired instructions of a loop summing `0..10`:
//!
//! ```
//! use tinyisa::{Asm, Vm, CountingSink, regs::*};
//!
//! # fn main() -> Result<(), tinyisa::AsmError> {
//! let mut a = Asm::new();
//! let (head, done) = (a.label(), a.label());
//! a.li(T0, 0); // i
//! a.li(T1, 0); // sum
//! a.bind(head);
//! a.slti(T2, T0, 10);
//! a.beq(T2, ZERO, done);
//! a.add(T1, T1, T0);
//! a.addi(T0, T0, 1);
//! a.jmp(head);
//! a.bind(done);
//! a.halt();
//! let prog = a.assemble()?;
//!
//! let mut sink = CountingSink::default();
//! let mut vm = Vm::new(prog);
//! vm.run(&mut sink, 1_000_000).unwrap();
//! assert_eq!(vm.reg(T1), 45);
//! assert!(sink.retired() > 40);
//! # Ok(())
//! # }
//! ```

mod asm;
mod disasm;
mod flat;
mod inst;
mod mem;
mod trace;
mod vm;

pub use asm::{Asm, AsmError, Label, Program};
pub use disasm::disassemble_op;
pub use flat::FlatTable;
pub use inst::{
    CtrlInfo, DynInst, FCmpOp, Flow, InstClass, MemAccess, MemWidth, Op, RegRef, StaticMemRef,
};
pub use mem::Memory;
pub use trace::{Trace, TraceRecorder};
pub use vm::{CountingSink, RunExit, TraceSink, Vm, VmError, BATCH_CAPACITY, BATCH_WATERMARK};

/// An integer (general-purpose) architectural register, `x0`..`x31`.
///
/// `x0` ([`regs::ZERO`]) is hardwired to zero: writes are discarded and reads
/// do not appear as register dependencies in [`DynInst`] events, matching how
/// the Alpha `r31` behaves under ATOM-style analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

/// A floating-point architectural register, `f0`..`f31`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FReg(pub u8);

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl std::fmt::Display for FReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Number of integer registers.
pub const NUM_INT_REGS: usize = 32;
/// Number of floating-point registers.
pub const NUM_FP_REGS: usize = 32;
/// Bytes per (fixed-width) instruction; used when assigning PCs.
pub const INST_BYTES: u64 = 4;

/// Conventional register names.
///
/// The ABI is purely conventional — nothing in the VM enforces it — but the
/// workload kernels follow it: `A0..A5` arguments, `T0..T9` temporaries,
/// `S0..S11` saved, `SP` stack pointer, `RA` link register written by `call`.
pub mod regs {
    use super::{FReg, Reg};

    /// Hardwired zero.
    pub const ZERO: Reg = Reg(0);
    pub const A0: Reg = Reg(1);
    pub const A1: Reg = Reg(2);
    pub const A2: Reg = Reg(3);
    pub const A3: Reg = Reg(4);
    pub const A4: Reg = Reg(5);
    pub const A5: Reg = Reg(6);
    pub const T0: Reg = Reg(7);
    pub const T1: Reg = Reg(8);
    pub const T2: Reg = Reg(9);
    pub const T3: Reg = Reg(10);
    pub const T4: Reg = Reg(11);
    pub const T5: Reg = Reg(12);
    pub const T6: Reg = Reg(13);
    pub const T7: Reg = Reg(14);
    pub const T8: Reg = Reg(15);
    pub const T9: Reg = Reg(16);
    pub const S0: Reg = Reg(17);
    pub const S1: Reg = Reg(18);
    pub const S2: Reg = Reg(19);
    pub const S3: Reg = Reg(20);
    pub const S4: Reg = Reg(21);
    pub const S5: Reg = Reg(22);
    pub const S6: Reg = Reg(23);
    pub const S7: Reg = Reg(24);
    pub const S8: Reg = Reg(25);
    pub const S9: Reg = Reg(26);
    pub const S10: Reg = Reg(27);
    pub const S11: Reg = Reg(28);
    pub const GP: Reg = Reg(29);
    /// Conventional stack pointer.
    pub const SP: Reg = Reg(30);
    /// Link register, written by `call`.
    pub const RA: Reg = Reg(31);

    pub const F0: FReg = FReg(0);
    pub const F1: FReg = FReg(1);
    pub const F2: FReg = FReg(2);
    pub const F3: FReg = FReg(3);
    pub const F4: FReg = FReg(4);
    pub const F5: FReg = FReg(5);
    pub const F6: FReg = FReg(6);
    pub const F7: FReg = FReg(7);
    pub const F8: FReg = FReg(8);
    pub const F9: FReg = FReg(9);
    pub const F10: FReg = FReg(10);
    pub const F11: FReg = FReg(11);
    pub const F12: FReg = FReg(12);
    pub const F13: FReg = FReg(13);
    pub const F14: FReg = FReg(14);
    pub const F15: FReg = FReg(15);
}
