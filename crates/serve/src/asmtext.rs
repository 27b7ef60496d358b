//! A text assembler for submitted kernels.
//!
//! Clients submit programs in exactly the syntax the disassembler prints
//! (`tinyisa::disassemble_op`), so any listing the toolchain emits can be
//! round-tripped back through the server:
//!
//! ```text
//! # comments run to end of line ('#' or ';')
//!         li x7, 1000
//! loop:                        # labels are identifiers ending in ':'
//!         addi x7, x7, -1
//!         ld8 x8, 16(x7)
//!         fcmplt x9, f0, f1
//!         bne x7, x0, loop     # branch targets: label or absolute pc
//!         halt
//! ```
//!
//! Registers are `x0`..`x31` and `f0`..`f31`; immediates are decimal or
//! `0x` hex; memory operands are `off(base)`; branch/jump/call targets are
//! label names or absolute byte addresses (hex or decimal) as printed by
//! the disassembler. The submitted kernel starts with zeroed registers and
//! memory and must initialize its own data — there is no loader.

use std::collections::BTreeMap;
use std::fmt;
use tinyisa::{Asm, FReg, Label, Program, Reg};

/// Why a submitted listing did not assemble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmTextError {
    /// 1-based source line the error was found on (0 for program-level
    /// errors such as an empty submission).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "asm: {}", self.message)
        } else {
            write!(f, "asm line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for AsmTextError {}

fn err(line: usize, message: impl Into<String>) -> AsmTextError {
    AsmTextError { line, message: message.into() }
}

/// Hard cap on submitted program length; keeps a hostile submission from
/// ballooning server memory before admission control can see it.
pub const MAX_INSTS: usize = 4096;

/// Strip a comment and surrounding whitespace.
fn clean(line: &str) -> &str {
    let line = match line.find(['#', ';']) {
        Some(i) => &line[..i],
        None => line,
    };
    line.trim()
}

/// Parse an integer register `x0`..`x31`.
fn reg(line: usize, tok: &str) -> Result<Reg, AsmTextError> {
    let n = tok
        .strip_prefix('x')
        .and_then(|s| s.parse::<u8>().ok())
        .filter(|&n| (n as usize) < tinyisa::NUM_INT_REGS)
        .ok_or_else(|| err(line, format!("expected integer register x0..x31, got `{tok}`")))?;
    Ok(Reg(n))
}

/// Parse a float register `f0`..`f31`.
fn freg(line: usize, tok: &str) -> Result<FReg, AsmTextError> {
    let n = tok
        .strip_prefix('f')
        .and_then(|s| s.parse::<u8>().ok())
        .filter(|&n| (n as usize) < tinyisa::NUM_FP_REGS)
        .ok_or_else(|| err(line, format!("expected float register f0..f31, got `{tok}`")))?;
    Ok(FReg(n))
}

/// Parse a signed integer immediate (decimal or 0x hex).
fn imm(line: usize, tok: &str) -> Result<i64, AsmTextError> {
    let (neg, body) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let v = match body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        Some(hex) => i64::from_str_radix(hex, 16),
        None => body.parse::<i64>(),
    }
    .map_err(|_| err(line, format!("expected integer immediate, got `{tok}`")))?;
    Ok(if neg { -v } else { v })
}

/// Parse a shift amount (0..63).
fn shamt(line: usize, tok: &str) -> Result<u8, AsmTextError> {
    let v = imm(line, tok)?;
    u8::try_from(v)
        .ok()
        .filter(|&s| s < 64)
        .ok_or_else(|| err(line, format!("shift amount out of range: `{tok}`")))
}

/// Parse a float immediate.
fn fimm(line: usize, tok: &str) -> Result<f64, AsmTextError> {
    tok.parse::<f64>().map_err(|_| err(line, format!("expected float immediate, got `{tok}`")))
}

/// Parse a memory operand `off(base)`.
fn mem(line: usize, tok: &str) -> Result<(i64, Reg), AsmTextError> {
    let open = tok
        .find('(')
        .ok_or_else(|| err(line, format!("expected memory operand off(base), got `{tok}`")))?;
    let close = tok
        .strip_suffix(')')
        .ok_or_else(|| err(line, format!("unclosed memory operand `{tok}`")))?;
    let off = if open == 0 { 0 } else { imm(line, &tok[..open])? };
    let base = reg(line, &close[open + 1..])?;
    Ok((off, base))
}

/// One instruction, split into mnemonic and comma-separated operands.
struct Line<'a> {
    source: usize,
    mnemonic: &'a str,
    operands: Vec<&'a str>,
}

/// A branch/jump/call target: a label name or an absolute byte address.
enum Target<'a> {
    Name(&'a str),
    Pc(u64),
}

fn target<'a>(line: usize, tok: &'a str) -> Result<Target<'a>, AsmTextError> {
    if tok.starts_with("0x") || tok.starts_with("0X") || tok.chars().all(|c| c.is_ascii_digit()) {
        let pc = match tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => tok.parse::<u64>(),
        }
        .map_err(|_| err(line, format!("bad branch target `{tok}`")))?;
        Ok(Target::Pc(pc))
    } else {
        Ok(Target::Name(tok))
    }
}

/// Assemble a submitted listing into a [`Program`].
///
/// # Errors
///
/// [`AsmTextError`] pinpointing the offending line: unknown mnemonics,
/// malformed operands, unknown or duplicate labels, out-of-range branch
/// targets, and oversized (> [`MAX_INSTS`]) or empty programs.
pub fn assemble(text: &str) -> Result<Program, AsmTextError> {
    // Pass 1: split labels from instructions, note each label's
    // instruction index.
    let mut labels: BTreeMap<&str, usize> = BTreeMap::new();
    let mut insts: Vec<Line<'_>> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let source = i + 1;
        let mut rest = clean(raw);
        // Any number of leading `name:` label definitions.
        while let Some(colon) = rest.find(':') {
            let (name, tail) = rest.split_at(colon);
            let name = name.trim();
            if name.is_empty()
                || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
                || name.chars().next().is_some_and(|c| c.is_ascii_digit())
            {
                break; // not a label — let the mnemonic parser complain
            }
            if labels.insert(name, insts.len()).is_some() {
                return Err(err(source, format!("duplicate label `{name}`")));
            }
            rest = tail[1..].trim_start();
        }
        if rest.is_empty() {
            continue;
        }
        let (mnemonic, tail) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
        let operands: Vec<&str> =
            tail.split(',').map(str::trim).filter(|t| !t.is_empty()).collect();
        insts.push(Line { source, mnemonic, operands });
        if insts.len() > MAX_INSTS {
            return Err(err(source, format!("program exceeds {MAX_INSTS} instructions")));
        }
    }
    if insts.is_empty() {
        return Err(err(0, "empty program"));
    }
    for (&name, &idx) in &labels {
        if idx >= insts.len() {
            return Err(err(0, format!("label `{name}` is bound past the last instruction")));
        }
    }

    // Pass 2: emit. Branch targets need `tinyisa::Label`s bound at their
    // target instruction, so allocate one per instruction index up front
    // and bind each as emission passes its index.
    let mut a = Asm::new();
    // `Asm::new()`'s documented text base; absolute-pc branch targets (the
    // form the disassembler emits) are mapped back through it.
    let base = 0x1_0000u64;
    let bound: Vec<Label> = (0..insts.len()).map(|_| a.label()).collect();
    let resolve = |line: usize, tok: &str| -> Result<Label, AsmTextError> {
        let idx = match target(line, tok)? {
            Target::Name(name) => *labels
                .get(name)
                .ok_or_else(|| err(line, format!("unknown label `{name}`")))?,
            Target::Pc(pc) => {
                if pc < base || !(pc - base).is_multiple_of(4) {
                    return Err(err(line, format!("target {pc:#x} is not an instruction pc")));
                }
                ((pc - base) / 4) as usize
            }
        };
        bound
            .get(idx)
            .copied()
            .ok_or_else(|| err(line, format!("target `{tok}` is past the last instruction")))
    };

    for (idx, l) in insts.iter().enumerate() {
        a.bind(bound[idx]);
        let n = l.source;
        let ops = &l.operands;
        let want = |count: usize| -> Result<(), AsmTextError> {
            if ops.len() == count {
                Ok(())
            } else {
                Err(err(n, format!("{} takes {count} operands, got {}", l.mnemonic, ops.len())))
            }
        };
        match l.mnemonic {
            // Three-register integer ALU.
            "add" | "sub" | "and" | "or" | "xor" | "sll" | "srl" | "sra" | "slt" | "sltu"
            | "mul" | "mulh" | "div" | "rem" => {
                want(3)?;
                let (d, x, y) = (reg(n, ops[0])?, reg(n, ops[1])?, reg(n, ops[2])?);
                match l.mnemonic {
                    "add" => a.add(d, x, y),
                    "sub" => a.sub(d, x, y),
                    "and" => a.and(d, x, y),
                    "or" => a.or(d, x, y),
                    "xor" => a.xor(d, x, y),
                    "sll" => a.sll(d, x, y),
                    "srl" => a.srl(d, x, y),
                    "sra" => a.sra(d, x, y),
                    "slt" => a.slt(d, x, y),
                    "sltu" => a.sltu(d, x, y),
                    "mul" => a.mul(d, x, y),
                    "mulh" => a.mulh(d, x, y),
                    "div" => a.div(d, x, y),
                    _ => a.rem(d, x, y),
                }
            }
            // Register-immediate ALU.
            "addi" | "andi" | "ori" | "xori" | "slti" => {
                want(3)?;
                let (d, x, i) = (reg(n, ops[0])?, reg(n, ops[1])?, imm(n, ops[2])?);
                match l.mnemonic {
                    "addi" => a.addi(d, x, i),
                    "andi" => a.andi(d, x, i),
                    "ori" => a.ori(d, x, i),
                    "xori" => a.xori(d, x, i),
                    _ => a.slti(d, x, i),
                }
            }
            "slli" | "srli" | "srai" => {
                want(3)?;
                let (d, x, s) = (reg(n, ops[0])?, reg(n, ops[1])?, shamt(n, ops[2])?);
                match l.mnemonic {
                    "slli" => a.slli(d, x, s),
                    "srli" => a.srli(d, x, s),
                    _ => a.srai(d, x, s),
                }
            }
            "li" => {
                want(2)?;
                a.li(reg(n, ops[0])?, imm(n, ops[1])?);
            }
            "mov" => {
                want(2)?;
                a.mov(reg(n, ops[0])?, reg(n, ops[1])?);
            }
            // Floating point.
            "fadd" | "fsub" | "fmul" | "fdiv" | "fmin" | "fmax" => {
                want(3)?;
                let (d, x, y) = (freg(n, ops[0])?, freg(n, ops[1])?, freg(n, ops[2])?);
                match l.mnemonic {
                    "fadd" => a.fadd(d, x, y),
                    "fsub" => a.fsub(d, x, y),
                    "fmul" => a.fmul(d, x, y),
                    "fdiv" => a.fdiv(d, x, y),
                    "fmin" => a.fmin(d, x, y),
                    _ => a.fmax(d, x, y),
                }
            }
            "fsqrt" | "fabs" | "fneg" | "fmov" => {
                want(2)?;
                let (d, x) = (freg(n, ops[0])?, freg(n, ops[1])?);
                match l.mnemonic {
                    "fsqrt" => a.fsqrt(d, x),
                    "fabs" => a.fabs(d, x),
                    "fneg" => a.fneg(d, x),
                    _ => a.fmov(d, x),
                }
            }
            "fli" => {
                want(2)?;
                a.fli(freg(n, ops[0])?, fimm(n, ops[1])?);
            }
            "fcvt.i.f" => {
                want(2)?;
                a.fcvtif(freg(n, ops[0])?, reg(n, ops[1])?);
            }
            "fcvt.f.i" => {
                want(2)?;
                a.fcvtfi(reg(n, ops[0])?, freg(n, ops[1])?);
            }
            "fcmplt" | "fcmple" | "fcmpeq" => {
                want(3)?;
                let (d, x, y) = (reg(n, ops[0])?, freg(n, ops[1])?, freg(n, ops[2])?);
                match l.mnemonic {
                    "fcmplt" => a.fcmplt(d, x, y),
                    "fcmple" => a.fcmple(d, x, y),
                    _ => a.fcmpeq(d, x, y),
                }
            }
            // Memory.
            "ld1" | "ld2" | "ld4" | "ld8" => {
                want(2)?;
                let d = reg(n, ops[0])?;
                let (off, b) = mem(n, ops[1])?;
                match l.mnemonic {
                    "ld1" => a.ld1(d, b, off),
                    "ld2" => a.ld2(d, b, off),
                    "ld4" => a.ld4(d, b, off),
                    _ => a.ld8(d, b, off),
                }
            }
            "st1" | "st2" | "st4" | "st8" => {
                want(2)?;
                let s = reg(n, ops[0])?;
                let (off, b) = mem(n, ops[1])?;
                match l.mnemonic {
                    "st1" => a.st1(s, b, off),
                    "st2" => a.st2(s, b, off),
                    "st4" => a.st4(s, b, off),
                    _ => a.st8(s, b, off),
                }
            }
            "ldf" => {
                want(2)?;
                let d = freg(n, ops[0])?;
                let (off, b) = mem(n, ops[1])?;
                a.ldf(d, b, off);
            }
            "stf" => {
                want(2)?;
                let s = freg(n, ops[0])?;
                let (off, b) = mem(n, ops[1])?;
                a.stf(s, b, off);
            }
            // Control.
            "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" => {
                want(3)?;
                let (x, y) = (reg(n, ops[0])?, reg(n, ops[1])?);
                let t = resolve(n, ops[2])?;
                match l.mnemonic {
                    "beq" => a.beq(x, y, t),
                    "bne" => a.bne(x, y, t),
                    "blt" => a.blt(x, y, t),
                    "bge" => a.bge(x, y, t),
                    "bltu" => a.bltu(x, y, t),
                    _ => a.bgeu(x, y, t),
                }
            }
            "jmp" | "call" => {
                want(1)?;
                let t = resolve(n, ops[0])?;
                if l.mnemonic == "jmp" {
                    a.jmp(t);
                } else {
                    a.call(t);
                }
            }
            "jr" | "callr" => {
                want(1)?;
                let r = reg(n, ops[0])?;
                if l.mnemonic == "jr" {
                    a.jr(r);
                } else {
                    a.callr(r);
                }
            }
            "ret" => {
                want(0)?;
                a.ret();
            }
            "halt" => {
                want(0)?;
                a.halt();
            }
            other => return Err(err(n, format!("unknown mnemonic `{other}`"))),
        }
    }

    a.assemble().map_err(|e| err(0, format!("assembly failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_disassembled_listing() {
        let text = "
            li x7, 1000
        loop:
            addi x7, x7, -1
            mul x8, x7, x7
            fli f0, 1.5
            fadd f1, f0, f0
            bne x7, x0, loop
            halt
        ";
        let p = assemble(text).expect("assembles");
        // Strip the per-line `pc:` prefix the listing carries and feed the
        // text back through: same instruction count, same listing.
        let listing = p.disassemble();
        let stripped: String = listing
            .lines()
            .map(|l| l.split_once(':').map(|(_, t)| t.trim()).unwrap_or(l))
            .collect::<Vec<_>>()
            .join("\n");
        let p2 = assemble(&stripped).expect("round-trips");
        assert_eq!(p.disassemble(), p2.disassemble());
    }

    #[test]
    fn absolute_pc_targets_match_labels() {
        // `bne ... loop` and `bne ... 0x10004` must produce the same program.
        let a = assemble("li x7, 9\nloop:\naddi x7, x7, -1\nbne x7, x0, loop\nhalt").unwrap();
        let b = assemble("li x7, 9\naddi x7, x7, -1\nbne x7, x0, 0x10004\nhalt").unwrap();
        assert_eq!(a.disassemble(), b.disassemble());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("li x7, 5\nfrobnicate x1, x2").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"), "{e}");
        let e = assemble("ld8 x1, 16(f3)\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = assemble("beq x1, x2, nowhere\nhalt").unwrap_err();
        assert!(e.message.contains("nowhere"), "{e}");
        let e = assemble("   # only comments\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("empty"), "{e}");
    }

    #[test]
    fn memory_and_shift_operands_parse() {
        let p = assemble("li x5, 0x100\nld8 x6, -8(x5)\nst4 x6, (x5)\nslli x6, x6, 3\nhalt")
            .unwrap();
        let text = p.disassemble();
        assert!(text.contains("ld8 x6, -8(x5)"), "{text}");
        assert!(text.contains("st4 x6, 0(x5)"), "{text}");
        assert!(text.contains("slli x6, x6, 3"), "{text}");
    }

    #[test]
    fn runs_on_the_vm() {
        let p = assemble("li x7, 50\nloop:\naddi x7, x7, -1\nbne x7, x0, loop\nhalt").unwrap();
        let mut vm = tinyisa::Vm::new(p);
        let mut sink = tinyisa::CountingSink::default();
        let exit = vm.run(&mut sink, 10_000).unwrap();
        assert_eq!(exit, tinyisa::RunExit::Halted);
        assert_eq!(vm.retired(), 1 + 50 * 2 + 1);
    }
}
