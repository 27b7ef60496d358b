//! Static verification of assembled [`tinyisa`] programs.
//!
//! The MICA methodology characterizes *inherent* program behavior: a kernel
//! that reads a register it never wrote, jumps out of its text segment, or
//! carries a dead half of its loop body silently skews the 47-metric
//! characterization without failing any dynamic test. This crate analyzes
//! the program text instead of observing an execution:
//!
//! 1. [`Cfg::build`] constructs a basic-block control-flow graph (direct
//!    targets from [`tinyisa::Op::flow`], indirect transfers modeled
//!    conservatively against call return sites and li-materialized text
//!    addresses);
//! 2. reachability lints: unreachable blocks, fall-through off the end of
//!    text (the workload kernels are endless steady-state loops by design,
//!    so a missing `halt` is not a finding);
//! 3. a forward may-uninitialized dataflow over the integer and FP register
//!    files ([`may_uninit_reads`]) flags read-before-write;
//! 4. memory lints on the abstract base address of every load and store: a
//!    singleton address is checked against the segment bounds, the text
//!    segment and the access width; a bounded range whose whole hull misses
//!    every declared segment is flagged too;
//! 5. structural lints: redundant jumps, no-op branches, unresolvable
//!    indirect transfers;
//! 6. an abstract interpretation ([`Analysis`]) layering the natural-loop
//!    forest ([`LoopForest`]), backward liveness ([`Liveness`]), and a
//!    forward interval domain ([`AbsState`], whose singletons are the
//!    must-constants) with widening at loop headers on top of the CFG — and
//!    uses singleton targets to *tighten* the conservative indirect-target
//!    pool before the other passes run; its per-instruction states drive the
//!    memory lints of item 4;
//! 7. analysis-backed lints: dead stores, loops whose every exit branch is
//!    statically refuted;
//! 8. a dynamic soundness harness ([`soundness::check_execution`]) that
//!    single-steps a [`tinyisa::Vm`] and refutes the static claims against
//!    every retired instruction.
//!
//! Findings carry a [`Severity`], the offending pc, and the
//! [`tinyisa::disassemble_op`] rendering of the instruction:
//!
//! ```
//! use tinyisa::{Asm, regs::*};
//! use mica_verify::{verify, VerifyConfig, Severity};
//!
//! let mut a = Asm::new();
//! let top = a.label();
//! a.bind(top);
//! a.addi(T0, T0, 1); // T0 is never initialized: read-before-init
//! a.jmp(top);
//! let prog = a.assemble().unwrap();
//!
//! let report = verify(&prog, &VerifyConfig::default());
//! assert_eq!(report.errors().count(), 1);
//! let f = report.errors().next().unwrap();
//! assert_eq!(f.severity, Severity::Error);
//! assert!(f.rendered().contains("addi x7, x7, 1"));
//! ```

mod absint;
mod cfg;
mod dataflow;
mod dom;
mod liveness;
pub mod soundness;

pub use absint::{branch_outcome, transfer, AbsState, Analysis, FpAbs, IntAbs};
pub use cfg::{Block, Cfg};
pub use dataflow::{may_uninit_reads, RegSet, UninitRead};
pub use dom::{DomTree, LoopForest, NaturalLoop};
pub use liveness::Liveness;
pub use soundness::{check_execution, SoundnessReport, Violation};

use mica_obs as obs;
use std::fmt;
use tinyisa::{disassemble_op, Flow, Op, Program, RegRef, INST_BYTES};

/// Programs verified, across the process.
static PROGRAMS: obs::Counter = obs::Counter::new("verify.programs");
/// Findings produced (errors and warnings together).
static FINDINGS: obs::Counter = obs::Counter::new("verify.findings");

/// How bad a finding is. `Error` findings are behavioral defects (the
/// characterization of the program is not what the kernel author intended);
/// `Warn` findings are suspicious but possibly deliberate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious construct; may be intentional.
    Warn,
    /// Defect: the program does not faithfully express a workload.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// The lint catalog. Each variant is one check; [`Lint::severity`] gives
/// its fixed severity and [`Lint::name`] its stable kebab-case identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// A basic block no path from the entry reaches.
    UnreachableBlock,
    /// Execution can run past the last instruction of the text segment.
    FallsOffEnd,
    /// A register is read while some path from the entry never wrote it.
    UninitRead,
    /// A provably-constant address misses every declared data segment.
    OutOfSegment,
    /// A provably-constant data access lands inside the text segment.
    AccessInText,
    /// A direct branch/jump/call target is outside the text segment.
    BranchTargetOutOfText,
    /// A provably-constant address is not a multiple of the access width.
    MisalignedAccess,
    /// An unconditional jump to the next instruction (dead control flow).
    JumpToFallthrough,
    /// A conditional branch whose taken target is its own fall-through.
    BranchToFallthrough,
    /// An indirect transfer with an empty conservative target pool.
    IndirectUnresolved,
    /// A `li` constant that lands inside the text segment but does not
    /// align to an instruction boundary (a jump through it would split an
    /// instruction).
    SplitTextAddress,
    /// A register written by a reachable instruction that no path ever
    /// reads afterwards (loads and the implicit `call` link write are
    /// exempt — the access, not the value, may be the point).
    DeadStore,
    /// A memory access whose *entire* possible address range (from the
    /// interval analysis) misses every declared data segment.
    IntervalOutOfSegment,
    /// A loop with conditional exit branches, every one of which the
    /// interval analysis refutes: the branch syntax promises an exit the
    /// values can never take.
    LoopNeverExits,
}

impl Lint {
    /// The fixed severity of this lint.
    pub fn severity(self) -> Severity {
        match self {
            Lint::UnreachableBlock
            | Lint::FallsOffEnd
            | Lint::UninitRead
            | Lint::OutOfSegment
            | Lint::AccessInText
            | Lint::BranchTargetOutOfText
            | Lint::DeadStore
            | Lint::IntervalOutOfSegment
            | Lint::LoopNeverExits => Severity::Error,
            Lint::MisalignedAccess
            | Lint::JumpToFallthrough
            | Lint::BranchToFallthrough
            | Lint::IndirectUnresolved
            | Lint::SplitTextAddress => Severity::Warn,
        }
    }

    /// Stable kebab-case identifier (used in rendered findings).
    pub fn name(self) -> &'static str {
        match self {
            Lint::UnreachableBlock => "unreachable-block",
            Lint::FallsOffEnd => "falls-off-end",
            Lint::UninitRead => "uninit-read",
            Lint::OutOfSegment => "out-of-segment",
            Lint::AccessInText => "access-in-text",
            Lint::BranchTargetOutOfText => "branch-target-out-of-text",
            Lint::MisalignedAccess => "misaligned-access",
            Lint::JumpToFallthrough => "jump-to-fallthrough",
            Lint::BranchToFallthrough => "branch-to-fallthrough",
            Lint::IndirectUnresolved => "indirect-unresolved",
            Lint::SplitTextAddress => "split-text-address",
            Lint::DeadStore => "dead-store",
            Lint::IntervalOutOfSegment => "interval-out-of-segment",
            Lint::LoopNeverExits => "loop-never-exits",
        }
    }
}

/// One verifier finding, anchored to an instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Severity (always `lint.severity()`).
    pub severity: Severity,
    /// Which check fired.
    pub lint: Lint,
    /// Instruction index of the offending site.
    pub idx: usize,
    /// Byte address of the offending site.
    pub pc: u64,
    /// Human-readable description of the defect.
    pub message: String,
    /// `disassemble_op` rendering of the offending instruction.
    pub disasm: String,
}

impl Finding {
    /// One-line rendering: `error[uninit-read] 0x10004: ... | addi x7, x8, 1`.
    pub fn rendered(&self) -> String {
        format!(
            "{}[{}] {:#08x}: {}  |  {}",
            self.severity,
            self.lint.name(),
            self.pc,
            self.message,
            self.disasm
        )
    }
}

/// A named address range a program is allowed to touch with
/// provably-constant addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Human-readable name (shows up in findings).
    pub name: &'static str,
    /// First byte address of the segment.
    pub start: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Segment {
    /// True if `[addr, addr + width)` lies entirely inside the segment.
    fn contains(&self, addr: u64, width: u64) -> bool {
        addr >= self.start && addr.saturating_add(width) <= self.start.saturating_add(self.len)
    }
}

/// What the verifier assumes about the execution environment.
#[derive(Debug, Clone, Default)]
pub struct VerifyConfig {
    /// Registers (besides the hardwired zero) the harness initializes
    /// before running — e.g. arguments preset through `Vm::set_reg`.
    pub entry_regs: Vec<RegRef>,
    /// Declared data segments. When empty, the out-of-segment check is
    /// skipped (text-collision and alignment checks still run).
    pub segments: Vec<Segment>,
}

/// The result of [`verify`]: all findings, sorted by instruction index
/// with errors before warnings at the same site.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings.
    pub findings: Vec<Finding>,
}

impl Report {
    /// The `Error`-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity == Severity::Error)
    }

    /// The `Warn`-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity == Severity::Warn)
    }

    /// True when no `Error`-severity finding was produced.
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for finding in &self.findings {
            writeln!(f, "{}", finding.rendered())?;
        }
        Ok(())
    }
}

fn reg_name(r: RegRef) -> String {
    match r {
        RegRef::Int(i) => format!("x{i}"),
        RegRef::Fp(i) => format!("f{i}"),
    }
}

/// Run every check against `prog` and collect the findings.
pub fn verify(prog: &Program, config: &VerifyConfig) -> Report {
    let analysis = {
        let _span = obs::span("verify", "analysis");
        Analysis::build(prog, config)
    };
    verify_with_analysis(prog, &analysis, config)
}

/// Like [`verify`], reusing an already-built [`Analysis`] (callers that also
/// want the loop forest or abstract states build it once and share it).
pub fn verify_with_analysis(prog: &Program, analysis: &Analysis, config: &VerifyConfig) -> Report {
    let cfg = analysis.cfg();
    PROGRAMS.incr();
    let mut run_span = obs::span("verify", "verify");
    run_span.attr("insts", prog.insts().len() as u64);
    run_span.attr("blocks", cfg.blocks().len() as u64);
    let insts = prog.insts();
    let mut findings = Vec::new();
    let push = |findings: &mut Vec<Finding>, lint: Lint, idx: usize, message: String| {
        findings.push(Finding {
            severity: lint.severity(),
            lint,
            idx,
            pc: prog.pc_of(idx),
            message,
            disasm: disassemble_op(prog, &insts[idx]),
        });
    };

    // --- (a) reachability ---
    let reach_span = obs::span("verify", "reachability");
    for (bi, b) in cfg.blocks().iter().enumerate() {
        if !cfg.is_reachable(bi) {
            push(
                &mut findings,
                Lint::UnreachableBlock,
                b.start,
                format!("block of {} instruction(s) is unreachable from the entry", b.end - b.start),
            );
        } else if b.falls_off_end {
            push(
                &mut findings,
                Lint::FallsOffEnd,
                b.last(),
                "execution can fall off the end of the text segment here".to_string(),
            );
        }
    }
    drop(reach_span);

    // --- (b) may-uninitialized register reads ---
    let dataflow_span = obs::span("verify", "dataflow");
    let mut entry = RegSet::EMPTY;
    entry.insert(RegRef::Int(0));
    for r in &config.entry_regs {
        entry.insert(*r);
    }
    let mut seen = std::collections::HashSet::new();
    for read in may_uninit_reads(prog, cfg, entry) {
        if seen.insert((read.idx, read.reg.unified())) {
            push(
                &mut findings,
                Lint::UninitRead,
                read.idx,
                format!(
                    "{} is read here, but some path from the entry never writes it",
                    reg_name(read.reg)
                ),
            );
        }
    }

    drop(dataflow_span);

    // --- (c) memory lints over the abstract base address ---
    let memory_span = obs::span("verify", "memory");
    let text_start = prog.base();
    let text_end = prog.base() + insts.len() as u64 * INST_BYTES;
    for (idx, op) in insts.iter().enumerate() {
        let Some(m) = op.mem_ref() else { continue };
        // `None` = no execution reaches the access.
        let Some(st) = analysis.inst_state(idx) else { continue };
        let base = st.read_int(m.base);
        let width = m.width.bytes();
        let kind = if m.is_store { "store" } else { "load" };
        if let Some(base) = base.singleton() {
            let addr = (base as u64).wrapping_add(m.offset as u64);
            let end = addr.saturating_add(width);
            if addr < text_end && end > text_start {
                push(
                    &mut findings,
                    Lint::AccessInText,
                    idx,
                    format!("{kind} of {width} byte(s) at {addr:#x} lands in the text segment"),
                );
            } else if !config.segments.is_empty()
                && !config.segments.iter().any(|s| s.contains(addr, width))
            {
                let names: Vec<&str> = config.segments.iter().map(|s| s.name).collect();
                push(
                    &mut findings,
                    Lint::OutOfSegment,
                    idx,
                    format!(
                        "{kind} of {width} byte(s) at provably-constant address {addr:#x} misses \
                         every declared data segment ({})",
                        names.join(", ")
                    ),
                );
            }
            if !addr.is_multiple_of(width) {
                push(
                    &mut findings,
                    Lint::MisalignedAccess,
                    idx,
                    format!("{kind} of {width} byte(s) at {addr:#x} is not {width}-byte aligned"),
                );
            }
        } else if !base.is_top() && !config.segments.is_empty() {
            let lo = base.lo as i128 + m.offset as i128;
            let one_past = base.hi as i128 + m.offset as i128 + width as i128;
            if lo < 0 || one_past > i64::MAX as i128 {
                continue; // range could wrap as an address: undecidable
            }
            let (lo, one_past) = (lo as u64, one_past as u64);
            let hits_segment = config
                .segments
                .iter()
                .any(|s| lo < s.start.saturating_add(s.len) && one_past > s.start);
            let hits_text = lo < text_end && one_past > text_start;
            if !hits_segment && !hits_text {
                push(
                    &mut findings,
                    Lint::IntervalOutOfSegment,
                    idx,
                    format!(
                        "{kind} of {width} byte(s) ranges over [{lo:#x}, {one_past:#x}), \
                         which misses every declared data segment"
                    ),
                );
            }
        }
    }

    drop(memory_span);

    // --- (d) structural lints ---
    let structural_span = obs::span("verify", "structural");
    for (idx, op) in insts.iter().enumerate() {
        if let Some(t) = op.flow().direct_target() {
            if t >= insts.len() {
                push(
                    &mut findings,
                    Lint::BranchTargetOutOfText,
                    idx,
                    format!("target index {t} is outside the {}-instruction text", insts.len()),
                );
            }
        }
        if let Op::Li(_, imm) = *op {
            let v = imm as u64;
            if v > text_start && v < text_end && !(v - text_start).is_multiple_of(INST_BYTES) {
                push(
                    &mut findings,
                    Lint::SplitTextAddress,
                    idx,
                    format!(
                        "constant {v:#x} lands inside the text segment but splits an instruction"
                    ),
                );
            }
        }
    }
    for (bi, b) in cfg.blocks().iter().enumerate() {
        if !cfg.is_reachable(bi) {
            continue; // already reported as unreachable; avoid pile-on
        }
        let last = b.last();
        match insts[last].flow() {
            Flow::Jump(t) if t == last + 1 => push(
                &mut findings,
                Lint::JumpToFallthrough,
                last,
                "unconditional jump to the next instruction".to_string(),
            ),
            Flow::Branch(t) if t == last + 1 => push(
                &mut findings,
                Lint::BranchToFallthrough,
                last,
                "branch target equals its own fall-through; the branch decides nothing"
                    .to_string(),
            ),
            Flow::IndirectJump | Flow::IndirectCall | Flow::Ret
                if cfg.indirect_targets().is_empty() =>
            {
                push(
                    &mut findings,
                    Lint::IndirectUnresolved,
                    last,
                    "indirect transfer, but the program has no call return sites or \
                     li-materialized text addresses to model it with"
                        .to_string(),
                )
            }
            _ => {}
        }
    }

    drop(structural_span);

    // --- (e) liveness: dead stores ---
    let liveness_span = obs::span("verify", "liveness");
    let liveness = analysis.liveness();
    for (bi, b) in cfg.blocks().iter().enumerate() {
        if !cfg.is_reachable(bi) {
            continue;
        }
        for (off, op) in insts[b.start..b.end].iter().enumerate() {
            let idx = b.start + off;
            // A load may exist for the access; a call's RA write is ABI.
            if matches!(op, Op::Call(_) | Op::Callr(_)) || op.class() == tinyisa::InstClass::Load
            {
                continue;
            }
            if let Some(d) = op.def() {
                if !liveness.inst_live_out(idx).contains(d) {
                    push(
                        &mut findings,
                        Lint::DeadStore,
                        idx,
                        format!("{} is written here but no path ever reads it again", reg_name(d)),
                    );
                }
            }
        }
    }

    drop(liveness_span);

    // --- (f) loops whose every exit is statically refuted ---
    let absint_span = obs::span("verify", "absint");
    for lp in &analysis.loops().loops {
        if lp.exits.is_empty() || !cfg.is_reachable(lp.header) {
            continue; // endless steady-state loops are the kernel shape
        }
        let all_refuted = lp.exits.iter().all(|&(from, to)| {
            let term = cfg.blocks()[from].last();
            let op = &insts[term];
            let Flow::Branch(t) = op.flow() else { return false };
            if term + 1 >= insts.len() {
                return false;
            }
            let taken_block = cfg.block_of(t);
            if taken_block == cfg.block_of(term + 1) {
                return false; // degenerate branch: both ways land together
            }
            let Some(st) = analysis.inst_state(term) else {
                return true; // the exit branch itself can never execute
            };
            branch_outcome(op, st) == Some(to != taken_block)
        });
        if all_refuted {
            let hidx = cfg.blocks()[lp.header].start;
            push(
                &mut findings,
                Lint::LoopNeverExits,
                hidx,
                format!(
                    "loop at depth {} has {} exit branch(es), every one refuted by the value \
                     ranges: execution can never leave it",
                    lp.depth,
                    lp.exits.len()
                ),
            );
        }
    }

    drop(absint_span);

    findings.sort_by_key(|f| (f.idx, f.severity != Severity::Error, f.lint.name()));
    FINDINGS.add(findings.len() as u64);
    run_span.attr("findings", findings.len() as u64);
    Report { findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::{regs::*, Asm};

    fn report(build: impl FnOnce(&mut Asm)) -> Report {
        report_with(build, &VerifyConfig::default())
    }

    fn report_with(build: impl FnOnce(&mut Asm), config: &VerifyConfig) -> Report {
        let mut a = Asm::new();
        build(&mut a);
        verify(&a.assemble().unwrap(), config)
    }

    fn lints(r: &Report) -> Vec<Lint> {
        r.findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn clean_kernel_shape_produces_no_findings() {
        let r = report(|a| {
            let (outer, head) = (a.label(), a.label());
            a.li(T0, 0);
            a.li(S0, 0x0100_0000);
            a.bind(outer);
            a.li(T1, 0);
            a.bind(head);
            a.add(T2, S0, T1);
            a.ld1(T3, T2, 0);
            a.add(T0, T0, T3);
            a.addi(T1, T1, 1);
            a.slti(T4, T1, 64);
            a.bne(T4, ZERO, head);
            a.jmp(outer);
        });
        assert!(r.findings.is_empty(), "{r}");
    }

    #[test]
    fn unreachable_block_is_an_error() {
        let r = report(|a| {
            let end = a.label();
            a.jmp(end);
            a.li(T0, 7); // dead
            a.bind(end);
            a.halt();
        });
        assert_eq!(lints(&r), vec![Lint::UnreachableBlock]);
        assert_eq!(r.findings[0].idx, 1);
        assert!(!r.is_clean());
    }

    #[test]
    fn fall_off_end_is_an_error() {
        let r = report(|a| {
            a.li(T0, 8);
            a.st8(T0, T0, 0); // keeps T0 live; still no halt or jump
        });
        assert_eq!(lints(&r), vec![Lint::FallsOffEnd]);
    }

    #[test]
    fn no_reachable_halt_is_opt_in() {
        let endless = |a: &mut Asm| {
            let top = a.label();
            a.li(T0, 0);
            a.li(T1, 1);
            a.bind(top);
            a.add(T0, T0, T1); // loop-carried: every write stays live
            a.jmp(top);
        };
        assert!(report(endless).findings.is_empty());
    }

    #[test]
    fn uninit_read_is_an_error_with_disasm() {
        let r = report(|a| {
            a.fadd(F2, F0, F1);
            a.stf(F2, ZERO, 8); // consume F2 so only the uninit reads lint
            a.halt();
        });
        assert_eq!(lints(&r), vec![Lint::UninitRead, Lint::UninitRead]);
        assert!(r.findings[0].rendered().contains("fadd f2, f0, f1"), "{r}");
        assert!(r.findings[0].message.contains("f0"));
    }

    #[test]
    fn entry_regs_suppress_uninit_reads() {
        let cfg = VerifyConfig {
            entry_regs: vec![RegRef::Int(1), RegRef::Fp(0)],
            ..VerifyConfig::default()
        };
        let r = report_with(
            |a| {
                a.fcvtif(F1, A0);
                a.fadd(F2, F0, F1);
                a.stf(F2, ZERO, 8);
                a.halt();
            },
            &cfg,
        );
        assert!(r.findings.is_empty(), "{r}");
    }

    #[test]
    fn out_of_segment_constant_store_is_an_error() {
        let cfg = VerifyConfig {
            segments: vec![Segment { name: "data", start: 0x8000, len: 0x100 }],
            ..VerifyConfig::default()
        };
        let r = report_with(
            |a| {
                a.li(T0, 0x8000);
                a.li(T1, 5);
                a.st8(T1, T0, 0x0f8); // last slot: fine
                a.st8(T1, T0, 0x100); // one past: out of segment
                a.halt();
            },
            &cfg,
        );
        assert_eq!(lints(&r), vec![Lint::OutOfSegment]);
        assert_eq!(r.findings[0].idx, 3);
        assert!(r.findings[0].message.contains("data"));
    }

    #[test]
    fn without_declared_segments_bounds_are_not_checked() {
        let r = report(|a| {
            a.li(T0, 0xdead_0000);
            a.st8(T0, T0, 0);
            a.halt();
        });
        assert!(r.findings.is_empty(), "{r}");
    }

    #[test]
    fn constant_access_in_text_is_an_error_even_without_segments() {
        // The text base itself, loaded by one `li` or summed from two.
        let by_li = report(|a| {
            a.li(T0, 0x1_0000);
            a.st8(T0, T0, 0);
            a.halt();
        });
        let by_add = report(|a| {
            a.li(T0, 0x8000);
            a.li(T1, 0x8000);
            a.add(T2, T0, T1);
            a.st8(T2, T2, 0);
            a.halt();
        });
        for r in [by_li, by_add] {
            assert_eq!(lints(&r), vec![Lint::AccessInText], "{r}");
        }
    }

    #[test]
    fn add_built_constant_gets_the_constant_address_lints() {
        let cfg = VerifyConfig {
            segments: vec![Segment { name: "data", start: 0x8000, len: 0x100 }],
            ..VerifyConfig::default()
        };
        let r = report_with(
            |a| {
                a.li(T0, 0x9000);
                a.li(T1, 4);
                a.add(T2, T0, T1); // exactly 0x9004: past "data", 4-aligned
                a.st8(T1, T2, 0);
                a.halt();
            },
            &cfg,
        );
        assert_eq!(lints(&r), vec![Lint::OutOfSegment, Lint::MisalignedAccess], "{r}");
        assert!(r.findings[0].message.contains("provably-constant address 0x9004"), "{r}");
    }

    #[test]
    fn constant_address_tracks_li_addi_and_mov() {
        let cfg = VerifyConfig {
            segments: vec![Segment { name: "data", start: 0x8000, len: 0x18 }],
            ..VerifyConfig::default()
        };
        let r = report_with(
            |a| {
                a.li(T0, 0x8000);
                a.addi(T1, T0, 0x10);
                a.mov(T2, T1);
                a.ld8(T3, T2, 8); // provably 0x8018: one past "data"
                a.halt();
            },
            &cfg,
        );
        assert_eq!(lints(&r), vec![Lint::OutOfSegment], "{r}");
        assert_eq!(r.findings[0].idx, 3);
        assert!(r.findings[0].message.contains("0x8018"), "{r}");
    }

    #[test]
    fn divergent_constant_bases_join_to_a_range() {
        let cfg = VerifyConfig {
            entry_regs: vec![RegRef::Int(1)], // A0 preset: the branch is undecided
            segments: vec![Segment { name: "data", start: 0x7000, len: 0x100 }],
        };
        let r = report_with(
            |a| {
                let (other, join) = (a.label(), a.label());
                a.beq(A0, ZERO, other);
                a.li(T1, 0x8000);
                a.jmp(join);
                a.bind(other);
                a.li(T1, 0x9000);
                a.bind(join);
                a.st8(A0, T1, 0); // 4: T1 is 0x8000 or 0x9000, not a constant
                a.li(T2, 0x7000);
                a.st8(A0, T2, 0x14); // 6: provably 0x7014
                a.halt();
            },
            &cfg,
        );
        assert_eq!(lints(&r), vec![Lint::IntervalOutOfSegment, Lint::MisalignedAccess], "{r}");
        assert_eq!((r.findings[0].idx, r.findings[1].idx), (4, 6));
        assert!(r.findings[0].message.contains("[0x8000, 0x9008)"), "{r}");
        assert!(r.findings[1].message.contains("0x7014"), "{r}");
    }

    #[test]
    fn x0_base_is_the_constant_zero() {
        let cfg = VerifyConfig {
            segments: vec![Segment { name: "data", start: 0x8000, len: 0x100 }],
            ..VerifyConfig::default()
        };
        let r = report_with(
            |a| {
                a.ld1(T0, ZERO, 0x40);
                a.halt();
            },
            &cfg,
        );
        assert_eq!(lints(&r), vec![Lint::OutOfSegment], "{r}");
        assert!(r.findings[0].message.contains("address 0x40 "), "{r}");
    }

    #[test]
    fn misaligned_constant_access_is_a_warning() {
        let r = report(|a| {
            a.li(T0, 0x8004);
            a.ld8(T1, T0, 0); // 8-byte load at a 4-aligned address
            a.halt();
        });
        assert_eq!(lints(&r), vec![Lint::MisalignedAccess]);
        assert_eq!(r.findings[0].severity, Severity::Warn);
        assert!(r.is_clean());
    }

    #[test]
    fn jump_to_fallthrough_is_a_warning() {
        let r = report(|a| {
            let next = a.label();
            a.jmp(next);
            a.bind(next);
            a.halt();
        });
        assert_eq!(lints(&r), vec![Lint::JumpToFallthrough]);
    }

    #[test]
    fn branch_to_fallthrough_is_a_warning() {
        let r = report(|a| {
            let next = a.label();
            a.li(T0, 1);
            a.beq(T0, ZERO, next);
            a.bind(next);
            a.halt();
        });
        assert_eq!(lints(&r), vec![Lint::BranchToFallthrough]);
    }

    #[test]
    fn self_loop_without_exit_is_a_warning_only_when_a_halt_is_expected() {
        let spin = |a: &mut Asm| {
            let spin = a.label();
            a.li(T0, 1);
            a.bind(spin);
            a.addi(T0, T0, 1);
            a.jmp(spin);
        };
        // Endless loops are the intended kernel shape.
        assert!(report(spin).findings.is_empty());
    }

    #[test]
    fn unresolvable_ret_is_a_warning() {
        // A `ret` with no call anywhere: the pool is empty.
        let r = report(|a| {
            a.li(RA, 99); // suppress uninit-read of RA... except li is exact
            a.ret();
        });
        // RA holds 99: not a text address, pool empty -> IndirectUnresolved.
        assert!(lints(&r).contains(&Lint::IndirectUnresolved), "{r}");
    }

    #[test]
    fn split_text_address_constant_is_a_warning() {
        let r = report(|a| {
            let top = a.label();
            a.bind(top);
            a.li(ZERO, 0x1_0002); // discarded on purpose; the constant lints
            a.jmp(top);
        });
        assert_eq!(lints(&r), vec![Lint::SplitTextAddress]);
    }

    #[test]
    fn dead_store_is_an_error() {
        let r = report(|a| {
            a.li(T0, 1); // never read again
            a.halt();
        });
        assert_eq!(lints(&r), vec![Lint::DeadStore]);
        assert!(r.findings[0].message.contains("x7"), "{r}");
    }

    #[test]
    fn dead_store_exempts_loads_and_the_call_link_write() {
        let r = report(|a| {
            let f = a.label();
            a.li(T0, 8);
            a.ld8(T1, T0, 0); // T1 unread: the access may be the point
            a.call(f); // RA unread: ABI write
            a.bind(f);
            a.halt();
        });
        assert!(r.findings.is_empty(), "{r}");
    }

    #[test]
    fn interval_range_out_of_segment_is_an_error() {
        let config = VerifyConfig {
            entry_regs: vec![RegRef::Int(1)], // A0 preset by the harness
            segments: vec![Segment { name: "data", start: 0x8000, len: 0x100 }],
        };
        let r = report_with(
            |a| {
                let top = a.label();
                a.li(T0, 0x9000);
                a.andi(T1, A0, 0xf8); // [0, 0xf8]: bounded but unknown
                a.add(T2, T0, T1); // [0x9000, 0x90f8]: misses "data" entirely
                a.bind(top);
                a.ld8(T3, T2, 0);
                a.jmp(top);
            },
            &config,
        );
        assert_eq!(lints(&r), vec![Lint::IntervalOutOfSegment]);
        assert!(r.findings[0].message.contains("0x9000"), "{r}");
    }

    #[test]
    fn loop_with_every_exit_refuted_is_an_error() {
        let r = report(|a| {
            let (head, out) = (a.label(), a.label());
            a.li(T0, 5);
            a.li(T1, 0);
            a.bind(head);
            a.addi(T1, T1, 1);
            a.beq(T0, ZERO, out); // T0 is always 5: the exit is fiction
            a.jmp(head);
            a.bind(out);
            a.halt();
        });
        assert_eq!(lints(&r), vec![Lint::LoopNeverExits]);
        assert_eq!(r.findings[0].idx, 2, "anchored at the loop header");
    }

    #[test]
    fn report_renders_one_line_per_finding() {
        let r = report(|a| {
            a.addi(T0, T1, 1);
            a.halt();
        });
        let text = r.to_string();
        assert_eq!(text.lines().count(), r.findings.len());
        assert!(text.contains("error[uninit-read]"), "{text}");
        assert!(text.contains("0x010000"), "{text}");
    }
}
