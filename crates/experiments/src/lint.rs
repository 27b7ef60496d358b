//! Static lint pass over the full 122-benchmark table.
//!
//! Shared by the `mica-lint` binary and the workspace gate test
//! (`tests/lint.rs`): both assemble every benchmark's kernel and run the
//! [`mica_verify`] checks against the workload memory map. The zoo must be
//! `Error`-clean — a kernel that reads an uninitialized register or carries
//! unreachable code skews the characterization without failing any dynamic
//! test.

use mica_par::par_map;
use mica_verify::{verify_with_analysis, Analysis, Report, Segment, VerifyConfig};
use mica_workloads::{benchmark_table, DATA2_BASE, DATA3_BASE, DATA_BASE, STACK_TOP};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tinyisa::Program;

/// The verifier configuration for workload kernels.
///
/// - No entry registers: kernels materialize every value they use with
///   `li`/`fli`; the harness presets nothing.
/// - Segments mirror the workload memory map ([`mica_workloads`] doc):
///   three data regions (each extended to the next region's base — the
///   memory is sparse, so the bound only has to catch *wild* constants,
///   not enforce a footprint) and a 1 MiB stack below [`STACK_TOP`].
/// - `expect_halt` off: kernels are endless steady-state loops profiled to
///   fuel exhaustion.
pub fn workload_config() -> VerifyConfig {
    const STACK_LEN: u64 = 0x10_0000;
    VerifyConfig {
        entry_regs: Vec::new(),
        segments: vec![
            Segment { name: "stack", start: STACK_TOP - STACK_LEN, len: STACK_LEN },
            Segment { name: "data", start: DATA_BASE, len: DATA2_BASE - DATA_BASE },
            Segment { name: "data2", start: DATA2_BASE, len: DATA3_BASE - DATA2_BASE },
            Segment { name: "data3", start: DATA3_BASE, len: DATA3_BASE },
        ],
        expect_halt: false,
    }
}

/// Assemble and verify every benchmark in the table, in table order.
///
/// Runs under [`mica_par::par_map`] (respects `MICA_THREADS`).
///
/// # Panics
///
/// Panics if a kernel fails to assemble — that is a table bug, not a lint
/// finding.
pub fn lint_all() -> Vec<(String, Report)> {
    lint_and_survey().into_iter().map(|(name, report, _)| (name, report)).collect()
}

/// [`lint_all`] plus the per-kernel static survey, sharing one
/// [`Analysis`] build per kernel between the lint passes and the report.
pub fn lint_and_survey() -> Vec<(String, Report, KernelStatic)> {
    let specs = benchmark_table();
    let config = workload_config();
    par_map(&specs, |spec| {
        let mut span = mica_obs::span("lint", spec.name());
        let program = spec.program().unwrap_or_else(|e| {
            panic!("{}: kernel failed to assemble: {e}", spec.name());
        });
        let analysis = Analysis::build(&program, &config);
        let report = verify_with_analysis(&program, &analysis, &config);
        let survey = KernelStatic::collect(&spec.name(), &program, &analysis, &report);
        span.attr("errors", report.errors().count() as u64);
        span.attr("warnings", report.warnings().count() as u64);
        span.attr("loops", survey.loops.len() as u64);
        (spec.name(), report, survey)
    })
}

/// One finding in the machine-readable (`mica-lint --json`) shape.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JsonFinding {
    /// `suite/program/input` identifier of the kernel.
    pub kernel: String,
    /// Stable kebab-case lint name (e.g. `dead-store`).
    pub lint: String,
    /// `"error"` or `"warning"`.
    pub severity: String,
    /// Instruction index of the offending site.
    pub idx: usize,
    /// Byte address of the offending site.
    pub pc: u64,
    /// Disassembly of the offending instruction.
    pub disasm: String,
    /// Human-readable description of the defect.
    pub message: String,
}

/// Flatten lint reports into the `--json` artifact shape, in table order.
pub fn findings_json(reports: &[(String, Report)]) -> Vec<JsonFinding> {
    let mut out = Vec::new();
    for (kernel, report) in reports {
        for f in &report.findings {
            out.push(JsonFinding {
                kernel: kernel.clone(),
                lint: f.lint.name().to_string(),
                severity: f.severity.to_string(),
                idx: f.idx,
                pc: f.pc,
                disasm: f.disasm.clone(),
                message: f.message.clone(),
            });
        }
    }
    out
}

/// One natural loop in the static survey: where it is, how big it is, and
/// which instruction ranges a region-selecting JIT would compile for it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopSummary {
    /// Byte address of the loop header's first instruction.
    pub header_pc: u64,
    /// Nesting depth (1 = outermost).
    pub depth: usize,
    /// Number of basic blocks in the body.
    pub blocks: usize,
    /// Number of instructions in the body.
    pub insts: usize,
    /// Number of CFG edges leaving the loop.
    pub exits: usize,
    /// Instruction-index ranges `[start, end)` of the body blocks, sorted.
    pub body_ranges: Vec<(usize, usize)>,
}

/// Per-kernel static structure: the `mica-lint --static` report entry.
///
/// This is the region-selection input a tiered JIT needs — which loops
/// exist, how deeply they nest, and what the code inside them looks like —
/// derived purely statically, to be compared against the dynamic profile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelStatic {
    /// `suite/program/input` identifier.
    pub name: String,
    /// Total instructions in the kernel.
    pub insts: usize,
    /// Total basic blocks.
    pub blocks: usize,
    /// Blocks reachable from the entry (through the refined CFG).
    pub reachable_blocks: usize,
    /// Indirect-transfer blocks resolved to a single target by constant
    /// propagation.
    pub refined_blocks: usize,
    /// All natural loops, in loop-forest order.
    pub loops: Vec<LoopSummary>,
    /// Static instruction mix over reachable blocks, keyed by
    /// [`tinyisa::InstClass`] name.
    pub static_mix: BTreeMap<String, usize>,
    /// `Error`-severity findings count.
    pub errors: usize,
    /// `Warn`-severity findings count.
    pub warnings: usize,
}

impl KernelStatic {
    /// Summarize one analyzed kernel.
    pub fn collect(name: &str, prog: &Program, analysis: &Analysis, report: &Report) -> Self {
        let cfg = analysis.cfg();
        let insts = prog.insts();
        let mut static_mix = BTreeMap::new();
        let mut reachable_blocks = 0usize;
        for (b, block) in cfg.blocks().iter().enumerate() {
            if !cfg.is_reachable(b) {
                continue;
            }
            reachable_blocks += 1;
            for inst in &insts[block.start..block.end] {
                *static_mix.entry(format!("{:?}", inst.class())).or_insert(0) += 1;
            }
        }
        let loops = analysis
            .loops()
            .loops
            .iter()
            .map(|lp| {
                let body_ranges: Vec<(usize, usize)> = lp
                    .body
                    .iter()
                    .map(|&b| (cfg.blocks()[b].start, cfg.blocks()[b].end))
                    .collect();
                LoopSummary {
                    header_pc: prog.pc_of(cfg.blocks()[lp.header].start),
                    depth: lp.depth,
                    blocks: lp.body.len(),
                    insts: body_ranges.iter().map(|&(s, e)| e - s).sum(),
                    exits: lp.exits.len(),
                    body_ranges,
                }
            })
            .collect();
        KernelStatic {
            name: name.to_string(),
            insts: insts.len(),
            blocks: cfg.blocks().len(),
            reachable_blocks,
            refined_blocks: analysis.refined_blocks(),
            loops,
            static_mix,
            errors: report.errors().count(),
            warnings: report.warnings().count(),
        }
    }
}
