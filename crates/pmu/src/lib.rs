//! A simulated performance-monitoring unit for tinyisa.
//!
//! The [`Pmu`] is a [`TraceSink`]: it rides the same `retire_block` batch
//! path as every analyzer, so attaching it to a run adds one more fan-out
//! leg, not a second execution. It maintains the programmable event
//! counters a hardware PMU would — retired instructions by
//! [`InstClass`], taken/not-taken conditional branches, memory bytes read
//! and written — plus per-basic-block hit and retire counts, and a
//! **deterministic sampling profiler**: every `period` retired
//! instructions (a countdown, not a timer) the instruction that tripped
//! the counter is attributed pc → block → loop through the
//! [`mica_verify`] dominator/loop machinery.
//!
//! # Determinism contract
//!
//! Everything the PMU counts is a pure function of the retired-instruction
//! sequence and the period. The countdown carries across batch boundaries
//! and [`Pmu::retire`] is literally `retire_block` of a one-instruction
//! slice, so per-instruction and batched delivery produce bit-identical
//! [`KernelHeat`], for any batch partition and any thread count. Wall clocks, thread ids,
//! and allocation state never enter the data.
//!
//! # Gating
//!
//! `MICA_PMU` gates collection with the same fast-path contract as the
//! observability layer: when the flag is off, [`PmuConfig::from_env`] is a
//! cached atomic load returning `None` and no PMU is ever constructed —
//! the profiling hot loop is byte-for-byte the non-PMU code path.
//! `MICA_PMU_PERIOD` programs the sampling period (default
//! [`DEFAULT_PERIOD`]); an unparseable or zero period panics up front.

use mica_obs::{self as obs, EnvFlag};
use mica_verify::{Cfg, DomTree, LoopForest};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tinyisa::{DynInst, InstClass, Program, TraceSink, INST_BYTES};

mod render;

pub use render::{collapsed_stacks, render_svg, render_text};

/// The `MICA_PMU` gate (on = any non-empty value other than `0`).
static PMU_FLAG: EnvFlag = EnvFlag::new("MICA_PMU");

/// Default sampling period: a prime, so the sample stream does not phase-
/// lock with power-of-two loop trip counts, small enough that even the
/// 10 000-instruction CI-scale budget yields a handful of samples per
/// kernel.
pub const DEFAULT_PERIOD: u64 = 1009;

/// Samples taken across all kernels (merged into run summaries).
static SAMPLES: obs::Counter = obs::Counter::new("pmu.samples");
/// Kernels that produced a heat profile.
static KERNELS: obs::Counter = obs::Counter::new("pmu.kernels");
/// Instructions the PMU observed.
static RETIRED: obs::Counter = obs::Counter::new("pmu.retired");

/// The `MICA_PMU` flag, exposed so tests can [`EnvFlag::force`] a state
/// instead of racing on `set_var`.
pub fn env_flag() -> &'static EnvFlag {
    &PMU_FLAG
}

/// How to run the PMU: for now, just the sampling period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmuConfig {
    /// Sample every `period` retired instructions. Always ≥ 1.
    pub period: u64,
}

impl PmuConfig {
    /// A config with the given period.
    ///
    /// # Panics
    ///
    /// Panics on a zero period — the countdown would never fire.
    pub fn new(period: u64) -> PmuConfig {
        assert!(period > 0, "PMU sampling period must be positive");
        PmuConfig { period }
    }

    /// Read `MICA_PMU` / `MICA_PMU_PERIOD`: `None` when the PMU is off
    /// (one atomic load after the first call), otherwise the configured
    /// period.
    ///
    /// # Panics
    ///
    /// Panics when `MICA_PMU_PERIOD` is set but not a positive integer —
    /// loudly, before any work.
    pub fn from_env() -> Option<PmuConfig> {
        if !PMU_FLAG.enabled() {
            return None;
        }
        let period = match std::env::var("MICA_PMU_PERIOD") {
            Err(_) => DEFAULT_PERIOD,
            Ok(v) => match v.parse::<u64>() {
                Ok(p) if p > 0 => p,
                _ => panic!("MICA_PMU_PERIOD must be a positive integer, got {v:?}"),
            },
        };
        Some(PmuConfig { period })
    }
}

/// Dynamic heat of one basic block, joined with its static context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockHeat {
    /// Byte address of the block's first instruction.
    pub pc: u64,
    /// Instruction index of the block's first instruction.
    pub first_idx: usize,
    /// Static instruction count of the block.
    pub insts: usize,
    /// Dynamic entries into the block (control transfers in, plus
    /// straight-line crossings of the leader).
    pub hits: u64,
    /// Dynamic instructions retired inside the block.
    pub retired: u64,
    /// Samples attributed to the block.
    pub samples: u64,
    /// `retired / kernel total` — the block's share of the kernel's
    /// dynamic instructions.
    pub share: f64,
    /// Loop nesting depth of the block (0 = outside every loop), from the
    /// static loop forest.
    pub loop_depth: usize,
    /// Header pcs of the loops containing this block, outermost-first —
    /// the flamegraph stack.
    pub loop_chain: Vec<u64>,
    /// Static class mix of the block's instructions, keyed by
    /// [`InstClass::name`] (the same keys as the `--static` report).
    pub static_mix: BTreeMap<String, usize>,
}

/// One kernel's complete PMU readout: event counters plus the block-level
/// heat map. This is the schema of `results/heat/<kernel>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelHeat {
    /// `suite/program/input` identifier.
    pub kernel: String,
    /// Sampling period the profile was collected at.
    pub period: u64,
    /// Total retired instructions observed.
    pub retired: u64,
    /// Total samples taken (`retired / period`, rounded down).
    pub samples: u64,
    /// Taken conditional branches.
    pub taken_branches: u64,
    /// Not-taken conditional branches.
    pub not_taken_branches: u64,
    /// Bytes read by loads.
    pub mem_read_bytes: u64,
    /// Bytes written by stores.
    pub mem_write_bytes: u64,
    /// Retired instructions by class, keyed by [`InstClass::name`].
    /// Classes that never retired are omitted.
    pub class_counts: BTreeMap<String, u64>,
    /// Heat of every block that retired at least one instruction, in text
    /// order.
    pub blocks: Vec<BlockHeat>,
}

impl KernelHeat {
    /// Serialize as the pretty JSON artifact shape.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("KernelHeat serializes")
    }

    /// Parse a heat artifact.
    ///
    /// # Errors
    ///
    /// Returns the parse error text when `text` is not a `KernelHeat`.
    pub fn from_json(text: &str) -> Result<KernelHeat, String> {
        serde_json::from_str(text).map_err(|e| format!("{e:?}"))
    }

    /// Filesystem-safe stem for a kernel's artifact file:
    /// `MiBench/CRC32/pcm` → `MiBench_CRC32_pcm`.
    pub fn file_stem(kernel: &str) -> String {
        kernel
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' { c } else { '_' })
            .collect()
    }

    /// The block with the most samples (ties to the most retired, then the
    /// lowest pc), if any instruction retired.
    pub fn hottest(&self) -> Option<&BlockHeat> {
        self.blocks
            .iter()
            .max_by(|a, b| {
                a.samples
                    .cmp(&b.samples)
                    .then(a.retired.cmp(&b.retired))
                    .then(b.pc.cmp(&a.pc))
            })
    }
}

/// The simulated PMU: one per kernel run, attached as an extra
/// [`TraceSink`] leg.
#[derive(Debug, Clone)]
pub struct Pmu {
    base: u64,
    period: u64,
    countdown: u64,
    /// Whether any instruction has retired yet (the first one always
    /// counts as a block entry).
    started: bool,
    /// Whether the previously retired instruction was a control transfer
    /// (every control transfer ends a dynamic block, taken or not).
    prev_ctrl: bool,
    prev_block: u32,
    /// `block_of[i]` = CFG block index of instruction `i`.
    block_of: Vec<u32>,
    /// Static class of every instruction, for the per-block mix.
    classes: Vec<InstClass>,
    /// Per-block static geometry: first instruction index and length.
    block_first: Vec<u32>,
    block_len: Vec<u32>,
    /// Per-block static loop context.
    loop_depth: Vec<u32>,
    loop_chain_pcs: Vec<Vec<u64>>,
    /// Per-block dynamic counters.
    hits: Vec<u64>,
    block_retired: Vec<u64>,
    block_samples: Vec<u64>,
    /// Event counters.
    class_counts: [u64; InstClass::ALL.len()],
    taken: u64,
    not_taken: u64,
    mem_read_bytes: u64,
    mem_write_bytes: u64,
    retired: u64,
    samples: u64,
}

impl Pmu {
    /// Program a PMU for `prog` at the given sampling period: builds the
    /// CFG, dominator tree, and loop forest once, up front, so delivery
    /// never touches the static machinery.
    pub fn new(prog: &Program, config: PmuConfig) -> Pmu {
        let cfg = Cfg::build(prog);
        let dom = DomTree::compute(&cfg);
        let loops = LoopForest::compute(&cfg, &dom);
        let nb = cfg.blocks().len();
        let n = prog.insts().len();
        let block_of: Vec<u32> = (0..n).map(|i| cfg.block_of(i) as u32).collect();
        let mut block_first = Vec::with_capacity(nb);
        let mut block_len = Vec::with_capacity(nb);
        let mut loop_depth = Vec::with_capacity(nb);
        let mut loop_chain_pcs = Vec::with_capacity(nb);
        for (b, blk) in cfg.blocks().iter().enumerate() {
            block_first.push(blk.start as u32);
            block_len.push((blk.end - blk.start) as u32);
            loop_depth.push(loops.depth_of(b) as u32);
            loop_chain_pcs.push(
                loops
                    .chain_headers(b)
                    .into_iter()
                    .map(|h| prog.pc_of(cfg.blocks()[h].start))
                    .collect(),
            );
        }
        Pmu {
            base: prog.base(),
            period: config.period,
            countdown: config.period,
            started: false,
            prev_ctrl: false,
            prev_block: 0,
            block_of,
            classes: prog.insts().iter().map(|op| op.class()).collect(),
            block_first,
            block_len,
            loop_depth,
            loop_chain_pcs,
            hits: vec![0; nb],
            block_retired: vec![0; nb],
            block_samples: vec![0; nb],
            class_counts: [0; InstClass::ALL.len()],
            taken: 0,
            not_taken: 0,
            mem_read_bytes: 0,
            mem_write_bytes: 0,
            retired: 0,
            samples: 0,
        }
    }

    /// Total retired instructions observed so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Total samples taken so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Close the profile: bump the global `pmu.*` counters and produce the
    /// artifact for `kernel`.
    pub fn finish(&self, kernel: &str) -> KernelHeat {
        KERNELS.incr();
        SAMPLES.add(self.samples);
        RETIRED.add(self.retired);
        let total = self.retired;
        let mut blocks = Vec::new();
        for (b, &retired) in self.block_retired.iter().enumerate() {
            if retired == 0 {
                continue;
            }
            let first = self.block_first[b] as usize;
            let len = self.block_len[b] as usize;
            let mut static_mix = BTreeMap::new();
            for c in &self.classes[first..first + len] {
                *static_mix.entry(c.name().to_string()).or_insert(0) += 1;
            }
            blocks.push(BlockHeat {
                pc: self.base + first as u64 * INST_BYTES,
                first_idx: first,
                insts: len,
                hits: self.hits[b],
                retired,
                samples: self.block_samples[b],
                share: retired as f64 / total as f64,
                loop_depth: self.loop_depth[b] as usize,
                loop_chain: self.loop_chain_pcs[b].clone(),
                static_mix,
            });
        }
        let mut class_counts = BTreeMap::new();
        for (i, &n) in self.class_counts.iter().enumerate() {
            if n > 0 {
                class_counts.insert(InstClass::ALL[i].name().to_string(), n);
            }
        }
        KernelHeat {
            kernel: kernel.to_string(),
            period: self.period,
            retired: self.retired,
            samples: self.samples,
            taken_branches: self.taken,
            not_taken_branches: self.not_taken,
            mem_read_bytes: self.mem_read_bytes,
            mem_write_bytes: self.mem_write_bytes,
            class_counts,
            blocks,
        }
    }
}

impl TraceSink for Pmu {
    fn retire(&mut self, inst: &DynInst) {
        // Identical to batched delivery by construction: per-instruction
        // delivery is block delivery at block size one.
        self.retire_block(std::slice::from_ref(inst));
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        // Scalar event counters accumulate in locals and land on the
        // struct once per batch; per-block vectors are indexed directly.
        let mut class = [0u64; InstClass::ALL.len()];
        let (mut taken, mut not_taken) = (0u64, 0u64);
        let (mut read_b, mut write_b) = (0u64, 0u64);
        let mut samples = 0u64;
        for inst in block {
            let idx = ((inst.pc - self.base) / INST_BYTES) as usize;
            let b = self.block_of[idx] as usize;
            // A dynamic block entry: the first instruction ever, any
            // instruction after a control transfer (taken or not), or a
            // straight-line crossing into a new leader.
            if !self.started || self.prev_ctrl || b as u32 != self.prev_block {
                self.hits[b] += 1;
            }
            self.started = true;
            self.prev_block = b as u32;
            self.prev_ctrl = inst.ctrl.is_some();
            self.block_retired[b] += 1;
            class[inst.class.index()] += 1;
            if let Some(c) = inst.ctrl {
                if c.conditional {
                    if c.taken {
                        taken += 1;
                    } else {
                        not_taken += 1;
                    }
                }
            }
            if let Some(m) = inst.mem {
                if m.is_store {
                    write_b += m.size;
                } else {
                    read_b += m.size;
                }
            }
            // The sampling countdown: carries across batches, so the
            // sample positions are a pure function of the retired stream.
            self.countdown -= 1;
            if self.countdown == 0 {
                self.block_samples[b] += 1;
                samples += 1;
                self.countdown = self.period;
            }
        }
        for (acc, n) in self.class_counts.iter_mut().zip(class) {
            *acc += n;
        }
        self.taken += taken;
        self.not_taken += not_taken;
        self.mem_read_bytes += read_b;
        self.mem_write_bytes += write_b;
        self.retired += block.len() as u64;
        self.samples += samples;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::{regs::*, Asm, TraceRecorder, Vm};

    /// A two-level loop nest: outer 8 iterations, inner 8 each, with a
    /// load+store pair in the inner body.
    fn nest_program() -> Program {
        let mut a = Asm::new();
        let (outer, inner) = (a.label(), a.label());
        a.li(T0, 0);
        a.li(T3, 0x2_0000);
        a.bind(outer);
        a.li(T1, 0);
        a.bind(inner);
        a.ld8(T2, T3, 0);
        a.addi(T2, T2, 1);
        a.st8(T2, T3, 0);
        a.addi(T1, T1, 1);
        a.slti(T2, T1, 8);
        a.bne(T2, ZERO, inner);
        a.addi(T0, T0, 1);
        a.slti(T2, T0, 8);
        a.bne(T2, ZERO, outer);
        a.halt();
        a.assemble().expect("nest assembles")
    }

    fn run_pmu(prog: &Program, budget: u64, period: u64) -> KernelHeat {
        let mut vm = Vm::new(prog.clone());
        let mut pmu = Pmu::new(prog, PmuConfig::new(period));
        vm.run(&mut pmu, budget).expect("runs");
        pmu.finish("test/nest/1")
    }

    #[test]
    fn counters_match_hand_counts_on_the_nest() {
        let prog = nest_program();
        let heat = run_pmu(&prog, 10_000, 97);
        // The program halts: 2 (preamble) + 8×(1 + 8×6 + 3) + 1 insts.
        let expect_retired = 2 + 8 * (1 + 8 * 6 + 3) + 1;
        assert_eq!(heat.retired, expect_retired);
        assert_eq!(heat.samples, expect_retired / 97);
        // Branches: inner bne 8×8 (7 taken + 1 not each inner run), outer
        // bne 8 (7 taken, 1 not).
        assert_eq!(heat.taken_branches, 8 * 7 + 7);
        assert_eq!(heat.not_taken_branches, 8 + 1);
        // One 8-byte load and one 8-byte store per inner iteration.
        assert_eq!(heat.mem_read_bytes, 8 * 64);
        assert_eq!(heat.mem_write_bytes, 8 * 64);
        assert_eq!(heat.class_counts["Load"], 64);
        assert_eq!(heat.class_counts["Store"], 64);
        // The share over reported blocks covers every retired instruction.
        let share: f64 = heat.blocks.iter().map(|b| b.share).sum();
        assert!((share - 1.0).abs() < 1e-12, "shares sum to 1, got {share}");
        let retired: u64 = heat.blocks.iter().map(|b| b.retired).sum();
        assert_eq!(retired, heat.retired);
        // The hottest block is the inner loop body at depth 2, and its
        // flamegraph chain is outer-then-inner.
        let hot = heat.hottest().expect("has blocks");
        assert_eq!(hot.loop_depth, 2);
        assert_eq!(hot.loop_chain.len(), 2);
        assert_eq!(hot.hits, 64, "inner body entered once per inner iteration");
        // Sample conservation.
        let samples: u64 = heat.blocks.iter().map(|b| b.samples).sum();
        assert_eq!(samples, heat.samples);
    }

    #[test]
    fn heat_is_partition_independent() {
        let prog = nest_program();
        let mut rec = TraceRecorder::new();
        let mut vm = Vm::new(prog.clone());
        vm.run(&mut rec, 10_000).expect("runs");
        let trace = rec.into_trace();

        let mut reference = Pmu::new(&prog, PmuConfig::new(13));
        trace.replay(&mut reference);
        let ref_heat = reference.finish("k");
        for block_size in [1usize, 2, 3, 7, 64, 256, usize::MAX] {
            let mut pmu = Pmu::new(&prog, PmuConfig::new(13));
            trace.replay_blocks(&mut pmu, block_size);
            assert_eq!(pmu.finish("k"), ref_heat, "block size {block_size}");
        }
        // And live batched delivery equals the replayed reference.
        let live = run_pmu(&prog, 10_000, 13);
        assert_eq!(live.retired, ref_heat.retired);
        assert_eq!(live.blocks, ref_heat.blocks);
    }

    #[test]
    fn self_loop_reentries_count_as_hits() {
        // A one-block self-loop: every iteration re-enters the block even
        // though the block index never changes.
        let mut a = Asm::new();
        let spin = a.label();
        a.li(T0, 0);
        a.bind(spin);
        a.addi(T0, T0, 1);
        a.slti(T1, T0, 100);
        a.bne(T1, ZERO, spin);
        a.halt();
        let prog = a.assemble().expect("assembles");
        let heat = run_pmu(&prog, 10_000, DEFAULT_PERIOD);
        let spin_block =
            heat.blocks.iter().find(|b| b.loop_depth == 1).expect("loop block");
        assert_eq!(spin_block.hits, 100, "each taken back edge re-enters");
    }

    #[test]
    fn artifact_round_trips_and_stems_are_safe() {
        let heat = run_pmu(&nest_program(), 10_000, 1009);
        let parsed = KernelHeat::from_json(&heat.to_json()).expect("parses");
        assert_eq!(parsed, heat);
        assert_eq!(KernelHeat::file_stem("MiBench/CRC32/pcm"), "MiBench_CRC32_pcm");
        assert_eq!(KernelHeat::file_stem("a b:c"), "a_b_c");
    }

    #[test]
    fn zoo_kernel_produces_a_plausible_profile() {
        let spec = mica_workloads::benchmark_table()
            .into_iter()
            .find(|s| s.program == "CRC32")
            .expect("CRC32 exists");
        let mut vm = spec.build_vm().expect("assembles");
        let mut pmu = Pmu::new(vm.program(), PmuConfig::new(DEFAULT_PERIOD));
        vm.run(&mut pmu, 10_000).expect("runs");
        let heat = pmu.finish(&spec.name());
        assert_eq!(heat.retired, 10_000);
        assert_eq!(heat.samples, 10_000 / DEFAULT_PERIOD);
        assert!(!heat.blocks.is_empty());
        assert!(heat.hottest().expect("hot block").loop_depth >= 1, "hot code is in a loop");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_is_rejected() {
        let _ = PmuConfig::new(0);
    }
}
