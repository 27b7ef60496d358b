//! Differential verification of block delivery against the
//! per-instruction oracle.
//!
//! The VM hands analyzers whole blocks (`retire_block`); the
//! per-instruction `retire` each analyzer also implements is the oracle.
//! Every way of delivering one dynamic instruction stream to the analyzers
//! must leave **bit-identical** state behind. This harness pins that
//! contract two ways:
//!
//! 1. all 122 zoo kernels, live per-instruction (through [`PerInst`]) vs
//!    live blocks vs recorded-trace replays at several block sizes;
//! 2. randomized instruction streams (including adversarial addresses at
//!    the top of the address space) through the same delivery matrix,
//!    covering [`CharacterizationSuite`], [`ExtendedSuite`] and
//!    [`PhaseProfiler`].
//!
//! A new delivery registers in [`DELIVERIES`]; every test below runs the
//! whole registry.

use mica_core::{CharacterizationSuite, ExtendedSuite, MicaVector, PhaseProfiler};
use mica_workloads::benchmark_table;
use tinyisa::{CtrlInfo, DynInst, InstClass, MemAccess, RegRef, Trace, TraceRecorder, TraceSink};

/// Per-kernel budget. 10 000 instructions is the profiling floor
/// (`MICA_SCALE` tiny), enough to exercise every analyzer on every kernel
/// while the full 122-benchmark matrix stays fast.
const BUDGET: u64 = 10_000;

/// Forces the wrapped sink onto the per-instruction oracle: incoming
/// blocks are unbundled into single [`TraceSink::retire`] calls, so no
/// `retire_block` override of `S` runs even though the VM delivers blocks.
struct PerInst<S>(S);

impl<S: TraceSink> TraceSink for PerInst<S> {
    fn retire(&mut self, inst: &DynInst) {
        self.0.retire(inst);
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        for inst in block {
            self.0.retire(inst);
        }
    }
}

#[test]
fn per_inst_unbundles_blocks() {
    /// A sink whose block path must never run.
    #[derive(Default)]
    struct RefOnly {
        retired: u64,
    }
    impl TraceSink for RefOnly {
        fn retire(&mut self, _inst: &DynInst) {
            self.retired += 1;
        }
        fn retire_block(&mut self, _block: &[DynInst]) {
            panic!("PerInst must suppress the block path");
        }
    }
    let inst = DynInst {
        pc: 0,
        class: InstClass::IntAlu,
        dst: None,
        srcs: [None; 3],
        mem: None,
        ctrl: None,
    };
    let mut sink = PerInst(RefOnly::default());
    sink.retire_block(&[inst; 5]);
    sink.retire(&inst);
    assert_eq!(sink.0.retired, 6);
}

/// Replays a recorded trace into a sink.
type Delivery = fn(&Trace, &mut dyn TraceSink);

/// The registry of trace-driven delivery tiers. Each entry replays a
/// recorded trace into a sink; the first is the per-instruction reference
/// everything else is compared against. A new delivery is one line here.
const DELIVERIES: &[(&str, Delivery)] = &[
    ("per-inst", |t, s| t.replay(s)),
    ("blocks-1", |t, s| t.replay_blocks(s, 1)),
    ("blocks-7", |t, s| t.replay_blocks(s, 7)),
    ("blocks-256", |t, s| t.replay_blocks(s, 256)),
    ("blocks-whole-trace", |t, s| t.replay_blocks(s, usize::MAX)),
];

/// Bit-level equality: `==` on f64 would let `-0.0 == 0.0` or two NaNs
/// slip through; the artifact files serialize bits.
fn assert_bits_eq(reference: &MicaVector, got: &MicaVector, ctx: &str) {
    assert_eq!(reference.values().len(), got.values().len(), "{ctx}: metric count");
    for (i, (r, g)) in reference.values().iter().zip(got.values()).enumerate() {
        assert_eq!(
            r.to_bits(),
            g.to_bits(),
            "{ctx}: metric {i} diverges: ref {r} vs {g}"
        );
    }
}

fn suite_vector_of(trace: &Trace, deliver: Delivery) -> MicaVector {
    let mut suite = CharacterizationSuite::new();
    deliver(trace, &mut suite);
    suite.finish()
}

#[test]
fn all_zoo_kernels_are_bit_identical_across_deliveries() {
    for spec in benchmark_table() {
        let name = spec.name();

        // Live per-instruction oracle: the block path is forced off by the
        // PerInst wrapper even though the VM delivers blocks.
        let mut ref_suite = CharacterizationSuite::new();
        let mut vm = spec.build_vm().expect("kernel assembles");
        vm.run(&mut PerInst(&mut ref_suite), BUDGET).expect("kernel runs");
        let reference = ref_suite.finish();

        // Live block delivery, as profiling runs it.
        let mut batch_suite = CharacterizationSuite::new();
        let mut vm = spec.build_vm().expect("kernel assembles");
        vm.run(&mut batch_suite, BUDGET).expect("kernel runs");
        assert_eq!(
            ref_suite.total_instructions(),
            batch_suite.total_instructions(),
            "{name}: instruction counts"
        );
        assert_bits_eq(&reference, &batch_suite.finish(), &format!("{name}: live batch"));

        // Recorded trace through every registered delivery tier.
        let mut rec = TraceRecorder::new();
        let mut vm = spec.build_vm().expect("kernel assembles");
        vm.run(&mut rec, BUDGET).expect("kernel runs");
        let trace = rec.into_trace();
        assert_eq!(trace.len() as u64, ref_suite.total_instructions(), "{name}: trace length");
        for (tier, deliver) in DELIVERIES {
            let got = suite_vector_of(&trace, *deliver);
            assert_bits_eq(&reference, &got, &format!("{name}: {tier}"));
        }
    }
}

#[test]
fn extended_and_phase_profiles_survive_batching() {
    // A cross-section of the zoo: one kernel per suite is plenty — the
    // full matrix above already covers the 47-metric suite everywhere.
    let mut seen = std::collections::HashSet::new();
    for spec in benchmark_table() {
        if !seen.insert(spec.suite.to_string()) {
            continue;
        }
        let name = spec.name();
        let mut rec = TraceRecorder::new();
        let mut vm = spec.build_vm().expect("kernel assembles");
        vm.run(&mut rec, BUDGET).expect("kernel runs");
        let trace = rec.into_trace();

        let mut ext_ref = ExtendedSuite::new();
        trace.replay(&mut ext_ref);
        let mut phase_ref = PhaseProfiler::new(977);
        trace.replay(&mut phase_ref);
        let ref_phases = phase_ref.into_phases();

        for (tier, deliver) in &DELIVERIES[1..] {
            let mut ext = ExtendedSuite::new();
            deliver(&trace, &mut ext);
            for (i, (r, g)) in ext_ref.finish_all().iter().zip(ext.finish_all()).enumerate() {
                assert_eq!(r.to_bits(), g.to_bits(), "{name}: {tier}: extended metric {i}");
            }

            let mut phase = PhaseProfiler::new(977);
            deliver(&trace, &mut phase);
            let phases = phase.into_phases();
            assert_eq!(ref_phases.len(), phases.len(), "{name}: {tier}: phase count");
            for (p, (r, g)) in ref_phases.iter().zip(&phases).enumerate() {
                assert_bits_eq(r, g, &format!("{name}: {tier}: phase {p}"));
            }
        }
    }
}

/// Build a pseudo-random but fully deterministic instruction stream from a
/// seed: a few dozen static PCs, loads/stores with strided and random
/// addresses (including the top of the address space, where the working
/// set used to overflow), conditional branches with mixed bias, and reads
/// of registers that never had a producer.
fn random_stream(seed: u64, len: usize) -> Vec<DynInst> {
    let mut x = seed | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let r = step();
        let pc = 0x1000 + (r % 48) * 4;
        let class = match r % 10 {
            0 | 1 => InstClass::Load,
            2 => InstClass::Store,
            3 => InstClass::Branch,
            4 => InstClass::IntMul,
            5 => InstClass::Fp,
            _ => InstClass::IntAlu,
        };
        let dst = match step() % 4 {
            // Cold destination gaps: some registers are read-only below.
            0 => None,
            1 => Some(RegRef::Fp((step() % 16) as u8)),
            _ => Some(RegRef::Int((step() % 24) as u8)),
        };
        let srcs = [
            Some(RegRef::Int((step() % 32) as u8)),
            if step() % 3 == 0 { Some(RegRef::Int((step() % 32) as u8)) } else { None },
            None,
        ];
        let mem = match class {
            InstClass::Load | InstClass::Store => {
                let addr = match step() % 8 {
                    // The overflow corner: last bytes of the address space.
                    0 => u64::MAX - (step() % 16),
                    1 => step(), // fully random
                    _ => 0x2_0000 + (step() % 4096) * 8,
                };
                Some(MemAccess {
                    addr,
                    size: [0, 1, 2, 4, 8][(step() % 5) as usize],
                    is_store: class == InstClass::Store,
                })
            }
            _ => None,
        };
        let ctrl = if class == InstClass::Branch {
            Some(CtrlInfo { taken: step() % 3 != 0, target: pc + 8, conditional: true })
        } else if step() % 61 == 0 {
            Some(CtrlInfo { taken: true, target: 0x1000, conditional: false })
        } else {
            None
        };
        out.push(DynInst { pc, class, dst, srcs, mem, ctrl });
    }
    out
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(48))]

    #[test]
    fn randomized_streams_are_bit_identical_across_deliveries(
        seed in proptest::any::<u64>(),
        len in 1usize..700,
        block in 1usize..300,
    ) {
        let stream = random_stream(seed, len);
        let mut rec = TraceRecorder::new();
        for inst in &stream {
            rec.retire(inst);
        }
        let trace = rec.into_trace();

        let mut ref_suite = CharacterizationSuite::new();
        trace.replay(&mut ref_suite);
        let reference = ref_suite.finish();
        for (tier, deliver) in DELIVERIES {
            let got = suite_vector_of(&trace, *deliver);
            assert_bits_eq(&reference, &got, &format!("seed {seed}, len {len}, {tier}"));
        }

        // And at the sampled (odd, unaligned) block size, for all suites.
        let mut suite = CharacterizationSuite::new();
        trace.replay_blocks(&mut suite, block);
        assert_bits_eq(&reference, &suite.finish(), &format!("seed {seed}, blocks-{block}"));

        let mut ext_ref = ExtendedSuite::new();
        trace.replay(&mut ext_ref);
        let mut ext = ExtendedSuite::new();
        trace.replay_blocks(&mut ext, block);
        for (i, (r, g)) in ext_ref.finish_all().iter().zip(ext.finish_all()).enumerate() {
            proptest::prop_assert_eq!(
                r.to_bits(),
                g.to_bits(),
                "seed {}, blocks-{}: extended metric {}",
                seed,
                block,
                i
            );
        }

        let mut phase_ref = PhaseProfiler::new(53);
        trace.replay(&mut phase_ref);
        let mut phase = PhaseProfiler::new(53);
        trace.replay_blocks(&mut phase, block);
        let (a, b) = (phase_ref.into_phases(), phase.into_phases());
        proptest::prop_assert_eq!(a.len(), b.len());
        for (p, (r, g)) in a.iter().zip(&b).enumerate() {
            assert_bits_eq(r, g, &format!("seed {seed}, blocks-{block}: phase {p}"));
        }
    }
}

/// Adversarial partitions of [`Trace::replay_blocks`], pinned explicitly:
/// size 1 (every instruction is its own block), a size strictly greater
/// than the trace length (one giant delivery), and small odd sizes that
/// are guaranteed to split basic blocks mid-body (the zoo's loop bodies
/// are several instructions long, so size 3 lands a partition boundary
/// inside a basic block on every kernel). Each must leave the analyzers
/// bit-identical to **live** per-instruction execution — not merely to
/// each other, so a bug shared by every replay tier cannot hide.
#[test]
fn adversarial_partitions_match_live_execution() {
    for program in ["CRC32", "sha", "mcf"] {
        let spec = benchmark_table()
            .into_iter()
            .find(|s| s.program == program)
            .expect("kernel exists");
        let name = spec.name();

        let mut live = CharacterizationSuite::new();
        let mut vm = spec.build_vm().expect("kernel assembles");
        vm.run(&mut PerInst(&mut live), BUDGET).expect("kernel runs");
        let reference = live.finish();

        let mut rec = TraceRecorder::new();
        let mut vm = spec.build_vm().expect("kernel assembles");
        vm.run(&mut rec, BUDGET).expect("kernel runs");
        let trace = rec.into_trace();

        let len = trace.len();
        assert!(len > 3, "{name}: trace long enough to partition");
        for block_size in [1, 3, 5, len - 1, len, len + 1, 2 * len] {
            let mut suite = CharacterizationSuite::new();
            trace.replay_blocks(&mut suite, block_size);
            assert_bits_eq(
                &reference,
                &suite.finish(),
                &format!("{name}: adversarial partition size {block_size} vs live"),
            );
        }
    }
}
