//! The static report against the dynamic profile: the zoo's loop
//! structure and instruction mix, as `mica-lint --static` emits them, must
//! describe where execution actually spends its time.
//!
//! For every benchmark, run the kernel for a profiling slice and check
//! that
//!
//! - at least 90% of retired instructions land inside some statically
//!   discovered natural-loop body (the kernels are endless steady-state
//!   loops — after the init preamble, *everything* should be in a loop),
//!   and
//! - every dynamically retired instruction class appears in the static
//!   mix (the report's mix is computed over reachable blocks, so a class
//!   executed but not reported would mean the report under-describes the
//!   kernel).
//!
//! This is the check that makes the report trustworthy as an account of
//! where each kernel runs: a loop table that missed the hot code would
//! pass the lint gate but fail here.

use mica_experiments::lint::lint_and_survey;
use mica_par::par_map;
use mica_workloads::benchmark_table;
use std::collections::BTreeSet;
use tinyisa::{DynInst, InstClass, TraceSink, INST_BYTES};

/// Retired instructions per kernel: a profiling slice long enough that
/// the init preamble (tens of instructions) is noise.
const FUEL: u64 = 20_000;

/// A sink recording per-index retire counts and the dynamic class set.
struct MixSink {
    base: u64,
    counts: Vec<u64>,
    classes: BTreeSet<&'static str>,
}

impl TraceSink for MixSink {
    fn retire(&mut self, inst: &DynInst) {
        let idx = ((inst.pc - self.base) / INST_BYTES) as usize;
        self.counts[idx] += 1;
        self.classes.insert(class_name(inst.class));
    }
}

fn class_name(c: InstClass) -> &'static str {
    match c {
        InstClass::IntAlu => "IntAlu",
        InstClass::IntMul => "IntMul",
        InstClass::Fp => "Fp",
        InstClass::Load => "Load",
        InstClass::Store => "Store",
        InstClass::Branch => "Branch",
        InstClass::Jump => "Jump",
    }
}

#[test]
fn static_loops_cover_the_dynamic_execution() {
    let surveys: Vec<_> =
        lint_and_survey().into_iter().map(|(name, _, survey)| (name, survey)).collect();
    let specs = benchmark_table();
    assert_eq!(surveys.len(), specs.len());

    let failures: Vec<String> = par_map(&specs, |spec| {
        let (name, survey) = surveys
            .iter()
            .find(|(n, _)| *n == spec.name())
            .expect("survey exists for every spec");
        let mut vm = spec.build_vm().expect("kernel assembles");
        let prog = vm.program().clone();
        let mut sink =
            MixSink { base: prog.base(), counts: vec![0; prog.len()], classes: BTreeSet::new() };
        vm.run(&mut sink, FUEL).expect("zoo kernels are endless and fault-free");

        let mut problems = Vec::new();
        // Coverage: retired instructions inside some static loop body.
        let mut in_loop = vec![false; prog.len()];
        for lp in &survey.loops {
            for &(s, e) in &lp.body_ranges {
                in_loop[s..e].iter_mut().for_each(|x| *x = true);
            }
        }
        let total: u64 = sink.counts.iter().sum();
        let covered: u64 =
            sink.counts.iter().zip(&in_loop).filter(|&(_, &il)| il).map(|(&c, _)| c).sum();
        assert_eq!(total, FUEL);
        if (covered as f64) < 0.90 * total as f64 {
            problems.push(format!(
                "{name}: only {covered}/{total} retired instructions in static loop bodies"
            ));
        }
        // Mix: every dynamic class is in the static mix.
        for class in &sink.classes {
            if !survey.static_mix.contains_key(*class) {
                problems.push(format!(
                    "{name}: dynamic class {class} missing from the static mix"
                ));
            }
        }
        problems
    })
    .into_iter()
    .flatten()
    .collect();

    assert!(
        failures.is_empty(),
        "{} static-report mismatch(es):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
