//! Block delivery, live and replayed, and each costly layer replayed alone.
//!
//! `backend_live` and `backend_profile` time the profile hot path (VM plus
//! block delivery) over 100k-instruction kernels. `backend_replay` times,
//! over recorded traces, each `retire_block` override that production
//! keeps against the per-instruction default loop it replaces (`replay`
//! vs `replay_blocks`): an override stays only while it wins here.
//!
//! `layer_replay` times each layer of the profile hot path alone, in the
//! manner of nanoBench: a layer's cost with nothing else in the loop. The
//! VM runs the qsort kernel live into a counting sink; the ILP, working
//! set, strides, each PPM predictor and the EV56/EV67 models replay its
//! recorded trace.
//!
//! `key_subset` times the analyzers that Table IV's eight picks need (ILP at
//! window 256, register traffic, working set, strides and a PAs predictor)
//! against the full suite over the same recorded traces: the measurement
//! behind the paper's claim that measuring the key characteristics is
//! cheaper than measuring all 47. `tests/methodology.rs` checks that the
//! same five reproduce the suite's columns bit for bit.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mica_core::{
    CharacterizationSuite, IlpAnalyzer, PpmPredictor, PpmVariant, RegTraffic, StrideAnalyzer,
    WorkingSet,
};
use mica_experiments::profile::profile_benchmark;
use mica_workloads::{benchmark_table, BenchmarkSpec};
use std::hint::black_box;
use tinyisa::{CountingSink, Trace, TraceRecorder, TraceSink, BATCH_CAPACITY};
use uarch_sim::{Ev56Model, Ev67Model};

const FUEL: u64 = 100_000;

/// Kernels with different mixes: sorting, pointer chasing, FP stencils.
const PROGRAMS: [&str; 3] = ["qsort", "mcf", "swim"];

fn spec_for(program: &str) -> BenchmarkSpec {
    benchmark_table().into_iter().find(|b| b.program == program).expect("benchmark exists")
}

fn trace_of(program: &str) -> Trace {
    let mut rec = TraceRecorder::new();
    let mut vm = spec_for(program).build_vm().expect("builds");
    vm.run(&mut rec, FUEL).expect("runs");
    rec.into_trace()
}

/// Live VM runs: interpretation plus analysis, the shape `profile_all`
/// actually executes per kernel.
fn bench_live(c: &mut Criterion) {
    let mut g = c.benchmark_group("backend_live");
    g.throughput(Throughput::Elements(FUEL));
    for program in PROGRAMS {
        g.bench_function(program, |b| {
            b.iter(|| {
                let mut suite = CharacterizationSuite::new();
                let mut vm = spec_for(program).build_vm().expect("builds");
                vm.run(&mut suite, FUEL).expect("runs");
                black_box(suite.finish())
            })
        });
    }
    g.finish();
}

/// Time `fresh()` fed the whole trace in `BATCH_CAPACITY` blocks, as the
/// VM delivers them.
fn replay_layer<S: TraceSink, R>(
    g: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    trace: &Trace,
    fresh: impl Fn() -> S,
    result: impl Fn(&S) -> R,
) {
    g.bench_function(name, |b| {
        b.iter(|| {
            let mut sink = fresh();
            trace.replay_blocks(&mut sink, BATCH_CAPACITY);
            black_box(result(&sink))
        })
    });
}

/// Time `fresh()` fed the whole trace one `retire` at a time (the default
/// loop) and in `BATCH_CAPACITY` blocks (the override), as one pair.
fn replay_pair<S: TraceSink, R>(
    g: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    trace: &Trace,
    fresh: impl Fn() -> S,
    result: impl Fn(&S) -> R,
) {
    g.bench_function(format!("{name}_replay"), |b| {
        b.iter(|| {
            let mut sink = fresh();
            trace.replay(&mut sink);
            black_box(result(&sink))
        })
    });
    replay_layer(g, &format!("{name}_replay_blocks"), trace, fresh, result);
}

/// Trace replays: pure delivery + analysis cost, no interpreter in the
/// loop — the cleanest view of what each `retire_block` override saves.
fn bench_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("backend_replay");
    for program in PROGRAMS {
        let trace = trace_of(program);
        g.throughput(Throughput::Elements(trace.len() as u64));
        // The suite's own fan-out, with its once-per-block branch
        // extraction, then the analyzers that keep an override.
        replay_pair(&mut g, &format!("suite_{program}"), &trace, CharacterizationSuite::new, |s| {
            s.finish()
        });
        replay_pair(&mut g, &format!("regtraffic_{program}"), &trace, RegTraffic::new, |r| {
            r.dependency_distance_cdf()
        });
    }
    g.finish();
}

/// The VM alone, then each layer alone over the trace it records: the
/// ILP, working-set and strides analyzers' and each machine model's
/// `retire_block`, and each PPM variant's `observe_block`. Throughput
/// counts the trace's instructions, so each line reads as the layer's cost
/// per instruction, as in the per-layer ledger of the repository benchmark.
fn bench_layer_replay(c: &mut Criterion) {
    let trace = trace_of("qsort");
    let mut g = c.benchmark_group("layer_replay");
    g.throughput(Throughput::Elements(trace.len() as u64));
    let vm = spec_for("qsort").build_vm().expect("builds");
    g.bench_function("vm", |b| {
        b.iter(|| {
            let mut sink = CountingSink::default();
            vm.clone().run(&mut sink, FUEL).expect("runs");
            black_box(sink.retired())
        })
    });
    replay_layer(&mut g, "ilp", &trace, IlpAnalyzer::new, |i| i.ipcs());
    replay_layer(&mut g, "working_set", &trace, WorkingSet::new, |w| w.counts());
    replay_layer(&mut g, "strides", &trace, StrideAnalyzer::new, |s| s.all());
    // Each block's conditional branches, extracted as
    // `CharacterizationSuite::retire_block` does, outside the timed loop.
    let blocks: Vec<Vec<(u64, bool)>> = trace
        .events()
        .chunks(BATCH_CAPACITY)
        .map(|block| {
            block.iter().filter_map(|i| i.ctrl.filter(|c| c.conditional).map(|c| (i.pc, c.taken))).collect()
        })
        .collect();
    for variant in PpmVariant::ALL {
        g.bench_function(format!("ppm_{}", variant.to_string().to_lowercase()), |b| {
            b.iter(|| {
                let mut p = PpmPredictor::new(variant);
                for block in &blocks {
                    p.observe_block(block);
                }
                black_box(p.accuracy())
            })
        });
    }
    replay_layer(&mut g, "ev56", &trace, Ev56Model::new, |m| m.ipc());
    replay_layer(&mut g, "ev67", &trace, Ev67Model::new, |m| m.ipc());
    g.finish();
}

/// The full suite against the five analyzers of the key characteristics,
/// both fed the trace in `BATCH_CAPACITY` blocks.
fn bench_key_subset(c: &mut Criterion) {
    let mut g = c.benchmark_group("key_subset");
    for program in PROGRAMS {
        let trace = trace_of(program);
        g.throughput(Throughput::Elements(trace.len() as u64));
        replay_layer(
            &mut g,
            &format!("suite_{program}"),
            &trace,
            CharacterizationSuite::new,
            |s| s.finish(),
        );
        g.bench_function(format!("key8_{program}"), |b| {
            b.iter(|| {
                let mut ilp = IlpAnalyzer::with_windows(&[256]);
                let mut reg = RegTraffic::new();
                let mut wss = WorkingSet::new();
                let mut strides = StrideAnalyzer::new();
                let mut pas = PpmPredictor::new(PpmVariant::PAs);
                for block in trace.events().chunks(BATCH_CAPACITY) {
                    ilp.retire_block(block);
                    reg.retire_block(block);
                    wss.retire_block(block);
                    strides.retire_block(block);
                    pas.retire_block(block);
                }
                black_box((
                    ilp.ipcs(),
                    reg.dependency_distance_cdf(),
                    wss.counts(),
                    strides.all(),
                    pas.accuracy(),
                ))
            })
        });
    }
    g.finish();
}

/// The full profile hot path (tandem MICA + HPC record), exactly as
/// `profile_all` dispatches it.
fn bench_profile_hot_path(c: &mut Criterion) {
    let spec = spec_for("qsort");
    let mut g = c.benchmark_group("backend_profile");
    g.throughput(Throughput::Elements(FUEL));
    g.bench_function("profile_benchmark", |b| {
        b.iter(|| black_box(profile_benchmark(&spec, FUEL).expect("profiles")))
    });
    g.finish();
}

criterion_group!(
    backends,
    bench_live,
    bench_replay,
    bench_layer_replay,
    bench_key_subset,
    bench_profile_hot_path
);
criterion_main!(backends);
