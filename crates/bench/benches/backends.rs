//! Ref-vs-batch backend suite, and each costly layer replayed alone.
//!
//! The batch tier earns its keep here: the same kernels run through the
//! per-instruction reference delivery (`PerInst`) and the block-batched
//! delivery, live (interpretation + analysis) and over recorded traces
//! (delivery cost isolated from interpretation). The differential tests
//! in `mica-core` prove the tiers bit-identical; this suite measures what
//! the batching buys on the profile hot path.
//!
//! `layer_replay` times the PPM predictors and the EV56/EV67 models one at
//! a time over one recorded trace, in the manner of nanoBench: a layer's
//! cost with nothing else in the loop.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mica_core::{
    Backend, CharacterizationSuite, PerInst, PpmPredictor, PpmVariant, RegTraffic, StrideAnalyzer, WorkingSet,
};
use mica_experiments::profile::profile_benchmark_with;
use mica_workloads::{benchmark_table, BenchmarkSpec};
use std::hint::black_box;
use tinyisa::{Trace, TraceRecorder, BATCH_CAPACITY};
use uarch_sim::{Ev56Model, Ev67Model};

const FUEL: u64 = 100_000;

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
    for program in ["qsort", "mcf", "swim"] {
        g.bench_function(format!("ref_{program}"), |b| {
            b.iter(|| {
                let mut suite = CharacterizationSuite::new();
                let mut vm = spec_for(program).build_vm().expect("builds");
                vm.run(&mut PerInst(&mut suite), FUEL).expect("runs");
                black_box(suite.finish())
            })
        });
        g.bench_function(format!("batch_{program}"), |b| {
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

/// Trace replays: pure delivery + analysis cost, no interpreter in the
/// loop — the cleanest view of what `retire_block` saves.
fn bench_replay(c: &mut Criterion) {
    let trace = trace_of("qsort");
    let n = trace.len() as u64;
    let mut g = c.benchmark_group("backend_replay");
    g.throughput(Throughput::Elements(n));
    g.bench_function("suite_ref", |b| {
        b.iter(|| {
            let mut suite = CharacterizationSuite::new();
            trace.replay(&mut suite);
            black_box(suite.finish())
        })
    });
    g.bench_function("suite_batch", |b| {
        b.iter(|| {
            let mut suite = CharacterizationSuite::new();
            trace.replay_blocks(&mut suite, BATCH_CAPACITY);
            black_box(suite.finish())
        })
    });
    // The analyzers with real batch specializations, individually.
    g.bench_function("working_set_ref", |b| {
        b.iter(|| {
            let mut wss = WorkingSet::new();
            trace.replay(&mut wss);
            black_box(wss.counts())
        })
    });
    g.bench_function("working_set_batch", |b| {
        b.iter(|| {
            let mut wss = WorkingSet::new();
            trace.replay_blocks(&mut wss, BATCH_CAPACITY);
            black_box(wss.counts())
        })
    });
    g.bench_function("regtraffic_ref", |b| {
        b.iter(|| {
            let mut reg = RegTraffic::new();
            trace.replay(&mut reg);
            black_box(reg.dependency_distance_cdf())
        })
    });
    g.bench_function("regtraffic_batch", |b| {
        b.iter(|| {
            let mut reg = RegTraffic::new();
            trace.replay_blocks(&mut reg, BATCH_CAPACITY);
            black_box(reg.dependency_distance_cdf())
        })
    });
    g.bench_function("strides_ref", |b| {
        b.iter(|| {
            let mut s = StrideAnalyzer::new();
            trace.replay(&mut s);
            black_box(s.all())
        })
    });
    g.bench_function("strides_batch", |b| {
        b.iter(|| {
            let mut s = StrideAnalyzer::new();
            trace.replay_blocks(&mut s, BATCH_CAPACITY);
            black_box(s.all())
        })
    });
    g.finish();
}

/// Each PPM variant's `observe_block` and each machine model's
/// `retire_block`, alone over the same recorded trace. Throughput counts
/// the trace's instructions, so each line reads as the layer's cost per
/// instruction, as in the per-layer ledger of the repository benchmark.
fn bench_layer_replay(c: &mut Criterion) {
    let trace = trace_of("qsort");
    let mut g = c.benchmark_group("layer_replay");
    g.throughput(Throughput::Elements(trace.len() as u64));
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
    g.bench_function("ev56", |b| {
        b.iter(|| {
            let mut m = Ev56Model::new();
            trace.replay_blocks(&mut m, BATCH_CAPACITY);
            black_box(m.ipc())
        })
    });
    g.bench_function("ev67", |b| {
        b.iter(|| {
            let mut m = Ev67Model::new();
            trace.replay_blocks(&mut m, BATCH_CAPACITY);
            black_box(m.ipc())
        })
    });
    g.finish();
}

/// The full profile hot path (tandem MICA + HPC record) under each
/// backend, exactly as `profile_all` dispatches it.
fn bench_profile_hot_path(c: &mut Criterion) {
    let spec = spec_for("qsort");
    let mut g = c.benchmark_group("backend_profile");
    g.throughput(Throughput::Elements(FUEL));
    g.bench_function("profile_benchmark_ref", |b| {
        b.iter(|| black_box(profile_benchmark_with(&spec, FUEL, Backend::Ref).expect("profiles")))
    });
    g.bench_function("profile_benchmark_batch", |b| {
        b.iter(|| black_box(profile_benchmark_with(&spec, FUEL, Backend::Batch).expect("profiles")))
    });
    g.finish();
}

criterion_group!(backends, bench_live, bench_replay, bench_layer_replay, bench_profile_hot_path);
criterion_main!(backends);
