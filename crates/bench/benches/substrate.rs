//! Micro-benchmarks of the substrates: VM interpretation throughput, each
//! MICA analyzer's per-instruction cost, and the microarchitecture
//! simulators.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mica_core::{
    CharacterizationSuite, IlpAnalyzer, InstructionMix, PpmPredictor, PpmVariant, RegTraffic,
    StrideAnalyzer, WorkingSet,
};
use mica_workloads::benchmark_table;
use std::hint::black_box;
use tinyisa::{CountingSink, TraceSink, Vm};
use uarch_sim::{BimodalPredictor, BranchPredictor, Cache, CacheConfig, HpcSimulator, TournamentPredictor};

const FUEL: u64 = 100_000;

fn vm_for(program: &str) -> Vm {
    benchmark_table()
        .into_iter()
        .find(|b| b.program == program)
        .expect("benchmark exists")
        .build_vm()
        .expect("builds")
}

fn run_with<S: TraceSink>(program: &str, mut sink: S) -> S {
    let mut vm = vm_for(program);
    vm.run(&mut sink, FUEL).expect("runs");
    sink
}

fn bench_vm(c: &mut Criterion) {
    let mut g = c.benchmark_group("vm");
    g.throughput(Throughput::Elements(FUEL));
    for program in ["sha", "mcf", "swim"] {
        g.bench_function(format!("interpret_{program}"), |b| {
            b.iter(|| black_box(run_with(program, CountingSink::default()).retired()))
        });
    }
    g.finish();
}

fn bench_analyzers(c: &mut Criterion) {
    let mut g = c.benchmark_group("analyzers");
    g.throughput(Throughput::Elements(FUEL));
    g.bench_function("instruction_mix", |b| {
        b.iter(|| black_box(run_with("qsort", InstructionMix::new()).fractions()))
    });
    g.bench_function("ilp_four_windows", |b| {
        b.iter(|| black_box(run_with("qsort", IlpAnalyzer::new()).ipcs()))
    });
    g.bench_function("register_traffic", |b| {
        b.iter(|| black_box(run_with("qsort", RegTraffic::new()).avg_degree_of_use()))
    });
    g.bench_function("working_set", |b| {
        b.iter(|| black_box(run_with("qsort", WorkingSet::new()).counts()))
    });
    g.bench_function("strides", |b| {
        b.iter(|| black_box(run_with("qsort", StrideAnalyzer::new()).all()))
    });
    g.bench_function("ppm_gag", |b| {
        b.iter(|| black_box(run_with("qsort", PpmPredictor::new(PpmVariant::GAg)).accuracy()))
    });
    g.bench_function("full_suite_47_metrics", |b| {
        b.iter(|| black_box(run_with("qsort", CharacterizationSuite::new()).finish()))
    });
    g.finish();
}

fn bench_uarch(c: &mut Criterion) {
    let mut g = c.benchmark_group("uarch");
    g.throughput(Throughput::Elements(FUEL));
    g.bench_function("hpc_simulator_both_machines", |b| {
        b.iter(|| black_box(run_with("qsort", HpcSimulator::new()).finish()))
    });
    g.finish();

    let mut g = c.benchmark_group("uarch_components");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("cache_hits", |b| {
        let mut cache = Cache::new(CacheConfig::ev56_l1());
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..100_000u64 {
                hits += cache.access((i % 64) * 32) as u64;
            }
            black_box(hits)
        })
    });
    g.bench_function("cache_streaming_misses", |b| {
        let mut cache = Cache::new(CacheConfig::ev56_l1());
        let mut base = 0u64;
        b.iter(|| {
            for i in 0..100_000u64 {
                cache.access(base + i * 32);
            }
            base += 1 << 30;
            black_box(cache.stats().misses)
        })
    });
    g.bench_function("bimodal_predictor", |b| {
        let mut p = BimodalPredictor::ev56();
        b.iter(|| {
            for i in 0..100_000u64 {
                p.observe(0x1000 + (i % 37) * 4, i % 3 != 0);
            }
            black_box(p.stats().misses)
        })
    });
    g.bench_function("tournament_predictor", |b| {
        let mut p = TournamentPredictor::ev67();
        b.iter(|| {
            for i in 0..100_000u64 {
                p.observe(0x1000 + (i % 37) * 4, i % 3 != 0);
            }
            black_box(p.stats().misses)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_vm, bench_analyzers, bench_uarch);
criterion_main!(benches);
