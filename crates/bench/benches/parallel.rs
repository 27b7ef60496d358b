//! Serial vs. parallel timings for the three pipelines that run on the
//! `mica-par` worker pool. On a machine with 4+ cores the parallel
//! 122-benchmark profiling pass should show a >= 2x speedup over
//! `profile_122/serial`; on a single core the pair quantifies the pool's
//! overhead instead (it should be within noise of serial).
//!
//! `MICA_THREADS` applies: `MICA_THREADS=8 cargo bench --bench parallel`
//! pins the pool size under test.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mica_experiments::profile::{profile_all, profile_all_serial};
use mica_stats::{
    pairwise_distances, pairwise_distances_serial, zscore_normalize, DataSet, GaConfig,
    GeneticSelector,
};
use mica_workloads::NUM_BENCHMARKS;
use std::hint::black_box;

/// A deterministic dataset shaped like the paper's workload space
/// (122 benchmarks x 47 metrics), without paying for real profiling.
fn synthetic_workload_space() -> DataSet {
    let mut x = 0x4d49_4341u64;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 10_000) as f64 / 1_000.0 - 5.0
    };
    DataSet::from_rows((0..122).map(|_| (0..47).map(|_| rnd()).collect()).collect())
}

fn bench_parallel(c: &mut Criterion) {
    // Suppress the 122 per-benchmark progress lines each iteration would
    // otherwise print.
    std::env::set_var("MICA_LOG", "warn");
    // The headline pair: the full 122-benchmark profiling pass, at a tiny
    // scale (every budget floors at 10 000 instructions) so a sample is
    // ~1.2 M simulated instructions rather than tens of millions.
    let mut g = c.benchmark_group("profile_122");
    g.sample_size(10);
    g.throughput(Throughput::Elements(NUM_BENCHMARKS as u64));
    g.bench_function("serial", |b| {
        b.iter(|| black_box(profile_all_serial(1e-9).expect("profiles").records.len()))
    });
    g.bench_function("parallel", |b| {
        b.iter(|| black_box(profile_all(1e-9).expect("profiles").set.records.len()))
    });
    g.finish();

    let ds = synthetic_workload_space();
    let z = zscore_normalize(&ds);
    let mut g = c.benchmark_group("pairwise_distances_122x47");
    g.throughput(Throughput::Elements((122 * 121 / 2) as u64));
    g.bench_function("serial", |b| b.iter(|| black_box(pairwise_distances_serial(&z).len())));
    g.bench_function("parallel", |b| b.iter(|| black_box(pairwise_distances(&z).len())));
    g.finish();

    let cfg = GaConfig { population: 32, generations: 20, ..GaConfig::default() };
    let sel = GeneticSelector::new(&ds, cfg);
    let mut g = c.benchmark_group("ga_20_generations");
    g.sample_size(10);
    g.bench_function("serial", |b| b.iter(|| black_box(sel.run_serial().fitness)));
    g.bench_function("parallel", |b| b.iter(|| black_box(sel.run().fitness)));
    g.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
