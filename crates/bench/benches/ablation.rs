//! Ablation benchmarks for the design choices called out in DESIGN.md §5:
//! PPM context order, ILP window sizes, the ILP model, GA hyperparameters
//! and the k-means K. These measure the *cost* of each variant; the
//! companion numbers (accuracy, IPC gap, ρ attained) are printed once per
//! run so the quality side of the trade-off is visible in the bench log.

use criterion::{criterion_group, criterion_main, Criterion};
use mica_core::{IlpAnalyzer, IlpCriticalPath, PpmPredictor, PpmVariant};
use mica_stats::{kmeans, select_features_k, zscore_normalize, DataSet, GaConfig};
use mica_workloads::benchmark_table;
use std::hint::black_box;
use tinyisa::TraceSink;

fn trace_of(program: &str, fuel: u64) -> Vec<tinyisa::DynInst> {
    struct Rec(Vec<tinyisa::DynInst>);
    impl TraceSink for Rec {
        fn retire(&mut self, i: &tinyisa::DynInst) {
            self.0.push(*i);
        }
    }
    let mut vm = benchmark_table()
        .into_iter()
        .find(|b| b.program == program)
        .expect("exists")
        .build_vm()
        .expect("builds");
    let mut rec = Rec(Vec::with_capacity(fuel as usize));
    vm.run(&mut rec, fuel).expect("runs");
    rec.0
}

fn mini_dataset() -> DataSet {
    use mica_core::CharacterizationSuite;
    let rows: Vec<Vec<f64>> = benchmark_table()
        .iter()
        .step_by(8)
        .map(|s| {
            let mut vm = s.build_vm().expect("builds");
            let mut suite = CharacterizationSuite::new();
            vm.run(&mut suite, 15_000).expect("runs");
            suite.finish().into_values()
        })
        .collect();
    DataSet::from_rows(rows)
}

fn bench_ppm_order(c: &mut Criterion) {
    let trace = trace_of("gzip", 50_000);
    let mut g = c.benchmark_group("ablation_ppm_order");
    for order in [4usize, 8, 12] {
        // Print the attained accuracy once so cost can be weighed against it.
        let mut p = PpmPredictor::with_max_order(PpmVariant::GAg, order);
        for i in &trace {
            p.retire(i);
        }
        println!("ppm order {order}: GAg accuracy {:.4} on gzip", p.accuracy());
        g.bench_function(format!("order_{order}"), |b| {
            b.iter(|| {
                let mut p = PpmPredictor::with_max_order(PpmVariant::GAg, order);
                for i in &trace {
                    p.retire(i);
                }
                black_box(p.accuracy())
            })
        });
    }
    g.finish();
}

fn bench_ilp_windows(c: &mut Criterion) {
    let trace = trace_of("swim", 50_000);
    let mut g = c.benchmark_group("ablation_ilp_windows");
    for windows in [vec![32], vec![32, 64, 128, 256], vec![512, 1024]] {
        let label = format!("{windows:?}");
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut a = IlpAnalyzer::with_windows(&windows);
                for i in &trace {
                    a.retire(i);
                }
                black_box(a.ipcs())
            })
        });
    }
    g.finish();
}

fn bench_ga_hyperparams(c: &mut Criterion) {
    let ds = mini_dataset();
    let mut g = c.benchmark_group("ablation_ga");
    g.sample_size(10);
    for (pop, gens) in [(16, 20), (32, 40), (64, 80)] {
        let cfg = GaConfig { population: pop, generations: gens, ..GaConfig::default() };
        let r = select_features_k(&ds, 8, cfg);
        println!("ga pop={pop} gens={gens}: rho {:.4}", r.rho);
        g.bench_function(format!("pop{pop}_gens{gens}"), |b| {
            b.iter(|| black_box(select_features_k(&ds, 8, cfg).rho))
        });
    }
    g.finish();
}

fn bench_ilp_model(c: &mut Criterion) {
    // DESIGN.md ablation: windowed dependence scheduling (our model) vs the
    // per-window critical-path approximation. Print the IPC gap once.
    let trace = trace_of("qsort", 50_000);
    let mut sched = IlpAnalyzer::with_windows(&[128]);
    let mut cp = IlpCriticalPath::new(128);
    for i in &trace {
        sched.retire(i);
        cp.retire(i);
    }
    println!(
        "ilp model @128 on qsort: scheduled {:.2} IPC vs critical-path {:.2} IPC",
        sched.ipcs()[0],
        cp.ipc()
    );
    let mut g = c.benchmark_group("ablation_ilp_model");
    g.bench_function("windowed_scheduling", |b| {
        b.iter(|| {
            let mut a = IlpAnalyzer::with_windows(&[128]);
            for i in &trace {
                a.retire(i);
            }
            black_box(a.ipcs())
        })
    });
    g.bench_function("critical_path", |b| {
        b.iter(|| {
            let mut a = IlpCriticalPath::new(128);
            for i in &trace {
                a.retire(i);
            }
            black_box(a.ipc())
        })
    });
    g.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let ds = zscore_normalize(&mini_dataset());
    let mut g = c.benchmark_group("ablation_kmeans");
    for k in [4usize, 8, 12] {
        g.bench_function(format!("k{k}"), |b| {
            b.iter(|| black_box(kmeans(&ds, k, 1).sse))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_ppm_order,
    bench_ilp_windows,
    bench_ilp_model,
    bench_ga_hyperparams,
    bench_kmeans
);
criterion_main!(benches);
