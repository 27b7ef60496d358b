//! One Criterion benchmark per paper table/figure: each measures the
//! pipeline that regenerates that artifact, at a reduced profiling scale so
//! `cargo bench` completes in minutes.
//!
//! - `table1/*` — building the 122-benchmark table and the profiling step;
//! - `fig1/*` — the distance-space construction and correlation;
//! - `table3/*` — tuple classification;
//! - `fig2_fig3/*` — the case-study normalization;
//! - `fig4/*` — ROC sweep and AUC;
//! - `fig5/*` — the correlation-elimination curve;
//! - `table4/*` — GA feature selection;
//! - `fig6/*` — BIC-driven k-means clustering and kiviat rendering.

use criterion::{criterion_group, criterion_main, Criterion};
use mica_experiments::analysis::{
    hpc_dataset, max_normalize_columns, mica_dataset, minmax_normalize_columns,
};
use mica_experiments::profile::profile_benchmark;
use mica_experiments::results::ProfileSet;
use mica_stats::{
    auc, choose_k_by_bic, classify_pairs, elimination_order, pairwise_distances, pearson, plot,
    roc_curve, select_features_k, zscore_normalize, GaConfig,
};
use mica_workloads::benchmark_table;
use std::hint::black_box;

/// Profile every 6th benchmark at a small budget: 21 records, once.
fn mini_set() -> ProfileSet {
    let records = benchmark_table()
        .iter()
        .step_by(6)
        .map(|s| profile_benchmark(s, 20_000).expect("benchmark profiles"))
        .collect();
    ProfileSet { scale: 0.0, fingerprint: 0, records }
}

fn bench_experiments(c: &mut Criterion) {
    let set = mini_set();
    let (mica, hpc) = (mica_dataset(&set), hpc_dataset(&set));
    let zm = zscore_normalize(&mica);
    let zh = zscore_normalize(&hpc);
    let dm = pairwise_distances(&zm);
    let dh = pairwise_distances(&zh);

    // Table I: the table itself plus one benchmark profiled end to end.
    let mut g = c.benchmark_group("table1");
    g.bench_function("build_benchmark_table", |b| b.iter(|| black_box(benchmark_table().len())));
    let crc = benchmark_table().into_iter().find(|s| s.program == "CRC32").expect("CRC32");
    g.bench_function("profile_one_benchmark_20k", |b| {
        b.iter(|| black_box(profile_benchmark(&crc, 20_000).expect("profiles")))
    });
    g.finish();

    // Figure 1: normalize, distance matrices, correlation.
    let mut g = c.benchmark_group("fig1");
    g.bench_function("distance_spaces_and_correlation", |b| {
        b.iter(|| {
            let dm = pairwise_distances(&zscore_normalize(&mica));
            let dh = pairwise_distances(&zscore_normalize(&hpc));
            black_box(pearson(dm.values(), dh.values()))
        })
    });
    g.finish();

    // Table III: classification of tuples.
    let mut g = c.benchmark_group("table3");
    g.bench_function("classify_pairs", |b| {
        b.iter(|| black_box(classify_pairs(dh.values(), dm.values(), 0.2, 0.2)))
    });
    g.finish();

    // Figures 2/3: the case-study normalizations + bar chart rendering.
    let mut g = c.benchmark_group("fig2_fig3");
    g.bench_function("max_normalize_and_render", |b| {
        b.iter(|| {
            let n = max_normalize_columns(&mica);
            let labels: Vec<String> = (0..47).map(|i| format!("m{i}")).collect();
            let series = vec![
                ("a".to_string(), (0..47).map(|c| n.get(0, c)).collect::<Vec<_>>()),
                ("b".to_string(), (0..47).map(|c| n.get(1, c)).collect::<Vec<_>>()),
            ];
            black_box(plot::svg_grouped_bars("fig", &labels, &series).len())
        })
    });
    g.finish();

    // Figure 4: ROC sweep + AUC for full and a reduced space.
    let ga = select_features_k(&mica, 8, GaConfig { generations: 30, ..GaConfig::default() });
    let d_ga = pairwise_distances(&zm.select_columns(&ga.selected));
    let mut g = c.benchmark_group("fig4");
    g.bench_function("roc_and_auc_two_spaces", |b| {
        b.iter(|| {
            let a1 = auc(&roc_curve(dh.values(), dm.values(), 0.2, 200));
            let a2 = auc(&roc_curve(dh.values(), d_ga.values(), 0.2, 200));
            black_box((a1, a2))
        })
    });
    g.finish();

    // Figure 5: the full correlation-elimination curve.
    let mut g = c.benchmark_group("fig5");
    g.sample_size(10);
    g.bench_function("correlation_elimination_curve", |b| {
        b.iter(|| {
            let order = elimination_order(&mica);
            let mut retained: Vec<usize> = (0..mica.cols()).collect();
            let mut out = Vec::new();
            for victim in &order {
                retained.retain(|c| c != victim);
                if retained.is_empty() {
                    break;
                }
                let reduced = pairwise_distances(&zm.select_columns(&retained));
                out.push(pearson(dm.values(), reduced.values()));
            }
            black_box(out.len())
        })
    });
    g.finish();

    // Table IV: the GA selection itself.
    let mut g = c.benchmark_group("table4");
    g.sample_size(10);
    g.bench_function("ga_select_8_of_47", |b| {
        b.iter(|| {
            black_box(
                select_features_k(
                    &mica,
                    8,
                    GaConfig { generations: 40, population: 32, ..GaConfig::default() },
                )
                .rho,
            )
        })
    });
    g.finish();

    // Figure 6: BIC model selection + kiviat rendering.
    let sel = zm.select_columns(&ga.selected);
    let kiv = minmax_normalize_columns(&mica.select_columns(&ga.selected));
    let mut g = c.benchmark_group("fig6");
    g.sample_size(10);
    g.bench_function("choose_k_by_bic_upto_15", |b| {
        b.iter(|| black_box(choose_k_by_bic(&sel, 15, 7).k()))
    });
    g.bench_function("render_all_kiviats", |b| {
        let axes: Vec<String> = (0..8).map(|i| format!("m{i}")).collect();
        b.iter(|| {
            let mut bytes = 0;
            for r in 0..kiv.rows() {
                let vals: Vec<f64> = (0..kiv.cols()).map(|c| kiv.get(r, c)).collect();
                bytes += plot::svg_kiviat("bench", &axes, &vals).len();
            }
            black_box(bytes)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
