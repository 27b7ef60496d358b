//! Reduced-scale versions of every experiment in the paper, as integration
//! tests: each one checks the *shape* of the corresponding table/figure.

use mica_suite::isa::{TraceRecorder, BATCH_CAPACITY};
use mica_suite::mica::{
    Category, IlpAnalyzer, PpmPredictor, PpmVariant, RegTraffic, StrideAnalyzer, WorkingSet,
    NUM_METRICS,
};
use mica_suite::prelude::*;
use mica_suite::stats::{
    auc, choose_k_by_bic, classify_pairs, pairwise_distances, roc_curve, select_features_k, Pca,
};

/// Profile every 5th benchmark at a small budget (25 of the 122).
fn mini_profiles() -> (Vec<String>, DataSet, DataSet) {
    let table = benchmark_table();
    let mut names = Vec::new();
    let mut mica_rows = Vec::new();
    let mut hpc_rows = Vec::new();
    for spec in table.iter().step_by(5) {
        names.push(spec.name());
        mica_rows.push(characterize(spec, 50_000).expect("runs").into_values());
        hpc_rows.push(profile_hpc(spec, 50_000).expect("runs").counter_vector());
    }
    (names, DataSet::from_rows(mica_rows), DataSet::from_rows(hpc_rows))
}

#[test]
fn experiment_shapes_hold_at_reduced_scale() {
    // All the per-figure checks share one (expensive) profiling pass, so
    // they live in one test body, labeled by the figure they verify.
    let (_names, mica, hpc) = mini_profiles();
    let zm = zscore_normalize(&mica);
    let zh = zscore_normalize(&hpc);
    let dm = pairwise_distances(&zm);
    let dh = pairwise_distances(&zh);

    // --- Figure 1: modest positive distance correlation ---
    let r = pearson(dm.values(), dh.values());
    assert!(r > 0.2, "fig1: expected positive correlation, got {r}");
    assert!(r < 0.95, "fig1: the spaces must NOT be interchangeable, got {r}");

    // --- Table III: false negatives rare, false positives common ---
    let c = classify_pairs(dh.values(), dm.values(), 0.2, 0.2);
    assert!(c.false_negative < 0.1, "table3: FN {}", c.false_negative);
    assert!(
        c.false_positive > c.false_negative,
        "table3: FP {} should exceed FN {}",
        c.false_positive,
        c.false_negative
    );
    let total = c.false_negative + c.false_positive + c.true_negative + c.true_positive;
    assert!((total - 1.0).abs() < 1e-9);

    // --- Figure 4: reduced GA space stays usefully predictive (AUC > 0.5) ---
    let ga = select_features_k(&mica, 8, GaConfig { generations: 80, ..GaConfig::default() });
    let d_ga = pairwise_distances(&zm.select_columns(&ga.selected));
    let auc_all = auc(&roc_curve(dh.values(), dm.values(), 0.2, 100));
    let auc_ga = auc(&roc_curve(dh.values(), d_ga.values(), 0.2, 100));
    assert!(auc_all > 0.55, "fig4: all-metrics AUC {auc_all}");
    assert!(auc_ga > 0.5, "fig4: GA AUC {auc_ga}");

    // --- Figure 5 / Table IV: GA beats CE at equal subset size ---
    let ce = correlation_elimination(&mica, 8);
    let d_ce = pairwise_distances(&zm.select_columns(&ce));
    let rho_ce = pearson(dm.values(), d_ce.values());
    assert!(ga.rho > rho_ce, "fig5: GA rho {} must beat CE rho {rho_ce}", ga.rho);
    assert!(ga.rho > 0.7, "fig5: GA preserves geometry, rho {}", ga.rho);
    assert_eq!(ga.selected.len(), 8, "table4: exactly 8 key characteristics");

    // --- Figure 6: clustering groups siblings and separates extremes ---
    let sel = zm.select_columns(&ga.selected);
    let clustering = choose_k_by_bic(&sel, 20, 7);
    assert!(clustering.k() >= 2, "fig6: more than one behavior class");
    assert!(clustering.k() < sel.rows(), "fig6: not all singletons");

    // --- Section V-C: PCA needs all 47 measured but few components ---
    let pca = Pca::fit(&mica);
    let k90 = pca.components_for_variance(0.9);
    assert!(k90 < NUM_METRICS / 2, "pca: heavy correlation means few components, got {k90}");
}

#[test]
fn ga_subset_is_reusable_across_runs() {
    // The selected metric subset must be stable for a fixed seed (the whole
    // point is to measure only those 8 on future benchmarks).
    let table = benchmark_table();
    let rows: Vec<Vec<f64>> = table
        .iter()
        .step_by(11)
        .map(|s| characterize(s, 30_000).expect("runs").into_values())
        .collect();
    let ds = DataSet::from_rows(rows);
    let cfg = GaConfig { generations: 40, ..GaConfig::default() };
    assert_eq!(select_features_k(&ds, 6, cfg).selected, select_features_k(&ds, 6, cfg).selected);
}

#[test]
fn key_characteristics_need_five_analyzers_and_match_the_suite() {
    // Table IV's picks, as the committed artifact lists them.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/table4.csv");
    let csv = std::fs::read_to_string(path).expect("committed table4.csv");
    let picks: Vec<&str> =
        csv.lines().skip(1).map(|l| l.split(',').nth(1).expect("a metric column")).collect();
    assert_eq!(
        picks,
        ["ilp_256", "dep_le_8", "dep_le_64", "d_wss_blk", "lls_64", "gls_8", "gss_64", "ppm_pas"]
    );

    // The columns the five analyzers fill, in Table II order: ILP at window
    // 256, all of register traffic, working sets and strides, and PAs.
    let measured: Vec<usize> = (0..NUM_METRICS)
        .filter(|&i| {
            let m = &METRICS[i];
            matches!(
                m.category,
                Category::RegisterTraffic | Category::WorkingSet | Category::DataStreamStrides
            ) || m.short == "ilp_256"
                || m.short == "ppm_pas"
        })
        .collect();
    for pick in &picks {
        assert!(measured.iter().any(|&i| METRICS[i].short == *pick), "{pick} is not measured");
    }

    // The repository benchmark's sample at the budget floor.
    for spec in benchmark_table().iter().step_by(8) {
        let full = characterize(spec, 10_000).expect("runs");
        let mut rec = TraceRecorder::new();
        spec.build_vm().expect("builds").run(&mut rec, 10_000).expect("runs");
        let mut ilp = IlpAnalyzer::with_windows(&[256]);
        let mut reg = RegTraffic::new();
        let mut wss = WorkingSet::new();
        let mut strides = StrideAnalyzer::new();
        let mut pas = PpmPredictor::new(PpmVariant::PAs);
        for block in rec.into_trace().events().chunks(BATCH_CAPACITY) {
            ilp.retire_block(block);
            reg.retire_block(block);
            wss.retire_block(block);
            strides.retire_block(block);
            pas.retire_block(block);
        }
        let subset: Vec<f64> = ilp
            .ipcs()
            .into_iter()
            .chain([reg.avg_input_operands(), reg.avg_degree_of_use()])
            .chain(reg.dependency_distance_cdf())
            .chain(wss.counts())
            .chain(strides.all())
            .chain([pas.accuracy()])
            .collect();
        assert_eq!(subset.len(), measured.len());
        for (&i, v) in measured.iter().zip(&subset) {
            assert_eq!(
                v.to_bits(),
                full.values()[i].to_bits(),
                "{}: {}",
                spec.name(),
                METRICS[i].short
            );
        }
    }
}

#[test]
fn suite_level_claim_bio_differs_from_spec_more_than_media_does() {
    // Section VI's headline: BioInfoMark benchmarks are more dissimilar
    // from SPEC than MediaBench benchmarks are. Compare mean distance from
    // each suite member to its nearest SPEC benchmark.
    let table = benchmark_table();
    let picks: Vec<_> = table
        .iter()
        .filter(|b| {
            matches!(b.suite, Suite::BioInfoMark | Suite::MediaBench | Suite::SpecCpu2000)
        })
        .collect();
    let rows: Vec<Vec<f64>> =
        picks.iter().map(|s| characterize(s, 40_000).expect("runs").into_values()).collect();
    let z = zscore_normalize(&DataSet::from_rows(rows));
    let d = pairwise_distances(&z);

    let nearest_spec = |i: usize| {
        picks
            .iter()
            .enumerate()
            .filter(|(j, b)| *j != i && b.suite == Suite::SpecCpu2000)
            .map(|(j, _)| d.get(i, j))
            .fold(f64::INFINITY, f64::min)
    };
    let mean_for = |suite: Suite| {
        let idx: Vec<usize> =
            picks.iter().enumerate().filter(|(_, b)| b.suite == suite).map(|(i, _)| i).collect();
        idx.iter().map(|&i| nearest_spec(i)).sum::<f64>() / idx.len() as f64
    };
    let bio = mean_for(Suite::BioInfoMark);
    let media = mean_for(Suite::MediaBench);
    assert!(
        bio > media * 0.8,
        "bio distance-to-SPEC ({bio:.2}) should not be far below media ({media:.2})"
    );
}
