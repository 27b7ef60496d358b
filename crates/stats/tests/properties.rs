//! Property-based tests of the statistics toolkit's invariants over random
//! data sets.

use mica_stats::{
    auc, choose_k_by_bic, classify_pairs, correlation_elimination, hierarchical_cluster, kmeans,
    pairwise_distances, pairwise_distances_serial, pearson, roc_curve, select_features_k,
    silhouette, zscore_normalize, DataSet, GaConfig, Pca,
};
use proptest::prelude::*;

fn random_dataset() -> impl Strategy<Value = DataSet> {
    (3usize..12, 2usize..8).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            proptest::collection::vec(-100.0f64..100.0, cols),
            rows..=rows,
        )
        .prop_map(DataSet::from_rows)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn zscore_is_idempotent(ds in random_dataset()) {
        let once = zscore_normalize(&ds);
        let twice = zscore_normalize(&once);
        for r in 0..ds.rows() {
            for c in 0..ds.cols() {
                prop_assert!((once.get(r, c) - twice.get(r, c)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn pearson_is_bounded_and_symmetric(
        a in proptest::collection::vec(-1e6f64..1e6, 3..50),
        b in proptest::collection::vec(-1e6f64..1e6, 3..50),
    ) {
        let n = a.len().min(b.len());
        let r = pearson(&a[..n], &b[..n]);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        prop_assert!((r - pearson(&b[..n], &a[..n])).abs() < 1e-12);
    }

    #[test]
    fn correlation_elimination_returns_requested_sorted_subset(
        ds in random_dataset(),
        frac in 0.2f64..1.0,
    ) {
        let keep = ((ds.cols() as f64 * frac) as usize).max(1);
        let kept = correlation_elimination(&ds, keep);
        prop_assert_eq!(kept.len(), keep);
        for w in kept.windows(2) {
            prop_assert!(w[0] < w[1], "ascending, no duplicates");
        }
        prop_assert!(kept.iter().all(|&c| c < ds.cols()));
        // Deterministic.
        prop_assert_eq!(kept, correlation_elimination(&ds, keep));
    }

    #[test]
    fn ga_selection_is_valid_and_rho_bounded(ds in random_dataset()) {
        let k = (ds.cols() / 2).max(1);
        let cfg = GaConfig { population: 16, generations: 10, ..GaConfig::default() };
        let r = select_features_k(&ds, k, cfg);
        prop_assert_eq!(r.selected.len(), k);
        prop_assert!(r.selected.iter().all(|&c| c < ds.cols()));
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r.rho));
        prop_assert!(r.fitness <= 1.0 + 1e-9);
    }

    #[test]
    fn kmeans_invariants(ds in random_dataset(), k_frac in 0.1f64..1.0) {
        let k = ((ds.rows() as f64 * k_frac) as usize).clamp(1, ds.rows());
        let r = kmeans(&ds, k, 42);
        prop_assert_eq!(r.labels.len(), ds.rows());
        prop_assert!(r.labels.iter().all(|&l| l < k));
        prop_assert!(r.sse >= 0.0);
        prop_assert!(r.bic.is_finite());
        // More clusters never increase SSE (same seed family not guaranteed,
        // so compare against the trivial k = n case).
        let perfect = kmeans(&ds, ds.rows(), 42);
        prop_assert!(perfect.sse <= r.sse + 1e-9);
    }

    #[test]
    fn bic_choice_is_within_range(ds in random_dataset()) {
        let r = choose_k_by_bic(&ds, 8, 7);
        let k_max = ds.rows().min(8);
        prop_assert!(r.k() >= 1 && r.k() <= k_max);
        // Fig. 6's rule: the first K whose BIC reaches min + 0.9·(max − min),
        // or the first K at the maximum when the curve is flat.
        let bic: Vec<f64> = (1..=k_max).map(|k| kmeans(&ds, k, 7 ^ k as u64).bic).collect();
        let max = bic.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = bic.iter().copied().fold(f64::INFINITY, f64::min);
        let threshold = if max - min < 1e-12 { max } else { min + 0.9 * (max - min) };
        let first = bic.iter().position(|&b| b >= threshold).expect("the maximum clears it");
        prop_assert_eq!(r.k(), first + 1);
        prop_assert_eq!(r.bic.to_bits(), bic[first].to_bits());
    }

    #[test]
    fn silhouette_is_bounded(ds in random_dataset()) {
        let d = pairwise_distances(&ds);
        let k = (ds.rows() / 2).max(1);
        let labels = kmeans(&ds, k, 3).labels;
        let s = silhouette(&d, &labels);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s));
    }

    #[test]
    fn dendrogram_cuts_are_nested(ds in random_dataset()) {
        let d = pairwise_distances(&ds);
        let dend = hierarchical_cluster(&d);
        // A coarser cut never separates items a finer cut joined.
        let fine = dend.cut(ds.rows().min(4));
        let coarse = dend.cut(2.min(ds.rows()));
        for i in 0..ds.rows() {
            for j in 0..ds.rows() {
                if fine[i] == fine[j] {
                    prop_assert_eq!(coarse[i], coarse[j], "nested partitions violated");
                }
            }
        }
    }

    #[test]
    fn roc_and_auc_are_well_formed(
        pairs in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 4..100),
    ) {
        let (a, b): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let curve = roc_curve(&a, &b, 0.2, 50);
        for p in &curve {
            prop_assert!((0.0..=1.0).contains(&p.sensitivity));
            prop_assert!((0.0..=1.0).contains(&p.one_minus_specificity));
        }
        let area = auc(&curve);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&area));
        let c = classify_pairs(&a, &b, 0.2, 0.2);
        let total = c.true_positive + c.true_negative + c.false_positive + c.false_negative;
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn condensed_get_matches_naive_dense_matrix(ds in random_dataset()) {
        let d = pairwise_distances(&ds);
        let n = ds.rows();
        // Naive dense distance matrix, computed independently.
        let dense: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let s: f64 = (0..ds.cols())
                            .map(|c| (ds.get(i, c) - ds.get(j, c)).powi(2))
                            .sum();
                        s.sqrt()
                    })
                    .collect()
            })
            .collect();
        prop_assert_eq!(d.num_items(), n);
        prop_assert_eq!(d.len(), n * (n - 1) / 2);
        for (i, row) in dense.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                if i != j {
                    prop_assert!((d.get(i, j) - want).abs() < 1e-9,
                        "get({i},{j}) = {} vs dense {}", d.get(i, j), want);
                }
            }
        }
        // iter_pairs agrees with get on every pair.
        for (i, j, dist) in d.iter_pairs() {
            prop_assert_eq!(dist.to_bits(), d.get(i, j).to_bits());
        }
    }

    #[test]
    fn parallel_distances_match_serial_bitwise(ds in random_dataset()) {
        let par = pairwise_distances(&ds);
        let ser = pairwise_distances_serial(&ds);
        prop_assert_eq!(&par, &ser);
        for (a, b) in par.values().iter().zip(ser.values()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pca_explained_variance_is_monotone(ds in random_dataset()) {
        let pca = Pca::fit(&ds);
        let mut prev = 0.0;
        for k in 0..=ds.cols() {
            let v = pca.explained_variance(k);
            prop_assert!(v + 1e-9 >= prev, "explained variance must grow with k");
            prop_assert!((0.0..=1.0 + 1e-6).contains(&v));
            prev = v;
        }
    }
}
