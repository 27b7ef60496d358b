//! Satellite coverage for the nearest-neighbor query path: every
//! reference benchmark's neighbors must match a brute-force reference
//! computed on the z-scored GA-selected space via the independent
//! `mica_stats::zscore_normalize` route, under both metrics, and the
//! whole construction must be bit-stable across `MICA_THREADS`.

use mica_experiments::analysis::mica_dataset;
use mica_experiments::profile::profile_all_configured;
use mica_experiments::query::{DistanceMetric, Neighbor, QuerySpace};
use mica_experiments::results::ProfileSet;
use mica_stats::zscore_normalize;

/// Profile the full table at the 10k-instruction floor budget.
fn profile_floor() -> ProfileSet {
    let outcome = profile_all_configured(1e-9, None).expect("profiling succeeds");
    assert!(outcome.quarantined.is_empty(), "clean run expected");
    outcome.set
}

/// Brute-force k nearest neighbors of row `i` in `z`, ties by name.
fn brute_force(
    z: &mica_stats::DataSet,
    names: &[String],
    i: usize,
    k: usize,
    metric: DistanceMetric,
) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = (0..z.rows())
        .map(|j| Neighbor {
            name: names[j].clone(),
            distance: metric.distance(z.row(i), z.row(j)),
        })
        .collect();
    all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then_with(|| a.name.cmp(&b.name)));
    all.truncate(k);
    all
}

#[test]
fn neighbors_match_brute_force_and_are_thread_stable() {
    // Thread-stability first: the profile set, the GA selection, and the
    // final query space must be identical for 1 and 4 workers. The env
    // var is process-global, so this single test owns it start to end.
    std::env::set_var("MICA_THREADS", "1");
    let set1 = profile_floor();
    std::env::set_var("MICA_THREADS", "4");
    let set4 = profile_floor();
    std::env::remove_var("MICA_THREADS");
    assert_eq!(set1, set4, "profiles must be bit-stable across MICA_THREADS");

    let space1 = QuerySpace::build(&set1, 8);
    let space4 = QuerySpace::build(&set4, 8);
    assert_eq!(space1, space4, "query space must be bit-stable across MICA_THREADS");
    let space = space1;
    assert_eq!(space.selected().len(), 8);
    assert_eq!(space.names().len(), set1.records.len());

    // Brute-force reference: select the same GA columns from the raw data
    // set and z-score them through mica_stats (population σ), entirely
    // bypassing QuerySpace's own projection path.
    let raw = mica_dataset(&set1);
    let z = zscore_normalize(&raw.select_columns(space.selected()));
    let names: Vec<String> = set1.records.iter().map(|r| r.name.clone()).collect();

    for (i, rec) in set1.records.iter().enumerate() {
        let p = space.project(rec.mica.values()).expect("47-metric vector projects");
        assert_eq!(p.as_slice(), z.row(i), "projection of row {i} must equal the z-scored row");
        for metric in [DistanceMetric::Euclidean, DistanceMetric::Cosine] {
            let got = space.neighbors(&p, 6, metric);
            let want = brute_force(&z, &names, i, 6, metric);
            assert_eq!(got, want, "row {i} metric {}", metric.name());
            // Self sits at distance ~0. Another benchmark may tie exactly
            // (at the floor budget some kernels characterize identically)
            // and win the alphabetical tie-break, but the head of the
            // list is always a zero-distance match and self is in it.
            assert!(got[0].distance.abs() < 1e-9, "row {i}: nearest must be a zero-distance match");
            assert!(
                got.iter().any(|n| n.name == rec.name && n.distance.abs() < 1e-9),
                "row {i}: self must appear among the nearest neighbors"
            );
        }
    }
}
