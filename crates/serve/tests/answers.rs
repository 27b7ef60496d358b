//! Served `table` answers over the committed reference set: the ranking
//! and the wire rendering a lookup takes.
//!
//! - `QuerySpace::neighbors` (a partial selection of the `k` nearest)
//!   returns exactly what a full stable sort of every reference returns,
//!   for every reference, both metrics and k ∈ {1, 5, 10, 122}, and on a
//!   set with duplicate points, whose ties break by name;
//! - `render_response` (each type writing its own JSON) returns exactly
//!   the bytes of rendering the response's value tree.

use mica_experiments::query::{DistanceMetric, Neighbor, QuerySpace};
use mica_experiments::results::ProfileSet;
use mica_serve::protocol::{
    render_response, status, NeighborEntry, Provenance, QueryResult, Response,
};
use serde::Serialize;
use std::path::Path;

const KS: [usize; 4] = [1, 5, 10, 122];
const METRICS: [DistanceMetric; 2] = [DistanceMetric::Euclidean, DistanceMetric::Cosine];

fn committed_profiles() -> ProfileSet {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/profiles.json");
    ProfileSet::load(&path).expect("committed results/profiles.json loads")
}

/// The ranking as it was before the partial selection: every reference
/// cloned into a `Neighbor`, stably sorted by distance then name, cut to k.
fn full_sort(space: &QuerySpace, point: &[f64], k: usize, metric: DistanceMetric) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = space
        .names()
        .iter()
        .enumerate()
        .map(|(i, name)| Neighbor {
            name: name.clone(),
            distance: metric.distance(point, space.point(i)),
        })
        .collect();
    all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then_with(|| a.name.cmp(&b.name)));
    all.truncate(k);
    all
}

/// Names and distance bits, so that a NaN distance still compares.
fn key(neighbors: &[Neighbor]) -> Vec<(&str, u64)> {
    neighbors.iter().map(|n| (n.name.as_str(), n.distance.to_bits())).collect()
}

fn assert_ranking_matches(space: &QuerySpace, point: &[f64], what: &str) {
    for metric in METRICS {
        for k in KS.into_iter().chain([0, space.names().len() + 3]) {
            let got = space.neighbors(point, k, metric);
            let want = full_sort(space, point, k, metric);
            assert_eq!(key(&got), key(&want), "{what}, {}, k = {k}", metric.name());
        }
    }
}

#[test]
fn neighbors_equal_a_full_stable_sort() {
    let set = committed_profiles();
    assert_eq!(set.records.len(), 122);
    let space = QuerySpace::build(&set, 8);
    for rec in &set.records {
        let point = space.project(rec.mica.values()).expect("47 metrics");
        assert_ranking_matches(&space, &point, &rec.name);
    }
    // A zero query sits at cosine distance 1 from every reference, so the
    // whole cosine ranking is a tie broken by name.
    let zero = vec![0.0; space.selected().len()];
    assert_ranking_matches(&space, &zero, "zero query");
}

#[test]
fn duplicate_points_break_ties_by_name() {
    let mut set = committed_profiles();
    // Every fourth reference again under a name that sorts before and one
    // that sorts after its own, so equal distances must order by name.
    let copies: Vec<_> = set
        .records
        .iter()
        .step_by(4)
        .flat_map(|rec| {
            ["!", "~"].map(|mark| {
                let mut copy = rec.clone();
                copy.name = format!("{mark}{}", rec.name);
                copy
            })
        })
        .collect();
    set.records.extend(copies);
    let space = QuerySpace::build(&set, 8);
    for rec in &set.records {
        let point = space.project(rec.mica.values()).expect("47 metrics");
        assert_ranking_matches(&space, &point, &rec.name);
        let nn = space.neighbors(&point, 3, DistanceMetric::Euclidean);
        if let Some(own) = rec.name.strip_prefix(['!', '~']) {
            let names: Vec<&str> = nn.iter().map(|n| n.name.as_str()).collect();
            let (before, after) = (format!("!{own}"), format!("~{own}"));
            assert_eq!(names, [before.as_str(), own, after.as_str()], "three at distance 0");
        }
    }
}

/// A successful answer to a `table` lookup, shaped as the server builds it.
fn answer(
    space: &QuerySpace,
    set: &ProfileSet,
    row: usize,
    k: usize,
    metric: DistanceMetric,
) -> Response {
    let rec = &set.records[row];
    let projection = space.project(rec.mica.values()).expect("47 metrics");
    let neighbors = space
        .neighbors(&projection, k, metric)
        .into_iter()
        .map(|nb| NeighborEntry { name: nb.name, distance: nb.distance })
        .collect();
    Response {
        id: format!("q{row}"),
        status: status::OK.to_string(),
        error: None,
        retry_after_ms: None,
        result: Some(QueryResult {
            name: rec.name.clone(),
            vector: rec.mica.values().to_vec(),
            projection,
            neighbors,
            metric: metric.name().to_string(),
            executed_instructions: rec.executed_instructions,
            cached: true,
        }),
        provenance: Some(Provenance {
            // Text the writer must escape (quotes, a backslash, a tab, a
            // control character) or pass through as UTF-8.
            server: "mica-serve 0.1.0 \"q\" tab\there\\\u{1}é".to_string(),
            table_fingerprint: u64::MAX,
            profile_fingerprint: set.fingerprint,
            scale: set.scale,
            threads: 2,
            selected_metrics: space.selected().iter().map(|&i| i as u64).collect(),
            ga_rho: space.rho(),
        }),
        trace: Some(format!("{:016x}", row as u64 * 0x9e37_79b9)),
        ops: None,
    }
}

#[test]
fn rendered_answers_equal_the_tree_rendering() {
    let set = committed_profiles();
    let space = QuerySpace::build(&set, 8);
    for row in 0..set.records.len() {
        for metric in METRICS {
            for k in KS {
                let resp = answer(&space, &set, row, k, metric);
                let line = render_response(&resp);
                let tree = serde_json::to_string(&resp.to_value()).expect("tree renders");
                assert_eq!(line, tree, "{}, {}, k = {k}", set.records[row].name, metric.name());
            }
        }
    }
    // Refusals and ops answers carry the nulls and strings instead.
    let mut refusal = Response::refusal("r\"1", status::OVERLOADED, "queue full\n");
    refusal.retry_after_ms = Some(25);
    refusal.ops = Some("{\"ready\":true}".into());
    let tree = serde_json::to_string(&refusal.to_value()).expect("tree renders");
    assert_eq!(render_response(&refusal), tree);
}
