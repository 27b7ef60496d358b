//! Nearest-neighbor queries in the paper's 8-dimensional GA space.
//!
//! The paper's end product is a *query*: given a (possibly new) kernel's
//! 47-metric characterization, which of the 122 reference benchmarks does
//! it resemble? [`QuerySpace`] freezes everything that answer depends on —
//! the GA-selected characteristic subset (Section V-B), the per-column
//! mean/σ of the reference set (Section IV's z-score normalization), and
//! the projected reference points — so the characterization server can
//! answer many queries against one immutable snapshot, and so a query for
//! a benchmark that *is* in the table reproduces exactly the geometry the
//! batch experiments (`fig5`, `table4`) computed.
//!
//! Determinism: the GA runs with the fixed `GaConfig::default()` seed and
//! the space is built from the profile set alone, so two servers built
//! from byte-identical `profiles.json` caches answer byte-identically —
//! for any `MICA_THREADS`.

use crate::analysis::mica_dataset;
use crate::results::ProfileSet;
use mica_stats::{select_features_k, DataSet, GaConfig};
use serde::Serialize;

/// Distance metrics offered on the query path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceMetric {
    /// Euclidean distance in the z-scored selected space (the paper's
    /// Section IV metric).
    Euclidean,
    /// Cosine *distance* (`1 - cosine similarity`) in the same space.
    /// Zero vectors are defined to have distance 1 from everything
    /// (no shared direction), 0 from each other.
    Cosine,
}

impl DistanceMetric {
    /// Parse a metric name as it appears on the wire.
    pub fn parse(name: &str) -> Option<DistanceMetric> {
        match name {
            "euclidean" => Some(DistanceMetric::Euclidean),
            "cosine" => Some(DistanceMetric::Cosine),
            _ => None,
        }
    }

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            DistanceMetric::Euclidean => "euclidean",
            DistanceMetric::Cosine => "cosine",
        }
    }

    /// Distance between two points of equal dimension.
    pub fn distance(self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            DistanceMetric::Euclidean => {
                a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
            }
            DistanceMetric::Cosine => {
                let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
                let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
                if na == 0.0 && nb == 0.0 {
                    0.0
                } else if na == 0.0 || nb == 0.0 {
                    1.0
                } else {
                    1.0 - dot / (na * nb)
                }
            }
        }
    }
}

/// One neighbor in a query answer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Neighbor {
    /// Full `suite/program/input` benchmark name.
    pub name: String,
    /// Distance from the query point under the requested metric.
    pub distance: f64,
}

/// An immutable nearest-neighbor index over the reference benchmarks.
///
/// Built once from a [`ProfileSet`]; queries project a raw 47-metric
/// vector with the *reference* set's normalization (a query never shifts
/// the space it is asked about) and rank the reference points by distance.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpace {
    /// Reference benchmark names, in Table I order.
    names: Vec<String>,
    /// GA-selected metric indices into the 47-metric vector.
    selected: Vec<usize>,
    /// Per-selected-column mean of the raw reference values.
    mean: Vec<f64>,
    /// Per-selected-column population standard deviation.
    sd: Vec<f64>,
    /// Reference points, z-scored, one row per benchmark.
    points: Vec<Vec<f64>>,
    /// The GA's correlation fitness for the selected subset.
    rho: f64,
}

impl QuerySpace {
    /// Build the space: run the paper's GA (fixed seed, fixed `k`) on the
    /// raw 122 × 47 data set, then freeze the selected columns' mean/σ and
    /// the z-scored reference points.
    pub fn build(set: &ProfileSet, k: usize) -> QuerySpace {
        let raw = mica_dataset(set);
        let ga = select_features_k(&raw, k, GaConfig::default());
        let mut selected = ga.selected.clone();
        selected.sort_unstable();
        let sub = raw.select_columns(&selected);
        let (mean, sd) = column_stats(&sub);
        let points = (0..sub.rows())
            .map(|r| {
                (0..sub.cols())
                    .map(|c| zscore(sub.get(r, c), mean[c], sd[c]))
                    .collect::<Vec<f64>>()
            })
            .collect();
        QuerySpace {
            names: set.records.iter().map(|r| r.name.clone()).collect(),
            selected,
            mean,
            sd,
            points,
            rho: ga.rho,
        }
    }

    /// The GA-selected metric indices (ascending).
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// The GA's correlation fitness ρ for the selected subset.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Reference benchmark names, in Table I order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The z-scored reference point for row `i`.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.points[i]
    }

    /// Project a raw 47-metric vector into the space: select the GA
    /// columns and z-score them with the *reference* mean/σ.
    ///
    /// Returns `None` if `values` has the wrong dimensionality.
    pub fn project(&self, values: &[f64]) -> Option<Vec<f64>> {
        let top = *self.selected.last()?;
        if values.len() <= top {
            return None;
        }
        Some(
            self.selected
                .iter()
                .zip(self.mean.iter().zip(&self.sd))
                .map(|(&i, (&m, &s))| zscore(values[i], m, s))
                .collect(),
        )
    }

    /// The `k` nearest reference benchmarks to a projected `point`,
    /// ascending by distance; ties broken by name so the answer is
    /// total-ordered and scheduling-independent. `k` is clamped to the
    /// reference count. [`nearest`](Self::nearest) with the names cloned.
    pub fn neighbors(&self, point: &[f64], k: usize, metric: DistanceMetric) -> Vec<Neighbor> {
        self.nearest(point, k, metric)
            .into_iter()
            .map(|(distance, row)| Neighbor { name: self.names[row].clone(), distance })
            .collect()
    }

    /// The ranking of [`neighbors`](Self::neighbors) as `(distance, row)`
    /// pairs, rows indexing [`names`](Self::names).
    ///
    /// Partitions the `k` nearest to the front and sorts only those.
    pub fn nearest(&self, point: &[f64], k: usize, metric: DistanceMetric) -> Vec<(f64, usize)> {
        let mut ranked: Vec<(f64, usize)> =
            self.points.iter().map(|p| metric.distance(point, p)).zip(0..).collect();
        let order = |a: &(f64, usize), b: &(f64, usize)| {
            a.0.total_cmp(&b.0).then_with(|| self.names[a.1].cmp(&self.names[b.1]))
        };
        let k = k.min(ranked.len());
        if k == 0 {
            return Vec::new();
        }
        if k < ranked.len() {
            ranked.select_nth_unstable_by(k - 1, order);
            ranked.truncate(k);
        }
        // Pairs that compare equal have equal distances and names, so an
        // unstable sort returns the same neighbors as a stable one.
        ranked.sort_unstable_by(order);
        ranked
    }
}

/// Per-column mean and population standard deviation (`var = Σ(x-μ)²/n`,
/// matching [`mica_stats::zscore_normalize`] exactly — the query space
/// must agree bit-for-bit with the batch experiments' normalization).
fn column_stats(ds: &DataSet) -> (Vec<f64>, Vec<f64>) {
    let n = ds.rows() as f64;
    let mut mean = Vec::with_capacity(ds.cols());
    let mut sd = Vec::with_capacity(ds.cols());
    for c in 0..ds.cols() {
        let m = (0..ds.rows()).map(|r| ds.get(r, c)).sum::<f64>() / n;
        let var = (0..ds.rows()).map(|r| (ds.get(r, c) - m).powi(2)).sum::<f64>() / n;
        mean.push(m);
        sd.push(var.sqrt());
    }
    (mean, sd)
}

/// One z-score with the constant-column convention of
/// [`mica_stats::zscore_normalize`]: σ = 0 maps everything to 0.
fn zscore(x: f64, mean: f64, sd: f64) -> f64 {
    if sd > 0.0 {
        (x - mean) / sd
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::BenchRecord;
    use mica_core::{MicaVector, NUM_METRICS};
    use uarch_sim::HpcProfile;

    fn fake_set(n: usize) -> ProfileSet {
        let mut x = 88172645463325252u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let records = (0..n)
            .map(|i| BenchRecord {
                name: format!("s/p{i:02}/in"),
                suite: "s".into(),
                program: format!("p{i:02}"),
                input: "in".into(),
                paper_icount_millions: 1,
                executed_instructions: 1,
                mica: MicaVector::new((0..NUM_METRICS).map(|_| rng()).collect()),
                hpc: HpcProfile {
                    ipc_ev56: 1.0,
                    branch_mispredict_rate: 0.0,
                    l1d_miss_rate: 0.0,
                    l1i_miss_rate: 0.0,
                    l2_miss_rate: 0.0,
                    dtlb_miss_rate: 0.0,
                    ipc_ev67: 2.0,
                    mix: [0.0; 6],
                    instructions: 1,
                },
            })
            .collect();
        ProfileSet { scale: 1.0, fingerprint: 0, records }
    }

    #[test]
    fn reference_rows_project_onto_their_own_points() {
        let set = fake_set(12);
        let space = QuerySpace::build(&set, 4);
        for (i, rec) in set.records.iter().enumerate() {
            let p = space.project(rec.mica.values()).unwrap();
            assert_eq!(p, space.point(i), "row {i}");
        }
    }

    #[test]
    fn self_is_the_nearest_neighbor_under_both_metrics() {
        let set = fake_set(12);
        let space = QuerySpace::build(&set, 4);
        for metric in [DistanceMetric::Euclidean, DistanceMetric::Cosine] {
            for (i, rec) in set.records.iter().enumerate() {
                let p = space.project(rec.mica.values()).unwrap();
                let nn = space.neighbors(&p, 3, metric);
                assert_eq!(nn.len(), 3);
                assert_eq!(nn[0].name, rec.name, "metric {}", metric.name());
                assert!(nn[0].distance.abs() < 1e-12);
                assert!(nn[0].distance <= nn[1].distance && nn[1].distance <= nn[2].distance);
                let _ = i;
            }
        }
    }

    #[test]
    fn wrong_dimension_projects_to_none() {
        let set = fake_set(8);
        let space = QuerySpace::build(&set, 4);
        assert_eq!(space.project(&[1.0, 2.0]), None);
    }

    #[test]
    fn k_is_clamped_and_ties_break_by_name() {
        let set = fake_set(5);
        let space = QuerySpace::build(&set, 3);
        let nn = space.neighbors(space.point(0), 100, DistanceMetric::Euclidean);
        assert_eq!(nn.len(), 5);
        // Cosine of a zero query vector: every nonzero reference is at
        // distance 1, so the full ordering is alphabetical.
        let zeros = vec![0.0; space.selected().len()];
        let nn = space.neighbors(&zeros, 5, DistanceMetric::Cosine);
        let names: Vec<&str> = nn.iter().map(|n| n.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn metric_names_round_trip() {
        for m in [DistanceMetric::Euclidean, DistanceMetric::Cosine] {
            assert_eq!(DistanceMetric::parse(m.name()), Some(m));
        }
        assert_eq!(DistanceMetric::parse("manhattan"), None);
    }
}
