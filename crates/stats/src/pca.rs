//! Principal components analysis (the prior-work baseline of Section V-C).
//!
//! The paper contrasts its metric-subset methods against PCA-based workload
//! characterization: PCA also reduces dimensionality, but (i) still requires
//! all original metrics to be measured and (ii) produces dimensions that are
//! linear combinations, harder to interpret. This implementation exists to
//! make that comparison concrete: `tests/methodology.rs` checks that fewer
//! than half of the 47 components hold 90% of the table's variance.

use crate::dataset::DataSet;
use crate::zscore_normalize;

/// A fitted PCA model.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Eigenvalues, descending.
    eigenvalues: Vec<f64>,
    /// Matching unit eigenvectors (each of length = original columns).
    components: Vec<Vec<f64>>,
    /// Column means of the training data (for centering at transform time).
    means: Vec<f64>,
    /// Column standard deviations of the training data.
    sds: Vec<f64>,
}

/// Jacobi eigenvalue iteration for a symmetric matrix given as rows.
/// Returns (eigenvalues, eigenvectors-as-columns) unsorted.
fn jacobi(mut a: Vec<Vec<f64>>) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = a.len();
    let mut v = vec![vec![0.0; n]; n];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for _sweep in 0..100 {
        // Largest off-diagonal element.
        let mut off = 0.0;
        for (i, row) in a.iter().enumerate() {
            for x in &row[i + 1..] {
                off += x * x;
            }
        }
        if off < 1e-20 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                if a[p][q].abs() < 1e-15 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for row in a.iter_mut() {
                    let akp = row[p];
                    let akq = row[q];
                    row[p] = c * akp - s * akq;
                    row[q] = s * akp + c * akq;
                }
                let (top, bottom) = a.split_at_mut(q);
                for (apk, aqk) in top[p].iter_mut().zip(bottom[0].iter_mut()) {
                    let (x, y) = (*apk, *aqk);
                    *apk = c * x - s * y;
                    *aqk = s * x + c * y;
                }
                for row in v.iter_mut() {
                    let vkp = row[p];
                    let vkq = row[q];
                    row[p] = c * vkp - s * vkq;
                    row[q] = s * vkp + c * vkq;
                }
            }
        }
    }
    let eigenvalues: Vec<f64> = (0..n).map(|i| a[i][i]).collect();
    (eigenvalues, v)
}

impl Pca {
    /// Fit PCA on `ds` (z-scored internally, i.e. PCA on the correlation
    /// matrix, which is what the prior MICA-adjacent work does).
    pub fn fit(ds: &DataSet) -> Self {
        let n = ds.rows() as f64;
        let d = ds.cols();
        let means: Vec<f64> = (0..d).map(|c| ds.column(c).iter().sum::<f64>() / n).collect();
        let sds: Vec<f64> = (0..d)
            .map(|c| {
                let v = ds.column(c).iter().map(|x| (x - means[c]).powi(2)).sum::<f64>() / n;
                v.sqrt()
            })
            .collect();
        let z = zscore_normalize(ds);
        // Covariance of z-scored data = correlation matrix.
        let mut cov = vec![vec![0.0; d]; d];
        for (i, cov_row) in cov.iter_mut().enumerate() {
            for (j, cr) in cov_row.iter_mut().enumerate() {
                let mut s = 0.0;
                for r in 0..z.rows() {
                    s += z.get(r, i) * z.get(r, j);
                }
                *cr = s / n;
            }
        }
        let (eigenvalues, vectors) = jacobi(cov);
        let mut order: Vec<usize> = (0..d).collect();
        order.sort_by(|&a, &b| eigenvalues[b].partial_cmp(&eigenvalues[a]).unwrap());
        let sorted_vals: Vec<f64> = order.iter().map(|&i| eigenvalues[i].max(0.0)).collect();
        let components: Vec<Vec<f64>> =
            order.iter().map(|&i| (0..d).map(|k| vectors[k][i]).collect()).collect();
        Pca { eigenvalues: sorted_vals, components, means, sds }
    }

    /// Eigenvalues, descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// The `i`-th principal component (loadings over original metrics).
    pub fn component(&self, i: usize) -> &[f64] {
        &self.components[i]
    }

    /// Fraction of total variance explained by the first `k` components.
    pub fn explained_variance(&self, k: usize) -> f64 {
        let total: f64 = self.eigenvalues.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.eigenvalues.iter().take(k).sum::<f64>() / total
    }

    /// Number of components needed to explain at least `fraction` of the
    /// variance.
    pub fn components_for_variance(&self, fraction: f64) -> usize {
        let mut k = 0;
        while k < self.eigenvalues.len() && self.explained_variance(k) < fraction {
            k += 1;
        }
        k
    }

    /// Project `ds` onto the first `k` components.
    ///
    /// # Panics
    ///
    /// Panics if `ds` has a different column count than the training data or
    /// `k` exceeds the number of components.
    pub fn transform(&self, ds: &DataSet, k: usize) -> DataSet {
        assert_eq!(ds.cols(), self.means.len(), "column count mismatch");
        assert!(k >= 1 && k <= self.components.len(), "k out of range");
        let mut out = DataSet::zeros(ds.rows(), k);
        for r in 0..ds.rows() {
            for (j, comp) in self.components.iter().take(k).enumerate() {
                let mut s = 0.0;
                for (c, &cw) in comp.iter().enumerate() {
                    let z = if self.sds[c] > 0.0 {
                        (ds.get(r, c) - self.means[c]) / self.sds[c]
                    } else {
                        0.0
                    };
                    s += z * cw;
                }
                out.set(r, j, s);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two informative dimensions embedded in four columns (two are copies).
    fn redundant() -> DataSet {
        let mut rows = Vec::new();
        let mut x = 5u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f64 / 100.0
        };
        for _ in 0..40 {
            let a = rnd();
            let b = rnd();
            rows.push(vec![a, b, a * 3.0, -b]);
        }
        DataSet::from_rows(rows)
    }

    #[test]
    fn two_latent_factors_explain_everything() {
        let pca = Pca::fit(&redundant());
        assert!(pca.explained_variance(2) > 0.999, "{:?}", pca.eigenvalues());
        assert_eq!(pca.components_for_variance(0.99), 2);
    }

    #[test]
    fn eigenvalues_descend_and_sum_to_dimension() {
        let pca = Pca::fit(&redundant());
        let ev = pca.eigenvalues();
        for w in ev.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
        // Correlation-matrix eigenvalues sum to the number of variables.
        let sum: f64 = ev.iter().sum();
        assert!((sum - 4.0).abs() < 1e-6, "sum = {sum}");
    }

    #[test]
    fn components_are_orthonormal() {
        let pca = Pca::fit(&redundant());
        for i in 0..2 {
            for j in 0..2 {
                let dot: f64 =
                    pca.component(i).iter().zip(pca.component(j)).map(|(a, b)| a * b).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-6, "dot({i},{j}) = {dot}");
            }
        }
    }

    #[test]
    fn transform_preserves_pairwise_distances_with_full_rank() {
        use crate::distance::pairwise_distances;
        use crate::pearson;
        let ds = redundant();
        let pca = Pca::fit(&ds);
        let z = zscore_normalize(&ds);
        let full = pairwise_distances(&z);
        let proj = pca.transform(&ds, 4);
        let reduced = pairwise_distances(&proj);
        // Orthogonal transform: distances identical.
        let r = pearson(full.values(), reduced.values());
        assert!(r > 0.9999, "r = {r}");
    }
}
