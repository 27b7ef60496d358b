//! Pair classification (Table III) and ROC analysis (Figure 4).

use serde::{Deserialize, Serialize};

/// Fractions of benchmark tuples in the four categories of Table III.
///
/// Following the paper's definitions: "positive" means a **large** distance
/// (dissimilar benchmarks) in the hardware-performance-counter space; the
/// prediction is the microarchitecture-independent distance.
///
/// - **true positive**: large in both spaces;
/// - **false negative**: large in the HPC space, small in the MICA space;
/// - **false positive**: small in the HPC space, large in the MICA space;
/// - **true negative**: small in both.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairClassification {
    pub true_positive: f64,
    pub true_negative: f64,
    pub false_positive: f64,
    pub false_negative: f64,
}

impl PairClassification {
    /// Sensitivity (true positive rate): fraction of HPC-large tuples that
    /// are also MICA-large.
    pub fn sensitivity(&self) -> f64 {
        let p = self.true_positive + self.false_negative;
        if p <= 0.0 {
            1.0
        } else {
            self.true_positive / p
        }
    }

    /// Specificity: fraction of HPC-small tuples that are also MICA-small.
    pub fn specificity(&self) -> f64 {
        let n = self.true_negative + self.false_positive;
        if n <= 0.0 {
            1.0
        } else {
            self.true_negative / n
        }
    }
}

/// Classify all benchmark tuples. A distance is "large" when it exceeds
/// `frac * max(distances in that space)` — the paper uses 20% (`frac =
/// 0.2`) for both spaces.
///
/// # Panics
///
/// Panics if the two distance sets have different lengths or are empty.
pub fn classify_pairs(
    hpc: &[f64],
    mica: &[f64],
    hpc_frac: f64,
    mica_frac: f64,
) -> PairClassification {
    assert_eq!(hpc.len(), mica.len(), "distance sets must align");
    assert!(!hpc.is_empty(), "need at least one pair");
    let hpc_threshold = hpc_frac * hpc.iter().copied().fold(0.0, f64::max);
    let mica_threshold = mica_frac * mica.iter().copied().fold(0.0, f64::max);
    let mut counts = [0u64; 4]; // tp, tn, fp, fn
    for (&h, &m) in hpc.iter().zip(mica) {
        let hpc_large = h > hpc_threshold;
        let mica_large = m > mica_threshold;
        let idx = match (hpc_large, mica_large) {
            (true, true) => 0,
            (false, false) => 1,
            (false, true) => 2,
            (true, false) => 3,
        };
        counts[idx] += 1;
    }
    let t = hpc.len() as f64;
    PairClassification {
        true_positive: counts[0] as f64 / t,
        true_negative: counts[1] as f64 / t,
        false_positive: counts[2] as f64 / t,
        false_negative: counts[3] as f64 / t,
    }
}

/// One point of a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// `1 - specificity` (x axis).
    pub one_minus_specificity: f64,
    /// Sensitivity (y axis).
    pub sensitivity: f64,
    /// The MICA-space threshold fraction that produced this point.
    pub mica_frac: f64,
}

/// Sweep the MICA-space classification threshold while holding the HPC-space
/// threshold fixed at `hpc_frac` of its maximum distance (the paper fixes
/// 20%), producing the ROC curve of Figure 4.
///
/// `steps` controls the sweep resolution; the end points (thresholds 0%
/// and slightly above 100%) are always included so the curve spans from
/// (1, 1) to (0, 0).
///
/// Each point is the one [`classify_pairs`] gives at its threshold, bit for
/// bit: the MICA distances are split by HPC class and sorted once, and each
/// step counts the large ones of each class by binary search. The MICA
/// distances must not be NaN.
///
/// # Panics
///
/// Panics if the two distance sets have different lengths or are empty.
pub fn roc_curve(hpc: &[f64], mica: &[f64], hpc_frac: f64, steps: usize) -> Vec<RocPoint> {
    assert_eq!(hpc.len(), mica.len(), "distance sets must align");
    assert!(!hpc.is_empty(), "need at least one pair");
    let steps = steps.max(2);
    let hpc_threshold = hpc_frac * hpc.iter().copied().fold(0.0, f64::max);
    let mica_max = mica.iter().copied().fold(0.0, f64::max);
    // The MICA distances of the HPC-large pairs and of the HPC-small ones.
    let (mut large, mut small) = (Vec::new(), Vec::new());
    for (&h, &m) in hpc.iter().zip(mica) {
        if h > hpc_threshold {
            large.push(m);
        } else {
            small.push(m);
        }
    }
    large.sort_unstable_by(f64::total_cmp);
    small.sort_unstable_by(f64::total_cmp);
    let above =
        |sorted: &[f64], threshold: f64| sorted.len() - sorted.partition_point(|&m| m <= threshold);
    let t = hpc.len() as f64;
    (0..=steps)
        .map(|s| {
            // Sweep slightly past 1.0 so the final point classifies every
            // tuple as "small" in the MICA space.
            let frac = 1.02 * s as f64 / steps as f64;
            let mica_threshold = frac * mica_max;
            let tp = above(&large, mica_threshold);
            let fp = above(&small, mica_threshold);
            let c = PairClassification {
                true_positive: tp as f64 / t,
                true_negative: (small.len() - fp) as f64 / t,
                false_positive: fp as f64 / t,
                false_negative: (large.len() - tp) as f64 / t,
            };
            RocPoint {
                one_minus_specificity: 1.0 - c.specificity(),
                sensitivity: c.sensitivity(),
                mica_frac: frac,
            }
        })
        .collect()
}

/// Area under a ROC curve by trapezoidal integration (points are sorted by
/// the x coordinate internally; the (0,0) and (1,1) anchors are added).
pub fn auc(points: &[RocPoint]) -> f64 {
    let mut pts: Vec<(f64, f64)> =
        points.iter().map(|p| (p.one_minus_specificity, p.sensitivity)).collect();
    pts.push((0.0, 0.0));
    pts.push((1.0, 1.0));
    pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut area = 0.0;
    for w in pts.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        area += (x1 - x0) * (y0 + y1) / 2.0;
    }
    area
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let hpc = [1.0, 2.0, 3.0, 10.0];
        let mica = [10.0, 1.0, 9.0, 8.0];
        let c = classify_pairs(&hpc, &mica, 0.2, 0.2);
        let sum = c.true_positive + c.true_negative + c.false_positive + c.false_negative;
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfectly_aligned_spaces_have_no_false_classifications() {
        let d = [1.0, 2.0, 5.0, 9.0, 10.0];
        let c = classify_pairs(&d, &d, 0.2, 0.2);
        assert_eq!(c.false_positive, 0.0);
        assert_eq!(c.false_negative, 0.0);
        assert_eq!(c.sensitivity(), 1.0);
        assert_eq!(c.specificity(), 1.0);
    }

    #[test]
    fn inverted_spaces_are_all_wrong() {
        let hpc = [1.0, 10.0];
        let mica = [10.0, 1.0];
        let c = classify_pairs(&hpc, &mica, 0.5, 0.5);
        assert_eq!(c.true_positive, 0.0);
        assert_eq!(c.true_negative, 0.0);
        assert_eq!(c.false_positive + c.false_negative, 1.0);
    }

    #[test]
    fn roc_curve_spans_corners() {
        let hpc = [1.0, 2.0, 3.0, 10.0, 4.0];
        let mica = [2.0, 1.0, 5.0, 9.0, 4.0];
        let curve = roc_curve(&hpc, &mica, 0.2, 50);
        let first = curve.first().unwrap();
        let last = curve.last().unwrap();
        // Threshold 0: everything is "large" -> sensitivity 1, specificity 0.
        assert_eq!(first.sensitivity, 1.0);
        assert_eq!(first.one_minus_specificity, 1.0);
        // Threshold > max: everything "small" -> sensitivity 0, specificity 1.
        assert_eq!(last.sensitivity, 0.0);
        assert_eq!(last.one_minus_specificity, 0.0);
    }

    /// `roc_curve` as a sweep of `classify_pairs`, one call per step.
    fn roc_by_classify(hpc: &[f64], mica: &[f64], hpc_frac: f64, steps: usize) -> Vec<RocPoint> {
        let steps = steps.max(2);
        (0..=steps)
            .map(|s| {
                let frac = 1.02 * s as f64 / steps as f64;
                let c = classify_pairs(hpc, mica, hpc_frac, frac);
                RocPoint {
                    one_minus_specificity: 1.0 - c.specificity(),
                    sensitivity: c.sensitivity(),
                    mica_frac: frac,
                }
            })
            .collect()
    }

    fn assert_same_curve(hpc: &[f64], mica: &[f64], hpc_frac: f64, steps: usize) {
        let bits = |curve: &[RocPoint]| {
            curve
                .iter()
                .map(|p| [p.one_minus_specificity, p.sensitivity, p.mica_frac].map(f64::to_bits))
                .collect::<Vec<_>>()
        };
        let want = roc_by_classify(hpc, mica, hpc_frac, steps);
        assert_eq!(bits(&roc_curve(hpc, mica, hpc_frac, steps)), bits(&want));
    }

    #[test]
    fn roc_curve_matches_classify_pairs_at_every_step() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // A seeded set the size of the committed data's 122 benchmarks.
        let mut rng = StdRng::seed_from_u64(0x4d49_4341);
        let hpc: Vec<f64> = (0..7381).map(|_| rng.gen::<f64>() * 9.0).collect();
        let mica: Vec<f64> = hpc.iter().map(|h| 0.5 * h + rng.gen::<f64>() * 4.0).collect();
        for steps in [200, 37] {
            assert_same_curve(&hpc, &mica, 0.2, steps);
        }
        // Integer distances, where thresholds land exactly on values in
        // both spaces.
        let hpc: Vec<f64> = (0..400).map(|i| (i * 7 % 11) as f64).collect();
        let mica: Vec<f64> = (0..400).map(|i| (i * 13 % 101) as f64).collect();
        assert!(hpc.contains(&(0.5 * 10.0)), "no HPC value on the HPC threshold");
        let on_value = (0..=102).filter(|&s| mica.contains(&(1.02 * s as f64 / 102.0 * 100.0)));
        assert!(on_value.count() > 10, "too few MICA thresholds on a value");
        assert_same_curve(&hpc, &mica, 0.5, 102);
        // An all-zero MICA space.
        assert_same_curve(&hpc, &[0.0; 400], 0.2, 200);
    }

    #[test]
    fn auc_of_perfect_predictor_is_one() {
        // MICA distances equal HPC distances: thresholds agree, so at every
        // sweep point either both classifications flip together or
        // sensitivity/specificity stay at the corners.
        let d: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let curve = roc_curve(&d, &d, 0.2, 200);
        let a = auc(&curve);
        assert!(a > 0.95, "auc = {a}");
    }

    #[test]
    fn auc_of_random_predictor_is_half() {
        let mut x = 3u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 10_000) as f64 / 10_000.0
        };
        let hpc: Vec<f64> = (0..5000).map(|_| rnd()).collect();
        let mica: Vec<f64> = (0..5000).map(|_| rnd()).collect();
        let a = auc(&roc_curve(&hpc, &mica, 0.2, 100));
        assert!((a - 0.5).abs() < 0.06, "auc = {a}");
    }

    #[test]
    fn degenerate_no_positive_class() {
        // All HPC distances "small" with threshold above everything.
        let c = classify_pairs(&[1.0, 1.0], &[1.0, 2.0], 1.5, 0.2);
        assert_eq!(c.sensitivity(), 1.0, "vacuous sensitivity");
    }
}
