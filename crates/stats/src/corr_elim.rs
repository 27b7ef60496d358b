//! Correlation-elimination feature selection (Section V-A of the paper).

use crate::dataset::DataSet;
use crate::distance::pearson;

/// Mean absolute Pearson correlation of column `c` with every other column
/// in `remaining` (excluding itself).
pub fn mean_abs_correlation(ds: &DataSet, c: usize, remaining: &[usize]) -> f64 {
    let col_c = ds.column(c);
    mean_over_others(c, remaining, |o| pearson(&col_c, &ds.column(o)).abs())
}

/// The mean of `abs_corr(o)` over the columns `o` of `remaining` other
/// than `c`, summed in `remaining` order (0.0 when there are none).
fn mean_over_others(c: usize, remaining: &[usize], abs_corr: impl Fn(usize) -> f64) -> f64 {
    let others: Vec<usize> = remaining.iter().copied().filter(|&o| o != c).collect();
    if others.is_empty() {
        return 0.0;
    }
    let sum: f64 = others.iter().map(|&o| abs_corr(o)).sum();
    sum / others.len() as f64
}

/// The order in which correlation elimination removes columns: the first
/// element is the column removed first (the one with the highest average
/// correlation with all others), and so on, down to a single survivor.
///
/// Ties are broken toward the lower column index for determinism. Each
/// column pair's correlation is computed once, so every mean equals
/// [`mean_abs_correlation`]'s bit for bit.
pub fn elimination_order(ds: &DataSet) -> Vec<usize> {
    let cols: Vec<Vec<f64>> = (0..ds.cols()).map(|c| ds.column(c)).collect();
    let abs_corr: Vec<Vec<f64>> =
        cols.iter().map(|a| cols.iter().map(|b| pearson(a, b).abs()).collect()).collect();
    let mut remaining: Vec<usize> = (0..ds.cols()).collect();
    let mut order = Vec::with_capacity(ds.cols().saturating_sub(1));
    while remaining.len() > 1 {
        let victim = remaining
            .iter()
            .copied()
            .map(|c| (c, mean_over_others(c, &remaining, |o| abs_corr[c][o])))
            .max_by(|(ca, sa), (cb, sb)| {
                sa.partial_cmp(sb).unwrap().then(cb.cmp(ca))
            })
            .map(|(c, _)| c)
            .expect("non-empty remaining set");
        remaining.retain(|&c| c != victim);
        order.push(victim);
    }
    order
}

/// Run correlation elimination until `target_count` columns remain; returns
/// the retained column indices in ascending order.
///
/// # Panics
///
/// Panics if `target_count` is zero or exceeds the number of columns.
pub fn correlation_elimination(ds: &DataSet, target_count: usize) -> Vec<usize> {
    assert!(target_count >= 1, "must retain at least one metric");
    assert!(target_count <= ds.cols(), "cannot retain more metrics than exist");
    let order = elimination_order(ds);
    let removed: std::collections::HashSet<usize> =
        order[..ds.cols() - target_count].iter().copied().collect();
    (0..ds.cols()).filter(|c| !removed.contains(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Columns 0 and 1 are perfectly correlated; column 2 is independent.
    fn redundant_set() -> DataSet {
        DataSet::from_rows(vec![
            vec![1.0, 2.0, 5.0],
            vec![2.0, 4.0, -1.0],
            vec![3.0, 6.0, 2.0],
            vec![4.0, 8.0, -7.0],
            vec![5.0, 10.0, 3.0],
        ])
    }

    #[test]
    fn correlated_column_is_removed_first() {
        let order = elimination_order(&redundant_set());
        // One of the two correlated columns (0 or 1) goes first; the
        // independent column 2 must survive longest.
        assert!(order[0] == 0 || order[0] == 1, "{order:?}");
        assert_ne!(order[1], 2, "independent column eliminated too early: {order:?}");
    }

    #[test]
    fn retained_set_has_requested_size_and_keeps_independent_column() {
        let kept = correlation_elimination(&redundant_set(), 2);
        assert_eq!(kept.len(), 2);
        assert!(kept.contains(&2), "{kept:?}");
    }

    #[test]
    fn retaining_all_is_identity() {
        let ds = redundant_set();
        assert_eq!(correlation_elimination(&ds, 3), vec![0, 1, 2]);
    }

    #[test]
    fn order_covers_all_but_one_column() {
        let ds = redundant_set();
        let order = elimination_order(&ds);
        assert_eq!(order.len(), ds.cols() - 1);
        let mut all: Vec<usize> = order.clone();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), order.len(), "no duplicates");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_target_rejected() {
        let _ = correlation_elimination(&redundant_set(), 0);
    }

    /// 122 x 47 seeded uniform values: the shape of the MICA dataset.
    fn random_122x47() -> DataSet {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4d49_4341);
        DataSet::from_rows((0..122).map(|_| (0..47).map(|_| rng.gen()).collect()).collect())
    }

    #[test]
    fn order_matches_one_built_from_mean_abs_correlation() {
        for ds in [redundant_set(), random_122x47()] {
            let mut remaining: Vec<usize> = (0..ds.cols()).collect();
            let mut want = Vec::new();
            while remaining.len() > 1 {
                let means: Vec<(usize, f64)> = remaining
                    .iter()
                    .map(|&c| (c, mean_abs_correlation(&ds, c, &remaining)))
                    .collect();
                let victim = means
                    .iter()
                    .max_by(|(ca, sa), (cb, sb)| sa.partial_cmp(sb).unwrap().then(cb.cmp(ca)))
                    .unwrap()
                    .0;
                remaining.retain(|&c| c != victim);
                want.push(victim);
            }
            assert_eq!(elimination_order(&ds), want);
        }
    }

    #[test]
    fn mean_abs_correlation_of_duplicate_columns_is_one() {
        let ds = DataSet::from_rows(vec![vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let remaining = [0, 1];
        assert!((mean_abs_correlation(&ds, 0, &remaining) - 1.0).abs() < 1e-12);
    }
}
