//! Collection strategies: `vec` and `btree_set`.

use crate::strategy::{Strategy, TestRng};
use rand::Rng;
use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

/// A collection size specification: an exact size or a range of sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeRange {
    /// Smallest allowed size, inclusive.
    lo: usize,
    /// Largest allowed size, inclusive.
    hi: usize,
}

impl SizeRange {
    fn sample(self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.lo..=self.hi)
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange { lo: r.start, hi: r.end - 1 }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange { lo: *r.start(), hi: *r.end() }
    }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let n = self.size.sample(rng);
        (0..n).map(|_| self.element.sample(rng)).collect()
    }
}

/// A `Vec` whose length is drawn from `size` and whose elements are drawn
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// See [`btree_set`].
#[derive(Debug, Clone)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for BTreeSetStrategy<S>
where
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let target = self.size.sample(rng);
        let mut set = BTreeSet::new();
        // Duplicates shrink the set; retry with a generous attempt budget so
        // small element domains still reach the target size.
        for _ in 0..target.saturating_mul(64).max(256) {
            if set.len() >= target {
                break;
            }
            set.insert(self.element.sample(rng));
        }
        assert!(
            set.len() >= self.size.lo,
            "btree_set strategy could not reach the minimum size {} (element domain too small?)",
            self.size.lo
        );
        set
    }
}

/// A `BTreeSet` whose size is drawn from `size` and whose elements are
/// drawn from `element` (resampling on duplicates).
pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S> {
    BTreeSetStrategy { element, size: size.into() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_for_test;

    #[test]
    fn vec_respects_size_forms() {
        let mut rng = rng_for_test("vec_respects_size_forms");
        for _ in 0..50 {
            assert_eq!(vec(0u8..5, 3).sample(&mut rng).len(), 3);
            let n = vec(0u8..5, 2..7).sample(&mut rng).len();
            assert!((2..7).contains(&n));
            let n = vec(0u8..5, 4..=4).sample(&mut rng).len();
            assert_eq!(n, 4);
        }
    }

    #[test]
    fn btree_set_reaches_requested_size() {
        let mut rng = rng_for_test("btree_set_reaches_requested_size");
        for _ in 0..50 {
            let s = btree_set(0usize..6, 1..6).sample(&mut rng);
            assert!((1..6).contains(&s.len()));
            assert!(s.iter().all(|&x| x < 6));
        }
    }
}
