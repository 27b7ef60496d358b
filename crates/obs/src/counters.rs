//! Process-wide atomic counters and power-of-two histograms, each one
//! set of lifetime cells.
//!
//! Both are registered by name in a global table on first use, so a
//! `static COUNTER: Counter = Counter::new("profile.cache.hit")` anywhere
//! in the workspace and a `counters()` snapshot in the run-summary writer
//! agree on one cell. Bumping is a single relaxed `fetch_add` with no
//! clock read — safe in the `par_map` hot path — and, like all of
//! `mica-obs`, has no effect on computed results. A consumer that wants a
//! recent rate takes two snapshots of the lifetime totals and divides
//! their difference by the time between them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static COUNTERS: OnceLock<Mutex<BTreeMap<&'static str, &'static AtomicU64>>> = OnceLock::new();
static HISTOGRAMS: OnceLock<Mutex<BTreeMap<&'static str, &'static HistCells>>> = OnceLock::new();

fn counter_table() -> &'static Mutex<BTreeMap<&'static str, &'static AtomicU64>> {
    COUNTERS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn histogram_table() -> &'static Mutex<BTreeMap<&'static str, &'static HistCells>> {
    HISTOGRAMS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// A named monotonic counter. Declare as a `static` near its bump sites;
/// the first touch registers the cell (one mutex hit), every later bump is
/// lock-free.
pub struct Counter {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Counter {
    /// A handle for the counter named `name`. Handles with the same name
    /// share one cell.
    pub const fn new(name: &'static str) -> Counter {
        Counter { name, cell: OnceLock::new() }
    }

    fn cell(&self) -> &'static AtomicU64 {
        self.cell.get_or_init(|| {
            let mut table = counter_table().lock().expect("counter table poisoned");
            table.entry(self.name).or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))))
        })
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cell().fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current lifetime value.
    pub fn get(&self) -> u64 {
        self.cell().load(Ordering::Relaxed)
    }

    /// Register the counter (at zero) without bumping it, so it appears in
    /// [`counters`] snapshots — run summaries list known-but-unused
    /// counters explicitly instead of omitting them.
    pub fn register(&self) {
        let _ = self.cell();
    }

    /// The counter's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Snapshot of every registered counter, ascending by name.
///
/// The `fault.*` counters live in `mica-fault` (which sits *below* this
/// crate and cannot register here) and the `alloc.*` totals live in plain
/// atomics (a [`Counter`]'s first touch allocates, which would recurse
/// into the tracking allocator); both snapshots are merged in so run
/// summaries see one flat namespace.
pub fn counters() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = counter_table()
        .lock()
        .expect("counter table poisoned")
        .iter()
        .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
        .collect();
    out.extend(mica_fault::metrics::snapshot().into_iter().map(|(n, v)| (n.to_string(), v)));
    let (alloc_n, alloc_b) = crate::alloc::totals();
    out.push(("alloc.count".to_string(), alloc_n));
    out.push(("alloc.bytes".to_string(), alloc_b));
    out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    out
}

const BUCKETS: usize = 64;

struct HistCells {
    /// `buckets[b]` counts values whose bit length is `b` (0 counts only
    /// the value 0), i.e. bucket upper bounds 0, 1, 3, 7, ..., 2^63-1.
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A named histogram over `u64` values with power-of-two buckets — cheap
/// enough for per-chunk durations, coarse enough to never matter.
pub struct Histogram {
    name: &'static str,
    cell: OnceLock<&'static HistCells>,
}

impl Histogram {
    /// A handle for the histogram named `name`. Handles with the same
    /// name share cells.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram { name, cell: OnceLock::new() }
    }

    fn cells(&self) -> &'static HistCells {
        self.cell.get_or_init(|| {
            let mut table = histogram_table().lock().expect("histogram table poisoned");
            table.entry(self.name).or_insert_with(|| {
                Box::leak(Box::new(HistCells {
                    buckets: [const { AtomicU64::new(0) }; BUCKETS],
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                }))
            })
        })
    }

    /// Record one value.
    pub fn record(&self, value: u64) {
        let cells = self.cells();
        let bucket = ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1);
        cells.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// The histogram's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Current lifetime snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        snapshot_cells(self.name, self.cells())
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket counts; bucket `b` holds values of bit length `b`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile. Bucketed,
    /// so an *upper bound*, not an exact order statistic.
    ///
    /// Edge cases are pinned down (they used to be whatever float
    /// arithmetic happened to produce): an empty snapshot and a NaN `q`
    /// both return 0; `q` outside 0..=1 clamps, so `q = 0.0` is the
    /// smallest non-empty bucket's bound and `q = 1.0` the largest. A
    /// snapshot whose buckets under-count `count` (a torn concurrent
    /// snapshot, or a truncated deserialized one) saturates to
    /// `u64::MAX` rather than inventing a bound.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 || q.is_nan() {
            return 0;
        }
        let rank = (((q.clamp(0.0, 1.0) * self.count as f64).ceil()) as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if n > 0 && seen >= rank {
                return if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
            }
        }
        u64::MAX
    }
}

fn snapshot_cells(name: &str, cells: &HistCells) -> HistogramSnapshot {
    HistogramSnapshot {
        name: name.to_string(),
        count: cells.count.load(Ordering::Relaxed),
        sum: cells.sum.load(Ordering::Relaxed),
        buckets: cells.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
    }
}

/// Snapshot of every registered histogram, ascending by name.
pub fn histograms() -> Vec<HistogramSnapshot> {
    histogram_table()
        .lock()
        .expect("histogram table poisoned")
        .iter()
        .map(|(name, cells)| snapshot_cells(name, cells))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_a_cell() {
        static A: Counter = Counter::new("obs.test.shared");
        static B: Counter = Counter::new("obs.test.shared");
        let before = A.get();
        B.add(3);
        A.incr();
        assert_eq!(A.get(), before + 4);
        assert_eq!(B.get(), A.get());
        assert!(counters().iter().any(|(n, _)| n == "obs.test.shared"));
    }

    #[test]
    fn register_without_bumping_appears_at_zero_or_more() {
        static C: Counter = Counter::new("obs.test.registered");
        C.register();
        let snap = counters();
        assert!(snap.iter().any(|(n, _)| n == "obs.test.registered"));
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        static H: Histogram = Histogram::new("obs.test.hist");
        for v in [0u64, 1, 2, 3, 1000] {
            H.record(v);
        }
        let snap = H.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1006);
        assert_eq!(snap.buckets[0], 1, "value 0");
        assert_eq!(snap.buckets[1], 1, "value 1");
        assert_eq!(snap.buckets[2], 2, "values 2 and 3");
        assert_eq!(snap.buckets[10], 1, "value 1000 has bit length 10");
        assert!((snap.mean() - 201.2).abs() < 1e-9);
        assert_eq!(snap.quantile_upper_bound(0.5), 3);
        assert_eq!(snap.quantile_upper_bound(1.0), 1023);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        static H: Histogram = Histogram::new("obs.test.hist.empty");
        let snap = H.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.quantile_upper_bound(0.9), 0);
        assert_eq!(snap.quantile_upper_bound(0.0), 0);
        assert_eq!(snap.quantile_upper_bound(1.0), 0);
        assert_eq!(snap.quantile_upper_bound(f64::NAN), 0);
    }

    #[test]
    fn quantile_edge_cases_are_pinned() {
        static H: Histogram = Histogram::new("obs.test.hist.quantile");
        for v in [1u64, 2, 3, 1000] {
            H.record(v);
        }
        let snap = H.snapshot();
        // q=0 names the smallest non-empty bucket, q=1 the largest.
        assert_eq!(snap.quantile_upper_bound(0.0), 1);
        assert_eq!(snap.quantile_upper_bound(1.0), 1023);
        // Out-of-range q clamps instead of under/overflowing the rank.
        assert_eq!(snap.quantile_upper_bound(-3.5), 1);
        assert_eq!(snap.quantile_upper_bound(7.0), 1023);
        // NaN is an explicit "no answer", not an accidental q=0.
        assert_eq!(snap.quantile_upper_bound(f64::NAN), 0);
        // Infinities clamp like any other out-of-range q.
        assert_eq!(snap.quantile_upper_bound(f64::INFINITY), 1023);
        assert_eq!(snap.quantile_upper_bound(f64::NEG_INFINITY), 1);
    }

    #[test]
    fn quantile_saturates_on_undercounting_buckets() {
        // A snapshot whose count exceeds its bucket total (torn snapshot
        // or truncated deserialization) must saturate, not panic or lie.
        let snap = HistogramSnapshot {
            name: "torn".to_string(),
            count: 10,
            sum: 100,
            buckets: vec![0, 2],
        };
        assert_eq!(snap.quantile_upper_bound(0.1), 1, "rank 1 still lands in bucket 1");
        assert_eq!(snap.quantile_upper_bound(1.0), u64::MAX, "rank 10 is past every bucket");
    }

    #[test]
    fn lifetime_cells_stay_exact_under_concurrent_writers() {
        static C: Counter = Counter::new("obs.test.concurrent");
        static H: Histogram = Histogram::new("obs.test.concurrent_h");
        let threads = 8;
        let per_thread = 1000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for i in 0..per_thread {
                        C.incr();
                        H.record(i % 7);
                    }
                });
            }
        });
        let total = threads * per_thread;
        assert_eq!(C.get(), total);
        let snap = H.snapshot();
        assert_eq!(snap.count, total);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count, "buckets drifted from count");
    }

    #[test]
    fn counters_snapshot_merges_alloc_totals() {
        let names: Vec<String> = counters().into_iter().map(|(n, _)| n).collect();
        assert!(names.contains(&"alloc.count".to_string()));
        assert!(names.contains(&"alloc.bytes".to_string()));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "merged snapshot stays sorted");
    }
}
