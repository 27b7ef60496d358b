//! Offline analytics over one run: critical-path decomposition, pool
//! utilization, kernel latency, and allocation attribution.
//!
//! Input is the pair every instrumented binary leaves behind — the
//! `MICA_TRACE` Chrome-trace file ([`Trace`]) and the `run-<bin>.json`
//! summary ([`RunSummary`]) — either of which may be absent; the analysis
//! reports what the available half supports.
//!
//! The critical path is computed over the span tree: start at the `run`
//! span and repeatedly descend into the *longest* child (for a `par_map`
//! pool span the descent crosses threads, into its longest `chunk`). The
//! chain that falls out is the sequence of spans that dominated the run's
//! wall time — the first places to look when the regression gate fires.

use crate::trace::{SpanRec, Trace, TraceCounts};
use mica_experiments::runner::RunSummary;
use std::collections::BTreeMap;

/// One stage of the run, with its share of total wall time.
#[derive(Debug, Clone)]
pub struct StageCost {
    /// Stage name.
    pub name: String,
    /// Stage wall-clock seconds.
    pub wall_s: f64,
    /// Fraction of the run's wall time (0 when the run wall is unknown).
    pub frac: f64,
}

/// One step of the critical path, root first.
#[derive(Debug, Clone)]
pub struct CritStep {
    /// Span category.
    pub cat: String,
    /// Span name.
    pub name: String,
    /// Logical thread the span ran on.
    pub tid: u64,
    /// Span duration, microseconds.
    pub dur_us: u64,
    /// Duration not covered by the next step down, microseconds.
    pub self_us: u64,
}

/// Per-worker share of one pool invocation.
#[derive(Debug, Clone)]
pub struct WorkerShare {
    /// Logical thread id (`1 + worker index`).
    pub tid: u64,
    /// Chunks this worker claimed.
    pub chunks: u64,
    /// Microseconds spent inside chunk spans.
    pub busy_us: u64,
    /// Longest idle gap inside the pool interval, microseconds.
    pub max_idle_us: u64,
}

/// One `par_map` pool invocation.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Pool span start, microseconds since tracing started.
    pub ts_us: u64,
    /// Pool span duration, microseconds.
    pub dur_us: u64,
    /// Worker count (`threads` attribute).
    pub threads: u64,
    /// Items mapped (`items` attribute).
    pub items: u64,
    /// Total chunk spans observed.
    pub chunks: u64,
    /// Σ busy time / (threads × duration); 1.0 = perfectly saturated.
    pub utilization: f64,
    /// Max worker busy time / mean worker busy time; 1.0 = perfectly even.
    pub imbalance: f64,
    /// Per-worker breakdown, by tid.
    pub workers: Vec<WorkerShare>,
}

/// One kernel (per-benchmark `profile` span) cost.
#[derive(Debug, Clone)]
pub struct KernelCost {
    /// Benchmark name (e.g. `MiBench/CRC32/pcm`).
    pub name: String,
    /// Profiling duration, microseconds.
    pub dur_us: u64,
    /// Allocations charged to the span (its `alloc_n` attribute, which
    /// every span of a traced run carries).
    pub alloc_n: Option<u64>,
    /// Bytes charged to the span (its `alloc_b` attribute).
    pub alloc_b: Option<u64>,
}

/// Latency quantiles recomputed from a run summary histogram's raw
/// power-of-two buckets (upper bounds, hence "≤").
#[derive(Debug, Clone)]
pub struct QuantileRow {
    /// Histogram name (e.g. `par.chunk_us`).
    pub name: String,
    /// Recorded values.
    pub count: u64,
    /// Upper bound on the median.
    pub p50: u64,
    /// Upper bound on the 95th percentile.
    pub p95: u64,
    /// Upper bound on the 99th percentile.
    pub p99: u64,
}

/// Everything [`analyze`] derives from one run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Binary name, from the summary or the `run` span.
    pub bin: Option<String>,
    /// Run wall seconds, from the summary or the `run` span.
    pub wall_s: Option<f64>,
    /// Whether the trace is provably incomplete.
    pub truncated: bool,
    /// Trace elements that were neither a span nor an instant.
    pub skipped: usize,
    /// The trace's `otherData` counts, when present.
    pub counts: Option<TraceCounts>,
    /// Stage decomposition, in execution order.
    pub stages: Vec<StageCost>,
    /// Critical path, root first.
    pub critical_path: Vec<CritStep>,
    /// Pool invocations, in start order.
    pub pools: Vec<PoolStats>,
    /// Kernel spans observed.
    pub kernel_count: usize,
    /// Exact kernel-latency quantiles (p50, p95, p99), microseconds.
    pub kernel_quantiles_us: Option<(u64, u64, u64)>,
    /// Most expensive kernels, descending, capped at ten.
    pub kernels_top: Vec<KernelCost>,
    /// Bucket-quantile rows for every summary histogram.
    pub hist_quantiles: Vec<QuantileRow>,
    /// Every summary counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Per-analyzer delivery wall time from the `profile.analyzer.*_us`
    /// counters (present in every run that profiled a kernel), descending.
    pub analyzer_us: Vec<(String, u64)>,
    /// `profile.cache.hit / (hit + miss*)`, when the counters exist.
    pub cache_hit_ratio: Option<f64>,
    /// Σ of `fault.*` injection counters.
    pub fault_injections: u64,
    /// Dropped trace records (`obs.trace.dropped_events`).
    pub dropped_records: u64,
    /// Process-wide allocation totals (`alloc.count`, `alloc.bytes`).
    pub alloc_totals: Option<(u64, u64)>,
}

/// Exact quantile over raw values: the smallest element with at least
/// `ceil(q·n)` values at or below it.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Analyze one run from whichever halves are available.
pub fn analyze(trace: &Trace, summary: Option<&RunSummary>) -> Analysis {
    let mut a = Analysis {
        truncated: trace.truncated(),
        skipped: trace.skipped,
        counts: trace.counts,
        ..Analysis::default()
    };

    if let Some(s) = summary {
        a.bin = Some(s.bin.clone());
        a.wall_s = Some(s.wall_s);
        a.stages = s
            .stages
            .iter()
            .map(|st| StageCost {
                name: st.name.clone(),
                wall_s: st.wall_s,
                frac: if s.wall_s > 0.0 { st.wall_s / s.wall_s } else { 0.0 },
            })
            .collect();
        a.counters = s.counters.iter().map(|c| (c.name.clone(), c.value)).collect();
        a.hist_quantiles = s
            .histograms
            .iter()
            .map(|h| {
                let snap = h.to_snapshot();
                QuantileRow {
                    name: h.name.clone(),
                    count: h.count,
                    p50: snap.quantile_upper_bound(0.50),
                    p95: snap.quantile_upper_bound(0.95),
                    p99: snap.quantile_upper_bound(0.99),
                }
            })
            .collect();
        derive_counter_metrics(&mut a);
    }

    analyze_spans(trace, &mut a);
    a
}

fn derive_counter_metrics(a: &mut Analysis) {
    let get = |name: &str| a.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    let hits = get("profile.cache.hit");
    let misses: u64 = a
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("profile.cache.miss"))
        .map(|&(_, v)| v)
        .sum();
    if let Some(h) = hits {
        let total = h + misses;
        if total > 0 {
            a.cache_hit_ratio = Some(h as f64 / total as f64);
        }
    }
    a.analyzer_us = a
        .counters
        .iter()
        .filter_map(|(n, v)| {
            let name = n.strip_prefix("profile.analyzer.")?.strip_suffix("_us")?;
            Some((name.to_string(), *v))
        })
        .collect();
    a.analyzer_us.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
    a.fault_injections =
        a.counters.iter().filter(|(n, _)| n.starts_with("fault.injected.")).map(|&(_, v)| v).sum();
    a.dropped_records = get("obs.trace.dropped_events").unwrap_or(0);
    if let (Some(n), Some(b)) = (get("alloc.count"), get("alloc.bytes")) {
        if n > 0 {
            a.alloc_totals = Some((n, b));
        }
    }
}

fn is_pool(s: &SpanRec) -> bool {
    s.cat == "par" && s.name == "par_map"
}

fn is_chunk(s: &SpanRec) -> bool {
    s.cat == "par" && s.name == "chunk"
}

fn is_kernel(s: &SpanRec) -> bool {
    s.cat == "profile" && s.name != "profile_all"
}

fn analyze_spans(trace: &Trace, a: &mut Analysis) {
    let spans = trace.spans();
    // Run identity from the trace when no summary was given.
    if a.bin.is_none() {
        if let Some(run) = spans.iter().find(|s| s.cat == "run") {
            a.bin = Some(run.name.clone());
            a.wall_s = Some(run.dur_us as f64 / 1e6);
        }
    }
    if a.stages.is_empty() {
        let wall = a.wall_s.unwrap_or(0.0);
        a.stages = spans
            .iter()
            .filter(|s| s.cat == "stage")
            .map(|s| {
                let wall_s = s.dur_us as f64 / 1e6;
                StageCost {
                    name: s.name.clone(),
                    wall_s,
                    frac: if wall > 0.0 { wall_s / wall } else { 0.0 },
                }
            })
            .collect();
    }

    // Kernel latency and allocation attribution.
    let mut kernels: Vec<KernelCost> = spans
        .iter()
        .filter(|s| is_kernel(s))
        .map(|s| KernelCost {
            name: s.name.clone(),
            dur_us: s.dur_us,
            alloc_n: s.attr_u64("alloc_n"),
            alloc_b: s.attr_u64("alloc_b"),
        })
        .collect();
    a.kernel_count = kernels.len();
    if !kernels.is_empty() {
        let mut durs: Vec<u64> = kernels.iter().map(|k| k.dur_us).collect();
        durs.sort_unstable();
        a.kernel_quantiles_us = Some((
            exact_quantile(&durs, 0.50),
            exact_quantile(&durs, 0.95),
            exact_quantile(&durs, 0.99),
        ));
        kernels.sort_by(|x, y| y.dur_us.cmp(&x.dur_us).then(x.name.cmp(&y.name)));
        kernels.truncate(10);
        a.kernels_top = kernels;
    }

    // Pool utilization.
    let mut pools: Vec<usize> = (0..spans.len()).filter(|&i| is_pool(&spans[i])).collect();
    pools.sort_by_key(|&i| spans[i].ts_us);
    a.pools = pools.into_iter().map(|i| pool_stats(trace, i)).collect();

    a.critical_path = critical_path(trace);
}

/// Utilization of the pool `trace.spans()[pool_idx]`, over the chunks
/// that parent to it.
fn pool_stats(trace: &Trace, pool_idx: usize) -> PoolStats {
    let pool = &trace.spans()[pool_idx];
    let threads = pool.attr_u64("threads").unwrap_or(0);
    let mine: Vec<&SpanRec> = trace
        .children(pool_idx)
        .iter()
        .map(|&c| &trace.spans()[c])
        .filter(|c| is_chunk(c))
        .collect();
    let mut by_tid: BTreeMap<u64, Vec<&SpanRec>> = BTreeMap::new();
    for c in &mine {
        by_tid.entry(c.tid).or_default().push(c);
    }
    let mut workers = Vec::new();
    for (tid, mut spans) in by_tid {
        spans.sort_by_key(|s| s.ts_us);
        let busy_us: u64 = spans.iter().map(|s| s.dur_us).sum();
        let mut max_idle = spans[0].ts_us.saturating_sub(pool.ts_us);
        for pair in spans.windows(2) {
            max_idle = max_idle.max(pair[1].ts_us.saturating_sub(pair[0].end_us()));
        }
        max_idle = max_idle.max(pool.end_us().saturating_sub(spans.last().expect("nonempty").end_us()));
        workers.push(WorkerShare { tid, chunks: spans.len() as u64, busy_us, max_idle_us: max_idle });
    }
    let busy_total: u64 = workers.iter().map(|w| w.busy_us).sum();
    let capacity = threads.saturating_mul(pool.dur_us);
    let utilization = if capacity > 0 { busy_total as f64 / capacity as f64 } else { 0.0 };
    // Mean over the configured thread count: a worker that claimed nothing
    // still dilutes the mean, which is exactly the imbalance story.
    let mean = if threads > 0 { busy_total as f64 / threads as f64 } else { 0.0 };
    let max = workers.iter().map(|w| w.busy_us).max().unwrap_or(0) as f64;
    let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
    PoolStats {
        ts_us: pool.ts_us,
        dur_us: pool.dur_us,
        threads,
        items: pool.attr_u64("items").unwrap_or(0),
        chunks: mine.len() as u64,
        utilization,
        imbalance,
        workers,
    }
}

/// The dominant-cost chain from the `run` span (or else the longest root)
/// down: at every level descend into the longest child (ties to the
/// later-finishing one) — for sequential stages that is the stage that
/// dominated the wall time, and for a fork-join `par_map` the descent
/// crosses threads into the longest `chunk`, which is the lower bound no
/// amount of stealing can beat. A `self` time is what the chosen child
/// does not account for.
fn critical_path(trace: &Trace) -> Vec<CritStep> {
    let spans = trace.spans();
    let root = spans
        .iter()
        .position(|s| s.cat == "run")
        .or_else(|| trace.roots().iter().copied().max_by_key(|&i| spans[i].dur_us));
    let Some(mut current) = root else { return Vec::new() };

    let mut path = Vec::new();
    loop {
        let span = &spans[current];
        let next = trace.children(current).iter().copied().max_by_key(|&i| {
            let c = &spans[i];
            (c.dur_us, c.end_us())
        });
        let child_dur = next.map(|i| spans[i].dur_us).unwrap_or(0);
        path.push(CritStep {
            cat: span.cat.clone(),
            name: span.name.clone(),
            tid: span.tid,
            dur_us: span.dur_us,
            self_us: span.dur_us.saturating_sub(child_dur),
        });
        match next {
            Some(i) if path.len() < 32 => current = i,
            _ => break,
        }
    }
    path
}

/// Render the analysis as the human-readable report `mica-prof analyze`
/// prints.
pub fn render(a: &Analysis) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let bin = a.bin.as_deref().unwrap_or("<unknown>");
    let _ = writeln!(out, "# mica-prof report: {bin}");
    if let Some(w) = a.wall_s {
        let _ = writeln!(out, "wall time: {w:.3}s");
    }
    if a.truncated {
        let _ = writeln!(
            out,
            "WARNING: trace is incomplete ({}; {} other element(s) skipped) — numbers below undercount",
            match a.counts {
                None => "no otherData counts".to_string(),
                Some(c) => format!(
                    "otherData counts {} span(s), {} instant(s), {} dropped",
                    c.spans, c.events, c.dropped_events
                ),
            },
            a.skipped,
        );
    }

    if !a.stages.is_empty() {
        let _ = writeln!(out, "\n## Stage decomposition");
        for st in &a.stages {
            let _ =
                writeln!(out, "  {:24} {:>9.3}s  {:>5.1}%", st.name, st.wall_s, st.frac * 100.0);
        }
    }

    if !a.critical_path.is_empty() {
        let _ = writeln!(out, "\n## Critical path (root first)");
        for (i, step) in a.critical_path.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:indent$}{}/{} on tid {}: {:.3}s ({:.3}s self)",
                "",
                step.cat,
                step.name,
                step.tid,
                step.dur_us as f64 / 1e6,
                step.self_us as f64 / 1e6,
                indent = i * 2,
            );
        }
    }

    for (i, p) in a.pools.iter().enumerate() {
        let _ = writeln!(
            out,
            "\n## Pool #{i}: {} items, {} threads, {} chunks, {:.3}s",
            p.items,
            p.threads,
            p.chunks,
            p.dur_us as f64 / 1e6,
        );
        let _ = writeln!(
            out,
            "  utilization {:.1}%  imbalance {:.2}x",
            p.utilization * 100.0,
            p.imbalance
        );
        for w in &p.workers {
            let _ = writeln!(
                out,
                "  tid {:>3}: {:>4} chunks, busy {:>9.3}s, max idle {:>9.3}s",
                w.tid,
                w.chunks,
                w.busy_us as f64 / 1e6,
                w.max_idle_us as f64 / 1e6,
            );
        }
    }

    if a.kernel_count > 0 {
        let _ = writeln!(out, "\n## Kernels ({} spans)", a.kernel_count);
        if let Some((p50, p95, p99)) = a.kernel_quantiles_us {
            let _ = writeln!(out, "  latency p50 {p50}us  p95 {p95}us  p99 {p99}us");
        }
        for k in &a.kernels_top {
            let alloc = match (k.alloc_n, k.alloc_b) {
                (Some(n), Some(b)) => format!("  {n} allocs / {b} B"),
                _ => String::new(),
            };
            let _ = writeln!(out, "  {:40} {:>9}us{alloc}", k.name, k.dur_us);
        }
    }

    if !a.hist_quantiles.is_empty() {
        let _ = writeln!(out, "\n## Histogram quantiles (bucket upper bounds)");
        for q in &a.hist_quantiles {
            let _ = writeln!(
                out,
                "  {:24} n={:<8} p50≤{:<10} p95≤{:<10} p99≤{}",
                q.name, q.count, q.p50, q.p95, q.p99
            );
        }
    }

    if !a.analyzer_us.is_empty() {
        let total: u64 = a.analyzer_us.iter().map(|&(_, v)| v).sum();
        let _ = writeln!(out, "\n## Profile wall time by analyzer");
        for (name, us) in &a.analyzer_us {
            let frac = if total > 0 { *us as f64 / total as f64 * 100.0 } else { 0.0 };
            let _ = writeln!(out, "  {name:10} {us:>9}us  {frac:>5.1}%");
        }
    }

    if !a.counters.is_empty() {
        let _ = writeln!(out, "\n## Counters");
        if let Some(r) = a.cache_hit_ratio {
            let _ = writeln!(out, "  cache hit ratio: {:.1}%", r * 100.0);
        }
        if let Some((n, b)) = a.alloc_totals {
            let _ = writeln!(out, "  allocations: {n} ({b} bytes)");
        }
        let _ = writeln!(out, "  fault injections: {}", a.fault_injections);
        let _ = writeln!(out, "  dropped records: {}", a.dropped_records);
        for (name, value) in &a.counters {
            let _ = writeln!(out, "  {name:32} {value}");
        }
    }
    out
}

/// Median of the finite `values` (0.0 when there are none); the
/// benchmark harness under `perfbench/` takes its medians from here.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
