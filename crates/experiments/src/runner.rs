//! Run-level orchestration shared by the experiment binaries.
//!
//! Every `src/bin/*` entry point used to hand-roll its own stage timing and
//! stderr chatter. [`Runner`] replaces that: it opens a run-level span,
//! times each named [`stage`](Runner::stage) under a child span, and on
//! [`finish`](Runner::finish) writes a machine-readable
//! `results/run-<bin>.json` summary — wall time per stage, every registered
//! `mica-obs` counter and histogram (raw buckets, so `mica-prof` can
//! recompute latency quantiles offline), thread count, budget scale, and
//! the workload-table fingerprint — then flushes all sinks so `MICA_TRACE`
//! files are complete even if the binary exits immediately afterwards.
//!
//! The summary path is `--report PATH` (every binary accepts it),
//! defaulting to `results/run-<bin>.json`.

use crate::profile::Quarantine;
use mica_obs as obs;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// Wall time of one named pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    /// Stage name as passed to [`Runner::stage`].
    pub name: String,
    /// Wall-clock seconds the stage took.
    pub wall_s: f64,
}

/// One global counter at the end of the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Counter name (e.g. `profile.cache.hit`).
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// One global histogram at the end of the run — the raw power-of-two
/// buckets, so `mica-prof` can recompute p50/p95/p99 offline via
/// [`mica_obs::HistogramSnapshot::quantile_upper_bound`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Histogram name (e.g. `par.chunk_us`).
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket counts, trailing zero buckets trimmed; bucket `b`
    /// holds values of bit length `b`.
    pub buckets: Vec<u64>,
}

impl HistogramEntry {
    fn from_snapshot(snap: mica_obs::HistogramSnapshot) -> HistogramEntry {
        let mut buckets = snap.buckets;
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramEntry { name: snap.name, count: snap.count, sum: snap.sum, buckets }
    }

    /// Rehydrate the [`mica_obs::HistogramSnapshot`] this entry was
    /// trimmed from, for quantile queries.
    pub fn to_snapshot(&self) -> mica_obs::HistogramSnapshot {
        mica_obs::HistogramSnapshot {
            name: self.name.clone(),
            count: self.count,
            sum: self.sum,
            buckets: self.buckets.clone(),
        }
    }
}

/// The machine-readable run report written as `results/run-<bin>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Binary name the run belongs to.
    pub bin: String,
    /// Budget scale the run used (`MICA_SCALE`).
    pub scale: f64,
    /// Worker-pool width (`MICA_THREADS` or detected parallelism).
    pub threads: u64,
    /// Fingerprint of the benchmark table the binaries were built with.
    pub table_fingerprint: u64,
    /// Total wall-clock seconds from [`Runner::new`] to [`Runner::finish`].
    pub wall_s: f64,
    /// Per-stage wall times, in execution order.
    pub stages: Vec<StageSummary>,
    /// Every registered counter, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// Every registered histogram, sorted by name, buckets included so
    /// offline analysis can recompute latency quantiles.
    pub histograms: Vec<HistogramEntry>,
    /// Benchmarks quarantined during this run (empty on a clean run).
    pub quarantined: Vec<Quarantine>,
}

/// Resolve where the run summary goes: the `--report PATH` (or
/// `--report=PATH`) command-line flag, else `results/run-<bin>.json`.
/// Every experiment binary constructs a [`Runner`], so every binary
/// accepts the flag — CI collects summaries from parallel jobs without
/// fighting over `MICA_RESULTS_DIR`.
fn report_path(bin: &str) -> PathBuf {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--report" {
            if let Some(path) = args.next() {
                return PathBuf::from(path);
            }
            eprintln!("warning: --report needs a path; using the default");
        } else if let Some(path) = arg.strip_prefix("--report=") {
            return PathBuf::from(path);
        }
    }
    crate::results_dir().join(format!("run-{bin}.json"))
}

/// Stage-timing and run-report helper; one per binary invocation.
pub struct Runner {
    bin: &'static str,
    started: Instant,
    run_span: obs::Span,
    /// Keeps the run's [`obs::TraceContext`] installed for the run's
    /// lifetime, so every stage and pool span shares one trace id.
    /// Dropped after `run_span` (LIFO), in [`finish`](Runner::finish) or,
    /// for a runner never finished, by field order.
    ctx_guard: obs::ContextGuard,
    stages: Vec<StageSummary>,
    quarantined: Vec<Quarantine>,
    table_fingerprint: Option<u64>,
}

impl Runner {
    /// Start a run for binary `bin`: registers the profiling counters (so
    /// they appear at zero in the summary even on cache-free paths), mints
    /// the run's trace context (every span of the run shares its trace
    /// id), opens the run-level span, and announces the run configuration
    /// at info.
    pub fn new(bin: &'static str) -> Runner {
        crate::profile::register_counters();
        let threads = mica_par::num_threads();
        let scale = crate::scale();
        let ctx = obs::TraceContext::fresh();
        let ctx_guard = obs::install_context(Some(ctx));
        let mut run_span = obs::span("run", bin);
        run_span.attr("threads", threads as u64);
        run_span.attr("scale", scale);
        run_span.attr("trace", ctx.trace_hex());
        obs::info!("{bin}: starting ({threads} threads, scale {scale})");
        Runner {
            bin,
            started: Instant::now(),
            ctx_guard,
            run_span,
            stages: Vec::new(),
            quarantined: Vec::new(),
            table_fingerprint: None,
        }
    }

    /// Record benchmarks quarantined during this run, so the run summary
    /// carries the list alongside the counters.
    pub fn quarantine(&mut self, quarantined: &[Quarantine]) {
        self.quarantined.extend_from_slice(quarantined);
    }

    /// Record the table fingerprint this run's profiles were checked or
    /// profiled against ([`ProfileOutcome::table_fingerprint`]), so that
    /// [`finish`](Runner::finish) does not compute it a second time.
    ///
    /// [`ProfileOutcome::table_fingerprint`]: crate::profile::ProfileOutcome::table_fingerprint
    pub fn set_table_fingerprint(&mut self, fingerprint: u64) {
        self.table_fingerprint = Some(fingerprint);
    }

    /// Run `f` as the named stage: timed, wrapped in a `stage` span, and
    /// recorded for the run summary.
    pub fn stage<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let _span = obs::span("stage", name.to_string());
        let out = f();
        let wall_s = started.elapsed().as_secs_f64();
        obs::debug!("{}: stage {name} took {wall_s:.3}s", self.bin);
        self.stages.push(StageSummary { name: name.to_string(), wall_s });
        out
    }

    /// Close the run: write `run-<bin>.json` under the results directory,
    /// flush every sink, and return the summary. A summary that cannot be
    /// written is warned about, never fatal — the run's real outputs are
    /// the tables and figures. A run that recorded no table fingerprint
    /// computes it here.
    pub fn finish(self) -> RunSummary {
        let table_fingerprint =
            self.table_fingerprint.unwrap_or_else(mica_workloads::table_fingerprint);
        let Runner { bin, started, ctx_guard, mut run_span, stages, quarantined, .. } = self;
        let summary = RunSummary {
            bin: bin.to_string(),
            scale: crate::scale(),
            threads: mica_par::num_threads() as u64,
            table_fingerprint,
            wall_s: started.elapsed().as_secs_f64(),
            stages,
            counters: obs::counters()
                .into_iter()
                .map(|(name, value)| CounterEntry { name, value })
                .collect(),
            histograms: obs::histograms()
                .into_iter()
                .map(HistogramEntry::from_snapshot)
                .collect(),
            quarantined,
        };
        let path = report_path(bin);
        let json = serde_json::to_string_pretty(&summary).expect("RunSummary serializes");
        let written =
            mica_fault::io::atomic_write_retry("run-summary", &path, json.as_bytes());
        match written {
            Ok(()) => obs::info!(
                "{bin}: done in {:.3}s; run summary at {}",
                summary.wall_s,
                path.display()
            ),
            Err(e) => obs::warn!("{bin}: cannot write run summary {}: {e}", path.display()),
        }
        run_span.attr("wall_s", summary.wall_s);
        // The span must close inside its context (LIFO with the guard).
        drop(run_span);
        drop(ctx_guard);
        obs::flush();
        summary
    }
}
