//! `mica-perfbench`: the repository benchmark.
//!
//! Four workloads, each chosen to stress a different layer of the
//! pipeline (see `METHODOLOGY.md` for the full rationale):
//!
//! | workload | what runs |
//! |---|---|
//! | `profile-paper` | every 8th kernel at the paper's budgets, one at a time through [`profile_benchmark`](mica_experiments::profile::profile_benchmark), MICA + EV56/EV67; traced: [`profile_all`](mica_experiments::profile::profile_all) over all 122 |
//! | `analyze-cached` | the eight commands of the `all` binary, in its order, on a copy of the committed `results/profiles.json` |
//! | `serve-lookup` | in-process `mica-serve`, open loop of seeded `table` lookups, then one client back to back |
//! | `serve-submit` | in-process `mica-serve`, one client's closed loop of seeded `zoo` misses |
//!
//! Every run checks its outputs against the committed `results/` (or an
//! in-process recomputation) and reports failures against attempts. An
//! end-to-end run ([`run_workload`] with `trace = false`) reports the four
//! [`E2E_METRICS`], with every compute-bound time scaled to a reference
//! host speed by calibration samples taken between units of work
//! ([`hostspeed`]); a traced run times each layer from outside, through
//! its public entry points, and reports the per-layer metrics named in
//! `BENCHMARK.json` — no program code is instrumented for it.
//!
//! The process environment is pinned by [`pin_env`] before any workload
//! runs, so every run sees the same `MICA_*` configuration.

pub mod analyze;
pub mod compare;
pub mod hostspeed;
pub mod layers;
pub mod loadgen;
pub mod profile;
pub mod provenance;
pub mod serve;

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = [
    "profile-paper",
    "analyze-cached",
    "serve-lookup",
    "serve-submit",
];

/// End-to-end metric names and units, reported by every workload.
pub const E2E_METRICS: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// Per-layer metric names and units, reported by every traced run. A
/// layer the workload does not run reads 0.
pub const PER_LAYER_METRICS: [(&str, &str); 52] = [
    ("workloads.table_fingerprint_s", "s"),
    ("workloads.build_vm_s", "s"),
    ("tinyisa.vm_ns_per_inst", "ns"),
    ("tinyisa.insts", "count"),
    ("tinyisa.blocks", "count"),
    ("tinyisa.insts_per_block", "count"),
    ("core.mix_ns_per_inst", "ns"),
    ("core.ilp_ns_per_inst", "ns"),
    ("core.regtraffic_ns_per_inst", "ns"),
    ("core.working_set_ns_per_inst", "ns"),
    ("core.strides_ns_per_inst", "ns"),
    ("core.ppm_gag_ns_per_inst", "ns"),
    ("core.ppm_pag_ns_per_inst", "ns"),
    ("core.ppm_gas_ns_per_inst", "ns"),
    ("core.ppm_pas_ns_per_inst", "ns"),
    ("core.ppm_ns_per_branch", "ns"),
    ("core.cond_branches", "count"),
    ("uarch-sim.ev56_ns_per_inst", "ns"),
    ("uarch-sim.ev67_ns_per_inst", "ns"),
    ("experiments.delivery_ns_per_inst", "ns"),
    ("par.busy_frac", "ratio"),
    ("experiments.profile_set_load_s", "s"),
    ("experiments.check_cache_s", "s"),
    ("experiments.profiles_stage_s", "s"),
    ("experiments.runner_unowned_s", "s"),
    ("experiments.query_space_build_s", "s"),
    ("stats.distances_s", "s"),
    ("stats.ga_free_s", "s"),
    ("stats.ga_k8_s", "s"),
    ("stats.corr_elim_s", "s"),
    ("stats.roc_s", "s"),
    ("stats.kmeans_bic_s", "s"),
    ("stats.hier_cluster_s", "s"),
    ("stats.silhouette_s", "s"),
    ("serve.engine_boot_s", "s"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p90_us", "us"),
    ("serve.exec_p50_us", "us"),
    ("serve.exec_p90_us", "us"),
    ("serve.sim_ns_per_inst", "ns"),
    ("serve.execute_table_us", "us"),
    ("serve.knn_us", "us"),
    ("serve.render_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.refused", "count"),
    ("bench.kernel_busy_s", "s"),
    ("bench.accounted_frac", "ratio"),
    ("bench.spans", "count"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Environment every run is pinned to (recorded in each result file).
pub const PINNED_ENV: [(&str, &str); 4] = [
    ("MICA_THREADS", "2"),
    ("MICA_SCALE", "1"),
    ("MICA_BACKEND", "batch"),
    ("MICA_LOG", "warn"),
];

/// Knobs removed from the environment: each would add work (tracing,
/// profiling, fault injection) that the benchmark does not measure.
pub const CLEARED_ENV: [&str; 6] = [
    "MICA_TRACE",
    "MICA_EVENTS",
    "MICA_PMU",
    "MICA_ANALYZER_TIMING",
    "MICA_FAULTS",
    "MICA_ALLOC",
];

/// Pin the process environment and point `MICA_RESULTS_DIR` at
/// `results_dir`. Call before starting any thread that reads `MICA_*`.
pub fn pin_env(results_dir: &Path) {
    for (name, value) in PINNED_ENV {
        std::env::set_var(name, value);
    }
    for name in CLEARED_ENV {
        std::env::remove_var(name);
    }
    std::env::set_var("MICA_RESULTS_DIR", results_dir);
}

/// Inputs and sizes of one run. [`Params::paper`] is the benchmark's
/// configuration; tests shrink the sizes through the same type.
#[derive(Debug, Clone)]
pub struct Params {
    /// Drives arrivals, kernel draws, k/metric choices and zoo data seeds.
    pub seed: u64,
    /// How long one run measures, in seconds.
    pub seconds: f64,
    /// Directory holding the committed outputs (`results/`).
    pub golden: PathBuf,
    /// Scratch directory for this run; created and removed by the run.
    pub work: PathBuf,
    /// Directory holding the `all` binary and its siblings.
    pub bin_dir: PathBuf,
    /// Budget scale for `profile-paper` (the golden must match it).
    pub profile_scale: f64,
    /// Open-loop arrival rate of `serve-lookup`, requests per second.
    pub lookup_rate: f64,
    /// Zoo submissions per `serve-submit` round, spread evenly over the
    /// table (at most the table size).
    pub zoo_kernels: usize,
    /// Budget scale sent with each zoo submission; `None` uses the
    /// server's pinned `MICA_SCALE`.
    pub zoo_scale: Option<f64>,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setups: usize,
}

impl Params {
    /// The benchmark's configuration.
    pub fn paper(
        seed: u64,
        seconds: f64,
        golden: PathBuf,
        work: PathBuf,
        bin_dir: PathBuf,
    ) -> Params {
        Params {
            seed,
            seconds,
            golden,
            work,
            bin_dir,
            profile_scale: 1.0,
            lookup_rate: 400.0,
            zoo_kernels: mica_workloads::NUM_BENCHMARKS / 3,
            // Half the paper budgets: twice the submissions in a run, so
            // that more than ten latencies lie beyond the 90th percentile.
            zoo_scale: Some(0.5),
            setups: 3,
        }
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// The value, unrounded.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// One layer's busy time inside a span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerTime {
    /// Layer name, as in the per-layer metric names.
    pub layer: String,
    /// Nanoseconds spent in the layer.
    pub busy_ns: u64,
    /// Calls into the layer.
    pub calls: u64,
}

/// A span recorded by the harness around its calls into the program: one
/// per kernel or request, with one child per layer. Kept in memory and
/// written as `trace-<workload>.json` when the run ends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// What the span covers (kernel or request name).
    pub name: String,
    /// Trace track of the thread that ran it (`mica_obs::current_tid`).
    pub thread: u64,
    /// Start, microseconds since the traced phase began.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Busy time per layer.
    pub layers: Vec<LayerTime>,
}

/// What one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong output.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: BTreeMap<String, Metric>,
    /// Further numbers printed for people, not compared across runs.
    pub notes: BTreeMap<String, Metric>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Record a reported metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }

    /// Record a note.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }

    /// Time `f` as one call into `layer`: record the metric `<layer>_s`
    /// and a span starting `epoch`-relative.
    pub fn layer<R>(&mut self, epoch: Instant, layer: &str, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        let busy = started.elapsed();
        self.metric(&format!("{layer}_s"), busy.as_secs_f64(), "s");
        self.spans.push(Span {
            name: layer.to_string(),
            thread: mica_obs::current_tid(),
            start_us: started.duration_since(epoch).as_micros() as u64,
            dur_us: busy.as_micros() as u64,
            layers: vec![LayerTime {
                layer: layer.to_string(),
                busy_ns: busy.as_nanos() as u64,
                calls: 1,
            }],
        });
        out
    }

    /// Note the run's median host-speed sample, the base of its scaled
    /// times.
    pub fn host_speed(&mut self, speed: &hostspeed::HostSpeed) {
        self.note("calibration_ms", speed.median_s() * 1e3, "ms");
    }

    /// Count `n` checked operations, `bad` of which failed.
    pub fn check(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Record the end-to-end metrics. Peak memory is a note, not a
    /// compared metric: it moved by up to 23% across seeds, more than any
    /// bound it could be held to.
    pub fn e2e(&mut self, setups: &[f64], throughput: f64, latencies_ms: &mut [f64]) {
        self.metric("setup_s", median(setups), "s");
        self.metric("throughput_per_s", throughput, "1/s");
        latencies_ms.sort_by(f64::total_cmp);
        self.metric("latency_p50_ms", percentile(latencies_ms, 0.5), "ms");
        self.metric("latency_p90_ms", percentile(latencies_ms, 0.9), "ms");
        if let Some(mb) = peak_rss_mb() {
            self.note("peak_rss_mb", mb, "MB");
        }
    }
}

/// The last line a run prints: its result object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Whether every checked output was right.
    pub correct: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Reported metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

impl Report {
    /// The report of `outcome`. A run that checked nothing is not correct.
    pub fn of(outcome: &Outcome) -> Report {
        Report {
            correct: outcome.failed == 0 && outcome.attempted > 0,
            attempted: outcome.attempted.max(1),
            failed: outcome.failed,
            metrics: outcome.metrics.clone(),
        }
    }
}

/// Run one workload.
///
/// # Errors
///
/// Set-up failures that leave nothing to measure: a missing golden file,
/// an unwritable work directory, a server that does not boot.
pub fn run_workload(name: &str, p: &Params, trace: bool) -> Result<Outcome, String> {
    std::fs::create_dir_all(&p.work).map_err(|e| format!("create {}: {e}", p.work.display()))?;
    let outcome = match name {
        "profile-paper" => profile::run(p, trace),
        "analyze-cached" => analyze::run(p, trace),
        "serve-lookup" => serve::lookup(p, trace),
        "serve-submit" => serve::submit(p, trace),
        other => Err(format!(
            "unknown workload `{other}` (want one of {WORKLOADS:?})"
        )),
    };
    std::fs::remove_dir_all(&p.work).ok();
    let mut outcome = outcome?;
    if trace {
        outcome.metric("bench.spans", outcome.spans.len() as f64, "count");
        for (name, unit) in PER_LAYER_METRICS {
            outcome
                .metrics
                .entry(name.to_string())
                .or_insert_with(|| Metric {
                    value: 0.0,
                    unit: unit.to_string(),
                });
        }
    }
    Ok(outcome)
}

/// Seconds `f` takes, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// How many fixed-size passes fill `seconds`, given the first took
/// `first_s`: the nearest whole number, at least one.
pub fn pass_count(seconds: f64, first_s: f64) -> usize {
    ((seconds / first_s.max(1e-9)).round() as usize).max(1)
}

pub use mica_prof::analysis::median;

/// Linear-interpolation percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Quartiles of `v` as Python's `statistics.quantiles(v, n=4)` computes
/// them (the default "exclusive" method); a single value is its own
/// quartiles.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len();
    if m < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MiB; `None` where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Copy `results/profiles.json` from `golden` into a fresh directory
/// `dir`, the cache every consumer of the profile set reads.
///
/// # Errors
///
/// The golden copy is missing or the directory cannot be written.
pub fn seed_results_dir(golden: &Path, dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let from = golden.join("profiles.json");
    std::fs::copy(&from, dir.join("profiles.json"))
        .map(|_| ())
        .map_err(|e| format!("copy {}: {e}", from.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
    }

    #[test]
    fn pass_count_rounds_and_floors_at_one() {
        assert_eq!(pass_count(20.0, 14.0), 1);
        assert_eq!(pass_count(20.0, 7.5), 3);
        assert_eq!(pass_count(1.0, 30.0), 1);
    }
}
