//! Profiling: run benchmarks through both characterizations.
//!
//! The parallel entry points run with **panic isolation and quarantine**:
//! a benchmark whose kernel panics (or returns a [`ProfileError`]) is
//! recorded in [`ProfileOutcome::quarantined`] while the remaining 121
//! benchmarks complete, so one bad kernel degrades a run instead of
//! killing it. [`profile_all_serial`] keeps the old abort-on-first-error
//! semantics as the reference implementation.
//!
//! The VM delivers retired instructions to the analyzers a block at a
//! time (`retire_block`); `mica-core`'s differential tests prove that
//! bit-identical to per-instruction delivery. Every profiled kernel adds
//! each analyzer's share of delivery time to the `profile.analyzer.*_us`
//! counters that `mica-prof analyze` renders.

use crate::results::{BenchRecord, ProfileSet};
use mica_core::{CharacterizationSuite, MicaVector, NUM_METRICS};
use mica_obs as obs;
use mica_workloads::{benchmark_table, table_fingerprint, BenchmarkSpec};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;
use std::time::Instant;
use tinyisa::{AsmError, DynInst, TraceSink, VmError};
use uarch_sim::{HpcProfile, HpcSimulator};

/// Benchmarks profiled (each tandem run counts once).
static KERNELS: obs::Counter = obs::Counter::new("profile.kernels");
/// Dynamic instructions simulated across all profiled benchmarks.
static INSTS: obs::Counter = obs::Counter::new("profile.insts");
/// Cache reuses in [`load_or_profile_all`].
static CACHE_HIT: obs::Counter = obs::Counter::new("profile.cache.hit");
/// Cache misses, one counter per [`CacheMiss::reason`].
static CACHE_MISS_ABSENT: obs::Counter = obs::Counter::new("profile.cache.miss.absent");
static CACHE_MISS_IO: obs::Counter = obs::Counter::new("profile.cache.miss.io");
static CACHE_MISS_PARSE: obs::Counter = obs::Counter::new("profile.cache.miss.parse");
static CACHE_MISS_SCALE: obs::Counter = obs::Counter::new("profile.cache.miss.scale");
static CACHE_MISS_FINGERPRINT: obs::Counter = obs::Counter::new("profile.cache.miss.fingerprint");
static CACHE_MISS_SIZE: obs::Counter = obs::Counter::new("profile.cache.miss.size");
/// Benchmarks quarantined (panicked or errored) instead of profiled.
static QUARANTINED: obs::Counter = obs::Counter::new("profile.quarantined");
/// Wall time per profiled kernel, microseconds — run summaries carry the
/// buckets, so `mica-prof` reports per-kernel p50/p95/p99 offline.
static KERNEL_US: obs::Histogram = obs::Histogram::new("profile.kernel_us");
/// Delivery wall time per analyzer, microseconds, added once per profiled
/// kernel by [`charge_analyzers`]. Not in [`register_counters`]: they
/// self-register on the first kernel, so runs that profile nothing (cache
/// hits) don't list seven zero counters.
static ANALYZER_MIX_US: obs::Counter = obs::Counter::new("profile.analyzer.mix_us");
static ANALYZER_ILP_US: obs::Counter = obs::Counter::new("profile.analyzer.ilp_us");
static ANALYZER_REG_US: obs::Counter = obs::Counter::new("profile.analyzer.reg_us");
static ANALYZER_WSS_US: obs::Counter = obs::Counter::new("profile.analyzer.wss_us");
static ANALYZER_STRIDES_US: obs::Counter = obs::Counter::new("profile.analyzer.strides_us");
static ANALYZER_PPM_US: obs::Counter = obs::Counter::new("profile.analyzer.ppm_us");
static ANALYZER_HPC_US: obs::Counter = obs::Counter::new("profile.analyzer.hpc_us");
/// The MICA counters in [`CharacterizationSuite::analyzer_ns`] order, then
/// the HPC simulator's.
static ANALYZER_US: [&obs::Counter; 7] = [
    &ANALYZER_MIX_US,
    &ANALYZER_ILP_US,
    &ANALYZER_REG_US,
    &ANALYZER_WSS_US,
    &ANALYZER_STRIDES_US,
    &ANALYZER_PPM_US,
    &ANALYZER_HPC_US,
];

/// Register every profiling counter so run summaries list them (at zero)
/// even on paths that never touch the cache or the profiler.
pub fn register_counters() {
    for c in [
        &KERNELS,
        &INSTS,
        &CACHE_HIT,
        &CACHE_MISS_ABSENT,
        &CACHE_MISS_IO,
        &CACHE_MISS_PARSE,
        &CACHE_MISS_SCALE,
        &CACHE_MISS_FINGERPRINT,
        &CACHE_MISS_SIZE,
        &QUARANTINED,
    ] {
        c.register();
    }
}

/// Errors while profiling a benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// The kernel failed to assemble (a bug in the kernel builder).
    Assemble(AsmError),
    /// The kernel faulted at runtime (a bug in the kernel code).
    Runtime(VmError),
    /// The requested budget scale is not a finite positive number. Stores
    /// the offending value's IEEE-754 bits (so the variant stays `Eq`);
    /// recover it with [`f64::from_bits`].
    InvalidScale(u64),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Assemble(e) => write!(f, "kernel failed to assemble: {e}"),
            ProfileError::Runtime(e) => write!(f, "kernel faulted: {e}"),
            ProfileError::InvalidScale(bits) => {
                write!(f, "budget scale must be finite and positive, got {}", f64::from_bits(*bits))
            }
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<AsmError> for ProfileError {
    fn from(e: AsmError) -> Self {
        ProfileError::Assemble(e)
    }
}

impl From<VmError> for ProfileError {
    fn from(e: VmError) -> Self {
        ProfileError::Runtime(e)
    }
}

/// Fan one trace out to both the MICA suite and the HPC simulator, so one
/// VM run produces both characterizations of identical dynamic behavior.
/// The suite times its own analyzers; the HPC leg is timed here.
struct Tandem {
    mica: CharacterizationSuite,
    hpc: HpcSimulator,
    hpc_ns: u64,
}

impl TraceSink for Tandem {
    fn retire(&mut self, inst: &DynInst) {
        self.mica.retire(inst);
        self.hpc.retire(inst);
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        self.mica.retire_block(block);
        let started = Instant::now();
        self.hpc.retire_block(block);
        self.hpc_ns += started.elapsed().as_nanos() as u64;
    }
}

/// Add one kernel's per-analyzer delivery time to the
/// `profile.analyzer.*_us` counters. Blocks take well under a microsecond
/// per analyzer, so time is summed in nanoseconds per kernel and rounded
/// to microseconds once.
fn charge_analyzers(mica: &CharacterizationSuite, hpc_ns: u64) {
    let ns = mica.analyzer_ns().into_iter().chain([hpc_ns]);
    for (counter, ns) in ANALYZER_US.iter().zip(ns) {
        counter.add((ns + 500) / 1_000);
    }
}

/// Run one benchmark for `budget` instructions and return only its
/// microarchitecture-independent characterization.
///
/// # Errors
///
/// See [`ProfileError`].
pub fn characterize(spec: &BenchmarkSpec, budget: u64) -> Result<MicaVector, ProfileError> {
    let mut vm = spec.build_vm()?;
    let mut suite = CharacterizationSuite::new();
    vm.run(&mut suite, budget)?;
    Ok(suite.finish())
}

/// Run one benchmark for `budget` instructions and return only its
/// simulated hardware-counter profile.
///
/// # Errors
///
/// See [`ProfileError`].
pub fn profile_hpc(spec: &BenchmarkSpec, budget: u64) -> Result<HpcProfile, ProfileError> {
    let mut vm = spec.build_vm()?;
    let mut sim = HpcSimulator::new();
    vm.run(&mut sim, budget)?;
    Ok(sim.finish())
}

/// Run one benchmark once, producing both characterizations from the same
/// dynamic instruction stream, and add each analyzer's delivery time to
/// the `profile.analyzer.*_us` counters.
///
/// # Errors
///
/// See [`ProfileError`].
pub fn profile_benchmark(spec: &BenchmarkSpec, budget: u64) -> Result<BenchRecord, ProfileError> {
    let mut vm = spec.build_vm()?;
    let mut tandem =
        Tandem { mica: CharacterizationSuite::new(), hpc: HpcSimulator::new(), hpc_ns: 0 };
    vm.run(&mut tandem, budget)?;
    charge_analyzers(&tandem.mica, tandem.hpc_ns);
    Ok(BenchRecord {
        name: spec.name(),
        suite: spec.suite.to_string(),
        program: spec.program.to_string(),
        input: spec.input.to_string(),
        paper_icount_millions: spec.paper_icount_millions,
        executed_instructions: tandem.mica.total_instructions(),
        mica: tandem.mica.finish(),
        hpc: tandem.hpc.finish(),
    })
}

/// Reject scales that would produce meaningless budgets. NaN, infinities,
/// zero, and negatives all previously slipped through the `as u64` cast
/// (NaN casts to 0, infinity saturates) and silently profiled garbage.
pub fn validate_scale(scale: f64) -> Result<(), ProfileError> {
    if scale.is_finite() && scale > 0.0 {
        Ok(())
    } else {
        Err(ProfileError::InvalidScale(scale.to_bits()))
    }
}

/// Scaled per-benchmark budget, floored at 10 000 instructions so tiny
/// scales still exercise every kernel, with an explicit saturation at
/// `u64::MAX` instead of relying on the cast's silent clamping. `scale`
/// must already be validated. Public so the characterization server
/// budgets submissions exactly like the batch pipeline does.
pub fn scaled_budget(spec: &BenchmarkSpec, scale: f64) -> u64 {
    let budget = (spec.instruction_budget() as f64 * scale).max(10_000.0);
    if budget >= u64::MAX as f64 {
        u64::MAX
    } else {
        budget as u64
    }
}

/// Outcome of a deadline-sliced characterization run
/// ([`characterize_vm_sliced`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SlicedRun {
    /// The run completed its budget (or halted) and produced a vector.
    Done {
        /// The 47-metric characterization.
        mica: MicaVector,
        /// Dynamic instructions actually executed.
        executed: u64,
    },
    /// The cancel predicate fired between slices; the partial state was
    /// discarded (a truncated characterization is not comparable to the
    /// batch pipeline's).
    Cancelled {
        /// Dynamic instructions executed before cancellation.
        executed: u64,
    },
}

/// Characterize an already-built VM in fuel slices of `slice`
/// instructions, polling `should_cancel` between slices.
///
/// This is the server's deadline path: the VM is resumable across `run`
/// calls and flushes its delivery batch at every fuel exhaustion, so each
/// retired instruction reaches the analyzers exactly once and — because
/// the analyzers are partition-independent (differentially tested) — the
/// finished vector is bit-identical to a single uninterrupted
/// [`characterize`] run at the same budget. Cancellation is
/// cooperative with slice granularity: a hung submission is cut off at
/// most `slice` instructions past the deadline.
///
/// # Errors
///
/// See [`ProfileError`].
pub fn characterize_vm_sliced<F: FnMut() -> bool>(
    vm: &mut tinyisa::Vm,
    budget: u64,
    slice: u64,
    mut should_cancel: F,
) -> Result<SlicedRun, ProfileError> {
    let slice = slice.max(1);
    let mut suite = CharacterizationSuite::new();
    let mut remaining = budget;
    while remaining > 0 {
        if should_cancel() {
            return Ok(SlicedRun::Cancelled { executed: suite.total_instructions() });
        }
        let fuel = slice.min(remaining);
        if matches!(vm.run(&mut suite, fuel)?, tinyisa::RunExit::Halted) {
            break;
        }
        remaining -= fuel;
    }
    Ok(SlicedRun::Done { executed: suite.total_instructions(), mica: suite.finish() })
}

/// Fingerprint identifying what a [`ProfileSet`] was collected from: the
/// workload-table fingerprint mixed with the metric count. A cache whose
/// fingerprint differs was produced by a different benchmark table or a
/// different characterization layout and must not be reused.
pub fn profile_fingerprint() -> u64 {
    profile_fingerprint_of(table_fingerprint())
}

/// [`profile_fingerprint`] of a table whose [`table_fingerprint`] is
/// `table`.
fn profile_fingerprint_of(table: u64) -> u64 {
    table ^ (NUM_METRICS as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn finish_set(
    scale: f64,
    results: Vec<Result<BenchRecord, ProfileError>>,
) -> Result<ProfileSet, ProfileError> {
    let mut records = Vec::with_capacity(results.len());
    for r in results {
        // Errors surface in table order, so the reported failure is the
        // same benchmark regardless of parallel scheduling.
        records.push(r?);
    }
    Ok(ProfileSet { scale, fingerprint: profile_fingerprint(), records })
}

/// One benchmark removed from a run: it panicked or returned a
/// [`ProfileError`], and the pipeline continued on the survivors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quarantine {
    /// Full `suite/program/input` name of the benchmark.
    pub name: String,
    /// What happened, rendered as text.
    pub reason: String,
}

/// What [`profile_all`] produced: the surviving records plus the
/// quarantine list. Downstream stages run on [`set`](Self::set); every
/// table and figure annotates its output with the quarantine via
/// [`announce`](Self::announce), and the run summary records the list.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOutcome {
    /// Profiles of the benchmarks that completed, in Table I order.
    pub set: ProfileSet,
    /// Benchmarks removed from the run, in Table I order.
    pub quarantined: Vec<Quarantine>,
    /// The [`table_fingerprint`] the cache was checked, or the table
    /// profiled, against: computed once, for the run summary to reuse.
    pub table_fingerprint: u64,
}

impl ProfileOutcome {
    /// Print the `QUARANTINED (n=..)` annotation on stdout (and a warn
    /// event per entry). Prints nothing when the run was clean, so
    /// fault-free output is unchanged.
    pub fn announce(&self) {
        if self.quarantined.is_empty() {
            return;
        }
        println!(
            "QUARANTINED (n={}): continuing on {} of {} benchmarks",
            self.quarantined.len(),
            self.set.records.len(),
            self.set.records.len() + self.quarantined.len()
        );
        for q in &self.quarantined {
            println!("  {}: {}", q.name, q.reason);
            obs::warn!("quarantined {}: {}", q.name, q.reason);
        }
    }
}

/// Consult the fault plan for this benchmark; matches both the bare
/// program name and the full `suite/program/input` name (short-circuited,
/// so one match is counted once).
fn inject_kernel_panic(spec: &BenchmarkSpec) {
    if mica_fault::plan::should_panic_kernel(spec.program)
        || mica_fault::plan::should_panic_kernel(&spec.name())
    {
        panic!("injected fault: kernel {} (MICA_FAULTS)", spec.name());
    }
}

/// What one benchmark's isolated worker hands back: the record, a
/// profiling error, or a caught panic.
type ItemOutcome = Result<Result<BenchRecord, ProfileError>, mica_par::ItemPanic>;

/// Fold per-item results into surviving records plus the quarantine list,
/// both in Table I order (so the report is scheduling-independent).
fn finish_outcome(
    scale: f64,
    table: &[BenchmarkSpec],
    results: Vec<ItemOutcome>,
    table_fingerprint: u64,
) -> ProfileOutcome {
    let mut records = Vec::with_capacity(results.len());
    let mut quarantined = Vec::new();
    for (spec, result) in table.iter().zip(results) {
        match result {
            Ok(Ok(rec)) => records.push(rec),
            Ok(Err(e)) => {
                quarantined.push(Quarantine { name: spec.name(), reason: e.to_string() });
            }
            Err(p) => {
                quarantined
                    .push(Quarantine { name: spec.name(), reason: format!("panic: {}", p.payload) });
            }
        }
    }
    QUARANTINED.add(quarantined.len() as u64);
    ProfileOutcome {
        set: ProfileSet { scale, fingerprint: profile_fingerprint_of(table_fingerprint), records },
        quarantined,
        table_fingerprint,
    }
}

/// Profile all 122 benchmarks at budget multiplier `scale` on the
/// [`mica_par`] worker pool, logging progress to stderr.
///
/// Results are merged in Table I order and each benchmark's simulation is
/// self-contained (seeded VM, no shared state), so on a clean run the
/// returned [`ProfileOutcome::set`] is bit-identical to
/// [`profile_all_serial`] for any thread count.
///
/// Each benchmark runs under panic isolation
/// ([`mica_par::par_map_isolated`]): a kernel that panics or returns a
/// [`ProfileError`] is quarantined and the rest of the table completes.
///
/// # Errors
///
/// [`ProfileError::InvalidScale`] for a non-finite or non-positive scale —
/// the only error that aborts the run; per-benchmark failures quarantine.
pub fn profile_all(scale: f64) -> Result<ProfileOutcome, ProfileError> {
    validate_scale(scale)?;
    Ok(profile_table(scale, table_fingerprint()))
}

/// [`profile_all`] at a validated `scale`, for a table whose
/// [`table_fingerprint`] the caller has computed.
fn profile_table(scale: f64, table_fingerprint: u64) -> ProfileOutcome {
    let table = benchmark_table();
    let total = table.len();
    let mut all_span = obs::span("profile", "profile_all");
    all_span.attr("benchmarks", total as u64);
    all_span.attr("scale", scale);
    let progress = mica_par::Progress::new();
    let results = mica_par::par_map_isolated(&table, |spec| {
        inject_kernel_panic(spec);
        let budget = scaled_budget(spec, scale);
        let rec = run_one(spec, budget);
        let done = progress.tick();
        obs::info!("[{done:3}/{total}] {} ({budget} insts)", spec.name());
        rec
    });
    finish_outcome(scale, &table, results, table_fingerprint)
}

/// Profile one benchmark under a per-kernel span (the span lands on the
/// worker thread that ran it, so Chrome traces show the kernel on its
/// pool lane) and feed the `profile.*` counters.
fn run_one(spec: &BenchmarkSpec, budget: u64) -> Result<BenchRecord, ProfileError> {
    let started = std::time::Instant::now();
    let mut span = obs::span("profile", spec.name());
    span.attr("budget", budget);
    let rec = profile_benchmark(spec, budget);
    KERNELS.incr();
    KERNEL_US.record(started.elapsed().as_micros() as u64);
    if let Ok(r) = &rec {
        INSTS.add(r.executed_instructions);
        span.attr("insts", r.executed_instructions);
    }
    rec
}

/// Single-threaded reference implementation of [`profile_all`].
///
/// # Errors
///
/// See [`profile_all`].
pub fn profile_all_serial(scale: f64) -> Result<ProfileSet, ProfileError> {
    validate_scale(scale)?;
    let table = benchmark_table();
    let results = table
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let budget = scaled_budget(spec, scale);
            obs::info!("[{:3}/{}] {} ({budget} insts)", i + 1, table.len(), spec.name());
            run_one(spec, budget)
        })
        .collect();
    finish_set(scale, results)
}

/// Why a cached [`ProfileSet`] could not be reused. Every rejection is
/// reported as a structured warn event with the [`reason`](Self::reason)
/// attached, and bumps the matching `profile.cache.miss.*` counter — a
/// re-profile is minutes of work at full scale and used to happen silently.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheMiss {
    /// No cache file exists at the path (normal on a first run).
    Absent,
    /// The file exists but could not be read.
    Unreadable(String),
    /// The file is not a valid serialized `ProfileSet`.
    Parse(String),
    /// The cache was collected at a different budget scale.
    Scale {
        /// Scale stored in the cache.
        cached: f64,
        /// Scale this run asked for.
        requested: f64,
    },
    /// The cache was produced by a different benchmark table or metric
    /// layout (see [`profile_fingerprint`]).
    Fingerprint {
        /// Fingerprint stored in the cache.
        cached: u64,
        /// Fingerprint of the current build.
        current: u64,
    },
    /// The record count does not match the benchmark table.
    Size {
        /// Records in the cache.
        cached: usize,
        /// Benchmarks in the table.
        expected: usize,
    },
}

impl CacheMiss {
    /// Stable identifier for counters and structured events.
    pub fn reason(&self) -> &'static str {
        match self {
            CacheMiss::Absent => "absent",
            CacheMiss::Unreadable(_) => "io",
            CacheMiss::Parse(_) => "parse",
            CacheMiss::Scale { .. } => "scale",
            CacheMiss::Fingerprint { .. } => "fingerprint",
            CacheMiss::Size { .. } => "size",
        }
    }

    fn counter(&self) -> &'static obs::Counter {
        match self {
            CacheMiss::Absent => &CACHE_MISS_ABSENT,
            CacheMiss::Unreadable(_) => &CACHE_MISS_IO,
            CacheMiss::Parse(_) => &CACHE_MISS_PARSE,
            CacheMiss::Scale { .. } => &CACHE_MISS_SCALE,
            CacheMiss::Fingerprint { .. } => &CACHE_MISS_FINGERPRINT,
            CacheMiss::Size { .. } => &CACHE_MISS_SIZE,
        }
    }
}

impl fmt::Display for CacheMiss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheMiss::Absent => write!(f, "no cache file"),
            CacheMiss::Unreadable(e) => write!(f, "cache unreadable: {e}"),
            CacheMiss::Parse(e) => write!(f, "cache does not parse: {e}"),
            CacheMiss::Scale { cached, requested } => {
                write!(f, "cached at scale {cached}, run wants {requested}")
            }
            CacheMiss::Fingerprint { cached, current } => write!(
                f,
                "cache fingerprint {cached:#018x} != current {current:#018x} \
                 (different benchmark table or metric layout)"
            ),
            CacheMiss::Size { cached, expected } => {
                write!(f, "cache holds {cached} records, table has {expected}")
            }
        }
    }
}

/// Inspect the cache at `path` and return it only if it is reusable for a
/// run at `scale`: readable, well-formed, same scale, current
/// [`profile_fingerprint`], and one record per table entry.
///
/// # Errors
///
/// The precise [`CacheMiss`] explaining why the cache cannot be used.
pub fn check_cache(path: &Path, scale: f64) -> Result<ProfileSet, CacheMiss> {
    check_cache_against(path, scale, table_fingerprint())
}

/// [`check_cache`] for a table whose [`table_fingerprint`] is `table`.
fn check_cache_against(path: &Path, scale: f64, table: u64) -> Result<ProfileSet, CacheMiss> {
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(CacheMiss::Absent),
        Err(e) => return Err(CacheMiss::Unreadable(e.to_string())),
    };
    let set: ProfileSet =
        serde_json::from_str(&json).map_err(|e| CacheMiss::Parse(e.to_string()))?;
    if (set.scale - scale).abs() >= 1e-12 {
        return Err(CacheMiss::Scale { cached: set.scale, requested: scale });
    }
    let current = profile_fingerprint_of(table);
    if set.fingerprint != current {
        return Err(CacheMiss::Fingerprint { cached: set.fingerprint, current });
    }
    let expected = benchmark_table().len();
    if set.records.len() != expected {
        return Err(CacheMiss::Size { cached: set.records.len(), expected });
    }
    Ok(set)
}

/// Load cached profiles from `path` if they exist at the requested scale
/// and carry the current [`profile_fingerprint`]; otherwise profile
/// everything and cache the result. Either way the table fingerprint is
/// computed once and handed on in [`ProfileOutcome::table_fingerprint`].
///
/// A cache hit is by construction complete, so its outcome has an empty
/// quarantine. A re-profile with quarantined benchmarks still writes its
/// (partial) cache — [`check_cache`] rejects it on the next run via
/// [`CacheMiss::Size`], so a later fault-free run re-profiles everything.
///
/// # Errors
///
/// Propagates profiling errors; any cache problem (see [`CacheMiss`]) is
/// reported as a structured warn event and falls back to re-profiling,
/// and a failure to *write* the cache is warned about but does not fail
/// the run.
pub fn load_or_profile_all(path: &Path, scale: f64) -> Result<ProfileOutcome, ProfileError> {
    validate_scale(scale)?;
    let table = table_fingerprint();
    match check_cache_against(path, scale, table) {
        Ok(set) => {
            CACHE_HIT.incr();
            obs::info!("loaded {} cached profiles from {}", set.records.len(), path.display());
            return Ok(ProfileOutcome { set, quarantined: Vec::new(), table_fingerprint: table });
        }
        Err(miss) => {
            miss.counter().incr();
            obs::emit_with(
                obs::Level::Warn,
                module_path!(),
                format!("re-profiling: cache {} unusable: {miss}", path.display()),
                vec![("reason", obs::Attr::from(miss.reason()))],
            );
        }
    }
    let outcome = profile_table(scale, table);
    if let Err(e) = outcome.set.save(path) {
        obs::warn!("could not write profile cache {}: {e}", path.display());
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mica_core::NUM_METRICS;

    fn spec(program: &str) -> BenchmarkSpec {
        benchmark_table().into_iter().find(|b| b.program == program).expect("benchmark exists")
    }

    #[test]
    fn characterize_produces_full_vector() {
        let v = characterize(&spec("CRC32"), 30_000).unwrap();
        assert_eq!(v.values().len(), NUM_METRICS);
        assert!(v.values().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn hpc_profile_is_sane() {
        let p = profile_hpc(&spec("sha"), 30_000).unwrap();
        assert!(p.ipc_ev56 > 0.0 && p.ipc_ev56 <= 2.0);
        assert!(p.ipc_ev67 > 0.0 && p.ipc_ev67 <= 4.0);
        assert_eq!(p.instructions, 30_000);
    }

    #[test]
    fn tandem_matches_individual_runs() {
        let s = spec("bitcount");
        let rec = profile_benchmark(&s, 20_000).unwrap();
        let mica = characterize(&s, 20_000).unwrap();
        let hpc = profile_hpc(&s, 20_000).unwrap();
        assert_eq!(rec.mica, mica, "same trace, same characterization");
        assert_eq!(rec.hpc, hpc);
        assert_eq!(rec.executed_instructions, 20_000);
    }

    #[test]
    fn non_finite_or_non_positive_scales_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1.0] {
            let err = profile_all(bad).unwrap_err();
            assert_eq!(err, ProfileError::InvalidScale(bad.to_bits()), "scale {bad}");
            assert_eq!(load_or_profile_all(Path::new("/nonexistent"), bad).unwrap_err(), err);
        }
    }

    #[test]
    fn budget_floors_at_10k_and_saturates() {
        let s = spec("sha");
        assert_eq!(scaled_budget(&s, 1e-15), 10_000);
        assert_eq!(scaled_budget(&s, f64::MAX), u64::MAX);
        let expected = (s.instruction_budget() as f64 * 2.0) as u64;
        assert_eq!(scaled_budget(&s, 2.0), expected);
    }

    #[test]
    fn cache_with_current_fingerprint_is_reused() {
        let dir = std::env::temp_dir().join("mica_cache_fingerprint_test");
        let path = dir.join("profiles.json");
        // A fake-but-well-formed cache with the current fingerprint: 122
        // copies of one real record. load_or_profile_all must accept it
        // verbatim instead of re-profiling.
        let rec = profile_benchmark(&spec("CRC32"), 10_000).unwrap();
        let fake = crate::results::ProfileSet {
            scale: 0.25,
            fingerprint: profile_fingerprint(),
            records: vec![rec; benchmark_table().len()],
        };
        fake.save(&path).unwrap();
        let loaded = load_or_profile_all(&path, 0.25).unwrap();
        assert_eq!(loaded.set, fake);
        assert!(loaded.quarantined.is_empty(), "cache hits quarantine nothing");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sliced_characterization_matches_uninterrupted_run() {
        let s = spec("dijkstra");
        let whole = characterize(&s, 30_000).unwrap();
        for slice in [1_000u64, 7_919, 30_000, 100_000] {
            let mut vm = s.build_vm().unwrap();
            let got = characterize_vm_sliced(&mut vm, 30_000, slice, || false).unwrap();
            match got {
                SlicedRun::Done { mica, executed } => {
                    assert_eq!(mica, whole, "slice {slice}");
                    assert_eq!(executed, 30_000);
                }
                SlicedRun::Cancelled { .. } => panic!("not cancelled"),
            }
        }
    }

    #[test]
    fn sliced_characterization_cancels_between_slices() {
        let s = spec("dijkstra");
        let mut vm = s.build_vm().unwrap();
        let mut polls = 0u32;
        let got = characterize_vm_sliced(&mut vm, 50_000, 5_000, || {
            polls += 1;
            polls > 2
        })
        .unwrap();
        match got {
            SlicedRun::Cancelled { executed } => assert_eq!(executed, 10_000),
            SlicedRun::Done { .. } => panic!("should have been cancelled"),
        }
    }

    #[test]
    fn distinct_benchmarks_have_distinct_signatures() {
        let a = characterize(&spec("sha"), 30_000).unwrap();
        let b = characterize(&spec("mcf"), 30_000).unwrap();
        let diff: f64 =
            a.values().iter().zip(b.values()).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1.0, "sha and mcf must not look alike (diff {diff})");
    }
}
