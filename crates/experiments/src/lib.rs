//! Regeneration pipelines for every table and figure of the paper.
//!
//! The expensive step — running all 122 benchmarks through both the
//! microarchitecture-independent characterization and the simulated
//! hardware-performance-counter profiling — is done once by
//! [`profile::load_or_profile_all`] and cached as JSON. Each table and
//! figure is then a function of [`commands`] over the loaded profiles,
//! and its binary (`table1`, `fig1`, `table3`, `fig2_fig3`, `fig4`,
//! `fig5`, `table4`, `fig6`, `report`) runs it on the cache. `all` runs
//! the eight table and figure commands in one process: it loads the cache
//! once and runs the GA they share once.
//!
//! Environment knobs:
//!
//! - `MICA_SCALE` — float multiplier on every benchmark's instruction
//!   budget (default 1.0);
//! - `MICA_RESULTS_DIR` — output directory (default `results`);
//! - `MICA_FAULTS` — deterministic fault injection (see [`mica_fault`]):
//!   `panic:kernel=NAME` panics that kernel's profiling run (it is
//!   quarantined and the other 121 benchmarks complete),
//!   `io:SITE[@N]`/`torn:SITE[@N]` fail or tear the first N artifact
//!   writes at a named site.
//!
//! All artifacts (profile cache, CSVs, SVGs, run summaries) are written
//! atomically — temp file then rename — so a crash mid-write never leaves
//! a torn file. A failed write gets three more attempts, on an exponential
//! backoff with site-seeded jitter capped at 32 ms.
//!
//! Observability (`MICA_LOG`, `MICA_TRACE`) is provided by [`mica_obs`];
//! every binary drives a [`runner::Runner`] that times its stages and
//! writes a machine-readable `run-<bin>.json` report next to its outputs
//! (override with `--report PATH`). A traced run also counts allocations
//! and bytes per span, for `mica-prof`, via the process-wide tracking
//! allocator installed below.

pub mod analysis;
pub mod commands;
pub mod lint;
pub mod profile;
pub mod query;
pub mod results;
pub mod runner;

use std::path::PathBuf;

/// Allocation profiling needs the tracking allocator installed for the
/// whole process; every experiment binary and test links this crate, so
/// installing it here covers them all. In an untraced process it costs
/// one relaxed atomic load per allocation.
#[global_allocator]
static ALLOC: mica_obs::alloc::TrackingAllocator = mica_obs::alloc::TrackingAllocator;

/// The results directory (`MICA_RESULTS_DIR`, default `results`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("MICA_RESULTS_DIR").map(PathBuf::from).unwrap_or_else(|| "results".into())
}

/// The instruction-budget multiplier (`MICA_SCALE`, default 1.0). Text
/// that does not parse as a number is warned about and read as NaN, which
/// [`profile::validate_scale`] rejects.
pub fn scale() -> f64 {
    match std::env::var("MICA_SCALE") {
        Ok(raw) => raw.parse().unwrap_or_else(|_| {
            mica_obs::warn!("MICA_SCALE={raw:?} is not a number");
            f64::NAN
        }),
        Err(_) => 1.0,
    }
}
