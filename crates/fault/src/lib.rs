//! `mica-fault`: deterministic fault injection and resilient artifact I/O.
//!
//! The paper's methodology only works when all 122 benchmarks yield a
//! complete characterization, yet a pipeline that *aborts* on the first
//! panicking kernel or torn cache file turns one transient fault into a
//! lost run. This crate is the resilience substrate the rest of the
//! workspace builds on:
//!
//! - [`io`] — write-to-temp-then-rename **atomic writes** plus bounded
//!   **deterministic retry**: three extra attempts on an exponential
//!   backoff with site-seeded jitter, capped at 32 ms. Adopted by the
//!   profile cache, every results artifact, the run summaries and the
//!   observability sinks: an interrupted write leaves either the old file
//!   or the new file on disk, never a partial one.
//! - [`plan`] — an env-driven **fault plan** (`MICA_FAULTS`) describing
//!   faults to inject deterministically: kernel panics, server-request
//!   panics, write errors, torn writes and latency at named sites. CI uses
//!   it to *prove* every degradation path — a run with an injected kernel
//!   panic must still complete on the surviving 121 benchmarks, a run with
//!   an injected cache-write error must survive it through retry, and a
//!   server with an injected request panic must keep serving.
//! - [`metrics`] — process-wide counters of injected and survived faults.
//!   `mica-obs` merges them into its counter snapshot, so run summaries
//!   record exactly which faults fired and which were absorbed.
//!
//! The crate sits at the very bottom of the dependency stack (std only, no
//! deps — `mica-obs` depends on *it*), so injection and atomicity are
//! available everywhere without cycles. Nothing here reads wall-clock
//! randomness: fault plans fire on exact name/occurrence matches and the
//! retry backoff is a pure function of the site name and attempt number,
//! so a faulting run is reproducible bit for bit.
//!
//! # Fault grammar (`MICA_FAULTS`)
//!
//! Comma-separated directives:
//!
//! ```text
//! panic:kernel=NAME      panic while profiling kernel NAME (program name
//!                        such as `adpcm`, or full `suite/program/input`)
//! panic:request=N        panic while serving the N-th submitted request
//!                        (caught by the server's per-request quarantine)
//! io:SITE[@N]            fail the first N write attempts at SITE
//!                        (default N=1)
//! torn:SITE[@N]          simulate a crash mid-write at SITE for the first
//!                        N attempts: a partial temp file is written, an
//!                        error is returned, the destination is untouched
//! slow:SITE[=MS][@N]     delay the first N operations at SITE by MS
//!                        milliseconds (default MS=25, N=1)
//! ```
//!
//! Example: `MICA_FAULTS=panic:kernel=adpcm,io:cache-write@2,torn:results`.
//!
//! Known sites: `cache-write` (the profile cache / `profiles.json`),
//! `results` (CSV/SVG/markdown artifacts), `run-summary`
//! (`run-<bin>.json`), `obs.trace` (`MICA_TRACE`), `lint-json` and
//! `lint-static` (`mica-lint`'s findings and static reports),
//! `serve-index` (the server's submission index, one file),
//! `serve.request` (request execution, `slow:` only) and `respond` (the
//! server's response writes, `io:`/`slow:`).

pub mod io;
pub mod metrics;
pub mod plan;

pub use io::{atomic_write, atomic_write_retry, atomic_write_with_retries, tmp_path};
pub use plan::{FaultPlan, IoFaultKind, PlanParseError};
