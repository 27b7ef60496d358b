//! `mica-serve`: characterization-as-a-service.
//!
//! The paper's core question — *is this new kernel redundant with the
//! existing suite?* — is naturally an online query. This crate turns the
//! batch pipeline into a long-running daemon: clients submit a tinyisa
//! assembly kernel or a parameterized zoo instance over TCP (one JSON
//! object per line, see [`protocol`]) and receive its 47-metric MICA
//! vector, its projection into the 8-dimensional GA space, and its k
//! nearest neighbors among the 122 reference benchmarks.
//!
//! The hard part is not the query — it is staying up. The server wraps
//! every submission in a robustness envelope:
//!
//! - **Admission control + backpressure** ([`server`]): a bounded request
//!   queue (`MICA_SERVE_QUEUE`) with explicit `overloaded` rejections
//!   carrying a `retry_after_ms` hint, plus a load-shedding watermark
//!   (`MICA_SERVE_WATERMARK`) above which expensive submissions are shed
//!   while cheap cache-served lookups still pass. Memory use is bounded by
//!   construction.
//! - **Per-request deadlines** ([`engine`]): each request's VM fuel budget
//!   is capped by what its deadline can justify
//!   (`MICA_SERVE_FUEL_PER_MS`) and clamped to [`MAX_DEADLINE_MS`],
//!   execution is sliced every [`SLICE`] instructions
//!   ([`mica_experiments::profile::characterize_vm_sliced`]) and a
//!   wall-clock watchdog cancels work past its deadline — timed-out work
//!   is reported with a structured `deadline` status, never leaked.
//! - **Per-request quarantine**: submissions run under
//!   [`mica_par::par_map_isolated`], so a panicking kernel (including one
//!   injected via `MICA_FAULTS=panic:request=N`) returns a structured
//!   `panic` response while the pool and the server keep serving.
//! - **Graceful drain**: SIGTERM / ctrl-c stops admission (`draining`
//!   rejections), finishes in-flight work, flushes the observability
//!   sinks, the sharded submission index, and a schema-stable drain
//!   summary via [`mica_fault::atomic_write_retry`], then exits 0.
//! - **A live ops plane + SLO tracking** ([`server`]): `ops` requests
//!   (`health`/`ready`/`metrics`/`stats`) bypass the queue and keep
//!   answering during a drain; every response echoes a `trace` id tying
//!   it to its span tree in the `MICA_TRACE` file; every
//!   served request lands in a JSONL access log
//!   (`<results>/serve-access.jsonl`); and a `MICA_SERVE_SLO_MS` /
//!   `MICA_SERVE_SLO_TARGET` latency objective is tracked both over the
//!   rolling last-minute window (`stats`, `metrics`) and for the whole
//!   run ([`server::DrainSummary`], audited offline by `mica-prof slo`).
//! - **A retrying client** ([`client`], `mica-serve-client`): capped
//!   exponential backoff with deterministic site-seeded jitter
//!   ([`mica_fault::io::backoff_ms`]), honoring `retry_after_ms` hints.
//!
//! Every answer carries a sprout-style [`protocol::Provenance`] block —
//! table fingerprint, profile fingerprint, budget scale, thread count, GA
//! selection, and the `MICA_*` environment — so two answers taken months
//! apart compare honestly or visibly don't.
//!
//! Environment knobs (all optional):
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `MICA_SERVE_ADDR` | `127.0.0.1:7033` | listen address |
//! | `MICA_SERVE_QUEUE` | 32 | admission queue capacity |
//! | `MICA_SERVE_WATERMARK` | 3/4 of queue | shed expensive work above this depth |
//! | `MICA_SERVE_DEADLINE_MS` | 2000 | default per-request deadline |
//! | `MICA_SERVE_FUEL_PER_MS` | 20000 | VM instructions a deadline millisecond buys |
//! | `MICA_SERVE_RETRY_MS` | 25 | base `retry_after_ms` backpressure hint |
//! | `MICA_SERVE_SLO_MS` | 1000 | latency objective: an answered request is SLO-good iff `ok` within this |
//! | `MICA_SERVE_SLO_TARGET` | 0.99 | attainment objective in `[0, 1)`; burn rate is measured against it |
//!
//! The profile cache, budget scale, and thread pool are shared with the
//! batch pipeline (`MICA_RESULTS_DIR`, `MICA_SCALE`, `MICA_THREADS`), so a
//! `table` query answers with the byte-identical vector the batch run
//! wrote to `profiles.json`.

pub mod asmtext;
pub mod client;
pub mod engine;
pub mod protocol;
pub mod server;

/// Ceiling a request's deadline is clamped to, in milliseconds.
pub const MAX_DEADLINE_MS: u64 = 30_000;

/// Fuel slice between cancellation checks: the sliced VM loop reads the
/// watchdog's flag every this many instructions.
pub const SLICE: u64 = 50_000;

/// Read a `u64` environment knob, warning on (and ignoring) garbage.
fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("warning: ignoring invalid {name}={v:?}");
                default
            }
        },
        Err(_) => default,
    }
}

/// Server tunables, resolved once at startup. `from_env` reads the
/// `MICA_SERVE_*` variables; tests construct the struct directly.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`MICA_SERVE_ADDR`), e.g. `127.0.0.1:7033`. Port 0
    /// binds an ephemeral port (tests).
    pub addr: String,
    /// Admission queue capacity (`MICA_SERVE_QUEUE`).
    pub queue_cap: usize,
    /// Queue depth at which expensive submissions are shed
    /// (`MICA_SERVE_WATERMARK`).
    pub watermark: usize,
    /// Default deadline for requests that don't set one
    /// (`MICA_SERVE_DEADLINE_MS`).
    pub default_deadline_ms: u64,
    /// VM instructions one deadline millisecond buys
    /// (`MICA_SERVE_FUEL_PER_MS`) — the deadline-derived fuel budget.
    pub fuel_per_ms: u64,
    /// Base backpressure hint in `retry_after_ms` (`MICA_SERVE_RETRY_MS`).
    pub retry_ms: u64,
    /// Latency objective (`MICA_SERVE_SLO_MS`): an answered request is
    /// SLO-good iff it is `ok` and its admission-to-response latency is at
    /// most this many milliseconds.
    pub slo_ms: u64,
    /// Attainment objective (`MICA_SERVE_SLO_TARGET`), a fraction in
    /// `[0, 1)`. Burn rate = (1 − attainment) / (1 − target): 1.0 means
    /// the error budget is being spent exactly at the sustainable rate.
    pub slo_target: f64,
}

impl ServeConfig {
    /// Resolve every knob from the environment.
    pub fn from_env() -> ServeConfig {
        let queue_cap = env_u64("MICA_SERVE_QUEUE", 32) as usize;
        let watermark = match std::env::var("MICA_SERVE_WATERMARK") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!("warning: ignoring invalid MICA_SERVE_WATERMARK={v:?}");
                    queue_cap * 3 / 4
                }
            },
            Err(_) => queue_cap * 3 / 4,
        };
        let slo_target = match std::env::var("MICA_SERVE_SLO_TARGET") {
            Ok(v) => match v.trim().parse::<f64>() {
                Ok(t) if (0.0..1.0).contains(&t) => t,
                _ => {
                    eprintln!("warning: ignoring invalid MICA_SERVE_SLO_TARGET={v:?} (want [0, 1))");
                    0.99
                }
            },
            Err(_) => 0.99,
        };
        ServeConfig {
            addr: std::env::var("MICA_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7033".into()),
            queue_cap,
            watermark: watermark.clamp(1, queue_cap),
            default_deadline_ms: env_u64("MICA_SERVE_DEADLINE_MS", 2_000),
            fuel_per_ms: env_u64("MICA_SERVE_FUEL_PER_MS", 20_000),
            retry_ms: env_u64("MICA_SERVE_RETRY_MS", 25),
            slo_ms: env_u64("MICA_SERVE_SLO_MS", 1_000),
            slo_target,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7033".into(),
            queue_cap: 32,
            watermark: 24,
            default_deadline_ms: 2_000,
            fuel_per_ms: 20_000,
            retry_ms: 25,
            slo_ms: 1_000,
            slo_target: 0.99,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert!(c.watermark <= c.queue_cap);
        assert!(c.default_deadline_ms <= MAX_DEADLINE_MS);
        assert!(c.fuel_per_ms >= 1);
        assert!(c.slo_ms >= 1 && (0.0..1.0).contains(&c.slo_target));
    }

    #[test]
    fn from_env_falls_back_on_defaults() {
        // Only defaulted paths are exercised here: env-mutating coverage
        // lives in the e2e test, which owns the process environment.
        let c = ServeConfig::from_env();
        assert!(c.queue_cap >= 1);
        assert!(c.watermark >= 1 && c.watermark <= c.queue_cap);
    }
}
