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
//!   carrying a `retry_after_ms` hint, plus a load-shedding watermark at
//!   3/4 of the queue above which expensive submissions are shed while
//!   cheap cache-served lookups still pass. Memory use is bounded by
//!   construction: a request line longer than [`MAX_LINE_BYTES`] is
//!   answered as a bad line and closes its connection.
//! - **Per-request deadlines** ([`engine`]): a request's deadline
//!   (default [`DEFAULT_DEADLINE_MS`], clamped to [`MAX_DEADLINE_MS`])
//!   starts at admission; execution runs in fuel slices of [`SLICE`]
//!   instructions ([`mica_experiments::profile::characterize_vm_sliced`])
//!   and reads the clock between slices, so work past its deadline is
//!   cancelled and reported with a structured `deadline` status, never
//!   leaked. An `asm` without `budget` runs to `halt` within its deadline.
//! - **Per-request quarantine**: submissions run under
//!   [`mica_par::par_map_isolated`], so a panicking kernel (including one
//!   injected via `MICA_FAULTS=panic:request=N`) returns a structured
//!   `panic` response while the pool and the server keep serving.
//! - **Graceful drain**: SIGTERM / ctrl-c stops admission (`draining`
//!   rejections), finishes in-flight work, writes the submission index
//!   (`<results>/serve-index.json`) via
//!   [`mica_fault::atomic_write_retry`], flushes the access log's buffer,
//!   writes the run summary (`<results>/run-serve.json`, every `serve.*`
//!   counter included) as the closing account, flushes the observability
//!   sinks, then exits 0.
//! - **A live ops plane** ([`server`]): `ops` requests
//!   (`health`/`ready`/`metrics`/`stats`) bypass the queue and keep
//!   answering during a drain; every response echoes a `trace` id tying
//!   it to its span tree in the `MICA_TRACE` file; and every served
//!   request lands in a JSONL access log (`<results>/serve-access.jsonl`),
//!   written as requests are answered, which `mica-prof slo` scores
//!   against a latency objective.
//! - **A retrying client** ([`client`], `mica-serve-client`): capped
//!   exponential backoff with deterministic site-seeded jitter
//!   ([`mica_fault::io::backoff_ms`]), honoring `retry_after_ms` hints.
//!
//! Every answer carries a sprout-style [`protocol::Provenance`] block —
//! server build, table fingerprint, profile fingerprint, budget scale
//! and GA selection — so two answers taken months apart compare honestly
//! or visibly don't. The pool width and the deployment settings (listen
//! address, results directory, log level) stay out of it: none of them
//! changes an answer.
//!
//! Environment knobs (all optional):
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `MICA_SERVE_ADDR` | `127.0.0.1:7033` | listen address |
//! | `MICA_SERVE_QUEUE` | 32 | admission queue capacity; expensive work is shed past 3/4 of it |
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

/// Deadline of a request that sets no `deadline_ms`, in milliseconds.
pub const DEFAULT_DEADLINE_MS: u64 = 2_000;

/// Ceiling a request's deadline is clamped to, in milliseconds.
pub const MAX_DEADLINE_MS: u64 = 30_000;

/// Fuel slice between deadline checks: the sliced VM loop reads the clock
/// every this many instructions.
pub const SLICE: u64 = 50_000;

/// Longest request line a connection reads, in bytes, newline excluded.
/// An `asm` listing of [`asmtext::MAX_INSTS`] instructions is far below
/// it.
pub const MAX_LINE_BYTES: usize = 1 << 20;

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
    /// Queue depth at which expensive submissions are shed; `from_env`
    /// sets 3/4 of `queue_cap`.
    pub watermark: usize,
}

impl ServeConfig {
    /// Resolve every knob from the environment.
    pub fn from_env() -> ServeConfig {
        let queue_cap = env_u64("MICA_SERVE_QUEUE", 32) as usize;
        ServeConfig {
            addr: std::env::var("MICA_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7033".into()),
            queue_cap,
            watermark: (queue_cap * 3 / 4).max(1),
        }
    }
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { addr: "127.0.0.1:7033".into(), queue_cap: 32, watermark: 24 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert!(c.watermark <= c.queue_cap);
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
