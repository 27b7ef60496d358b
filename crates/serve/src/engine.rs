//! Query execution: one submission in, one structured outcome out.
//!
//! The engine owns everything immutable a query needs — the warm
//! [`ProfileSet`] (the same `profiles.json` cache the batch pipeline
//! writes, so `table` answers are byte-identical to it), the
//! [`QuerySpace`], and the provenance block — plus the mutable submission
//! index that caches computed `zoo`/`asm` answers across requests and is
//! flushed to sharded JSON on drain.
//!
//! [`Engine::execute`] runs *inside* the server's
//! [`mica_par::par_map_isolated`] dispatch, so a panic anywhere in here —
//! including one injected with `MICA_FAULTS=panic:request=N` — is caught
//! and turned into a structured `panic` response by the caller, never
//! killing the server.

use crate::protocol::{status, NeighborEntry, QueryResult, Request, RequestKind};
use crate::{asmtext, ServeConfig};
use mica_experiments::profile::{
    characterize_vm_sliced, load_or_profile_all, scaled_budget,
    validate_scale, ProfileError, SlicedRun,
};
use mica_experiments::query::{DistanceMetric, QuerySpace};
use mica_experiments::results::ProfileSet;
use mica_obs as obs;
use mica_workloads::{benchmark_table, BenchmarkSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Queries answered from the warm profile set or the submission index.
static CACHE_HITS: obs::Counter = obs::Counter::new("serve.cache.hit");
/// Queries that ran a fresh simulation.
static SIMULATED: obs::Counter = obs::Counter::new("serve.simulated");
/// Dynamic instructions executed on behalf of submissions.
static INSTS: obs::Counter = obs::Counter::new("serve.insts");

/// Number of submission-index shards.
pub const INDEX_SHARDS: u64 = 4;

/// One cached submission answer, as stored in the sharded index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexEntry {
    /// Canonical submission key (kind, name/program hash, parameters).
    pub key: String,
    /// Display name of the submission.
    pub name: String,
    /// Raw 47-metric vector.
    pub vector: Vec<f64>,
    /// Instructions the original simulation executed.
    pub executed_instructions: u64,
}

/// One shard file: entries sorted by key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexShard {
    /// Profile-layout fingerprint the entries were computed under; a
    /// mismatched shard is discarded on load.
    pub fingerprint: u64,
    /// The cached answers.
    pub entries: Vec<IndexEntry>,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What `execute` decided, before the server stamps id/provenance.
pub struct Outcome {
    /// Status code for the response.
    pub status: &'static str,
    /// Diagnostics for non-`ok` statuses.
    pub error: Option<String>,
    /// The answer, on `ok`.
    pub result: Option<QueryResult>,
}

impl Outcome {
    fn fail(message: impl Into<String>) -> Outcome {
        Outcome { status: status::ERROR, error: Some(message.into()), result: None }
    }

    fn deadline(executed: u64, detail: &str) -> Outcome {
        Outcome {
            status: status::DEADLINE,
            error: Some(format!("deadline exceeded ({detail}; executed {executed} instructions)")),
            result: None,
        }
    }
}

/// The immutable query core plus the submission index.
pub struct Engine {
    set: ProfileSet,
    space: QuerySpace,
    by_name: BTreeMap<String, usize>,
    table: Vec<BenchmarkSpec>,
    scale: f64,
    index: Mutex<BTreeMap<String, IndexEntry>>,
    index_dir: PathBuf,
    table_fingerprint: u64,
}

impl Engine {
    /// Boot the engine: load (or compute and cache) the reference
    /// profiles, build the GA query space, and warm the submission index
    /// from any shards a previous run drained.
    ///
    /// # Errors
    ///
    /// Propagates profiling failures; a missing or stale submission index
    /// is not an error (it simply starts empty).
    pub fn boot() -> Result<Engine, ProfileError> {
        let results = mica_experiments::results_dir();
        let scale = mica_experiments::scale();
        let outcome = load_or_profile_all(&results.join("profiles.json"), scale)?;
        if !outcome.quarantined.is_empty() {
            // A server answering from a partial reference set would compare
            // submissions against a space missing benchmarks; refuse loudly
            // in the log but keep serving what completed.
            obs::warn!(
                "serving with {} reference benchmarks quarantined",
                outcome.quarantined.len()
            );
        }
        let set = outcome.set;
        let space = QuerySpace::build(&set, 8);
        let by_name = set.records.iter().enumerate().map(|(i, r)| (r.name.clone(), i)).collect();
        let index_dir = results.join("serve-index");
        // `profile_fingerprint()` re-assembles all 122 reference kernels per
        // call; the loaded set already carries the value, so thread it through
        // instead of recomputing per shard.
        let index = load_index(&index_dir, set.fingerprint);
        if !index.is_empty() {
            obs::info!("warmed submission index with {} entries", index.len());
        }
        Ok(Engine {
            set,
            space,
            by_name,
            table: benchmark_table(),
            scale,
            index: Mutex::new(index),
            index_dir,
            table_fingerprint: outcome.table_fingerprint,
        })
    }

    /// The table fingerprint the boot checked the profile cache against
    /// (provenance and the run summary reuse it).
    pub fn table_fingerprint(&self) -> u64 {
        self.table_fingerprint
    }

    /// The warm reference set (tests compare response vectors against it).
    pub fn profiles(&self) -> &ProfileSet {
        &self.set
    }

    /// The query space (provenance reads the GA selection from it).
    pub fn space(&self) -> &QuerySpace {
        &self.space
    }

    /// Whether this request can be answered without simulation — used by
    /// admission control: cache-served lookups stay admissible above the
    /// load-shedding watermark, expensive ones are shed.
    pub fn is_cheap(&self, req: &Request) -> bool {
        match req.kind {
            // Ops queries never reach the queue, but admission still asks.
            RequestKind::Table | RequestKind::Ops => true,
            RequestKind::Zoo | RequestKind::Asm => match submission_key(req) {
                Some(key) => self.index.lock().expect("index poisoned").contains_key(&key),
                None => false,
            },
        }
    }

    /// Run one submission to an [`Outcome`]. Runs under panic isolation;
    /// cooperative cancellation via `cancel` (set by the watchdog when
    /// `deadline_at` passes).
    pub fn execute(
        &self,
        req: &Request,
        deadline_at: Instant,
        cancel: &AtomicBool,
        cfg: &ServeConfig,
    ) -> Outcome {
        let mut span = obs::span("serve", format!("req:{}", req.id));
        span.attr("kind", req.kind.name());

        // Fault injection: latency first (it can push the request past its
        // deadline — CI's hung-submission case), then the request panic
        // (caught by the isolation layer).
        if let Some(ms) = mica_fault::plan::slow_fault("serve.request") {
            obs::warn!("injected latency: request {} sleeping {ms}ms (MICA_FAULTS)", req.id);
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        if mica_fault::plan::should_panic_request() {
            panic!("injected fault: request (MICA_FAULTS)");
        }

        let metric = match req.metric.as_deref() {
            None => DistanceMetric::Euclidean,
            Some(name) => match DistanceMetric::parse(name) {
                Some(m) => m,
                None => {
                    return Outcome::fail(format!(
                        "unknown metric `{name}` (want euclidean or cosine)"
                    ))
                }
            },
        };
        let k = req.k.unwrap_or(5).clamp(1, self.set.records.len() as u64) as usize;

        if cancel.load(Ordering::Relaxed) || Instant::now() >= deadline_at {
            return Outcome::deadline(0, "expired before execution");
        }

        let (name, vector, executed, cached) = match self.resolve(req, deadline_at, cancel, cfg) {
            Ok(Some(parts)) => parts,
            Ok(None) => return Outcome::deadline(0, "expired before execution"),
            Err(outcome) => return *outcome,
        };

        let projection = match self.space.project(&vector) {
            Some(p) => p,
            None => return Outcome::fail("characterization has unexpected dimensionality"),
        };
        let neighbors = self
            .space
            .neighbors(&projection, k, metric)
            .into_iter()
            .map(|nb| NeighborEntry { name: nb.name, distance: nb.distance })
            .collect();
        span.attr("cached", u64::from(cached));
        Outcome {
            status: status::OK,
            error: None,
            result: Some(QueryResult {
                name,
                vector,
                projection,
                neighbors,
                metric: metric.name().to_string(),
                executed_instructions: executed,
                cached,
            }),
        }
    }

    /// Resolve the submission to `(name, raw vector, executed, cached)`.
    /// `Ok(None)` means the run was cancelled cleanly (deadline).
    #[allow(clippy::type_complexity)]
    fn resolve(
        &self,
        req: &Request,
        deadline_at: Instant,
        cancel: &AtomicBool,
        cfg: &ServeConfig,
    ) -> Result<Option<(String, Vec<f64>, u64, bool)>, Box<Outcome>> {
        match req.kind {
            RequestKind::Table => {
                let name = req.name.as_deref().ok_or_else(|| {
                    Outcome::fail("table requests need `name` (suite/program/input)")
                })?;
                let &i = self.by_name.get(name).ok_or_else(|| {
                    Outcome::fail(format!("unknown benchmark `{name}`"))
                })?;
                let rec = &self.set.records[i];
                CACHE_HITS.incr();
                Ok(Some((
                    rec.name.clone(),
                    rec.mica.values().to_vec(),
                    rec.executed_instructions,
                    true,
                )))
            }
            RequestKind::Zoo => {
                let name = req.name.as_deref().ok_or_else(|| {
                    Outcome::fail("zoo requests need `name` (suite/program/input)")
                })?;
                let spec = self
                    .table
                    .iter()
                    .find(|s| s.name() == name)
                    .ok_or_else(|| Outcome::fail(format!("unknown benchmark `{name}`")))?;
                let scale = req.scale.unwrap_or(self.scale);
                validate_scale(scale).map_err(|e| Outcome::fail(e.to_string()))?;
                let seed = req.seed.unwrap_or_else(|| spec.seed());
                let budget = scaled_budget(spec, scale);
                let key = submission_key(req).expect("zoo key");
                if let Some(hit) = self.index_get(&key) {
                    return Ok(Some((hit.name, hit.vector, hit.executed_instructions, true)));
                }
                let mut vm = spec
                    .kernel
                    .build_vm(seed)
                    .map_err(|e| Outcome::fail(format!("kernel failed to assemble: {e}")))?;
                let display = format!("{name}?seed={seed}&scale={scale}");
                self.simulate(&mut vm, Some(budget), deadline_at, cancel, cfg, key, display)
            }
            RequestKind::Asm => {
                let text = req
                    .asm
                    .as_deref()
                    .ok_or_else(|| Outcome::fail("asm requests need `asm` (program text)"))?;
                let prog = asmtext::assemble(text).map_err(|e| Outcome::fail(e.to_string()))?;
                let key = submission_key(req).expect("asm key");
                if let Some(hit) = self.index_get(&key) {
                    return Ok(Some((hit.name, hit.vector, hit.executed_instructions, true)));
                }
                let mut vm = tinyisa::Vm::new(prog);
                let display = format!("asm:{:016x}", fnv1a(text.as_bytes()));
                self.simulate(&mut vm, req.budget, deadline_at, cancel, cfg, key, display)
            }
            // The server answers ops on the reader thread; one slipping
            // through to the engine is a dispatch bug, answered loudly.
            RequestKind::Ops => {
                Err(Box::new(Outcome::fail("ops requests are not executable submissions")))
            }
        }
    }

    /// Run a VM under the deadline-derived fuel budget and record the
    /// answer in the submission index. `requested: None` (budget-less
    /// `asm`) spends exactly the deadline's remaining fuel allowance.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn simulate(
        &self,
        vm: &mut tinyisa::Vm,
        requested: Option<u64>,
        deadline_at: Instant,
        cancel: &AtomicBool,
        cfg: &ServeConfig,
        key: String,
        name: String,
    ) -> Result<Option<(String, Vec<f64>, u64, bool)>, Box<Outcome>> {
        let allowance = fuel_allowance(deadline_at, cfg);
        let budget = requested.unwrap_or(allowance).max(1);
        if budget > allowance {
            // The deadline cannot pay for this budget; refuse up front
            // instead of running a truncated (incomparable) simulation.
            return Err(Box::new(Outcome::deadline(
                0,
                &format!("budget {budget} exceeds the deadline's fuel allowance {allowance}"),
            )));
        }
        SIMULATED.incr();
        let run =
            characterize_vm_sliced(vm, budget, crate::SLICE, || cancel.load(Ordering::Relaxed))
                .map_err(|e| Outcome::fail(e.to_string()))?;
        match run {
            SlicedRun::Cancelled { executed } => {
                INSTS.add(executed);
                Err(Box::new(Outcome::deadline(executed, "cancelled by watchdog")))
            }
            SlicedRun::Done { mica, executed } => {
                INSTS.add(executed);
                let vector = mica.values().to_vec();
                let entry = IndexEntry {
                    key: key.clone(),
                    name: name.clone(),
                    vector: vector.clone(),
                    executed_instructions: executed,
                };
                self.index.lock().expect("index poisoned").insert(key, entry);
                Ok(Some((name, vector, executed, false)))
            }
        }
    }

    fn index_get(&self, key: &str) -> Option<IndexEntry> {
        let hit = self.index.lock().expect("index poisoned").get(key).cloned();
        if hit.is_some() {
            CACHE_HITS.incr();
        }
        hit
    }

    /// Flush the submission index to its shards via
    /// [`mica_fault::atomic_write_retry`] (site `serve-index`). Returns
    /// `(shards_written, entries)`.
    pub fn flush_index(&self) -> (u64, u64) {
        let index = self.index.lock().expect("index poisoned");
        let total = index.len() as u64;
        if let Err(e) = std::fs::create_dir_all(&self.index_dir) {
            obs::warn!("cannot create {}: {e}", self.index_dir.display());
            return (0, total);
        }
        let mut written = 0;
        let fingerprint = self.set.fingerprint;
        for shard_no in 0..INDEX_SHARDS {
            let entries: Vec<IndexEntry> = index
                .values()
                .filter(|e| fnv1a(e.key.as_bytes()) % INDEX_SHARDS == shard_no)
                .cloned()
                .collect();
            let shard = IndexShard { fingerprint, entries };
            let path = self.index_dir.join(format!("shard-{shard_no}.json"));
            let json = serde_json::to_string_pretty(&shard).expect("IndexShard serializes");
            match mica_fault::atomic_write_retry("serve-index", &path, json.as_bytes()) {
                Ok(()) => written += 1,
                Err(e) => obs::warn!("cannot write index shard {}: {e}", path.display()),
            }
        }
        (written, total)
    }
}

/// The canonical cache key of a submission, or `None` for kinds that are
/// not cached (`table` answers live in the profile set).
fn submission_key(req: &Request) -> Option<String> {
    match req.kind {
        RequestKind::Table | RequestKind::Ops => None,
        RequestKind::Zoo => {
            let name = req.name.as_deref()?;
            Some(format!(
                "zoo|{name}|{}|{:016x}",
                req.seed.map(|s| s.to_string()).unwrap_or_else(|| "default".into()),
                req.scale.unwrap_or(f64::NAN).to_bits()
            ))
        }
        RequestKind::Asm => {
            let text = req.asm.as_deref()?;
            Some(format!(
                "asm|{:016x}|{}",
                fnv1a(text.as_bytes()),
                req.budget.map(|b| b.to_string()).unwrap_or_else(|| "auto".into())
            ))
        }
    }
}

/// Instructions the remaining time to `deadline_at` can pay for.
fn fuel_allowance(deadline_at: Instant, cfg: &ServeConfig) -> u64 {
    let remaining_ms = deadline_at.saturating_duration_since(Instant::now()).as_millis() as u64;
    remaining_ms.saturating_mul(cfg.fuel_per_ms).max(1)
}

/// Load every readable, fingerprint-current shard; anything else is
/// skipped with a warning (a stale index is a cache, not state).
fn load_index(dir: &std::path::Path, fingerprint: u64) -> BTreeMap<String, IndexEntry> {
    let mut map = BTreeMap::new();
    for shard_no in 0..INDEX_SHARDS {
        let path = dir.join(format!("shard-{shard_no}.json"));
        let json = match std::fs::read_to_string(&path) {
            Ok(json) => json,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => {
                obs::warn!("skipping index shard {}: {e}", path.display());
                continue;
            }
        };
        match serde_json::from_str::<IndexShard>(&json) {
            Ok(shard) if shard.fingerprint == fingerprint => {
                for e in shard.entries {
                    map.insert(e.key.clone(), e);
                }
            }
            Ok(shard) => obs::warn!(
                "discarding index shard {} (fingerprint {:#x} != {:#x})",
                path.display(),
                shard.fingerprint,
                fingerprint
            ),
            Err(e) => obs::warn!("discarding unparseable index shard {}: {e}", path.display()),
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submission_keys_are_canonical_and_distinct() {
        let mut zoo = Request::new("a", RequestKind::Zoo);
        zoo.name = Some("s/p/i".into());
        zoo.seed = Some(7);
        let k1 = submission_key(&zoo).unwrap();
        zoo.seed = Some(8);
        let k2 = submission_key(&zoo).unwrap();
        assert_ne!(k1, k2);
        assert!(k1.starts_with("zoo|s/p/i|7|"));

        let mut asm = Request::new("b", RequestKind::Asm);
        asm.asm = Some("halt".into());
        let k3 = submission_key(&asm).unwrap();
        asm.asm = Some("ret".into());
        assert_ne!(k3, submission_key(&asm).unwrap());

        assert_eq!(submission_key(&Request::new("c", RequestKind::Table)), None);
    }

    #[test]
    fn fuel_allowance_scales_with_remaining_time() {
        let cfg = ServeConfig { fuel_per_ms: 1_000, ..ServeConfig::default() };
        let far = Instant::now() + std::time::Duration::from_millis(100);
        let a = fuel_allowance(far, &cfg);
        assert!((90_000..=100_000).contains(&a), "allowance {a}");
        // An expired deadline still allows the minimum 1 instruction.
        assert_eq!(fuel_allowance(Instant::now(), &cfg), 1);
    }
}
