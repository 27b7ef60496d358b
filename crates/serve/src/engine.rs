//! Query execution: one submission in, one structured outcome out.
//!
//! The engine owns everything immutable a query needs — the warm
//! [`ProfileSet`] (the same `profiles.json` cache the batch pipeline
//! writes, so `table` answers are byte-identical to it), the
//! [`QuerySpace`], and the JSON every answer shares, rendered at boot
//! (each reference kernel and the provenance block) — plus the mutable
//! submission index that caches computed `zoo`/`asm` answers across
//! requests and is flushed to `<results>/serve-index.json` on drain.
//!
//! [`Engine::execute`] runs *inside* [`mica_par::par_map_isolated`],
//! whether the dispatcher runs a batch of submissions or a reader thread
//! runs its `table` lookup, so a panic anywhere in here — including one
//! injected with `MICA_FAULTS=panic:request=N` — is caught and turned into
//! a structured `panic` response by the caller, never killing the server
//! or the thread.

use crate::protocol::{status, Answer, AnswerJson, KernelJson, Provenance, Request, RequestKind};
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
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Queries answered from the warm profile set or the submission index.
static CACHE_HITS: obs::Counter = obs::Counter::new("serve.cache.hit");
/// Queries that ran a fresh simulation.
static SIMULATED: obs::Counter = obs::Counter::new("serve.simulated");
/// Dynamic instructions executed on behalf of submissions.
static INSTS: obs::Counter = obs::Counter::new("serve.insts");

/// One cached submission answer, as stored in the index file.
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

/// The index file (`serve-index.json`): entries sorted by key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexFile {
    /// Profile-layout fingerprint the entries were computed under; a
    /// file with another fingerprint is discarded on load.
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

/// What `execute` decided, before the server stamps id and trace.
pub struct Outcome<'e> {
    /// Status code for the response.
    pub status: &'static str,
    /// Diagnostics for non-`ok` statuses.
    pub error: Option<String>,
    /// The answer, on `ok`.
    pub result: Option<Answer<'e>>,
}

impl Outcome<'_> {
    fn fail(message: impl Into<String>) -> Self {
        Outcome { status: status::ERROR, error: Some(message.into()), result: None }
    }

    fn deadline(executed: u64, detail: &str) -> Self {
        Outcome {
            status: status::DEADLINE,
            error: Some(format!("deadline exceeded ({detail}; executed {executed} instructions)")),
            result: None,
        }
    }
}

/// What a submission resolved to.
enum Resolved {
    /// Row `i` of the reference set.
    Reference(usize),
    /// A kernel characterized for a submission, now or earlier.
    Fresh { name: String, vector: Vec<f64>, executed: u64, cached: bool },
}

/// The immutable query core plus the submission index.
pub struct Engine {
    set: ProfileSet,
    space: QuerySpace,
    by_name: BTreeMap<String, usize>,
    table: Vec<BenchmarkSpec>,
    scale: f64,
    index: Mutex<BTreeMap<String, IndexEntry>>,
    index_path: PathBuf,
    table_fingerprint: u64,
    json: AnswerJson,
}

impl Engine {
    /// Boot the engine: load (or compute and cache) the reference
    /// profiles, build the GA query space, and warm the submission index
    /// from the file a previous run drained.
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
        let index_path = results.join("serve-index.json");
        // `profile_fingerprint()` re-assembles all 122 reference kernels per
        // call; the loaded set already carries the value, so thread it through.
        let index = load_index(&index_path, set.fingerprint);
        if !index.is_empty() {
            obs::info!("warmed submission index with {} entries", index.len());
        }
        let provenance = Provenance {
            server: format!("{} {}", env!("CARGO_PKG_NAME"), env!("CARGO_PKG_VERSION")),
            table_fingerprint: outcome.table_fingerprint,
            profile_fingerprint: set.fingerprint,
            scale: set.scale,
            selected_metrics: space.selected().iter().map(|&i| i as u64).collect(),
            ga_rho: space.rho(),
        };
        let json = AnswerJson::new(reference_json(&set, &space), &provenance);
        Ok(Engine {
            set,
            space,
            by_name,
            table: benchmark_table(),
            scale,
            index: Mutex::new(index),
            index_path,
            table_fingerprint: outcome.table_fingerprint,
            json,
        })
    }

    /// The table fingerprint the boot checked the profile cache against
    /// (the provenance, the run summary and the `metrics` payload carry
    /// it).
    pub fn table_fingerprint(&self) -> u64 {
        self.table_fingerprint
    }

    /// The warm reference set (tests compare response vectors against it).
    pub fn profiles(&self) -> &ProfileSet {
        &self.set
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

    /// Run one submission to an [`Outcome`]. The server runs it under
    /// panic isolation: on the dispatcher for a `zoo` or `asm` submission,
    /// on the connection's reader thread for a `table` lookup. A request
    /// already past `deadline_at` answers `deadline` before it runs, and a
    /// simulation stops between fuel slices once `deadline_at` passes or
    /// `cancel` is set, and answers `deadline`.
    pub fn execute(
        &self,
        req: &Request,
        deadline_at: Instant,
        cancel: &AtomicBool,
        _cfg: &ServeConfig,
    ) -> Outcome<'_> {
        // Name the span only when a sink records it: formatting allocates.
        let span_name =
            if obs::spans_enabled() { format!("req:{}", req.id) } else { String::new() };
        let mut span = obs::span("serve", span_name);
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

        let (kernel, neighbors, cached) = match self.resolve(req, deadline_at, cancel) {
            Ok(Resolved::Reference(row)) => (
                Cow::Borrowed(self.json.reference(row)),
                self.space.nearest(self.space.point(row), k, metric),
                true,
            ),
            Ok(Resolved::Fresh { name, vector, executed, cached }) => {
                let Some(projection) = self.space.project(&vector) else {
                    return Outcome::fail("characterization has unexpected dimensionality");
                };
                let neighbors = self.space.nearest(&projection, k, metric);
                (
                    Cow::Owned(KernelJson::new(&name, &vector, &projection, executed)),
                    neighbors,
                    cached,
                )
            }
            Err(outcome) => return *outcome,
        };
        span.attr("cached", u64::from(cached));
        Outcome {
            status: status::OK,
            error: None,
            result: Some(Answer { kernel, neighbors, metric: metric.name(), cached }),
        }
    }

    /// The wire line of an `ok` answer: see [`AnswerJson::render`].
    pub(crate) fn render(&self, id: &str, trace: &str, answer: &Answer) -> String {
        self.json.render(id, trace, answer)
    }

    /// Resolve the submission to a reference row or a characterized kernel.
    fn resolve(
        &self,
        req: &Request,
        deadline_at: Instant,
        cancel: &AtomicBool,
    ) -> Result<Resolved, Box<Outcome<'static>>> {
        match req.kind {
            RequestKind::Table => {
                let name = req.name.as_deref().ok_or_else(|| {
                    Outcome::fail("table requests need `name` (suite/program/input)")
                })?;
                let &i = self.by_name.get(name).ok_or_else(|| {
                    Outcome::fail(format!("unknown benchmark `{name}`"))
                })?;
                CACHE_HITS.incr();
                Ok(Resolved::Reference(i))
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
                    return Ok(hit);
                }
                let mut vm = spec
                    .kernel
                    .build_vm(seed)
                    .map_err(|e| Outcome::fail(format!("kernel failed to assemble: {e}")))?;
                let display = format!("{name}?seed={seed}&scale={scale}");
                self.simulate(&mut vm, budget, deadline_at, cancel, key, display)
            }
            RequestKind::Asm => {
                let text = req
                    .asm
                    .as_deref()
                    .ok_or_else(|| Outcome::fail("asm requests need `asm` (program text)"))?;
                let prog = asmtext::assemble(text).map_err(|e| Outcome::fail(e.to_string()))?;
                let key = submission_key(req).expect("asm key");
                if let Some(hit) = self.index_get(&key) {
                    return Ok(hit);
                }
                let mut vm = tinyisa::Vm::new(prog);
                let display = format!("asm:{:016x}", fnv1a(text.as_bytes()));
                let budget = req.budget.unwrap_or(u64::MAX).max(1);
                self.simulate(&mut vm, budget, deadline_at, cancel, key, display)
            }
            // The server answers ops on the reader thread; one slipping
            // through to the engine is a dispatch bug, answered loudly.
            RequestKind::Ops => {
                Err(Box::new(Outcome::fail("ops requests are not executable submissions")))
            }
        }
    }

    /// Run a VM for up to `budget` instructions (or to `halt`) and record
    /// the answer in the submission index. The clock is read between fuel
    /// slices: a run still going at `deadline_at` is cancelled, never
    /// answered with a truncated (incomparable) vector.
    fn simulate(
        &self,
        vm: &mut tinyisa::Vm,
        budget: u64,
        deadline_at: Instant,
        cancel: &AtomicBool,
        key: String,
        name: String,
    ) -> Result<Resolved, Box<Outcome<'static>>> {
        SIMULATED.incr();
        let expired = || cancel.load(Ordering::Relaxed) || Instant::now() >= deadline_at;
        let run = characterize_vm_sliced(vm, budget, crate::SLICE, expired)
            .map_err(|e| Outcome::fail(e.to_string()))?;
        match run {
            SlicedRun::Cancelled { executed } => {
                INSTS.add(executed);
                Err(Box::new(Outcome::deadline(executed, "cancelled at the deadline")))
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
                Ok(Resolved::Fresh { name, vector, executed, cached: false })
            }
        }
    }

    fn index_get(&self, key: &str) -> Option<Resolved> {
        let index = self.index.lock().expect("index poisoned");
        let hit = index.get(key)?;
        CACHE_HITS.incr();
        Some(Resolved::Fresh {
            name: hit.name.clone(),
            vector: hit.vector.clone(),
            executed: hit.executed_instructions,
            cached: true,
        })
    }

    /// Flush the submission index to `serve-index.json`; a failed write
    /// is warned about.
    pub fn flush_index(&self) {
        let index = self.index.lock().expect("index poisoned");
        if let Err(e) = write_index(&self.index_path, self.set.fingerprint, &index) {
            obs::warn!("cannot write submission index {}: {e}", self.index_path.display());
        }
    }
}

/// Each reference kernel of `set`, by row, as an answer carries it. Its
/// projection is its point in `space`, which equals `space.project` of
/// its own vector.
pub fn reference_json(set: &ProfileSet, space: &QuerySpace) -> Vec<KernelJson> {
    set.records
        .iter()
        .enumerate()
        .map(|(row, rec)| {
            KernelJson::new(
                &rec.name,
                rec.mica.values(),
                space.point(row),
                rec.executed_instructions,
            )
        })
        .collect()
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
                req.budget.map(|b| b.to_string()).unwrap_or_else(|| "halt".into())
            ))
        }
    }
}

/// Write `index` to `path` via [`mica_fault::atomic_write_retry`] (site
/// `serve-index`), stamped with `fingerprint`.
fn write_index(
    path: &Path,
    fingerprint: u64,
    index: &BTreeMap<String, IndexEntry>,
) -> std::io::Result<()> {
    let file = IndexFile { fingerprint, entries: index.values().cloned().collect() };
    let json = serde_json::to_string_pretty(&file).expect("IndexFile serializes");
    mica_fault::atomic_write_retry("serve-index", path, json.as_bytes())
}

/// Load the index file at `path`. An absent file is an empty index; an
/// unreadable or unparseable file, or one stamped with another
/// fingerprint, is skipped with a warning (a stale index is a cache, not
/// state).
fn load_index(path: &Path, fingerprint: u64) -> BTreeMap<String, IndexEntry> {
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return BTreeMap::new(),
        Err(e) => {
            obs::warn!("skipping submission index {}: {e}", path.display());
            return BTreeMap::new();
        }
    };
    match serde_json::from_str::<IndexFile>(&json) {
        Ok(file) if file.fingerprint == fingerprint => {
            file.entries.into_iter().map(|e| (e.key.clone(), e)).collect()
        }
        Ok(file) => {
            obs::warn!(
                "discarding submission index {} (fingerprint {:#x} != {:#x})",
                path.display(),
                file.fingerprint,
                fingerprint
            );
            BTreeMap::new()
        }
        Err(e) => {
            obs::warn!("discarding unparseable submission index {}: {e}", path.display());
            BTreeMap::new()
        }
    }
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
        // A budget-less run goes to `halt`, so its key can never name a
        // run truncated at some deadline's worth of fuel.
        assert!(k3.ends_with("|halt"), "{k3}");
        asm.budget = Some(500);
        assert!(submission_key(&asm).unwrap().ends_with("|500"));
        asm.asm = Some("ret".into());
        assert_ne!(k3, submission_key(&asm).unwrap());

        assert_eq!(submission_key(&Request::new("c", RequestKind::Table)), None);
    }

    #[test]
    fn index_file_round_trips_and_rejects_stale_or_garbage_files() {
        let dir = std::env::temp_dir().join(format!("mica_serve_index_{}", std::process::id()));
        let path = dir.join("serve-index.json");
        assert!(load_index(&path, 7).is_empty(), "an absent file is an empty index");
        let index: BTreeMap<String, IndexEntry> = ["zoo|b", "asm|a"]
            .into_iter()
            .enumerate()
            .map(|(i, key)| {
                let entry = IndexEntry {
                    key: key.to_string(),
                    name: format!("entry {i}"),
                    vector: vec![0.5, i as f64, -1.25e-3],
                    executed_instructions: 1_000 + i as u64,
                };
                (key.to_string(), entry)
            })
            .collect();
        write_index(&path, 7, &index).unwrap();
        assert_eq!(load_index(&path, 7), index);
        assert!(load_index(&path, 8).is_empty(), "another fingerprint is discarded");
        std::fs::write(&path, "{\"fingerprint\": 7, \"entries\": [").unwrap();
        assert!(load_index(&path, 7).is_empty(), "a garbage file is discarded");
        std::fs::remove_dir_all(dir).ok();
    }
}
