//! `mica-obs`: structured observability for the whole pipeline.
//!
//! The experiments are a long chain of expensive stages (profile 122
//! kernels, normalize, pairwise distances, GA, k-means/ROC) and the only
//! visibility into them used to be ad-hoc `println!` calls. This crate
//! replaces that with one coherent, *measurement-grade* layer:
//!
//! - **hierarchical spans** with monotonic timings ([`span`]), nested per
//!   thread via an RAII guard;
//! - **leveled events** ([`error!`], [`warn!`], [`info!`], [`debug!`],
//!   [`trace!`]) with optional structured attributes;
//! - **atomic counters and histograms** ([`Counter`], [`Histogram`]) for
//!   things worth counting (cache hits, stolen chunks, GA generations);
//! - a pluggable [`Sink`] trait with three implementations: a leveled
//!   human-readable stderr logger, an in-memory capture sink for tests,
//!   and a Chrome-trace (`chrome://tracing`/Perfetto) exporter keyed by
//!   worker-thread id so `par_map` fan-out is visible.
//!
//! Everything is `std`-only (the build environment has no crate-registry
//! access — same constraint as the `compat/` stand-ins) and strictly
//! **side-effect-free on results**: the layer reads clocks and writes to
//! stderr/files, never into the computation. The experiments' determinism
//! tests assert profiling output is bit-identical with tracing on and off.
//!
//! # Configuration
//!
//! The global pipeline is initialized lazily from the environment on first
//! use (or explicitly via [`add_sink`]):
//!
//! - `MICA_LOG=error|warn|info|debug|trace|off` — stderr verbosity
//!   (default `info`);
//! - `MICA_TRACE=out.json` — write a Chrome-trace file of every event
//!   and span. While any sink records spans, [`alloc`] charges
//!   allocations to them (`alloc_n` / `alloc_b`).
//!
//! The trace sink buffers; call [`flush`] (the experiments' `Runner` does)
//! to finalize output.
//!
//! # Overhead
//!
//! The hot-path cost when nothing is listening is one relaxed atomic load
//! per event macro and per [`span`] call, and one relaxed `fetch_add` per
//! counter bump. No formatting, allocation or clock read happens unless
//! some installed sink wants the record.

pub mod alloc;
mod chrome;
mod context;
mod counters;
mod sink;

pub use chrome::ChromeTraceSink;
pub use context::{
    current_context, install_context, next_span_id, ContextGuard, TraceContext,
};
pub use counters::{counters, histograms, Counter, Histogram, HistogramSnapshot};
pub use sink::{MemorySink, Record, Sink, StderrSink};

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Levels
// ---------------------------------------------------------------------------

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The run is broken (still reported at `MICA_LOG=error`).
    Error = 1,
    /// Something unexpected that the run recovers from (e.g. a rejected
    /// profile cache).
    Warn = 2,
    /// Normal progress reporting — the default stderr verbosity.
    Info = 3,
    /// Per-stage internals (GA convergence, cache decisions, k-means fits).
    Debug = 4,
    /// Everything, including span-close lines on stderr.
    Trace = 5,
}

impl Level {
    /// Fixed-width uppercase name (for log lines).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }

    /// Lowercase name (for JSON output).
    pub fn lower(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parse a `MICA_LOG` value; `None` for `off` (or `none`/`0`).
    /// Unrecognized values also parse to `None` so a typo silences rather
    /// than floods — the stderr sink reports the typo once at init.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------------
// Attributes and records
// ---------------------------------------------------------------------------

/// A structured attribute value attached to an event or span.
#[derive(Debug, Clone, PartialEq)]
pub enum Attr {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values render as JSON `null`).
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl fmt::Display for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attr::U64(v) => write!(f, "{v}"),
            Attr::I64(v) => write!(f, "{v}"),
            Attr::F64(v) => write!(f, "{v}"),
            Attr::Str(v) => f.write_str(v),
            Attr::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for Attr {
    fn from(v: u64) -> Attr {
        Attr::U64(v)
    }
}
impl From<usize> for Attr {
    fn from(v: usize) -> Attr {
        Attr::U64(v as u64)
    }
}
impl From<u32> for Attr {
    fn from(v: u32) -> Attr {
        Attr::U64(u64::from(v))
    }
}
impl From<i64> for Attr {
    fn from(v: i64) -> Attr {
        Attr::I64(v)
    }
}
impl From<f64> for Attr {
    fn from(v: f64) -> Attr {
        Attr::F64(v)
    }
}
impl From<bool> for Attr {
    fn from(v: bool) -> Attr {
        Attr::Bool(v)
    }
}
impl From<&str> for Attr {
    fn from(v: &str) -> Attr {
        Attr::Str(v.to_string())
    }
}
impl From<String> for Attr {
    fn from(v: String) -> Attr {
        Attr::Str(v)
    }
}

/// A leveled event delivered to sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the process-wide epoch (first `mica-obs` use).
    pub ts_us: u64,
    /// Logical thread id (see [`set_worker`]).
    pub tid: u64,
    /// Severity.
    pub level: Level,
    /// Emitting module (`module_path!` of the macro call site).
    pub target: &'static str,
    /// Rendered message.
    pub message: String,
    /// Structured attributes, in insertion order.
    pub attrs: Vec<(&'static str, Attr)>,
}

/// A closed span delivered to sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Start time, microseconds since the process-wide epoch.
    pub ts_us: u64,
    /// Duration in microseconds (monotonic clock).
    pub dur_us: u64,
    /// Logical thread id the span opened and closed on.
    pub tid: u64,
    /// Trace this span belongs to (0 = opened outside any
    /// [`TraceContext`]).
    pub trace_id: u64,
    /// Process-unique id of this span (never 0).
    pub span_id: u64,
    /// Id of the parent span (0 = root of its trace / untraced tree).
    pub parent_id: u64,
    /// Span category (e.g. `"profile"`, `"par"`, `"ga"`).
    pub cat: &'static str,
    /// Span name (e.g. a kernel name).
    pub name: String,
    /// Structured attributes, in insertion order.
    pub attrs: Vec<(&'static str, Attr)>,
}

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

struct State {
    sinks: RwLock<Vec<(u64, Box<dyn Sink>)>>,
    next_sink_id: AtomicU64,
    epoch: Instant,
    thread_names: Mutex<BTreeMap<u64, String>>,
}

static STATE: OnceLock<State> = OnceLock::new();
/// Fast-path caps, recomputed whenever the sink set changes. `MAX_LEVEL`
/// is the most verbose level any sink wants (0 = nothing listens); it
/// starts at the [`UNINIT`] sentinel so the first [`enabled`] /
/// [`spans_enabled`] call runs the environment init — without that, every
/// event before the first `state()` touch would be silently dropped.
/// `SPANS_ON` is whether any sink records spans.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(UNINIT);
const UNINIT: u8 = u8::MAX;
static SPANS_ON: AtomicBool = AtomicBool::new(false);
/// Dispatch totals, for the overhead tests ("disabled ⇒ zero emitted").
static EVENTS_DISPATCHED: AtomicU64 = AtomicU64::new(0);
static SPANS_DISPATCHED: AtomicU64 = AtomicU64::new(0);

fn state() -> &'static State {
    STATE.get_or_init(|| {
        let mut sinks: Vec<(u64, Box<dyn Sink>)> = Vec::new();
        let mut next_id = 0u64;
        let mut push = |sink: Box<dyn Sink>, sinks: &mut Vec<(u64, Box<dyn Sink>)>| {
            sinks.push((next_id, sink));
            next_id += 1;
        };

        // Stderr verbosity: MICA_LOG, defaulting to info.
        let stderr_level = match std::env::var("MICA_LOG") {
            Ok(v) => {
                let parsed = Level::parse(&v);
                if parsed.is_none() && !matches!(v.trim(), "off" | "none" | "0" | "") {
                    eprintln!("warning: unrecognized MICA_LOG={v:?}; logging is off");
                }
                parsed
            }
            Err(_) => Some(Level::Info),
        };
        if let Some(level) = stderr_level {
            push(Box::new(StderrSink::new(level)), &mut sinks);
        }
        if let Some(path) = std::env::var_os("MICA_TRACE") {
            push(Box::new(ChromeTraceSink::create(path.into())), &mut sinks);
        }

        recompute_caps(&sinks);
        State {
            sinks: RwLock::new(sinks),
            next_sink_id: AtomicU64::new(next_id),
            epoch: Instant::now(),
            thread_names: Mutex::new(BTreeMap::new()),
        }
    })
}

/// Recompute the fast-path caps from the sink set. Allocation tracking
/// ([`alloc`]) follows `SPANS_ON`, so every traced run carries it.
fn recompute_caps(sinks: &[(u64, Box<dyn Sink>)]) {
    let max = sinks
        .iter()
        .filter_map(|(_, s)| s.event_interest())
        .map(|l| l as u8)
        .max()
        .unwrap_or(0);
    let spans = sinks.iter().any(|(_, s)| s.wants_spans());
    // Tracking flips before `SPANS_ON` is released, so a span that sees
    // spans on also sees tracking on and records its delta.
    alloc::set_enabled(spans);
    MAX_LEVEL.store(max, Ordering::Release);
    SPANS_ON.store(spans, Ordering::Release);
}

/// Handle returned by [`add_sink`], for later [`remove_sink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkId(u64);

/// Install an additional sink (on top of whatever the environment
/// configured). Used by tests and by embedders that want programmatic
/// capture.
pub fn add_sink(sink: Box<dyn Sink>) -> SinkId {
    let s = state();
    let id = s.next_sink_id.fetch_add(1, Ordering::Relaxed);
    let mut sinks = s.sinks.write().expect("sink registry poisoned");
    sinks.push((id, sink));
    recompute_caps(&sinks);
    SinkId(id)
}

/// Remove (and flush) a sink installed by [`add_sink`] or by the
/// environment init. Returns whether the id was present.
pub fn remove_sink(id: SinkId) -> bool {
    let s = state();
    let mut sinks = s.sinks.write().expect("sink registry poisoned");
    let mut kept = Vec::with_capacity(sinks.len());
    let mut removed = Vec::new();
    for entry in sinks.drain(..) {
        if entry.0 == id.0 {
            removed.push(entry.1);
        } else {
            kept.push(entry);
        }
    }
    *sinks = kept;
    recompute_caps(&sinks);
    drop(sinks);
    for sink in &removed {
        sink.flush();
    }
    !removed.is_empty()
}

/// Flush every installed sink (the trace sink buffers until flushed).
/// Call at the end of a run; the experiments' `Runner` does this.
pub fn flush() {
    let s = state();
    let sinks = s.sinks.read().expect("sink registry poisoned");
    for (_, sink) in sinks.iter() {
        sink.flush();
    }
}

/// Whether events at `level` currently reach any sink. The event macros
/// check this before formatting, so a disabled level costs one atomic
/// load.
pub fn enabled(level: Level) -> bool {
    let mut max = MAX_LEVEL.load(Ordering::Acquire);
    if max == UNINIT {
        state();
        max = MAX_LEVEL.load(Ordering::Acquire);
    }
    level as u8 <= max
}

/// Whether any installed sink records spans. When false, [`span`] returns
/// an inert guard without reading the clock.
pub fn spans_enabled() -> bool {
    if MAX_LEVEL.load(Ordering::Acquire) == UNINIT {
        state();
    }
    SPANS_ON.load(Ordering::Acquire)
}

/// Total (events, spans) delivered to sinks since process start — the
/// overhead tests assert these stay zero while observability is disabled.
pub fn dispatch_totals() -> (u64, u64) {
    (EVENTS_DISPATCHED.load(Ordering::Relaxed), SPANS_DISPATCHED.load(Ordering::Relaxed))
}

fn now_us() -> u64 {
    state().epoch.elapsed().as_micros() as u64
}

/// Microseconds since the process-wide observability epoch — the same
/// clock every [`SpanRecord::ts_us`] uses. Callers that synthesize spans
/// with explicit start times ([`emit_span_record`]) read it to stamp
/// their timestamps in the same timeline.
pub fn timestamp_us() -> u64 {
    now_us()
}

// ---------------------------------------------------------------------------
// Thread identity
// ---------------------------------------------------------------------------

/// Anonymous (non-worker, non-main) threads get ids from 1000 up so they
/// can never collide with `set_worker` ids.
static NEXT_ANON_TID: AtomicU64 = AtomicU64::new(1000);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
}

fn register_thread_name(tid: u64, name: String) {
    let mut names = state().thread_names.lock().expect("thread names poisoned");
    names.entry(tid).or_insert(name);
}

/// The calling thread's logical id: 0 for the main thread, `1 + index`
/// for pool workers that called [`set_worker`], 1000+ for anything else.
pub fn current_tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != u64::MAX {
            return v;
        }
        let current = std::thread::current();
        let id = if current.name() == Some("main") {
            0
        } else {
            NEXT_ANON_TID.fetch_add(1, Ordering::Relaxed)
        };
        register_thread_name(
            id,
            match current.name() {
                Some(n) => n.to_string(),
                None => format!("thread-{id}"),
            },
        );
        t.set(id);
        id
    })
}

/// Claim logical thread id `1 + index` for the calling thread and name it
/// `worker-<index>`. The `mica-par` pool calls this as each worker starts,
/// so every `par_map` invocation reuses the same small set of Chrome-trace
/// tracks instead of minting a fresh track per spawned thread.
pub fn set_worker(index: usize) {
    let id = 1 + index as u64;
    TID.with(|t| t.set(id));
    register_thread_name(id, format!("worker-{index}"));
}

/// Claim a *stable* logical thread id for a long-lived service thread
/// (a daemon's accept loop or dispatcher) and name its trace track.
/// Slots are caller-assigned and map to tids `900 + slot`, a range
/// disjoint from the main thread (0), pool workers (1+) and anonymous
/// threads (1000+), so the same service lands on the same Chrome-trace
/// track in every run. Callers must use distinct slots for distinct
/// services; `slot` is clamped below 100 to keep the range closed.
pub fn set_service_thread(slot: u64, name: &str) {
    let id = 900 + slot.min(99);
    TID.with(|t| t.set(id));
    let mut names = state().thread_names.lock().expect("thread names poisoned");
    names.insert(id, name.to_string());
}

/// Snapshot of every (tid, name) seen so far, ascending by tid. The
/// Chrome-trace sink turns this into `thread_name` metadata at flush.
pub fn thread_names() -> Vec<(u64, String)> {
    state()
        .thread_names
        .lock()
        .expect("thread names poisoned")
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .collect()
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Emit a leveled event with no attributes. Prefer the [`info!`]-style
/// macros, which skip formatting when the level is disabled.
pub fn emit(level: Level, target: &'static str, message: String) {
    emit_with(level, target, message, Vec::new());
}

/// Emit a leveled event with structured attributes.
pub fn emit_with(
    level: Level,
    target: &'static str,
    message: String,
    attrs: Vec<(&'static str, Attr)>,
) {
    if !enabled(level) {
        return;
    }
    let event = Event { ts_us: now_us(), tid: current_tid(), level, target, message, attrs };
    EVENTS_DISPATCHED.fetch_add(1, Ordering::Relaxed);
    let sinks = state().sinks.read().expect("sink registry poisoned");
    for (_, sink) in sinks.iter() {
        if sink.event_interest().is_some_and(|max| level <= max) {
            sink.on_event(&event);
        }
    }
}

/// Emit an [`Level::Error`] event; `mica_obs::error!("...", args)`.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Error) {
            $crate::emit($crate::Level::Error, module_path!(), format!($($arg)*));
        }
    };
}

/// Emit a [`Level::Warn`] event; `mica_obs::warn!("...", args)`.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Warn) {
            $crate::emit($crate::Level::Warn, module_path!(), format!($($arg)*));
        }
    };
}

/// Emit an [`Level::Info`] event; `mica_obs::info!("...", args)`.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Info) {
            $crate::emit($crate::Level::Info, module_path!(), format!($($arg)*));
        }
    };
}

/// Emit a [`Level::Debug`] event; `mica_obs::debug!("...", args)`.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Debug) {
            $crate::emit($crate::Level::Debug, module_path!(), format!($($arg)*));
        }
    };
}

/// Emit a [`Level::Trace`] event; `mica_obs::trace!("...", args)`.
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Trace) {
            $crate::emit($crate::Level::Trace, module_path!(), format!($($arg)*));
        }
    };
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct SpanInner {
    cat: &'static str,
    name: String,
    ts_us: u64,
    tid: u64,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    /// The thread's context before this span installed itself; restored
    /// at close.
    prev_ctx: Option<TraceContext>,
    attrs: Vec<(&'static str, Attr)>,
    /// Thread (allocations, bytes) at open time, when allocation
    /// tracking was on; the close attaches the delta as `alloc_n` /
    /// `alloc_b` attributes (inclusive of children).
    alloc0: Option<(u64, u64)>,
}

/// RAII guard for a timed span. Created by [`span`]; the span closes (and
/// is delivered to sinks) when the guard drops. Guards must drop in LIFO
/// order on a given thread — the natural consequence of holding them in
/// local scopes.
#[must_use = "a span closes when its guard drops; binding it to _ closes it immediately"]
pub struct Span(Option<SpanInner>);

/// Open a span. When no installed sink records spans this returns an
/// inert guard without touching the clock or the thread's context.
pub fn span(cat: &'static str, name: impl Into<String>) -> Span {
    if !spans_enabled() {
        return Span(None);
    }
    let (trace_id, span_id, parent_id, prev_ctx) = context::enter_span();
    Span(Some(SpanInner {
        cat,
        name: name.into(),
        ts_us: now_us(),
        tid: current_tid(),
        trace_id,
        span_id,
        parent_id,
        prev_ctx,
        attrs: Vec::new(),
        alloc0: alloc::enabled().then(alloc::thread_totals),
    }))
}

impl Span {
    /// Attach a structured attribute (recorded at close). No-op on an
    /// inert guard, so callers can compute attribute values cheaply and
    /// unconditionally.
    pub fn attr(&mut self, key: &'static str, value: impl Into<Attr>) {
        if let Some(inner) = &mut self.0 {
            inner.attrs.push((key, value.into()));
        }
    }

    /// Whether this guard will produce a record (false when spans were
    /// disabled at open time). Lets callers skip *expensive* attribute
    /// computation.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(mut inner) = self.0.take() else { return };
        context::exit_span(inner.prev_ctx);
        if let Some((n0, b0)) = inner.alloc0 {
            let (n1, b1) = alloc::thread_totals();
            inner.attrs.push(("alloc_n", Attr::U64(n1.saturating_sub(n0))));
            inner.attrs.push(("alloc_b", Attr::U64(b1.saturating_sub(b0))));
        }
        // End time comes from the same epoch clock as the start, so a
        // child's [ts, ts+dur] interval is always contained in its
        // parent's — truncating two different clock reads could put a
        // child's end 1us past its parent's.
        let record = SpanRecord {
            ts_us: inner.ts_us,
            dur_us: now_us().saturating_sub(inner.ts_us),
            tid: inner.tid,
            trace_id: inner.trace_id,
            span_id: inner.span_id,
            parent_id: inner.parent_id,
            cat: inner.cat,
            name: inner.name,
            attrs: inner.attrs,
        };
        emit_span_record(record);
    }
}

/// Deliver a pre-built [`SpanRecord`] to every span-recording sink.
///
/// This is the escape hatch for *synthetic* spans whose lifetime does not
/// match a lexical scope — e.g. the serve daemon's per-request root span,
/// which opens at admission on one thread and closes after the response
/// is written on another. The caller supplies explicit `ts_us` (from
/// [`timestamp_us`]) and ids (from [`TraceContext::fresh`] /
/// [`next_span_id`]); nothing is added or checked. No-op when spans are
/// disabled.
pub fn emit_span_record(record: SpanRecord) {
    if !spans_enabled() {
        return;
    }
    SPANS_DISPATCHED.fetch_add(1, Ordering::Relaxed);
    let sinks = state().sinks.read().expect("sink registry poisoned");
    for (_, sink) in sinks.iter() {
        if sink.wants_spans() {
            sink.on_span(&record);
        }
    }
}

// ---------------------------------------------------------------------------
// JSON rendering helpers (for the trace sink)
// ---------------------------------------------------------------------------

/// Append `s` to `out` as a JSON string literal.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append an [`Attr`] to `out` as a JSON value.
pub(crate) fn push_json_attr(out: &mut String, attr: &Attr) {
    match attr {
        Attr::U64(v) => out.push_str(&v.to_string()),
        Attr::I64(v) => out.push_str(&v.to_string()),
        Attr::F64(v) if v.is_finite() => out.push_str(&v.to_string()),
        Attr::F64(_) => out.push_str("null"),
        Attr::Str(s) => push_json_str(out, s),
        Attr::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
    }
}

/// Append `attrs` to `out` as a JSON object.
pub(crate) fn push_json_attrs(out: &mut String, attrs: &[(&'static str, Attr)]) {
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        push_json_attr(out, v);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("warn"), Some(Level::Warn));
        assert_eq!(Level::parse("TRACE"), Some(Level::Trace));
        assert_eq!(Level::parse("off"), None);
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn attr_conversions_render() {
        let attrs: Vec<Attr> =
            vec![7u64.into(), (-3i64).into(), 1.5f64.into(), "x".into(), true.into()];
        let rendered: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
        assert_eq!(rendered, ["7", "-3", "1.5", "x", "true"]);
    }

    #[test]
    fn json_string_escaping() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\n\u{01}");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn json_attrs_object() {
        let mut out = String::new();
        push_json_attrs(
            &mut out,
            &[("n", Attr::U64(3)), ("bad", Attr::F64(f64::NAN)), ("ok", Attr::Bool(false))],
        );
        assert_eq!(out, "{\"n\":3,\"bad\":null,\"ok\":false}");
    }

    #[test]
    fn memory_sink_captures_events_and_spans() {
        let sink = MemorySink::new();
        let id = add_sink(Box::new(sink.clone()));
        emit_with(
            Level::Info,
            "obs::test::capture",
            "hello".into(),
            vec![("k", Attr::U64(1))],
        );
        {
            let mut s = span("obs-test-capture", "outer");
            s.attr("inner", 0u64);
            let _inner = span("obs-test-capture", "inner");
        }
        remove_sink(id);
        let events: Vec<Event> =
            sink.events().into_iter().filter(|e| e.target == "obs::test::capture").collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].message, "hello");
        assert_eq!(events[0].attrs, vec![("k", Attr::U64(1))]);
        let spans: Vec<SpanRecord> =
            sink.spans().into_iter().filter(|s| s.cat == "obs-test-capture").collect();
        assert_eq!(spans.len(), 2);
        // Inner closes first and parents to outer on the same thread.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[0].parent_id, spans[1].span_id);
        assert_eq!(spans[0].tid, spans[1].tid);
        // Inner is contained in outer.
        assert!(spans[0].ts_us >= spans[1].ts_us);
        assert!(spans[0].ts_us + spans[0].dur_us <= spans[1].ts_us + spans[1].dur_us);
    }

    #[test]
    fn spans_record_connected_context_ids() {
        let sink = MemorySink::new();
        let id = add_sink(Box::new(sink.clone()));
        let root = TraceContext::fresh();
        {
            let _g = install_context(Some(root));
            let _outer = span("obs-test-ctx", "outer");
            let _inner = span("obs-test-ctx", "inner");
        }
        let _stray = span("obs-test-ctx", "stray");
        drop(_stray);
        remove_sink(id);
        let spans: Vec<SpanRecord> =
            sink.spans().into_iter().filter(|s| s.cat == "obs-test-ctx").collect();
        assert_eq!(spans.len(), 3);
        let (inner, outer, stray) = (&spans[0], &spans[1], &spans[2]);
        assert_eq!(outer.trace_id, root.trace_id);
        assert_eq!(outer.parent_id, root.span_id, "outer parents to the installed context");
        assert_eq!(inner.trace_id, root.trace_id);
        assert_eq!(inner.parent_id, outer.span_id, "inner parents to outer");
        assert_ne!(inner.span_id, outer.span_id);
        // Outside the guard the thread is untraced again.
        assert_eq!(stray.trace_id, 0);
        assert_eq!(stray.parent_id, 0);
        assert_ne!(stray.span_id, 0);
    }

    #[test]
    fn synthetic_span_records_reach_sinks_verbatim() {
        let sink = MemorySink::new();
        let id = add_sink(Box::new(sink.clone()));
        let ctx = TraceContext::fresh();
        let ts = timestamp_us();
        emit_span_record(SpanRecord {
            ts_us: ts,
            dur_us: 42,
            tid: 900,
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: 0,
            cat: "obs-test-synth",
            name: "request".to_string(),
            attrs: vec![("outcome", Attr::Str("ok".to_string()))],
        });
        remove_sink(id);
        let spans: Vec<SpanRecord> =
            sink.spans().into_iter().filter(|s| s.cat == "obs-test-synth").collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].ts_us, ts);
        assert_eq!(spans[0].dur_us, 42);
        assert_eq!(spans[0].trace_id, ctx.trace_id);
        assert_eq!(spans[0].span_id, ctx.span_id);
    }

    #[test]
    fn removing_a_sink_stops_delivery() {
        let sink = MemorySink::new();
        let id = add_sink(Box::new(sink.clone()));
        assert!(remove_sink(id));
        assert!(!remove_sink(id), "second removal reports absence");
        emit(Level::Info, "obs::test::removed", "dropped".into());
        assert!(sink.events().iter().all(|e| e.target != "obs::test::removed"));
    }
}
