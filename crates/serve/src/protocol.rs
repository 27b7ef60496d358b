//! The wire protocol: one JSON object per line, both directions.
//!
//! Requests are parsed **leniently** by hand, in one pass over their
//! fields (unknown fields ignored, optional fields defaulted), so old
//! clients keep working as the protocol grows; responses are emitted with
//! *every* field present (`null` for absent options) so the strict derived
//! deserializer on the client side — and any other consumer — can rely on
//! the full shape. [`Response`] defines that shape; an `ok` answer is
//! written by [`AnswerJson::render`], which copies JSON rendered at boot
//! into the same bytes.
//!
//! ```text
//! → {"id":"q1","kind":"table","name":"MiBench/sha/large","k":3}
//! → {"id":"q2","kind":"zoo","name":"MiBench/sha/large","seed":7,"scale":0.5}
//! → {"id":"q3","kind":"asm","asm":"li x7, 99\nloop:\naddi x7, x7, -1\nbne x7, x0, loop\nhalt","budget":50000,"deadline_ms":500}
//! → {"id":"q4","kind":"ops","op":"metrics"}
//! ← {"id":"q1","status":"ok","error":null,"retry_after_ms":null,"result":{...},"provenance":{...},"trace":"0123456789abcdef","ops":null}
//! ```
//!
//! Statuses: `ok`, `error` (bad request / failed execution), `panic`
//! (submission quarantined), `deadline` (cancelled past its deadline),
//! `overloaded` and `draining` (admission rejections; `retry_after_ms`
//! hints when to retry).
//!
//! The `ops` family (`op`: `health`, `ready`, `metrics`, `stats`) is
//! answered on the reader thread, bypasses the admission queue entirely,
//! and keeps answering during a drain — it is the daemon's live control
//! plane, not a submission. Its payload rides in the `ops` field: `health`
//! gives status and uptime, `ready` whether admission is open, `stats`
//! the queue depth, in-flight count and drain flag, and `metrics` a text
//! exposition of every counter's lifetime total and every histogram's
//! count, mean, p50 and p99.
//!
//! Every response also echoes a server-minted `trace` id (16 lowercase
//! hex digits) identifying the request's span tree in the `MICA_TRACE`
//! file, so client logs correlate with server traces.

use serde::value::{Number, Value};
use serde::{Deserialize, Serialize};
use serde_json::Scalar;
use std::borrow::Cow;

/// What kind of submission a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A benchmark of the reference table by name — answered from the
    /// warm profile set, byte-identical to the batch pipeline.
    Table,
    /// A re-parameterized zoo instance: a table benchmark's kernel with a
    /// custom data seed and/or budget scale.
    Zoo,
    /// A tinyisa assembly listing (see [`crate::asmtext`]).
    Asm,
    /// A control-plane query (`op`: `health`/`ready`/`metrics`/`stats`),
    /// answered immediately on the reader thread — never queued, never
    /// refused during a drain.
    Ops,
}

impl RequestKind {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Table => "table",
            RequestKind::Zoo => "zoo",
            RequestKind::Asm => "asm",
            RequestKind::Ops => "ops",
        }
    }

    fn parse(s: &str) -> Option<RequestKind> {
        match s {
            "table" => Some(RequestKind::Table),
            "zoo" => Some(RequestKind::Zoo),
            "asm" => Some(RequestKind::Asm),
            "ops" => Some(RequestKind::Ops),
            _ => None,
        }
    }
}

/// One client submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: String,
    /// Submission kind.
    pub kind: RequestKind,
    /// `table`/`zoo`: full `suite/program/input` benchmark name.
    pub name: Option<String>,
    /// `zoo`: data-seed override (defaults to the table seed).
    pub seed: Option<u64>,
    /// `zoo`: budget-scale override (defaults to the server's
    /// `MICA_SCALE`).
    pub scale: Option<f64>,
    /// `asm`: the assembly listing.
    pub asm: Option<String>,
    /// `asm`: dynamic-instruction budget (by default the program runs to
    /// `halt`, bounded by its deadline).
    pub budget: Option<u64>,
    /// Per-request deadline in milliseconds, counted from admission
    /// (defaults to [`crate::DEFAULT_DEADLINE_MS`], clamped to
    /// [`crate::MAX_DEADLINE_MS`]). Work still running at the deadline is
    /// cancelled and answered `deadline`.
    pub deadline_ms: Option<u64>,
    /// Neighbors to return (default 5).
    pub k: Option<u64>,
    /// Distance metric: `euclidean` (default) or `cosine`.
    pub metric: Option<String>,
    /// `ops`: which control-plane query to answer (`health`, `ready`,
    /// `metrics` or `stats`; defaults to `health`).
    pub op: Option<String>,
}

impl Request {
    /// A minimal request of the given kind (tests and client builders).
    pub fn new(id: impl Into<String>, kind: RequestKind) -> Request {
        Request {
            id: id.into(),
            kind,
            name: None,
            seed: None,
            scale: None,
            asm: None,
            budget: None,
            deadline_ms: None,
            k: None,
            metric: None,
            op: None,
        }
    }
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        fn opt<T: Serialize>(v: &Option<T>) -> Value {
            v.as_ref().map(Serialize::to_value).unwrap_or(Value::Null)
        }
        Value::Object(vec![
            ("id".into(), Value::String(self.id.clone())),
            ("kind".into(), Value::String(self.kind.name().into())),
            ("name".into(), opt(&self.name)),
            ("seed".into(), opt(&self.seed)),
            ("scale".into(), opt(&self.scale)),
            ("asm".into(), opt(&self.asm)),
            ("budget".into(), opt(&self.budget)),
            ("deadline_ms".into(), opt(&self.deadline_ms)),
            ("k".into(), opt(&self.k)),
            ("metric".into(), opt(&self.metric)),
            ("op".into(), opt(&self.op)),
        ])
    }
}

/// Response status codes, as strings on the wire (the compat serde derive
/// only covers unit enums in structs it can see whole; statuses stay
/// strings so unknown future codes degrade gracefully client-side).
pub mod status {
    /// Query answered.
    pub const OK: &str = "ok";
    /// Bad request or failed execution; `error` explains.
    pub const ERROR: &str = "error";
    /// The submission panicked and was quarantined.
    pub const PANIC: &str = "panic";
    /// The submission exceeded its deadline and was cancelled.
    pub const DEADLINE: &str = "deadline";
    /// Admission queue full or shedding; retry after `retry_after_ms`.
    pub const OVERLOADED: &str = "overloaded";
    /// Server is draining; this request was rejected.
    pub const DRAINING: &str = "draining";
}

/// One neighbor on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeighborEntry {
    /// Reference benchmark name.
    pub name: String,
    /// Distance under the requested metric.
    pub distance: f64,
}

/// The answer to a successful query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// Canonical name of what was characterized.
    pub name: String,
    /// The 47-metric MICA vector (raw values).
    pub vector: Vec<f64>,
    /// Projection into the z-scored 8-dimensional GA space.
    pub projection: Vec<f64>,
    /// `k` nearest reference benchmarks, ascending by distance.
    pub neighbors: Vec<NeighborEntry>,
    /// Distance metric the neighbors were ranked under.
    pub metric: String,
    /// Dynamic instructions executed to characterize this submission
    /// (0 when answered from a cache).
    pub executed_instructions: u64,
    /// Whether the vector came from the warm profile set or the
    /// submission index instead of a fresh simulation.
    pub cached: bool,
}

/// The sprout-style provenance block: everything needed to decide whether
/// two answers, possibly taken months apart, are comparable. It holds only
/// what can change an answer: not the pool width (answers are
/// byte-identical at any `MICA_THREADS`) and no deployment setting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Server build: crate name and version.
    pub server: String,
    /// Fingerprint of the benchmark table the server was built with.
    pub table_fingerprint: u64,
    /// Fingerprint of the profile layout (table × metric count).
    pub profile_fingerprint: u64,
    /// Budget scale of the warm profile set (`MICA_SCALE`).
    pub scale: f64,
    /// GA-selected metric indices defining the projection space.
    pub selected_metrics: Vec<u64>,
    /// The GA's correlation fitness ρ for that selection.
    pub ga_rho: f64,
}

/// One server reply. Every field is always present on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The request's correlation id (`"?"` when the request line did not
    /// parse far enough to recover one).
    pub id: String,
    /// One of the [`status`] codes.
    pub status: String,
    /// Human-readable diagnostics for non-`ok` statuses.
    pub error: Option<String>,
    /// Backpressure hint: retry no sooner than this many milliseconds.
    pub retry_after_ms: Option<u64>,
    /// The answer, on `ok`.
    pub result: Option<QueryResult>,
    /// Provenance block (present on `ok`; `null` on rejections, which are
    /// not answers).
    pub provenance: Option<Provenance>,
    /// Server-minted trace id for this request, 16 lowercase hex digits
    /// ([`mica_obs::TraceContext::trace_hex`]). Present on every outcome —
    /// including refusals — so client logs correlate with server traces.
    pub trace: Option<String>,
    /// Control-plane payload for `ops` answers: the `metrics` text
    /// exposition, or a one-line JSON document for `health`/`ready`/
    /// `stats`. `null` on submission answers.
    pub ops: Option<String>,
}

impl Response {
    /// A non-`ok` reply with no result.
    pub fn refusal(id: &str, status_code: &str, error: impl Into<String>) -> Response {
        Response {
            id: id.to_string(),
            status: status_code.to_string(),
            error: Some(error.into()),
            retry_after_ms: None,
            result: None,
            provenance: None,
            trace: None,
            ops: None,
        }
    }
}

/// Parse one request line in one pass over its fields, building no value
/// tree. Unknown fields are skipped, `null` counts as absent, and the first
/// of duplicate keys wins.
///
/// # Errors
///
/// A rendered parse error; the caller turns it into an `error` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut f = RequestFields::default();
    let top = serde_json::walk_fields(line, |key, value| {
        let slot = match key {
            "id" => &mut f.id,
            "kind" => &mut f.kind,
            "name" => &mut f.name,
            "seed" => &mut f.seed,
            "scale" => &mut f.scale,
            "asm" => &mut f.asm,
            "budget" => &mut f.budget,
            "deadline_ms" => &mut f.deadline_ms,
            "k" => &mut f.k,
            "metric" => &mut f.metric,
            "op" => &mut f.op,
            _ => return,
        };
        slot.get_or_insert(value);
    })
    .map_err(|e| e.to_string())?;
    if top != Scalar::Object {
        return Err(format!("request must be an object, got {}", top.kind()));
    }
    let id = text("id", f.id)?.ok_or("request is missing `id`")?;
    let kind = text("kind", f.kind)?.ok_or("request is missing `kind`")?;
    let kind = RequestKind::parse(&kind)
        .ok_or_else(|| format!("unknown kind `{kind}` (want table, zoo, asm or ops)"))?;
    let owned = |field, value| text(field, value).map(|s| s.map(Cow::into_owned));
    Ok(Request {
        id: id.into_owned(),
        kind,
        name: owned("name", f.name)?,
        seed: unsigned("seed", f.seed)?,
        scale: float("scale", f.scale)?,
        asm: owned("asm", f.asm)?,
        budget: unsigned("budget", f.budget)?,
        deadline_ms: unsigned("deadline_ms", f.deadline_ms)?,
        k: unsigned("k", f.k)?,
        metric: owned("metric", f.metric)?,
        op: owned("op", f.op)?,
    })
}

/// The first value of each [`Request`] field on a line.
#[derive(Default)]
struct RequestFields<'a> {
    id: Option<Scalar<'a>>,
    kind: Option<Scalar<'a>>,
    name: Option<Scalar<'a>>,
    seed: Option<Scalar<'a>>,
    scale: Option<Scalar<'a>>,
    asm: Option<Scalar<'a>>,
    budget: Option<Scalar<'a>>,
    deadline_ms: Option<Scalar<'a>>,
    k: Option<Scalar<'a>>,
    metric: Option<Scalar<'a>>,
    op: Option<Scalar<'a>>,
}

fn text<'a>(field: &str, value: Option<Scalar<'a>>) -> Result<Option<Cow<'a, str>>, String> {
    match value {
        None | Some(Scalar::Null) => Ok(None),
        Some(Scalar::String(s)) => Ok(Some(s)),
        Some(other) => Err(format!("`{field}` must be a string, got {}", other.kind())),
    }
}

fn number(field: &str, value: Option<Scalar>) -> Result<Option<Number>, String> {
    match value {
        None | Some(Scalar::Null) => Ok(None),
        Some(Scalar::Number(n)) => Ok(Some(n)),
        Some(other) => Err(format!("`{field}` must be a number, got {}", other.kind())),
    }
}

fn unsigned(field: &str, value: Option<Scalar>) -> Result<Option<u64>, String> {
    number(field, value)?
        .map(|n| n.as_u64().ok_or_else(|| format!("`{field}` must be a non-negative integer")))
        .transpose()
}

fn float(field: &str, value: Option<Scalar>) -> Result<Option<f64>, String> {
    Ok(number(field, value)?.map(Number::as_f64))
}

/// Best-effort extraction of the `id` from an unparseable request line, so
/// the error response still correlates.
pub fn salvage_id(line: &str) -> String {
    serde_json::from_str::<Value>(line)
        .ok()
        .as_ref()
        .and_then(|v| v.field("id").cloned())
        .and_then(|v| match v {
            Value::String(s) => Some(s),
            Value::Number(n) => n.as_u64().map(|u| u.to_string()),
            _ => None,
        })
        .unwrap_or_else(|| "?".to_string())
}

/// Render a response as its wire line (no trailing newline).
pub fn render_response(resp: &Response) -> String {
    serde_json::to_string(resp).expect("Response serializes")
}

/// `value` as compact JSON.
fn json(value: &impl Serialize) -> String {
    serde_json::to_string(value).expect("JSON rendering cannot fail")
}

/// A characterized kernel as an `ok` answer carries it: its name, raw
/// vector and projection, each rendered once as JSON, and the instructions
/// characterizing it executed.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelJson {
    name: String,
    vector: String,
    projection: String,
    executed_instructions: u64,
}

impl KernelJson {
    /// Render the parts of a [`QueryResult`] that no request changes.
    pub fn new(
        name: &str,
        vector: &[f64],
        projection: &[f64],
        executed_instructions: u64,
    ) -> KernelJson {
        KernelJson {
            name: json(&name),
            vector: json(&vector),
            projection: json(&projection),
            executed_instructions,
        }
    }

    /// [`QueryResult::executed_instructions`].
    pub fn executed_instructions(&self) -> u64 {
        self.executed_instructions
    }
}

/// An `ok` answer as the server writes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer<'a> {
    /// What was characterized; a reference kernel is borrowed from the
    /// boot-time [`AnswerJson`].
    pub kernel: Cow<'a, KernelJson>,
    /// The nearest references as `(distance, reference row)`, ascending.
    pub neighbors: Vec<(f64, usize)>,
    /// Wire name of the distance metric.
    pub metric: &'static str,
    /// [`QueryResult::cached`].
    pub cached: bool,
}

/// What every `ok` answer of one server shares, rendered once at boot:
/// each reference kernel (a table lookup's whole kernel, and every
/// neighbor's name) and the provenance block.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerJson {
    references: Vec<KernelJson>,
    provenance: String,
}

impl AnswerJson {
    /// The reference kernels by row, and the provenance every answer
    /// carries.
    pub fn new(references: Vec<KernelJson>, provenance: &Provenance) -> AnswerJson {
        AnswerJson { references, provenance: json(provenance) }
    }

    /// Reference kernel `row`.
    pub fn reference(&self, row: usize) -> &KernelJson {
        &self.references[row]
    }

    /// The wire line of an `ok` answer (no trailing newline): the bytes
    /// [`render_response`] writes for the same [`Response`], whose derived
    /// layout this follows field for field. The boot-time JSON is copied
    /// in, so only the neighbors' distances are formatted here.
    pub fn render(&self, id: &str, trace: &str, answer: &Answer) -> String {
        let kernel = &answer.kernel;
        let mut out = String::with_capacity(
            256 + kernel.vector.len()
                + kernel.projection.len()
                + self.provenance.len()
                + 96 * answer.neighbors.len(),
        );
        out.push_str("{\"id\":");
        id.write_json(&mut out);
        out.push_str(",\"status\":\"ok\",\"error\":null,\"retry_after_ms\":null");
        out.push_str(",\"result\":{\"name\":");
        out.push_str(&kernel.name);
        out.push_str(",\"vector\":");
        out.push_str(&kernel.vector);
        out.push_str(",\"projection\":");
        out.push_str(&kernel.projection);
        out.push_str(",\"neighbors\":[");
        for (i, &(distance, row)) in answer.neighbors.iter().enumerate() {
            out.push_str(if i == 0 { "{\"name\":" } else { ",{\"name\":" });
            out.push_str(&self.references[row].name);
            out.push_str(",\"distance\":");
            distance.write_json(&mut out);
            out.push('}');
        }
        out.push_str("],\"metric\":");
        answer.metric.write_json(&mut out);
        out.push_str(",\"executed_instructions\":");
        kernel.executed_instructions.write_json(&mut out);
        out.push_str(",\"cached\":");
        answer.cached.write_json(&mut out);
        out.push_str("},\"provenance\":");
        out.push_str(&self.provenance);
        out.push_str(",\"trace\":");
        trace.write_json(&mut out);
        out.push_str(",\"ops\":null}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenient_request_parsing() {
        let r = parse_request(r#"{"id":"a","kind":"table","name":"x/y/z","k":3,"junk":true}"#)
            .unwrap();
        assert_eq!(r.id, "a");
        assert_eq!(r.kind, RequestKind::Table);
        assert_eq!(r.name.as_deref(), Some("x/y/z"));
        assert_eq!(r.k, Some(3));
        assert_eq!(r.seed, None);

        assert!(parse_request(r#"{"kind":"table"}"#).unwrap_err().contains("id"));
        assert!(parse_request(r#"{"id":"a","kind":"nope"}"#).unwrap_err().contains("nope"));
        assert!(parse_request("[1,2]").unwrap_err().contains("object"));
        assert!(parse_request("not json").is_err());

        let ops = parse_request(r#"{"id":"m","kind":"ops","op":"metrics"}"#).unwrap();
        assert_eq!(ops.kind, RequestKind::Ops);
        assert_eq!(ops.op.as_deref(), Some("metrics"));
    }

    #[test]
    fn request_serialization_round_trips() {
        let mut r = Request::new("q7", RequestKind::Zoo);
        r.name = Some("a/b/c".into());
        r.seed = Some(42);
        r.scale = Some(0.5);
        r.deadline_ms = Some(100);
        let line = serde_json::to_string(&r).unwrap();
        let back = parse_request(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn response_round_trips_with_all_fields() {
        let resp = Response {
            id: "q1".into(),
            status: status::OK.into(),
            error: None,
            retry_after_ms: None,
            result: Some(QueryResult {
                name: "n".into(),
                vector: vec![1.0, 2.5],
                projection: vec![0.5],
                neighbors: vec![NeighborEntry { name: "m".into(), distance: 0.25 }],
                metric: "euclidean".into(),
                executed_instructions: 10_000,
                cached: false,
            }),
            provenance: Some(Provenance {
                server: "mica-serve 0.1.0".into(),
                table_fingerprint: 7,
                profile_fingerprint: 9,
                scale: 1.0,
                selected_metrics: vec![1, 5],
                ga_rho: 0.9,
            }),
            trace: Some("00000000deadbeef".into()),
            ops: None,
        };
        let line = render_response(&resp);
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn refusals_and_id_salvage() {
        let mut r = Response::refusal("x", status::OVERLOADED, "queue full");
        r.trace = Some("0000000000000001".into());
        assert_eq!(r.status, "overloaded");
        let line = render_response(&r);
        assert!(line.contains(r#""trace":"0000000000000001""#), "trace echoed: {line}");
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, r);

        assert_eq!(salvage_id(r#"{"id":"q9","kind":"bogus"}"#), "q9");
        assert_eq!(salvage_id("garbage"), "?");
    }
}
