//! The wire protocol: one JSON object per line, both directions.
//!
//! Requests are parsed **leniently** by hand (unknown fields ignored,
//! optional fields defaulted) so old clients keep working as the protocol
//! grows; responses are emitted with *every* field present (`null` for
//! absent options) so the strict derived deserializer on the client side
//! — and any other consumer — can rely on the full shape.
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

use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};

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

fn get_str(v: &Value, field: &str) -> Result<Option<String>, DeError> {
    match v.field(field) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.clone())),
        Some(other) => Err(DeError::new(format!("`{field}` must be a string, got {}", other.kind()))),
    }
}

fn get_u64(v: &Value, field: &str) -> Result<Option<u64>, DeError> {
    match v.field(field) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Number(n)) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| DeError::new(format!("`{field}` must be a non-negative integer"))),
        Some(other) => Err(DeError::new(format!("`{field}` must be a number, got {}", other.kind()))),
    }
}

fn get_f64(v: &Value, field: &str) -> Result<Option<f64>, DeError> {
    match v.field(field) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Number(n)) => Ok(Some(n.as_f64())),
        Some(other) => Err(DeError::new(format!("`{field}` must be a number, got {}", other.kind()))),
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if v.as_object().is_none() {
            return Err(DeError::new(format!("request must be an object, got {}", v.kind())));
        }
        let id = get_str(v, "id")?.ok_or_else(|| DeError::new("request is missing `id`"))?;
        let kind = get_str(v, "kind")?.ok_or_else(|| DeError::new("request is missing `kind`"))?;
        let kind = RequestKind::parse(&kind).ok_or_else(|| {
            DeError::new(format!("unknown kind `{kind}` (want table, zoo, asm or ops)"))
        })?;
        Ok(Request {
            id,
            kind,
            name: get_str(v, "name")?,
            seed: get_u64(v, "seed")?,
            scale: get_f64(v, "scale")?,
            asm: get_str(v, "asm")?,
            budget: get_u64(v, "budget")?,
            deadline_ms: get_u64(v, "deadline_ms")?,
            k: get_u64(v, "k")?,
            metric: get_str(v, "metric")?,
            op: get_str(v, "op")?,
        })
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

/// One `MICA_*` environment variable captured in the provenance block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvEntry {
    /// Variable name.
    pub name: String,
    /// Its value at server start.
    pub value: String,
}

/// The sprout-style provenance block: everything needed to decide whether
/// two answers, possibly taken months apart, are comparable.
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
    /// Worker-pool width.
    pub threads: u64,
    /// GA-selected metric indices defining the projection space.
    pub selected_metrics: Vec<u64>,
    /// The GA's correlation fitness ρ for that selection.
    pub ga_rho: f64,
    /// `MICA_*` environment at server start, sorted by name.
    pub env: Vec<EnvEntry>,
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

/// Parse one request line.
///
/// # Errors
///
/// A rendered parse error; the caller turns it into an `error` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    serde_json::from_str::<Request>(line).map_err(|e| e.to_string())
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
                threads: 4,
                selected_metrics: vec![1, 5],
                ga_rho: 0.9,
                env: vec![EnvEntry { name: "MICA_SCALE".into(), value: "1.0".into() }],
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
