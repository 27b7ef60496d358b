//! End-to-end observability: one in-process server with a Chrome-trace
//! sink, driven through data-plane queries and ops scrapes, then drained
//! — verifying the tentpole promises from the *artifacts*:
//!
//! - every response echoes a 16-hex trace id, and one request's spans
//!   form one connected tree under that id in the written Chrome trace
//!   (root `request` span, `queue` span, engine spans — no orphans);
//! - the ops plane answers `health`/`ready`/`metrics`/`stats`, keeps
//!   answering mid-drain, and flips `ready` to false while draining;
//! - observation is pure: a traced, scraped `table` answer is
//!   byte-identical to the batch pipeline's profile of the same kernel;
//! - the access log records every request line with the schema-stable
//!   [`AccessEntry`] shape, including the outcomes `mica-prof slo` scores
//!   (data-plane answers) and excludes (ops scrapes, refusals).
//!
//! One `#[test]` on purpose: the scenario owns the process environment
//! (`MICA_RESULTS_DIR`, `MICA_SCALE`, `MICA_THREADS`), which does not
//! tolerate a concurrent sibling test.

use mica_serve::client;
use mica_serve::protocol::{status, Request, RequestKind, Response};
use mica_serve::server::{spawn, AccessEntry};
use mica_serve::ServeConfig;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

struct RawConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn open(addr: &str) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        RawConn { stream, reader }
    }

    fn roundtrip(&mut self, req: &Request) -> Response {
        let mut line = client::render_request(req);
        line.push('\n');
        self.stream.write_all(line.as_bytes()).expect("send");
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("recv");
        assert!(n > 0, "server closed connection unexpectedly");
        serde_json::from_str(reply.trim_end()).expect("parseable response")
    }
}

fn ops_request(id: &str, op: &str) -> Request {
    let mut req = Request::new(id, RequestKind::Ops);
    req.op = Some(op.to_string());
    req
}

fn assert_trace_hex(resp: &Response) -> u64 {
    let hex = resp.trace.as_deref().unwrap_or_else(|| panic!("{} has no trace id", resp.id));
    assert_eq!(hex.len(), 16, "trace id must be 16 hex digits: {hex:?}");
    let id = u64::from_str_radix(hex, 16)
        .unwrap_or_else(|_| panic!("trace id must be hex: {hex:?}"));
    assert_ne!(id, 0, "trace id 0 is reserved for untraced");
    id
}

/// One span as parsed back out of the Chrome trace's `args`.
struct TraceSpan {
    name: String,
    trace: u64,
    span: u64,
    parent: u64,
}

fn load_chrome_spans(path: &std::path::Path) -> Vec<TraceSpan> {
    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("trace file written"))
            .expect("trace parses");
    let events = doc.field("traceEvents").and_then(Value::as_array).expect("traceEvents");
    let mut spans = Vec::new();
    for ev in events {
        let Some(Value::String(ph)) = ev.field("ph") else { continue };
        if ph.as_str() != "X" {
            continue;
        }
        let args = ev.field("args").expect("span args");
        let num = |obj: &Value, key: &str| -> u64 {
            match obj.field(key) {
                Some(Value::Number(n)) => n.as_u64().expect("id fits u64"),
                other => panic!("span {key} missing or non-numeric: {other:?}"),
            }
        };
        let Some(Value::String(name)) = ev.field("name") else { panic!("span name") };
        spans.push(TraceSpan {
            name: name.clone(),
            trace: num(args, "trace"),
            span: num(args, "span"),
            parent: num(args, "parent"),
        });
    }
    spans
}

/// Assert the spans of `trace_id` form one connected tree whose root is
/// the `request` span (parent 0), with at least a `queue` span and one
/// engine span beneath it.
fn assert_connected_request_tree(spans: &[TraceSpan], trace_id: u64) {
    let mine: Vec<&TraceSpan> = spans.iter().filter(|s| s.trace == trace_id).collect();
    assert!(
        mine.len() >= 3,
        "expected at least request+queue+engine spans for trace {trace_id:x}, got {}",
        mine.len()
    );
    let roots: Vec<&&TraceSpan> = mine.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "trace {trace_id:x} must have exactly one root");
    assert_eq!(roots[0].name, "request", "the root span is the synthetic request span");
    let ids: BTreeSet<u64> = mine.iter().map(|s| s.span).collect();
    assert_eq!(ids.len(), mine.len(), "span ids must be unique within a trace");
    for s in &mine {
        assert!(
            s.parent == 0 || ids.contains(&s.parent),
            "span {} ({}) of trace {trace_id:x} is orphaned (parent {})",
            s.span,
            s.name,
            s.parent
        );
    }
    let names: Vec<&str> = mine.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"queue"), "queue span missing: {names:?}");
}

#[test]
fn observability_end_to_end() {
    // -- environment: isolated results dir, tiny budgets, 2 workers ------
    let results = std::env::temp_dir().join(format!("mica-serve-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&results);
    std::fs::create_dir_all(&results).unwrap();
    std::env::set_var("MICA_RESULTS_DIR", &results);
    std::env::set_var("MICA_SCALE", "0.000000001");
    std::env::set_var("MICA_THREADS", "2");

    // The Chrome sink is installed programmatically (not via MICA_TRACE)
    // so this test controls its lifecycle regardless of prior obs init.
    let trace_path = results.join("trace.json");
    let sink = mica_obs::add_sink(Box::new(mica_obs::ChromeTraceSink::create(trace_path.clone())));

    let cfg = ServeConfig { addr: "127.0.0.1:0".into(), queue_cap: 8, watermark: 6 };
    let handle = spawn(cfg).expect("server boots");
    let addr = handle.addr().to_string();
    let mut conn = RawConn::open(&addr);

    // -- every outcome echoes a distinct trace id ------------------------
    let mut table = Request::new("t1", RequestKind::Table);
    table.name = Some("MiBench/sha/large".into());
    let resp_table = conn.roundtrip(&table);
    assert_eq!(resp_table.status, status::OK, "{resp_table:?}");
    let table_trace = assert_trace_hex(&resp_table);

    let mut asm = Request::new("a1", RequestKind::Asm);
    asm.asm = Some("li x7, 99\nloop:\naddi x7, x7, -1\nbne x7, x0, loop\nhalt".into());
    let resp_asm = conn.roundtrip(&asm);
    assert_eq!(resp_asm.status, status::OK, "{resp_asm:?}");
    let asm_trace = assert_trace_hex(&resp_asm);
    assert_ne!(table_trace, asm_trace, "each request gets its own trace");

    // A nameless table query is *answered* with `error` — it passes
    // admission, so the SLO audit scores it as a bad answer.
    let resp_bad = conn.roundtrip(&Request::new("b1", RequestKind::Table));
    assert_eq!(resp_bad.status, status::ERROR, "table without a name: {resp_bad:?}");
    assert_trace_hex(&resp_bad);

    // -- the ops plane ---------------------------------------------------
    let health = conn.roundtrip(&ops_request("o1", "health"));
    assert_eq!(health.status, status::OK);
    assert_trace_hex(&health);
    assert!(health.ops.as_deref().unwrap_or("").contains("\"status\":\"ok\""), "{health:?}");

    let ready = conn.roundtrip(&ops_request("o2", "ready"));
    assert_eq!(ready.ops.as_deref(), Some("{\"ready\":true}"), "{ready:?}");

    let stats = conn.roundtrip(&ops_request("o3", "stats"));
    let stats_doc: Value =
        serde_json::from_str(stats.ops.as_deref().expect("stats payload")).expect("stats is JSON");
    assert_eq!(
        stats_doc.field("draining"),
        Some(&Value::Bool(false)),
        "not draining yet: {stats:?}"
    );
    assert!(stats_doc.field("queue_depth").is_some(), "{stats:?}");
    assert!(stats_doc.field("inflight").is_some(), "{stats:?}");

    let metrics = conn.roundtrip(&ops_request("o4", "metrics"));
    let exposition = metrics.ops.as_deref().expect("metrics payload");
    for needle in ["# provenance", "serve_accepted_total", "serve_latency_us_p99"] {
        assert!(exposition.contains(needle), "metrics exposition lacks {needle}:\n{exposition}");
    }

    let unknown = conn.roundtrip(&ops_request("o5", "nonsense"));
    assert_eq!(unknown.status, status::ERROR, "{unknown:?}");

    // -- observation is pure: the traced, scraped answer equals the batch
    //    pipeline's own profile of the same kernel ------------------------
    let reference =
        mica_experiments::profile::load_or_profile_all(&results.join("profiles.json"), 1e-9)
            .expect("reference profiles")
            .set;
    let reference_vec = reference
        .records
        .iter()
        .find(|r| r.name == "MiBench/sha/large")
        .expect("reference record")
        .mica
        .values()
        .to_vec();
    let served_vec = &resp_table.result.as_ref().expect("table result").vector;
    assert_eq!(
        serde_json::to_string(served_vec).unwrap(),
        serde_json::to_string(&reference_vec).unwrap(),
        "serving under tracing + scrapes changed the answer bytes"
    );

    // -- drain: ready flips false while ops stays answerable -------------
    handle.shutdown();
    let ready = conn.roundtrip(&ops_request("o6", "ready"));
    assert_eq!(ready.ops.as_deref(), Some("{\"ready\":false}"), "mid-drain: {ready:?}");
    let rejected = conn.roundtrip(&Request::new("late", RequestKind::Table));
    assert_eq!(rejected.status, status::DRAINING, "{rejected:?}");
    assert_trace_hex(&rejected);
    drop(conn);

    let summary = handle.join().expect("clean drain");
    let counter = |name: &str| summary.counters.iter().find(|c| c.name == name).map(|c| c.value);
    assert_eq!(counter("serve.error"), Some(1));
    assert_eq!(counter("serve.rejected.draining"), Some(1));

    // -- the access log: one line per request line, schema-stable --------
    let access_text =
        std::fs::read_to_string(results.join("serve-access.jsonl")).expect("access log written");
    let entries: Vec<AccessEntry> = access_text
        .lines()
        .map(|l| serde_json::from_str(l).expect("access entry parses strictly"))
        .collect();
    assert_eq!(entries.len(), 10, "t1, a1, b1, o1-o6 and late: {entries:?}");
    let by_kind: BTreeMap<&str, usize> =
        entries.iter().fold(BTreeMap::new(), |mut m, e| {
            *m.entry(e.kind.as_str()).or_insert(0) += 1;
            m
        });
    assert_eq!(by_kind.get("ops"), Some(&6), "o1-o6 (unknown op included): {by_kind:?}");
    assert_eq!(by_kind.get("table"), Some(&3), "t1, b1, late: {by_kind:?}");
    assert_eq!(by_kind.get("asm"), Some(&1), "{by_kind:?}");
    let t1 = entries.iter().find(|e| e.id == "t1").expect("t1 logged");
    assert_eq!(t1.trace, resp_table.trace.as_deref().unwrap());
    assert!(t1.deadline_slack_ms > 0, "t1 finished well before its deadline: {t1:?}");
    let a1 = entries.iter().find(|e| e.id == "a1").expect("a1 logged");
    assert!(a1.fuel > 0, "a1 simulated fresh work: {a1:?}");

    // -- the rows the SLO audit scores (3 data-plane answers: t1 ok,
    //    a1 ok, b1 error) and excludes (6 ops scrapes, 1 refusal) --------
    let outcome = |id: &str| entries.iter().find(|e| e.id == id).map(|e| e.outcome.as_str());
    assert_eq!(outcome("t1"), Some(status::OK));
    assert_eq!(outcome("a1"), Some(status::OK));
    assert_eq!(outcome("b1"), Some(status::ERROR));
    let draining: Vec<&str> =
        entries.iter().filter(|e| e.outcome == status::DRAINING).map(|e| e.id.as_str()).collect();
    assert_eq!(draining, ["late"], "one refusal while draining");

    // -- the tentpole: one request = one connected span tree -------------
    mica_obs::flush();
    mica_obs::remove_sink(sink);
    let spans = load_chrome_spans(&trace_path);
    assert_connected_request_tree(&spans, table_trace);
    assert_connected_request_tree(&spans, asm_trace);
    // The two requests' trees never share a span.
    let table_ids: BTreeSet<u64> =
        spans.iter().filter(|s| s.trace == table_trace).map(|s| s.span).collect();
    let asm_ids: BTreeSet<u64> =
        spans.iter().filter(|s| s.trace == asm_trace).map(|s| s.span).collect();
    assert!(table_ids.is_disjoint(&asm_ids), "cross-wired spans");

    std::fs::remove_dir_all(&results).ok();
}
