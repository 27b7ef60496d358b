//! Chrome-trace exporter: the flushed file is one valid JSON document in
//! the Trace Event Format, with complete (`"X"`) events per span, instant
//! (`"i"`) events per log record, `thread_name` metadata for every worker
//! track, well-formed interval nesting inside each track, and an
//! `otherData` object counting what the sink received.

use mica_obs::{add_sink, remove_sink, Attr, ChromeTraceSink, Level, MemorySink};
use serde::Value;
use std::sync::{Mutex, MutexGuard};

/// Every installed sink sees every record, so the tests here, which count
/// records, take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Pin the environment before the first `mica-obs` call in this process
/// (no stderr noise, no trace file inherited from the caller) and take
/// the test's turn.
fn init() -> MutexGuard<'static, ()> {
    let turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("MICA_LOG", "off");
    std::env::remove_var("MICA_TRACE");
    turn
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    v.field(name).unwrap_or_else(|| panic!("field {name} missing in {v:?}"))
}

fn as_str(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::Number(n) => n.as_u64().expect("non-negative integer"),
        other => panic!("expected number, got {other:?}"),
    }
}

#[test]
fn trace_file_is_perfetto_shaped() {
    let _turn = init();
    let dir = std::env::temp_dir().join("mica_obs_chrome_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");

    let id = add_sink(Box::new(ChromeTraceSink::create(path.clone())));

    // One span tree on the calling thread, plus four "pool workers" that
    // each produce a nested pair — the shape a par_map fan-out emits.
    {
        let _run = mica_obs::span("test", "run");
        mica_obs::warn!("marker event");
        std::thread::scope(|scope| {
            for w in 0..4usize {
                scope.spawn(move || {
                    mica_obs::set_worker(w);
                    let mut outer = mica_obs::span("test", format!("task-{w}"));
                    outer.attr("w", w as u64);
                    let _inner = mica_obs::span("test", "chunk");
                });
            }
        });
    }
    remove_sink(id);

    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
    let events = field(&doc, "traceEvents").as_array().expect("traceEvents array");
    assert_eq!(as_str(field(&doc, "displayTimeUnit")), "ms");
    let other = field(&doc, "otherData");
    assert_eq!(as_u64(field(other, "events")), 1);
    assert_eq!(as_u64(field(other, "spans")), 9);
    assert_eq!(as_u64(field(other, "dropped_events")), 0);

    let metadata: Vec<&Value> =
        events.iter().filter(|e| as_str(field(e, "ph")) == "M").collect();
    let complete: Vec<&Value> =
        events.iter().filter(|e| as_str(field(e, "ph")) == "X").collect();
    let instants: Vec<&Value> =
        events.iter().filter(|e| as_str(field(e, "ph")) == "i").collect();
    assert_eq!(events.len(), metadata.len() + complete.len() + instants.len());

    // Process metadata plus a thread_name for every worker track.
    assert!(metadata.iter().any(|m| as_str(field(m, "name")) == "process_name"));
    for w in 0..4u64 {
        let named = metadata.iter().any(|m| {
            as_str(field(m, "name")) == "thread_name"
                && as_u64(field(m, "tid")) == 1 + w
                && as_str(field(field(m, "args"), "name")) == format!("worker-{w}")
        });
        assert!(named, "missing thread_name metadata for worker-{w}");
    }

    // 1 run span + 4 workers x (task + chunk) spans; 1 instant.
    assert_eq!(complete.len(), 9);
    assert_eq!(instants.len(), 1);
    assert_eq!(as_str(field(instants[0], "name")), "marker event");
    assert_eq!(as_str(field(field(instants[0], "args"), "level")), "warn");

    // Every complete event carries the mandatory fields; attrs survive.
    for x in &complete {
        assert_eq!(as_u64(field(x, "pid")), 1);
        field(x, "ts");
        field(x, "dur");
        field(x, "tid");
    }
    let task0 = complete
        .iter()
        .find(|x| as_str(field(x, "name")) == "task-0")
        .expect("task-0 span present");
    // Span args nest the user attrs beside the context ids.
    assert_eq!(as_u64(field(field(field(task0, "args"), "attrs"), "w")), 0);
    for x in &complete {
        let args = field(x, "args");
        field(args, "trace");
        let span_id = as_u64(field(args, "span"));
        assert_ne!(span_id, 0, "every span carries a nonzero span id");
        field(args, "parent");
    }

    // Per-track stack discipline: within each tid, intervals either nest
    // or are disjoint — never partially overlap. This is what makes the
    // trace render as clean per-worker lanes in Perfetto.
    let mut tids: Vec<u64> = complete.iter().map(|x| as_u64(field(x, "tid"))).collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(tids.len() >= 5, "main track plus four worker tracks, got {tids:?}");
    for tid in tids {
        let mut intervals: Vec<(u64, u64)> = complete
            .iter()
            .filter(|x| as_u64(field(x, "tid")) == tid)
            .map(|x| {
                let ts = as_u64(field(x, "ts"));
                (ts, ts + as_u64(field(x, "dur")))
            })
            .collect();
        // Sort outermost-first so a stack check works: by start, then by
        // longer duration first.
        intervals.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64)> = Vec::new();
        for (start, end) in intervals {
            while let Some(&(_, top_end)) = stack.last() {
                if start >= top_end {
                    stack.pop();
                } else {
                    assert!(end <= top_end, "partial overlap on tid {tid}");
                    break;
                }
            }
            stack.push((start, end));
        }
    }

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn file_round_trips_the_dispatch_stream() {
    let _turn = init();
    let dir = std::env::temp_dir().join("mica_obs_chrome_round_trip_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");

    let mem = MemorySink::new();
    let file_id = add_sink(Box::new(ChromeTraceSink::create(path.clone())));
    let mem_id = add_sink(Box::new(mem.clone()));

    mica_obs::emit_with(
        Level::Warn,
        "chrome::test",
        "cache rejected".into(),
        vec![("reason", Attr::Str("fingerprint".into())), ("expected", Attr::U64(42))],
    );
    mica_obs::info!("plain message with escapes: \"quoted\"\n");
    {
        let mut outer = mica_obs::span("chrome-test", "outer");
        outer.attr("k", 8u64);
        let _inner = mica_obs::span("chrome-test", "inner");
    }

    remove_sink(file_id);
    remove_sink(mem_id);

    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
    let records: Vec<&Value> = field(&doc, "traceEvents")
        .as_array()
        .expect("traceEvents array")
        .iter()
        .filter(|e| as_str(field(e, "ph")) != "M")
        .collect();
    let captured = mem.records();
    assert_eq!(records.len(), captured.len(), "file holds the capture sink's records");
    // Same records, in dispatch order.
    for (rec, cap) in records.iter().zip(&captured) {
        let (ph, ts, tid) = match cap {
            mica_obs::Record::Event(e) => ("i", e.ts_us, e.tid),
            mica_obs::Record::Span(s) => ("X", s.ts_us, s.tid),
        };
        assert_eq!(as_str(field(rec, "ph")), ph);
        assert_eq!(as_u64(field(rec, "ts")), ts);
        assert_eq!(as_u64(field(rec, "tid")), tid);
    }

    // otherData counts what the sink received, which is what mica-prof
    // checks the file against.
    let other = field(&doc, "otherData");
    assert_eq!(as_u64(field(other, "events")), 2);
    assert_eq!(as_u64(field(other, "spans")), 2);
    assert_eq!(as_u64(field(other, "dropped_events")), 0);

    let events: Vec<&Value> =
        records.iter().copied().filter(|r| as_str(field(r, "ph")) == "i").collect();
    let spans: Vec<&Value> =
        records.iter().copied().filter(|r| as_str(field(r, "ph")) == "X").collect();
    assert_eq!(events.len(), 2);
    assert_eq!(spans.len(), 2);

    // The structured warn event survives with level, target, message and
    // typed attributes intact.
    let warn = events[0];
    assert_eq!(as_str(field(field(warn, "args"), "level")), "warn");
    assert_eq!(as_str(field(warn, "cat")), "chrome::test");
    assert_eq!(as_str(field(warn, "name")), "cache rejected");
    let attrs = field(field(warn, "args"), "attrs");
    assert_eq!(as_str(field(attrs, "reason")), "fingerprint");
    assert_eq!(as_u64(field(attrs, "expected")), 42);

    // Escapes round-trip through the hand-rolled writer.
    assert_eq!(as_str(field(events[1], "name")), "plain message with escapes: \"quoted\"\n");

    // Spans close inner-first; inner parents to outer on the same thread
    // and lies inside it.
    let (inner, outer) = (spans[0], spans[1]);
    assert_eq!(as_str(field(inner, "name")), "inner");
    assert_eq!(as_str(field(outer, "name")), "outer");
    assert_eq!(as_str(field(outer, "cat")), "chrome-test");
    let (inner_args, outer_args) = (field(inner, "args"), field(outer, "args"));
    assert_eq!(as_u64(field(inner_args, "parent")), as_u64(field(outer_args, "span")));
    assert_eq!(as_u64(field(inner, "tid")), as_u64(field(outer, "tid")));
    let end = |x: &Value| as_u64(field(x, "ts")) + as_u64(field(x, "dur"));
    assert!(as_u64(field(inner, "ts")) >= as_u64(field(outer, "ts")));
    assert!(end(inner) <= end(outer));
    assert_eq!(as_u64(field(field(outer_args, "attrs"), "k")), 8);

    std::fs::remove_dir_all(dir).ok();
}
