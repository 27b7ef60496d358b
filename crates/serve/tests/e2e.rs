//! End-to-end robustness envelope: one in-process server, driven through
//! every admission/deadline/quarantine/drain path the crate promises.
//!
//! One `#[test]` on purpose: the scenario owns the process environment
//! (`MICA_RESULTS_DIR`, `MICA_SCALE`, `MICA_THREADS`) and the global
//! fault plan, neither of which tolerates a concurrent sibling test.

use mica_experiments::runner::RunSummary;
use mica_serve::client;
use mica_serve::engine::IndexFile;
use mica_serve::protocol::{parse_request, render_response, status, Request, RequestKind, Response};
use mica_serve::server::spawn;
use mica_serve::{ServeConfig, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A raw (non-retrying) connection: write request lines, read response
/// lines, in whatever order the server produces them.
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

    fn send(&mut self, req: &Request) {
        let mut line = client::render_request(req);
        line.push('\n');
        self.stream.write_all(line.as_bytes()).expect("send");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed connection unexpectedly");
        serde_json::from_str(line.trim_end()).expect("parseable response")
    }
}

fn asm_request(id: &str, text: &str) -> Request {
    let mut req = Request::new(id, RequestKind::Asm);
    req.asm = Some(text.to_string());
    req
}

/// Whether an `ops` `stats` scrape on `conn` shows `n` requests in flight.
fn inflight_is(conn: &mut RawConn, n: usize) -> bool {
    let mut req = Request::new("stats", RequestKind::Ops);
    req.op = Some("stats".into());
    conn.send(&req);
    conn.recv().ops.expect("a stats payload").contains(&format!("\"inflight\":{n},"))
}

/// Scrape `stats` on `conn` until it shows `n` requests in flight.
fn await_inflight(conn: &mut RawConn, n: usize) {
    let start = Instant::now();
    while !inflight_is(conn, n) {
        assert!(start.elapsed() < Duration::from_secs(10), "in flight never reached {n}");
    }
}

/// A finite countdown kernel: distinct per `n`, so each is a distinct
/// (expensive, uncached) submission.
fn countdown_asm(n: u64) -> String {
    format!("li x7, {n}\nloop:\naddi x7, x7, -1\nbne x7, x0, loop\nhalt")
}

fn install(plan: &str) {
    mica_fault::plan::install(mica_fault::plan::FaultPlan::parse(plan).expect("valid fault plan"));
}

#[test]
fn robustness_envelope_end_to_end() {
    // -- environment: isolated results dir, tiny budgets, 2 workers ------
    let results = std::env::temp_dir().join(format!("mica-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&results);
    std::fs::create_dir_all(&results).unwrap();
    std::env::set_var("MICA_RESULTS_DIR", &results);
    std::env::set_var("MICA_SCALE", "0.000000001");
    std::env::set_var("MICA_THREADS", "2");

    let cfg = ServeConfig { addr: "127.0.0.1:0".into(), queue_cap: 8, watermark: 6 };
    mica_fault::plan::clear();
    let handle = spawn(cfg).expect("server boots");
    let addr = handle.addr().to_string();

    // The server's boot wrote (or reused) the batch pipeline's cache;
    // read it back from disk as the independent reference.
    let reference =
        mica_experiments::profile::load_or_profile_all(&results.join("profiles.json"), 1e-9)
            .expect("reference profiles")
            .set;
    let table_name = reference.records[0].name.clone();

    // -- deadline: injected latency pushes a request past its deadline ---
    install("slow:serve.request=600@1");
    let mut conn = RawConn::open(&addr);
    let mut req = asm_request("slowpoke", &countdown_asm(50));
    req.deadline_ms = Some(100);
    conn.send(&req);
    let resp = conn.recv();
    assert_eq!(resp.status, status::DEADLINE, "slow-faulted request: {resp:?}");
    assert!(resp.result.is_none());

    // -- deadline: a budget-less runaway is cancelled mid-execution ------
    mica_fault::plan::clear();
    let mut req = asm_request("longrun", "loop:\njmp loop");
    req.deadline_ms = Some(150);
    conn.send(&req);
    let resp = conn.recv();
    assert_eq!(resp.status, status::DEADLINE, "runaway loop: {resp:?}");
    assert!(
        resp.error.as_deref().unwrap_or("").contains("cancelled at the deadline"),
        "expected a cancellation at the deadline, got {resp:?}"
    );

    // -- a lookup does not wait behind a simulation: while a runaway holds
    //    the dispatcher, a lookup's reader thread answers it -------------
    // The dispatcher counts `longrun` in flight until just after its answer
    // is written; once that count is gone, only the occupant can show.
    await_inflight(&mut conn, 0);
    let mut occupant = RawConn::open(&addr);
    let mut req = asm_request("occupant", "loop:\njmp loop");
    req.deadline_ms = Some(1_500);
    occupant.send(&req);
    await_inflight(&mut conn, 1);
    let mut req = Request::new("past-the-occupant", RequestKind::Table);
    req.name = Some(table_name.clone());
    conn.send(&req);
    let resp = conn.recv();
    assert_eq!(resp.status, status::OK, "a lookup while the dispatcher is busy: {resp:?}");
    assert!(inflight_is(&mut conn, 1), "the lookup was answered after the runaway's deadline");
    let resp = occupant.recv();
    assert_eq!(resp.status, status::DEADLINE, "the runaway occupant: {resp:?}");

    // -- quarantine: an injected request panic is one structured reply ---
    install("panic:request=1");
    conn.send(&asm_request("boom", &countdown_asm(10)));
    let resp = conn.recv();
    assert_eq!(resp.status, status::PANIC, "injected panic: {resp:?}");
    assert!(resp.error.as_deref().unwrap_or("").contains("quarantined"));

    // ...and the server still answers on the very same connection: a
    // budget-less kernel that halts runs to its `halt` (li, ten
    // addi/bne pairs, halt).
    mica_fault::plan::clear();
    conn.send(&asm_request("after-boom", &countdown_asm(10)));
    let resp = conn.recv();
    assert_eq!(resp.status, status::OK, "{resp:?}");
    assert_eq!(resp.result.expect("ok carries a result").executed_instructions, 22);

    // A lookup, which its reader thread runs, is quarantined the same way,
    // and the reader lives on to answer the next lookup.
    install("panic:request=1");
    let mut req = Request::new("boom-lookup", RequestKind::Table);
    req.name = Some(table_name.clone());
    conn.send(&req);
    let resp = conn.recv();
    assert_eq!(resp.status, status::PANIC, "injected lookup panic: {resp:?}");
    assert!(resp.error.as_deref().unwrap_or("").contains("quarantined"));
    mica_fault::plan::clear();
    req.id = "after-boom-lookup".into();
    conn.send(&req);
    let resp = conn.recv();
    assert_eq!(resp.status, status::OK, "the reader survived its panic: {resp:?}");

    // -- bad lines get structured errors with salvaged ids ---------------
    conn.stream.write_all(b"{\"id\":\"mangled\",\"kind\":\"nope\"}\n").unwrap();
    let resp = conn.recv();
    assert_eq!(resp.id, "mangled");
    assert_eq!(resp.status, status::ERROR);

    // -- an overlong line is one bad line, then the connection closes ----
    let mut long = RawConn::open(&addr);
    long.stream.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
    let resp = long.recv();
    assert_eq!((resp.id.as_str(), resp.status.as_str()), ("?", status::ERROR), "{resp:?}");
    assert!(resp.error.as_deref().unwrap_or("").contains("exceeds"), "{resp:?}");
    let mut rest = String::new();
    let n = long.reader.read_line(&mut rest).expect("a clean close");
    assert_eq!(n, 0, "the connection must close after an overlong line: {rest:?}");

    // -- dropped responses: the retrying client survives io:respond ------
    install("io:respond@1");
    let mut req = Request::new("flaky", RequestKind::Table);
    req.name = Some(table_name.clone());
    let resp = client::query(&addr, &req, 4).expect("client retries through a dropped response");
    assert_eq!(resp.status, status::OK);
    mica_fault::plan::clear();

    // -- table answers are byte-identical to the batch pipeline ----------
    let picks: Vec<usize> =
        vec![0, 20, 40, 60, 80, 100].into_iter().filter(|&i| i < reference.records.len()).collect();
    let answers: Vec<(usize, Response)> = std::thread::scope(|scope| {
        let handles: Vec<_> = picks
            .iter()
            .map(|&i| {
                let addr = addr.clone();
                let name = reference.records[i].name.clone();
                scope.spawn(move || {
                    let mut req = Request::new(format!("tbl-{i}"), RequestKind::Table);
                    req.name = Some(name);
                    req.k = Some(3);
                    (i, client::query(&addr, &req, 6).expect("table query"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Fingerprints once: each call re-assembles all 122 reference kernels.
    let table_fp = mica_workloads::table_fingerprint();
    let profile_fp = mica_experiments::profile::profile_fingerprint();
    for (i, resp) in answers {
        assert_eq!(resp.status, status::OK, "table answer {i}: {resp:?}");
        let result = resp.result.expect("ok carries a result");
        let rec = &reference.records[i];
        assert_eq!(result.vector, rec.mica.values().to_vec(), "vector for {} differs", rec.name);
        assert_eq!(result.executed_instructions, rec.executed_instructions);
        assert!(result.cached);
        assert_eq!(result.neighbors.len(), 3);
        assert!(result.neighbors[0].distance.abs() < 1e-9, "self should be distance ~0");
        let prov = resp.provenance.expect("ok carries provenance");
        assert_eq!(prov.table_fingerprint, table_fp);
        assert_eq!(prov.profile_fingerprint, profile_fp);
        assert_eq!(prov.selected_metrics.len(), 8);
        assert_eq!(prov.scale, reference.scale, "provenance records the set's budget scale");
    }

    // -- zoo: parameterized instances simulate once, then hit the index --
    let zoo_name = reference.records[1].name.clone();
    let mut req = Request::new("zoo-1", RequestKind::Zoo);
    req.name = Some(zoo_name.clone());
    req.seed = Some(12345);
    let first = client::query(&addr, &req, 4).expect("zoo query");
    assert_eq!(first.status, status::OK, "{first:?}");
    let first = first.result.unwrap();
    assert!(!first.cached);
    assert!(first.executed_instructions > 0);
    req.id = "zoo-2".into();
    let second = client::query(&addr, &req, 4).expect("repeat zoo query").result.unwrap();
    assert!(second.cached, "identical zoo submission should hit the index");
    assert_eq!(second.vector, first.vector, "cached answer must be bit-identical");

    // -- admission control: full queue rejects, watermark sheds ----------
    // Two workers sleep 400ms per job (slow fault), so everything below
    // lands while the burst still occupies the queue+inflight budget:
    // six expensive jobs take depth exactly to the watermark.
    install("slow:serve.request=400@64");
    let mut burst: Vec<RawConn> = (0..6u64)
        .map(|i| {
            let mut c = RawConn::open(&addr);
            let mut req = asm_request(&format!("burst-{i}"), &countdown_asm(1000 + i));
            req.deadline_ms = Some(20_000);
            c.send(&req);
            c
        })
        .collect();
    // Give the reader threads a beat to admit all six.
    std::thread::sleep(Duration::from_millis(100));

    // At the watermark, expensive (simulation-needing) work is shed...
    let mut shed_conn = RawConn::open(&addr);
    shed_conn.send(&asm_request("shed-me", &countdown_asm(9999)));
    let resp = shed_conn.recv();
    assert_eq!(resp.status, status::OVERLOADED, "expensive work above watermark: {resp:?}");
    assert!(resp.retry_after_ms.is_some(), "backpressure must hint a retry");
    assert!(resp.error.as_deref().unwrap_or("").contains("shedding"));

    // ...while cheap cache-served lookups still pass, filling the queue
    // to its hard capacity...
    let mut cheap: Vec<RawConn> = (0..2)
        .map(|i| {
            let mut c = RawConn::open(&addr);
            let mut req = Request::new(format!("cheap-{i}"), RequestKind::Table);
            req.name = Some(table_name.clone());
            req.deadline_ms = Some(20_000);
            c.send(&req);
            c
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    // ...at which point the next request bounces no matter how cheap.
    let mut full = RawConn::open(&addr);
    let mut req = Request::new("one-too-many", RequestKind::Table);
    req.name = Some(table_name.clone());
    full.send(&req);
    let resp = full.recv();
    assert_eq!(resp.status, status::OVERLOADED, "queue at capacity: {resp:?}");
    assert!(resp.retry_after_ms.is_some());
    assert!(resp.error.as_deref().unwrap_or("").contains("full"));

    // The retrying client rides the backpressure out to an answer. It
    // queues behind 400ms jobs, past the default deadline.
    let mut req = Request::new("patient", RequestKind::Table);
    req.name = Some(table_name.clone());
    req.deadline_ms = Some(20_000);
    let resp = client::query(&addr, &req, 60).expect("backpressure drains eventually");
    assert_eq!(resp.status, status::OK);

    for (i, c) in cheap.iter_mut().enumerate() {
        assert_eq!(c.recv().status, status::OK, "admitted cheap lookup {i} completes");
    }
    for (i, c) in burst.iter_mut().enumerate() {
        assert_eq!(c.recv().status, status::OK, "burst job {i} completes");
    }
    mica_fault::plan::clear();

    // -- graceful drain: in-flight finishes, new work is refused ---------
    install("slow:serve.request=300@1");
    let mut drain_conn = RawConn::open(&addr);
    let mut req = asm_request("in-flight", &countdown_asm(777));
    req.deadline_ms = Some(20_000);
    drain_conn.send(&req);
    std::thread::sleep(Duration::from_millis(100)); // let it reach a worker
    handle.shutdown();
    let mut req = Request::new("too-late", RequestKind::Table);
    req.name = Some(table_name.clone());
    drain_conn.send(&req);

    let refusal = drain_conn.recv();
    assert_eq!(refusal.id, "too-late");
    assert_eq!(refusal.status, status::DRAINING, "{refusal:?}");
    let inflight = drain_conn.recv();
    assert_eq!(inflight.id, "in-flight");
    assert_eq!(inflight.status, status::OK, "in-flight work must drain, not drop: {inflight:?}");

    let summary = handle.join().expect("clean drain");

    // -- the run summary's counters account for everything above --------
    let counter = |name: &str| {
        let entry = summary.counters.iter().find(|c| c.name == name);
        entry.unwrap_or_else(|| panic!("run summary lacks {name}")).value
    };
    assert_eq!(summary.bin, "serve");
    assert!(counter("serve.accepted") >= 14, "{:?}", summary.counters);
    assert!(counter("serve.ok") >= 12);
    assert_eq!(counter("serve.panic"), 2);
    assert_eq!(counter("serve.deadline"), 3);
    assert!(counter("serve.rejected.overloaded") >= 2);
    assert!(counter("serve.shed") >= 1);
    assert!(counter("serve.rejected.draining") >= 1);
    assert_eq!(counter("serve.bad_lines"), 2);
    assert!(counter("serve.drained_in_flight") >= 1);
    assert!(summary.wall_s > 0.0);

    // Written summary == returned summary, via the public schema.
    let on_disk = std::fs::read_to_string(results.join("run-serve.json")).unwrap();
    let parsed: RunSummary = serde_json::from_str(&on_disk).expect("schema-valid run summary");
    assert_eq!(parsed, summary);

    // One index file holds every entry, and no torn temp files were left
    // anywhere.
    let index = std::fs::read_to_string(results.join("serve-index.json")).unwrap();
    let index: IndexFile = serde_json::from_str(&index).expect("schema-valid index file");
    assert_eq!(index.fingerprint, reference.fingerprint);
    assert!(index.entries.len() >= 5, "index entries {}", index.entries.len());
    let mut stack = vec![results.clone()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let name = entry.file_name().to_string_lossy().into_owned();
                assert!(!name.ends_with(".tmp"), "torn temp file left behind: {}", path.display());
            }
        }
    }

    // Protocol smoke for the doc examples (keep them honest).
    let doc = r#"{"id":"q1","kind":"table","name":"MiBench/sha/large","k":3}"#;
    let parsed = parse_request(doc).unwrap();
    assert!(!render_response(&Response::refusal(&parsed.id, status::DRAINING, "x")).is_empty());

    std::env::remove_var("MICA_RESULTS_DIR");
    std::env::remove_var("MICA_SCALE");
    std::env::remove_var("MICA_THREADS");
    let _ = std::fs::remove_dir_all(&results);
}
