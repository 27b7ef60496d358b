//! The daemon: accept loop, admission control, dispatch, drain.
//!
//! Thread layout (all std):
//!
//! - the **accept loop** (the thread running [`serve`] or the one
//!   [`spawn`] starts) polls a non-blocking listener and hands each
//!   connection to a reader thread; on SIGTERM/SIGINT (or
//!   [`ServerHandle::shutdown`]) it keeps accepting — so fresh
//!   connections can still scrape the `ops` plane mid-drain — until the
//!   queue and in-flight work are gone, then runs the drain;
//! - **reader threads** (one per connection) parse request lines, mint
//!   each request's [`mica_obs::TraceContext`] (echoed as `trace` on
//!   every response) and run *admission*: `ops` control-plane queries are
//!   answered right here (bypassing the queue, even mid-drain),
//!   `draining` and `overloaded` rejections are written right here
//!   without ever touching the queue, an admitted `table` lookup is
//!   answered right here too (it counts in the in-flight depth while it
//!   runs), and an admitted `zoo` or `asm` submission is pushed onto the
//!   bounded queue — a request's deadline clock starts at admission, so
//!   queueing time counts against it;
//! - the **dispatcher** pops batches of submissions off the queue.
//!
//! Both answer through one path, `run_jobs`: it runs jobs through
//! [`mica_par::par_map_isolated`], so one panicking request becomes one
//! structured `panic` response while its batch-mates complete and its
//! thread lives on, and the sliced VM loop reads the clock between fuel
//! slices and stops a request at its deadline. A lookup takes a few
//! microseconds, less than handing it to the dispatcher and waking it
//! would cost.
//!
//! Every answered request becomes (a) one connected trace — a synthetic
//! root `request` span (admission → response written) with a `queue` span
//! and the engine's execution spans parented under it, all sharing the
//! request's trace id — and (b) one line of the JSONL access log
//! `<results>/serve-access.jsonl`, appended through a buffered writer as
//! the request is answered, which `mica-prof slo` scores against a
//! latency objective.
//!
//! Drain: stop admission (readers answer `draining`; `ops` stays live so
//! `ready` can report the drain), let the dispatcher finish the queue and
//! the requests in flight complete, flush the submission index (via
//! [`mica_fault::atomic_write_retry`]) and the access log's buffer, write
//! the run summary (`run-serve.json`, every `serve.*` counter: the
//! server's closing account), flush the observability sinks, and return
//! it — the binary then exits 0.

use crate::engine::Engine;
use crate::protocol::{
    parse_request, render_response, salvage_id, status, Request, RequestKind, Response,
};
use crate::{ServeConfig, MAX_LINE_BYTES};
use mica_experiments::runner::{RunSummary, Runner};
use mica_obs as obs;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

static ACCEPTED: obs::Counter = obs::Counter::new("serve.accepted");
static OK: obs::Counter = obs::Counter::new("serve.ok");
static ERRORS: obs::Counter = obs::Counter::new("serve.error");
static PANICS: obs::Counter = obs::Counter::new("serve.panic");
static DEADLINES: obs::Counter = obs::Counter::new("serve.deadline");
static REJECTED_OVERLOADED: obs::Counter = obs::Counter::new("serve.rejected.overloaded");
static REJECTED_DRAINING: obs::Counter = obs::Counter::new("serve.rejected.draining");
static SHED: obs::Counter = obs::Counter::new("serve.shed");
static BAD_LINES: obs::Counter = obs::Counter::new("serve.bad_lines");
/// Control-plane (`ops`) queries answered.
static OPS: obs::Counter = obs::Counter::new("serve.ops");
/// Requests still queued or executing when the drain began, all finished
/// (never dropped) before the run summary is written.
static DRAINED_IN_FLIGHT: obs::Counter = obs::Counter::new("serve.drained_in_flight");
/// Admission-to-execution wait.
static QUEUE_US: obs::Histogram = obs::Histogram::new("serve.queue_us");
/// Admission-to-response-written latency.
static LATENCY_US: obs::Histogram = obs::Histogram::new("serve.latency_us");

/// Stable Chrome-trace tracks for the daemon's long-lived threads
/// ([`obs::set_service_thread`] slots).
const TRACK_DISPATCH: u64 = 0;
const TRACK_ACCEPT: u64 = 1;

/// Base backpressure hint in milliseconds: an `overloaded` refusal hints
/// this much per request ahead of it, a `draining` one four times it.
const RETRY_MS: u64 = 25;

fn register_counters() {
    for c in [
        &ACCEPTED,
        &OK,
        &ERRORS,
        &PANICS,
        &DEADLINES,
        &REJECTED_OVERLOADED,
        &REJECTED_DRAINING,
        &SHED,
        &BAD_LINES,
        &OPS,
        &DRAINED_IN_FLIGHT,
    ] {
        c.register();
    }
}

/// One line of the JSONL access log (`<results>/serve-access.jsonl`).
/// Schema-stable: every field always present, derived serde both ways so
/// `mica-prof slo` and CI validation can round-trip it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccessEntry {
    /// When the response was written, microseconds on the
    /// [`obs::timestamp_us`] timeline (the same clock the trace spans
    /// use).
    pub ts_us: u64,
    /// The request's correlation id.
    pub id: String,
    /// The request's trace id, 16 lowercase hex digits — the same value
    /// the response echoed and the trace spans carry.
    pub trace: String,
    /// Request kind (`table`/`zoo`/`asm`/`ops`), or `invalid` for lines
    /// that did not parse.
    pub kind: String,
    /// Response status written to the client.
    pub outcome: String,
    /// Admission-to-execution wait: a submission's time in the queue, and
    /// about 0 for a `table` lookup, which its reader thread runs at once
    /// (0 for refusals and ops).
    pub queue_wait_us: u64,
    /// Engine execution time (0 for refusals and ops).
    pub exec_us: u64,
    /// Dynamic instructions the answer cost (0 for cache hits, refusals
    /// and ops).
    pub fuel: u64,
    /// Deadline headroom when the response was written, in milliseconds;
    /// negative means the deadline had already passed (0 for anything
    /// that never carried a deadline).
    pub deadline_slack_ms: i64,
}

/// One admitted request waiting for (or in) execution.
struct Job {
    req: Request,
    /// The trace minted for this request at its reader thread; workers
    /// install it so execution spans parent into the request's trace.
    ctx: obs::TraceContext,
    admitted: Instant,
    /// `admitted` on the span timeline, so the synthetic `request` and
    /// `queue` spans line up with the engine's real ones.
    admitted_us: u64,
    deadline_at: Instant,
    conn: Arc<Mutex<TcpStream>>,
}

struct Shared {
    cfg: ServeConfig,
    engine: Engine,
    /// Boot instant; `ops` uptime.
    started: Instant,
    queue: Mutex<VecDeque<Job>>,
    /// Wakes the dispatcher, its only waiter: a push onto the queue, or
    /// the drain.
    work_cv: Condvar,
    draining: AtomicBool,
    done: AtomicBool,
    /// Requests running now: the dispatcher's batch and the lookups on
    /// reader threads. Admission counts both in the depth.
    inflight: AtomicUsize,
    /// `serve-access.jsonl`, created at boot; `None` once creating or
    /// writing it failed.
    access: Mutex<Option<BufWriter<File>>>,
}

/// Append one line to the access log. Each line goes to the writer in one
/// call, so its buffer reaches the file in whole lines; the drain flushes
/// the rest. A failed write is warned about once and ends the log, and
/// serving goes on.
fn log_access(shared: &Shared, entry: &AccessEntry) {
    let mut line = serde_json::to_string(entry).expect("AccessEntry serializes");
    line.push('\n');
    let mut log = shared.access.lock().expect("access log poisoned");
    if let Some(Err(e)) = log.as_mut().map(|w| w.write_all(line.as_bytes())) {
        obs::warn!("access log write failed, logging stops: {e}");
        *log = None;
    }
}

/// Create (or truncate) `<results>/serve-access.jsonl`. A failure is
/// warned about and the server runs without an access log.
fn create_access_log() -> Option<BufWriter<File>> {
    let dir = mica_experiments::results_dir();
    let path = dir.join("serve-access.jsonl");
    match std::fs::create_dir_all(&dir).and_then(|()| File::create(&path)) {
        Ok(file) => Some(BufWriter::new(file)),
        Err(e) => {
            obs::warn!("cannot create access log {}: {e}", path.display());
            None
        }
    }
}

/// Signed deadline headroom in milliseconds (negative = already past).
fn deadline_slack_ms(deadline_at: Instant, now: Instant) -> i64 {
    if deadline_at >= now {
        (deadline_at - now).as_millis() as i64
    } else {
        -((now - deadline_at).as_millis() as i64)
    }
}

/// Process-wide signal flag; [`install_signal_handlers`] points SIGTERM
/// and SIGINT here and the accept loop polls it.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // Only an atomic store: async-signal-safe.
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Route SIGTERM and SIGINT into a graceful drain. std links libc on the
/// platforms this repo targets, so `signal(2)` is declared directly
/// instead of growing a dependency.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

/// Write one response line, newline added here, to a connection, honoring
/// `respond` fault directives (`slow:respond` delays, `io:respond` /
/// `torn:respond` drop the write so the client's retry path gets
/// exercised).
fn write_response(conn: &Mutex<TcpStream>, id: &str, mut line: String) {
    if let Some(ms) = mica_fault::plan::slow_fault("respond") {
        obs::warn!("injected latency: response {id} delayed {ms}ms (MICA_FAULTS)");
        thread::sleep(Duration::from_millis(ms));
    }
    if let Some(kind) = mica_fault::plan::io_fault("respond") {
        match kind {
            mica_fault::plan::IoFaultKind::Error => {
                mica_fault::metrics::incr(&mica_fault::metrics::INJECTED_IO)
            }
            mica_fault::plan::IoFaultKind::Torn => {
                mica_fault::metrics::incr(&mica_fault::metrics::INJECTED_TORN)
            }
        }
        obs::warn!("injected I/O fault: dropping response {id} (MICA_FAULTS)");
        // Simulate the connection dying mid-response: the client sees EOF
        // and its retry path takes over.
        let stream = conn.lock().expect("connection poisoned");
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return;
    }
    line.push('\n');
    let mut stream = conn.lock().expect("connection poisoned");
    if let Err(e) = stream.write_all(line.as_bytes()) {
        // The client hung up; its loss, not ours.
        obs::debug!("client write failed for {id}: {e}");
    }
}

/// What admission did with a request.
enum Admission {
    /// Pushed onto the queue for the dispatcher.
    Queued,
    /// A `table` lookup for its reader thread to answer now: it already
    /// counts in `inflight`, and [`run_jobs`] takes it out.
    Run(Job),
    /// Refused; the response to write.
    Refused(Response),
}

/// Admission: refuse the request, queue it, or hand a `table` lookup
/// back to its reader thread.
fn admit(
    shared: &Shared,
    req: Request,
    ctx: obs::TraceContext,
    conn: &Arc<Mutex<TcpStream>>,
) -> Admission {
    let deadline_ms =
        req.deadline_ms.unwrap_or(crate::DEFAULT_DEADLINE_MS).clamp(1, crate::MAX_DEADLINE_MS);
    let admitted = Instant::now();
    let admitted_us = obs::timestamp_us();
    let deadline_at = admitted + Duration::from_millis(deadline_ms);

    let mut queue = shared.queue.lock().expect("queue poisoned");
    // Read the flag under the queue lock, which the dispatcher holds when
    // it finds nothing queued or in flight and exits. Read before the
    // lock, the drain could start between the read and the push, and the
    // dispatcher could exit in that gap. The job would then land on a
    // queue that nothing runs: its client would never be answered, and
    // the accept loop would wait forever for the queue to empty.
    if shared.draining.load(Ordering::SeqCst) {
        REJECTED_DRAINING.incr();
        let mut resp = Response::refusal(&req.id, status::DRAINING, "server is draining");
        resp.retry_after_ms = Some(RETRY_MS * 4);
        return Admission::Refused(resp);
    }
    let depth = queue.len() + shared.inflight.load(Ordering::Relaxed);
    if depth >= shared.cfg.queue_cap {
        REJECTED_OVERLOADED.incr();
        let mut resp = Response::refusal(&req.id, status::OVERLOADED, "admission queue is full");
        resp.retry_after_ms = Some(RETRY_MS * (1 + depth as u64));
        return Admission::Refused(resp);
    }
    if depth >= shared.cfg.watermark && !shared.engine.is_cheap(&req) {
        SHED.incr();
        REJECTED_OVERLOADED.incr();
        let mut resp = Response::refusal(
            &req.id,
            status::OVERLOADED,
            "load shedding: queue past watermark, submission needs simulation",
        );
        resp.retry_after_ms = Some(RETRY_MS * (1 + depth as u64));
        return Admission::Refused(resp);
    }

    ACCEPTED.incr();
    let job = Job { req, ctx, admitted, admitted_us, deadline_at, conn: Arc::clone(conn) };
    if job.req.kind == RequestKind::Table {
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        return Admission::Run(job);
    }
    queue.push_back(job);
    drop(queue);
    shared.work_cv.notify_one();
    Admission::Queued
}

/// One connection: read request lines until EOF; each line gets a fresh
/// [`obs::TraceContext`] (echoed as `trace` in the response), then either
/// an immediate `ops` answer, an admission rejection, an immediate lookup
/// answer, or a queue slot. A line longer than [`MAX_LINE_BYTES`] is
/// answered as a bad line and ends the connection, so no client can make
/// its reader buffer without limit.
fn serve_connection(shared: Arc<Shared>, stream: TcpStream) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    // Every answer is one write of one whole line, so Nagle's algorithm
    // has nothing to merge: it would only hold an answer until the
    // client's next request acknowledged the one before it.
    if let Err(e) = stream.set_nodelay(true) {
        obs::warn!("cannot set TCP_NODELAY, answers may wait for the next request: {e}");
    }
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let conn = Arc::new(Mutex::new(stream));
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an overlong line from one that fits.
        match reader.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let overlong = buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n');
        let parsed = if overlong {
            Err(("?".to_string(), format!("request line exceeds {MAX_LINE_BYTES} bytes")))
        } else {
            let Ok(line) = std::str::from_utf8(&buf) else { break };
            if line.trim().is_empty() {
                continue;
            }
            parse_request(line).map_err(|e| (salvage_id(line), e))
        };
        let ctx = obs::TraceContext::fresh();
        match parsed {
            // Control plane: answered right here, never queued, and still
            // answered mid-drain so `ready` can report the drain itself.
            Ok(req) if req.kind == RequestKind::Ops => {
                OPS.incr();
                write_unexecuted(&shared, &conn, ctx, "ops", handle_ops(&shared, &req));
            }
            Ok(req) => {
                let kind = req.kind.name();
                match admit(&shared, req, ctx, &conn) {
                    Admission::Queued => {}
                    Admission::Run(job) => run_jobs(&shared, std::slice::from_ref(&job)),
                    Admission::Refused(resp) => write_unexecuted(&shared, &conn, ctx, kind, resp),
                }
            }
            Err((id, e)) => {
                BAD_LINES.incr();
                let resp = Response::refusal(&id, status::ERROR, e);
                write_unexecuted(&shared, &conn, ctx, "invalid", resp);
                if overlong {
                    break;
                }
            }
        }
    }
}

/// Write an answer the engine never ran for (an `ops` answer, a refusal
/// or a bad line's error) with its trace id, and log it.
fn write_unexecuted(
    shared: &Shared,
    conn: &Mutex<TcpStream>,
    ctx: obs::TraceContext,
    kind: &str,
    mut resp: Response,
) {
    let trace = ctx.trace_hex();
    resp.trace = Some(trace.clone());
    write_response(conn, &resp.id, render_response(&resp));
    log_access(
        shared,
        &AccessEntry {
            ts_us: obs::timestamp_us(),
            id: resp.id,
            trace,
            kind: kind.into(),
            outcome: resp.status,
            queue_wait_us: 0,
            exec_us: 0,
            fuel: 0,
            deadline_slack_ms: 0,
        },
    );
}

/// Answer one control-plane (`ops`) query. Reads shared state and the
/// process-wide metric registry; never touches the queue.
fn handle_ops(shared: &Shared, req: &Request) -> Response {
    let op = req.op.as_deref().unwrap_or("health");
    let payload = match op {
        "health" => Some(format!("{{\"status\":\"ok\",\"uptime_s\":{:.3}}}", shared.started.elapsed().as_secs_f64())),
        // `ready` answers `ok` with a boolean payload (instead of a
        // `draining` refusal) so retrying clients never back off on it.
        "ready" => {
            Some(format!("{{\"ready\":{}}}", !shared.draining.load(Ordering::SeqCst)))
        }
        "stats" => Some(stats_text(shared)),
        "metrics" => Some(metrics_text(shared)),
        _ => None,
    };
    match payload {
        Some(text) => Response {
            id: req.id.clone(),
            status: status::OK.to_string(),
            error: None,
            retry_after_ms: None,
            result: None,
            provenance: None,
            trace: None,
            ops: Some(text),
        },
        None => Response::refusal(
            &req.id,
            status::ERROR,
            format!("unknown ops op {op:?} (want health, ready, metrics or stats)"),
        ),
    }
}

/// The `stats` ops payload: a compact JSON object of live load state.
fn stats_text(shared: &Shared) -> String {
    let queue_depth = shared.queue.lock().expect("queue poisoned").len();
    let inflight = shared.inflight.load(Ordering::Relaxed);
    let draining = shared.draining.load(Ordering::SeqCst);
    format!("{{\"queue_depth\":{queue_depth},\"inflight\":{inflight},\"draining\":{draining}}}")
}

/// The `metrics` ops payload: a plain-text exposition of every registered
/// counter's lifetime total and every histogram's count / mean / p50 / p99
/// upper bounds, prefixed with the provenance fingerprints so a scrape is
/// attributable to the table and profile set that produced it.
fn metrics_text(shared: &Shared) -> String {
    let mut out = String::new();
    out.push_str("# mica-serve metrics\n");
    out.push_str(&format!(
        "# provenance table_fingerprint={} profile_fingerprint={}\n",
        shared.engine.table_fingerprint(),
        shared.engine.profiles().fingerprint
    ));
    for (name, total) in obs::counters() {
        let metric = name.replace('.', "_");
        out.push_str(&format!("{metric}_total {total}\n"));
    }
    for snap in obs::histograms() {
        let metric = snap.name.replace('.', "_");
        out.push_str(&format!("{metric}_count {}\n", snap.count));
        out.push_str(&format!("{metric}_mean {}\n", snap.mean()));
        out.push_str(&format!("{metric}_p50 {}\n", snap.quantile_upper_bound(0.5)));
        out.push_str(&format!("{metric}_p99 {}\n", snap.quantile_upper_bound(0.99)));
    }
    out
}

/// The dispatcher: pop batches of submissions and answer them.
fn dispatch_loop(shared: &Shared) {
    let batch_cap = mica_par::num_threads().max(1);
    loop {
        let batch: Vec<Job> = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            while queue.is_empty() {
                if shared.done.load(Ordering::SeqCst)
                    || (shared.draining.load(Ordering::SeqCst)
                        && shared.inflight.load(Ordering::Relaxed) == 0)
                {
                    return;
                }
                let (q, _) = shared
                    .work_cv
                    .wait_timeout(queue, Duration::from_millis(20))
                    .expect("queue poisoned");
                queue = q;
            }
            let n = queue.len().min(batch_cap);
            shared.inflight.fetch_add(n, Ordering::SeqCst);
            queue.drain(..n).collect()
        };
        run_jobs(shared, &batch);
    }
}

/// `execute` stops a request at its deadline by reading the clock; nothing
/// cancels one earlier, so this flag is never set.
static NEVER_CANCELLED: AtomicBool = AtomicBool::new(false);

/// The one answer path, for the dispatcher's batches and the lookups
/// reader threads run: execute `jobs` under panic isolation (on the pool
/// when there are several), then write each answer, record its latency,
/// emit its `queue` and `request` spans and log it. The caller counted
/// `jobs` in `inflight`; this takes them out once they are answered.
fn run_jobs(shared: &Shared, jobs: &[Job]) {
    let outcomes = mica_par::par_map_isolated(jobs, |job| {
        // Install the request's context so the engine's spans (and any
        // nested pool spans) parent into the request's trace, then
        // backfill the queue wait as a span of that trace.
        let _ctx = obs::install_context(Some(job.ctx));
        let wait_us = job.admitted.elapsed().as_micros() as u64;
        QUEUE_US.record(wait_us);
        // Build span records only when a sink takes them: their names
        // and attributes allocate.
        if obs::spans_enabled() {
            obs::emit_span_record(obs::SpanRecord {
                ts_us: job.admitted_us,
                dur_us: wait_us,
                tid: obs::current_tid(),
                trace_id: job.ctx.trace_id,
                span_id: obs::next_span_id(),
                parent_id: job.ctx.span_id,
                cat: "serve",
                name: "queue".into(),
                attrs: vec![("id", job.req.id.as_str().into())],
            });
        }
        let exec_started = Instant::now();
        let outcome =
            shared.engine.execute(&job.req, job.deadline_at, &NEVER_CANCELLED, &shared.cfg);
        (outcome, wait_us, exec_started.elapsed().as_micros() as u64)
    });

    for (job, result) in jobs.iter().zip(outcomes) {
        let trace = job.ctx.trace_hex();
        let (outcome, line, fuel, queue_wait_us, exec_us) = match result {
            Ok((out, wait_us, exec_us)) => {
                match out.status {
                    status::OK => OK.incr(),
                    status::DEADLINE => DEADLINES.incr(),
                    _ => ERRORS.incr(),
                }
                let (line, fuel) = match &out.result {
                    Some(answer) => (
                        shared.engine.render(&job.req.id, &trace, answer),
                        answer.kernel.executed_instructions(),
                    ),
                    None => {
                        let resp = Response {
                            id: job.req.id.clone(),
                            status: out.status.to_string(),
                            error: out.error,
                            retry_after_ms: None,
                            result: None,
                            provenance: None,
                            trace: Some(trace.clone()),
                            ops: None,
                        };
                        (render_response(&resp), 0)
                    }
                };
                (out.status, line, fuel, wait_us, exec_us)
            }
            Err(panic) => {
                PANICS.incr();
                let mut resp = Response::refusal(
                    &job.req.id,
                    status::PANIC,
                    format!("submission quarantined: {}", panic.payload),
                );
                resp.trace = Some(trace.clone());
                (status::PANIC, render_response(&resp), 0, 0, 0)
            }
        };
        write_response(&job.conn, &job.req.id, line);
        let latency_us = job.admitted.elapsed().as_micros() as u64;
        LATENCY_US.record(latency_us);

        // The trace's root: one `request` span covering admission to
        // response written, with the `queue` and engine spans under it.
        if obs::spans_enabled() {
            obs::emit_span_record(obs::SpanRecord {
                ts_us: job.admitted_us,
                dur_us: latency_us,
                tid: obs::current_tid(),
                trace_id: job.ctx.trace_id,
                span_id: job.ctx.span_id,
                parent_id: 0,
                cat: "serve",
                name: "request".into(),
                attrs: vec![
                    ("id", job.req.id.as_str().into()),
                    ("kind", job.req.kind.name().into()),
                    ("outcome", outcome.into()),
                    ("queue_wait_us", queue_wait_us.into()),
                    ("exec_us", exec_us.into()),
                ],
            });
        }
        log_access(
            shared,
            &AccessEntry {
                ts_us: obs::timestamp_us(),
                id: job.req.id.clone(),
                trace,
                kind: job.req.kind.name().into(),
                outcome: outcome.into(),
                queue_wait_us,
                exec_us,
                fuel,
                deadline_slack_ms: deadline_slack_ms(job.deadline_at, Instant::now()),
            },
        );
    }
    shared.inflight.fetch_sub(jobs.len(), Ordering::SeqCst);
}

/// A running in-process server (tests; the binary uses [`serve`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: thread::JoinHandle<std::io::Result<RunSummary>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain, as SIGTERM would.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
    }

    /// Wait for the drain to finish and return the run summary it wrote
    /// to `run-serve.json`.
    ///
    /// # Errors
    ///
    /// Propagates listener errors from the accept loop.
    pub fn join(self) -> std::io::Result<RunSummary> {
        self.thread.join().expect("server thread panicked")
    }
}

/// Start a server on `cfg.addr` in a background thread and return once
/// the listener is bound and the engine is warm.
///
/// # Errors
///
/// Binding or engine boot failures.
pub fn spawn(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let shared = boot_shared(cfg)?;
    let run_shared = Arc::clone(&shared);
    let thread = thread::Builder::new()
        .name("mica-serve-accept".into())
        .spawn(move || run(run_shared, listener))
        .expect("spawn accept thread");
    Ok(ServerHandle { addr, shared, thread })
}

/// Run the server on the calling thread until a signal (or
/// [`ServerHandle::shutdown`] from elsewhere) drains it, and return the
/// run summary the drain wrote to `run-serve.json`. This is the binary's
/// whole life.
///
/// # Errors
///
/// Binding or engine boot failures.
pub fn serve(cfg: ServeConfig) -> std::io::Result<RunSummary> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let shared = boot_shared(cfg)?;
    run(shared, listener)
}

fn boot_shared(cfg: ServeConfig) -> std::io::Result<Arc<Shared>> {
    register_counters();
    let engine = Engine::boot().map_err(|e| std::io::Error::other(e.to_string()))?;
    Ok(Arc::new(Shared {
        cfg,
        engine,
        started: Instant::now(),
        queue: Mutex::new(VecDeque::new()),
        work_cv: Condvar::new(),
        draining: AtomicBool::new(false),
        done: AtomicBool::new(false),
        inflight: AtomicUsize::new(0),
        access: Mutex::new(create_access_log()),
    }))
}

fn run(shared: Arc<Shared>, listener: TcpListener) -> std::io::Result<RunSummary> {
    // A stable, named Chrome-trace track for the accept loop (the other
    // service threads claim theirs when they start).
    obs::set_service_thread(TRACK_ACCEPT, "mica-serve-accept");
    let mut runner = Runner::new("serve");
    runner.set_table_fingerprint(shared.engine.table_fingerprint());
    listener.set_nonblocking(true)?;
    obs::info!(
        "mica-serve listening on {} (queue {}, watermark {})",
        listener.local_addr()?,
        shared.cfg.queue_cap,
        shared.cfg.watermark
    );

    let dispatcher = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("mica-serve-dispatch".into())
            .spawn(move || {
                obs::set_service_thread(TRACK_DISPATCH, "mica-serve-dispatch");
                dispatch_loop(&shared)
            })
            .expect("spawn dispatcher")
    };

    // The listener stays open *through* the drain: new data requests are
    // refused `draining` by the readers, but `ops` scrapes on fresh
    // connections (`ready` flipping false, final `metrics` pulls) keep
    // being answered until the last in-flight request finishes — exactly
    // when an operator most needs the measurement plane.
    let mut drain_announced = false;
    runner.stage("accept", || {
        loop {
            if SIGNALLED.load(Ordering::SeqCst) {
                shared.draining.store(true, Ordering::SeqCst);
            }
            if shared.draining.load(Ordering::SeqCst) {
                if !drain_announced {
                    drain_announced = true;
                    let backlog = shared.queue.lock().expect("queue poisoned").len();
                    obs::info!("draining: {backlog} queued, finishing in-flight work");
                    DRAINED_IN_FLIGHT
                        .add(backlog as u64 + shared.inflight.load(Ordering::SeqCst) as u64);
                }
                let empty = shared.queue.lock().expect("queue poisoned").is_empty();
                if empty && shared.inflight.load(Ordering::SeqCst) == 0 {
                    break;
                }
            }
            match listener.accept() {
                Ok((stream, peer)) => {
                    obs::debug!("connection from {peer}");
                    let shared = Arc::clone(&shared);
                    // Reader threads are detached: they exit at client EOF,
                    // and the drain waits on *requests*, not connections.
                    let _ = thread::Builder::new()
                        .name("mica-serve-conn".into())
                        .spawn(move || serve_connection(shared, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    obs::warn!("accept failed: {e}");
                    thread::sleep(Duration::from_millis(20));
                }
            }
        }
    });

    // Drain: admission closed and in-flight work already waited out by the
    // accept stage above; stop the worker threads.
    runner.stage("drain", || {
        loop {
            let empty = shared.queue.lock().expect("queue poisoned").is_empty();
            if empty && shared.inflight.load(Ordering::SeqCst) == 0 {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        shared.done.store(true, Ordering::SeqCst);
        shared.work_cv.notify_all();
    });
    dispatcher.join().expect("dispatcher panicked");

    runner.stage("flush-index", || shared.engine.flush_index());

    runner.stage("flush-access-log", || {
        let mut log = shared.access.lock().expect("access log poisoned");
        if let Some(Err(e)) = log.as_mut().map(BufWriter::flush) {
            obs::warn!("cannot flush the access log: {e}");
            *log = None;
        }
    });
    Ok(runner.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_slack_is_signed() {
        let now = Instant::now();
        assert!(deadline_slack_ms(now + Duration::from_millis(250), now) >= 249);
        assert!(deadline_slack_ms(now - Duration::from_millis(250), now) <= -249);
    }

    #[test]
    fn access_entry_round_trips() {
        let entry = AccessEntry {
            ts_us: 123_456,
            id: "q7".into(),
            trace: "00000000deadbeef".into(),
            kind: "asm".into(),
            outcome: "deadline".into(),
            queue_wait_us: 1_500,
            exec_us: 98_000,
            fuel: 50_000,
            deadline_slack_ms: -12,
        };
        let json = serde_json::to_string(&entry).unwrap();
        let back: AccessEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, entry);
    }
}
