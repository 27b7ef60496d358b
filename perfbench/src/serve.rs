//! `serve-lookup` and `serve-submit`: `mica-serve` under load.
//!
//! Both boot the server in process ([`spawn`], port 0) on a results
//! directory holding the committed profile cache. Set-up is the time from
//! [`spawn`] to the first `ready` answer, taken over several boots.
//!
//! - `serve-lookup` is an open loop of seeded Poisson arrivals over one
//!   connection: `table` lookups only (k ∈ {1, 5, 10}, euclidean or
//!   cosine), so queueing, dispatch, kNN and serialization are measured
//!   with no simulation. Latency comes from the open loop. The second
//!   half of the run is a closed loop of one client sending lookups back
//!   to back, whose answer rate is the throughput: an open loop's answer
//!   rate is its offered rate and says nothing of the server.
//!   Every answered vector must equal the committed record.
//! - `serve-submit` is a closed loop of one client submitting `zoo`
//!   misses: every third table kernel once per round, in table order, with
//!   fresh seeded data seeds. It runs the VM and the MICA analyzers and
//!   bypasses the machine models. Every tenth answer is recomputed in
//!   process after the timed phase and must match.
//!
//! Set-up, capacity rounds and submissions are timed between host-speed
//! samples and scaled to the reference speed ([`crate::hostspeed`]):
//! service samples for `serve-lookup`, analyzer samples for
//! `serve-submit`. Open-loop latency is reported as measured.

use crate::hostspeed::{HostSpeed, Sample};
use crate::layers::{run_kernel, Ledger};
use crate::loadgen::{closed_loop, open_loop, poisson_schedule, LoadRun};
use crate::{
    median, ms, pass_count, percentile, seed_results_dir, LayerTime, Outcome, Params, Span,
};
use mica_experiments::profile::scaled_budget;
use mica_experiments::query::{DistanceMetric, QuerySpace};
use mica_experiments::results::ProfileSet;
use mica_serve::engine::Engine;
use mica_serve::protocol::{
    parse_request, render_response, status, Request, RequestKind, Response,
};
use mica_serve::server::{spawn, AccessEntry, ServerHandle};
use mica_serve::ServeConfig;
use mica_workloads::benchmark_table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

const KS: [u64; 3] = [1, 5, 10];
const METRICS: [&str; 2] = ["euclidean", "cosine"];
/// Share of a `serve-lookup` run spent in the closed-loop capacity phase;
/// the rest is the open loop. Half: the capacity rate moves with the host's
/// speed and needs the longer window more than the open loop's latency
/// percentiles, which rest on thousands of requests either way.
const CAPACITY_SHARE: f64 = 0.5;
/// Lookups per capacity round.
const CAPACITY_ROUND: usize = 1000;
/// Submissions carry a generous deadline: the workload measures service
/// time, not the default 2 s deadline policy.
const SUBMIT_DEADLINE_MS: u64 = 30_000;

/// The default admission queue (32) holds 80 ms of the open loop's
/// arrivals, so a stall of the shared host would turn into `overloaded`
/// refusals, which the workload counts as failures. The open loop measures
/// latency, so a stall must show as waiting: the queue holds ten seconds of
/// arrivals instead. The closed loops keep at most one request queued.
const QUEUE_CAP: usize = 4096;

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        queue_cap: QUEUE_CAP,
        watermark: QUEUE_CAP * 3 / 4,
        ..ServeConfig::default()
    }
}

/// Whether the server at `addr` answers `ready` with `true`.
fn is_ready(addr: SocketAddr) -> bool {
    let Ok(stream) = TcpStream::connect(addr) else {
        return false;
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return false,
    };
    if writer
        .write_all(b"{\"id\":\"ready\",\"kind\":\"ops\",\"op\":\"ready\"}\n")
        .is_err()
    {
        return false;
    }
    let mut line = String::new();
    if BufReader::new(stream).read_line(&mut line).is_err() {
        return false;
    }
    serde_json::from_str::<Response>(&line).is_ok_and(|r| {
        r.status == status::OK && r.ops.is_some_and(|o| o.contains("\"ready\":true"))
    })
}

/// Boot `setups` servers in turn, timing spawn → first `ready` (scaled to
/// the reference host speed); drain all but the last, which is returned
/// running.
fn boot(setups: usize, speed: &mut HostSpeed) -> Result<(Vec<f64>, ServerHandle), String> {
    let mut times = Vec::new();
    loop {
        let (scaled, _, handle) = speed.time(|| {
            let started = Instant::now();
            let handle = spawn(config()).map_err(|e| format!("server boot: {e}"))?;
            while !is_ready(handle.addr()) {
                if started.elapsed() > Duration::from_secs(60) {
                    return Err("server never answered ready".to_string());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(handle)
        });
        let handle = handle?;
        times.push(scaled);
        if times.len() >= setups.max(1) {
            return Ok((times, handle));
        }
        drain(handle)?;
    }
}

/// Drain the server and wait for it to stop.
fn drain(server: ServerHandle) -> Result<(), String> {
    server.shutdown();
    server
        .join()
        .map(drop)
        .map_err(|e| format!("server drain: {e}"))
}

/// The access log a drained server left in `dir`.
fn access_log(dir: &Path) -> Vec<AccessEntry> {
    let text = std::fs::read_to_string(dir.join("serve-access.jsonl")).unwrap_or_default();
    text.lines()
        .filter_map(|l| serde_json::from_str(l).ok())
        .collect()
}

fn load_golden(p: &Params) -> Result<ProfileSet, String> {
    let path = p.golden.join("profiles.json");
    ProfileSet::load(&path).map_err(|e| format!("load {}: {e}", path.display()))
}

/// A fresh results directory for the server, as `MICA_RESULTS_DIR`.
fn results_dir(p: &Params) -> Result<std::path::PathBuf, String> {
    let dir = p.work.join("results");
    seed_results_dir(&p.golden, &dir)?;
    std::env::set_var("MICA_RESULTS_DIR", &dir);
    Ok(dir)
}

fn request_line(req: &Request) -> String {
    serde_json::to_string(req).expect("Request serializes")
}

/// Parse each answer; `None` for a missing or unparsable one.
fn responses(run: &LoadRun) -> Vec<Option<Response>> {
    run.answers
        .iter()
        .map(|a| a.as_ref().and_then(|a| serde_json::from_str(&a.line).ok()))
        .collect()
}

fn refused(resps: &[Option<Response>]) -> u64 {
    resps
        .iter()
        .flatten()
        .filter(|r| r.status == status::OVERLOADED || r.status == status::DRAINING)
        .count() as u64
}

fn latencies_ms(run: &LoadRun) -> Vec<f64> {
    run.answers
        .iter()
        .flatten()
        .map(|a| ms(a.latency))
        .collect()
}

/// Load-generator validity numbers.
fn loadgen_metrics(out: &mut Outcome, run: &LoadRun, sent: usize, refused: u64, trace: bool) {
    let mut late: Vec<f64> = run.late.iter().map(|&d| ms(d)).collect();
    late.sort_by(f64::total_cmp);
    let put = if trace {
        Outcome::metric
    } else {
        Outcome::note
    };
    put(out, "loadgen.late_p99_ms", percentile(&late, 0.99), "ms");
    put(out, "loadgen.sent", sent as f64, "count");
    put(out, "loadgen.refused", refused as f64, "count");
}

/// Queue and execution percentiles from the server's own access log.
fn access_metrics(out: &mut Outcome, log: &[AccessEntry]) {
    let data: Vec<&AccessEntry> = log
        .iter()
        .filter(|e| e.kind == "table" || e.kind == "zoo")
        .collect();
    let sorted = |f: fn(&AccessEntry) -> u64| {
        let mut v: Vec<f64> = data.iter().map(|e| f(e) as f64).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let queue = sorted(|e| e.queue_wait_us);
    let exec = sorted(|e| e.exec_us);
    out.metric("serve.queue_wait_p50_us", percentile(&queue, 0.5), "us");
    out.metric("serve.queue_wait_p90_us", percentile(&queue, 0.9), "us");
    out.metric("serve.exec_p50_us", percentile(&exec, 0.5), "us");
    out.metric("serve.exec_p90_us", percentile(&exec, 0.9), "us");
    // Table answers report their record's instruction count as fuel
    // without running anything, so only zoo submissions count here.
    let (exec_us, fuel) = data
        .iter()
        .filter(|e| e.kind == "zoo")
        .fold((0u64, 0u64), |(x, f), e| (x + e.exec_us, f + e.fuel));
    out.metric(
        "serve.sim_ns_per_inst",
        exec_us as f64 * 1e3 / fuel.max(1) as f64,
        "ns",
    );
}

/// Replay answered requests through the serve layers' public functions:
/// request parsing, [`Engine::execute`] (table lookups only), the kNN
/// ranking and response rendering.
fn replay_layers(
    out: &mut Outcome,
    lines: &[String],
    run: &LoadRun,
    resps: &[Option<Response>],
) -> Result<(), String> {
    let epoch = Instant::now();
    let engine = out.layer(epoch, "serve.engine_boot", Engine::boot);
    let engine = engine.map_err(|e| format!("engine boot: {e}"))?;
    let space = out.layer(epoch, "experiments.query_space_build", || {
        QuerySpace::build(engine.profiles(), 8)
    });

    let cfg = config();
    let cancel = AtomicBool::new(false);
    let mut sums = [0u64; 4]; // parse, execute (table), knn, render, in ns
    let (mut tables, mut n, mut bytes) = (0u64, 0u64, 0u64);
    let time_ns = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as u64
    };
    for ((line, answer), resp) in lines.iter().zip(&run.answers).zip(resps) {
        let (Some(answer), Some(resp)) = (answer, resp) else {
            continue;
        };
        let Some(result) = &resp.result else { continue };
        let started = Instant::now();
        let mut req = None;
        let parse = time_ns(&mut || req = parse_request(line).ok());
        let Some(req) = req else { continue };
        let execute = if req.kind == RequestKind::Table {
            tables += 1;
            let deadline = Instant::now() + Duration::from_secs(60);
            time_ns(&mut || {
                std::hint::black_box(engine.execute(&req, deadline, &cancel, &cfg));
            })
        } else {
            0
        };
        let metric = DistanceMetric::parse(&result.metric).unwrap_or(DistanceMetric::Euclidean);
        let k = result.neighbors.len();
        let knn = time_ns(&mut || {
            if let Some(point) = space.project(&result.vector) {
                std::hint::black_box(space.neighbors(&point, k, metric));
            }
        });
        let render = time_ns(&mut || {
            std::hint::black_box(render_response(resp));
        });
        for (s, v) in sums.iter_mut().zip([parse, execute, knn, render]) {
            *s += v;
        }
        n += 1;
        bytes += answer.line.len() as u64;
        let layers = ["serve.parse", "serve.execute", "serve.knn", "serve.render"]
            .iter()
            .zip([parse, execute, knn, render])
            .filter(|(_, ns)| *ns > 0)
            .map(|(l, ns)| LayerTime {
                layer: l.to_string(),
                busy_ns: ns,
                calls: 1,
            })
            .collect();
        out.spans.push(Span {
            name: req.id.clone(),
            thread: mica_obs::current_tid(),
            start_us: started.duration_since(epoch).as_micros() as u64,
            dur_us: started.elapsed().as_micros() as u64,
            layers,
        });
    }
    let per = |ns: u64, count: u64| ns as f64 / 1e3 / count.max(1) as f64;
    out.metric("serve.parse_us", per(sums[0], n), "us");
    out.metric("serve.execute_table_us", per(sums[1], tables), "us");
    out.metric("serve.knn_us", per(sums[2], n), "us");
    out.metric("serve.render_us", per(sums[3], n), "us");
    out.metric(
        "serve.response_bytes",
        bytes as f64 / n.max(1) as f64,
        "bytes",
    );
    Ok(())
}

/// `n` seeded `table` lookups (ids `q0`…): the golden record each names,
/// and the request lines.
fn lookups(rng: &mut StdRng, golden: &ProfileSet, n: usize) -> (Vec<usize>, Vec<String>) {
    (0..n)
        .map(|i| {
            let rec = rng.gen_range(0..golden.records.len());
            let mut req = Request::new(format!("q{i}"), RequestKind::Table);
            req.name = Some(golden.records[rec].name.clone());
            req.k = Some(KS[rng.gen_range(0..KS.len())]);
            req.metric = Some(METRICS[rng.gen_range(0..METRICS.len())].to_string());
            (rec, request_line(&req))
        })
        .unzip()
}

/// Answers that are missing, not `ok`, or whose vector differs from the
/// committed record.
fn wrong_lookups(resps: &[Option<Response>], picks: &[usize], golden: &ProfileSet) -> u64 {
    resps
        .iter()
        .zip(picks)
        .filter(|(r, &rec)| {
            !r.as_ref().is_some_and(|r| {
                r.status == status::OK
                    && r.result
                        .as_ref()
                        .is_some_and(|q| q.vector == golden.records[rec].mica.values())
            })
        })
        .count() as u64
}

/// Run `serve-lookup`.
///
/// # Errors
///
/// The golden cache is missing, or the server or a connection fails.
pub fn lookup(p: &Params, trace: bool) -> Result<Outcome, String> {
    let golden = load_golden(p)?;
    let dir = results_dir(p)?;
    let mut speed = HostSpeed::new(Sample::Service);
    let (setups, server) = boot(p.setups, &mut speed)?;
    let mut rng = StdRng::seed_from_u64(p.seed);
    let open_s = p.seconds * (1.0 - CAPACITY_SHARE);
    let schedule = poisson_schedule(&mut rng, p.lookup_rate, Duration::from_secs_f64(open_s));
    let (picks, lines) = lookups(&mut rng, &golden, schedule.len());
    let mut out = Outcome::default();
    // Scaled and raw answer rates of the capacity rounds, and their wall.
    let (mut rates, mut raw_rates, mut capacity_s) = (Vec::new(), Vec::new(), 0.0);
    let load = (|| {
        let run =
            open_loop(server.addr(), &lines, &schedule).map_err(|e| format!("open loop: {e}"))?;
        // Each round is checked as soon as it ends, so that the checks fit
        // in the capacity phase and no round's answers are kept.
        let mut planned = 1;
        while rates.len() < planned {
            let started = Instant::now();
            let (picks, lines) = lookups(&mut rng, &golden, CAPACITY_ROUND);
            let (scaled, _, round) = speed.time(|| closed_loop(server.addr(), &lines, &mut || {}));
            let round = round.map_err(|e| format!("closed loop: {e}"))?;
            let bad = wrong_lookups(&responses(&round), &picks, &golden);
            out.check(picks.len() as u64, bad);
            let good = (picks.len() as u64 - bad) as f64;
            rates.push(good / scaled);
            raw_rates.push(good / round.wall.as_secs_f64());
            capacity_s += round.wall.as_secs_f64();
            if rates.len() == 1 {
                planned = pass_count(p.seconds * CAPACITY_SHARE, started.elapsed().as_secs_f64());
            }
        }
        Ok::<_, String>(run)
    })();
    drain(server)?;
    let run = load?;

    let resps = responses(&run);
    out.check(lines.len() as u64, wrong_lookups(&resps, &picks, &golden));
    loadgen_metrics(&mut out, &run, lines.len(), refused(&resps), trace);
    if trace {
        let started = Instant::now();
        access_metrics(&mut out, &access_log(&dir));
        replay_layers(&mut out, &lines, &run, &resps)?;
        out.metric(
            "bench.trace_overhead_frac",
            started.elapsed().as_secs_f64() / (run.wall.as_secs_f64() + capacity_s),
            "ratio",
        );
    } else {
        // Open-loop latency is not scaled: it is set by when requests
        // arrive and how the sockets wake, not by how fast the host computes.
        let mut lat = latencies_ms(&run);
        out.e2e(&setups, median(&rates), &mut lat);
        out.note("lookup_p99_ms", percentile(&lat, 0.99), "ms");
        out.note("raw_throughput_per_s", median(&raw_rates), "1/s");
        out.note("capacity_rounds", rates.len() as f64, "count");
        out.host_speed(&speed);
    }
    Ok(out)
}

/// One round: `zoo_kernels` table kernels spread evenly over the table, in
/// table order, each with a fresh seeded data seed; returns each request's
/// `(table index, data seed)` and the request lines. The kernels are fixed
/// and only their data is seeded, so every round asks for the same
/// instruction budgets and rounds compare.
fn submit_round(
    rng: &mut StdRng,
    p: &Params,
    names: &[String],
) -> (Vec<(usize, u64)>, Vec<String>) {
    let n = p.zoo_kernels.clamp(1, names.len());
    (0..n)
        .map(|i| {
            let kernel = i * names.len() / n;
            let seed = rng.gen::<u64>();
            let mut req = Request::new(format!("q{i}"), RequestKind::Zoo);
            req.name = Some(names[kernel].clone());
            req.seed = Some(seed);
            req.scale = p.zoo_scale;
            req.deadline_ms = Some(SUBMIT_DEADLINE_MS);
            req.k = Some(KS[rng.gen_range(0..KS.len())]);
            req.metric = Some(METRICS[rng.gen_range(0..METRICS.len())].to_string());
            ((kernel, seed), request_line(&req))
        })
        .unzip()
}

/// Run `serve-submit`.
///
/// # Errors
///
/// The golden cache is missing, or the server or a connection fails.
pub fn submit(p: &Params, trace: bool) -> Result<Outcome, String> {
    let table = benchmark_table();
    let names: Vec<String> = table.iter().map(|s| s.name()).collect();
    let dir = results_dir(p)?;
    let mut speed = HostSpeed::new(Sample::Analyzer);
    let (setups, server) = boot(p.setups, &mut speed)?;
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut rounds = Vec::new();
    let mut planned = 1;
    let mut failure = None;
    while rounds.len() < planned {
        let (seeds, lines) = submit_round(&mut rng, p, &names);
        // Answer `i` falls between samples `first + i` and `first + i + 1`.
        let first = speed.last();
        match closed_loop(server.addr(), &lines, &mut || {
            speed.sample();
        }) {
            Ok(run) => {
                if rounds.is_empty() {
                    planned = pass_count(p.seconds, run.wall.as_secs_f64());
                }
                rounds.push((seeds, lines, run, first));
            }
            Err(e) => {
                failure = Some(format!("closed loop: {e}"));
                break;
            }
        }
    }
    drain(server)?;
    if let Some(e) = failure {
        return Err(e);
    }

    let mut out = Outcome::default();
    let scale = p.zoo_scale.unwrap_or(1.0);
    let mut to_verify = Vec::new();
    let (mut sent, mut refusals) = (0usize, 0u64);
    // Scaled and raw latency of each round position (one kernel) over the
    // rounds, in seconds.
    let kernels = rounds.first().map_or(0, |(_, l, _, _)| l.len());
    let (mut scaled, mut raw) = (vec![Vec::new(); kernels], vec![Vec::new(); kernels]);
    let mut wall = 0.0;
    for (seeds, lines, run, first) in &rounds {
        let resps = responses(run);
        refusals += refused(&resps);
        sent += lines.len();
        wall += run.wall.as_secs_f64();
        for (i, answer) in run.answers.iter().enumerate() {
            if let Some(a) = answer {
                let s = a.latency.as_secs_f64();
                scaled[i].push(speed.scale(s, first + i));
                raw[i].push(s);
            }
        }
        let mut bad = 0;
        for (i, resp) in resps.into_iter().enumerate() {
            match resp
                .filter(|r| r.status == status::OK)
                .and_then(|r| r.result)
            {
                Some(result) if (sent - lines.len() + i) % 10 == 0 => {
                    to_verify.push((seeds[i], result))
                }
                Some(_) => {}
                None => bad += 1,
            }
        }
        out.check(lines.len() as u64, bad);
    }

    // Recompute every tenth answer in process, after the timed phase.
    let epoch = Instant::now();
    let checks = mica_par::par_map(&to_verify, |&((i, seed), _)| {
        let spec = &table[i];
        let budget = scaled_budget(spec, scale);
        run_kernel(
            format!("{}?seed={seed}", spec.name()),
            || spec.kernel.build_vm(seed),
            budget,
            false,
            epoch,
        )
    });
    let mut ledger = Ledger::default();
    let mut bad = 0;
    for ((_, result), check) in to_verify.iter().zip(checks) {
        let good = check.as_ref().is_ok_and(|k| {
            k.mica.values() == result.vector && k.insts == result.executed_instructions
        });
        if !good {
            bad += 1;
            eprintln!(
                "serve-submit: answer {} does not match its recomputation",
                result.name
            );
        }
        if let Ok(k) = check {
            ledger.add(&k.ledger);
            out.spans.push(k.span);
        }
    }
    out.failed += bad;

    let last = rounds.last().map(|(_, _, run, _)| run);
    if let Some(run) = last {
        loadgen_metrics(&mut out, run, sent, refusals, trace);
    }
    if trace {
        let started = Instant::now();
        access_metrics(&mut out, &access_log(&dir));
        ledger.report(&mut out);
        if let Some((_, lines, run, _)) = rounds.first() {
            replay_layers(&mut out, lines, run, &responses(run))?;
        }
        out.metric(
            "bench.trace_overhead_frac",
            started.elapsed().as_secs_f64() / wall,
            "ratio",
        );
    } else {
        // A kernel's latency is its median over the rounds; throughput is
        // the kernels answered per second of those latencies.
        let kernel_s: Vec<f64> = scaled.iter().map(|l| median(l)).collect();
        let mut lat: Vec<f64> = kernel_s.iter().map(|s| s * 1e3).collect();
        out.e2e(
            &setups,
            kernels as f64 / kernel_s.iter().sum::<f64>(),
            &mut lat,
        );
        let raw_s: f64 = raw.iter().map(|l| median(l)).sum();
        out.note("raw_throughput_per_s", kernels as f64 / raw_s, "1/s");
        out.note("rounds", rounds.len() as f64, "count");
        out.host_speed(&speed);
    }
    Ok(out)
}
