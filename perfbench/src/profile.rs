//! `profile-paper`: the paper's profiling of its kernels.
//!
//! End to end, the run profiles a fixed sample of the table — every
//! [`SAMPLE_STRIDE`]-th kernel, at the paper's budgets, through MICA and
//! both machine models — one kernel at a time with
//! [`profile_benchmark`], the call [`profile_all`] makes for each kernel.
//! It walks the sample in rounds for the run's duration, and every record
//! must be byte-identical to the committed one in `results/profiles.json`.
//! Each kernel's time is scaled to the reference host speed
//! ([`crate::hostspeed`]), and its latency is its median over the rounds.
//!
//! One stream on one thread, not the worker pool: two busy threads on the
//! two vCPUs of a shared host measured the host's scheduling as much as
//! the pipeline (a full-table pass on the pool varied by a quarter between
//! runs of the same code).
//!
//! Set-up is [`table_fingerprint`], which assembles every kernel and data
//! image. The traced run makes one plain [`profile_all`] pass over the
//! whole table, then replays the table through [`crate::layers`] on the
//! worker pool; the replay's wall time over the plain pass's is the
//! tracing overhead.

use crate::hostspeed::{HostSpeed, Sample};
use crate::layers::{run_kernel, Ledger};
use crate::{median, ms, pass_count, timed, Outcome, Params};
use mica_experiments::profile::{profile_all, profile_benchmark, scaled_budget};
use mica_experiments::results::ProfileSet;
use mica_workloads::{benchmark_table, table_fingerprint};
use std::hint::black_box;
use std::time::Instant;

/// The end-to-end sample is every `SAMPLE_STRIDE`-th kernel of the table,
/// from the first: 16 kernels, 11.7 M instructions at the paper's budgets,
/// drawn from every suite in table order. A round of them takes a few
/// seconds, so a run measures several rounds.
pub const SAMPLE_STRIDE: usize = 8;

fn load_golden(p: &Params) -> Result<(String, ProfileSet), String> {
    let path = p.golden.join("profiles.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let set = serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    Ok((text, set))
}

/// Records of `set` that differ from `golden`, by serialized bytes.
fn mismatches(set: &ProfileSet, golden: &ProfileSet) -> u64 {
    let n = set.records.len().max(golden.records.len());
    let differ = (0..n)
        .filter(|&i| match (set.records.get(i), golden.records.get(i)) {
            (Some(a), Some(b)) => serde_json::to_string(a).ok() != serde_json::to_string(b).ok(),
            _ => true,
        })
        .count() as u64;
    // A difference outside the records (scale, fingerprint) fails one more.
    let header = set.scale != golden.scale || set.fingerprint != golden.fingerprint;
    differ + u64::from(header)
}

/// Run the workload.
///
/// # Errors
///
/// The golden profile set is missing or unreadable, or the scale is
/// invalid.
pub fn run(p: &Params, trace: bool) -> Result<Outcome, String> {
    let (golden_text, golden) = load_golden(p)?;
    let mut out = Outcome::default();
    if trace {
        traced(p, &golden_text, &golden, &mut out)?;
        return Ok(out);
    }
    let mut speed = HostSpeed::new(Sample::Analyzer);
    let setups: Vec<f64> = (0..p.setups.max(1))
        .map(|_| speed.time(|| black_box(table_fingerprint())).0)
        .collect();

    let table = benchmark_table();
    let sample: Vec<_> = table.iter().step_by(SAMPLE_STRIDE).collect();
    // Scaled and raw seconds per sampled kernel, one entry per round.
    let mut scaled = vec![Vec::new(); sample.len()];
    let mut raw = vec![Vec::new(); sample.len()];
    let mut insts = 0;
    let mut rounds = 1;
    let mut done = 0;
    while done < rounds {
        let started = Instant::now();
        for (i, spec) in sample.iter().enumerate() {
            let budget = scaled_budget(spec, p.profile_scale);
            let (s, r, rec) = speed.time(|| profile_benchmark(spec, budget));
            scaled[i].push(s);
            raw[i].push(r);
            let want = golden.records.iter().find(|g| g.name == spec.name());
            let matches = match (&rec, want) {
                (Ok(rec), Some(want)) => {
                    insts += rec.executed_instructions;
                    serde_json::to_string(rec).ok() == serde_json::to_string(want).ok()
                }
                _ => false,
            };
            if !matches {
                eprintln!(
                    "profile-paper: {} does not match the committed profile",
                    spec.name()
                );
            }
            out.check(1, u64::from(!matches));
        }
        done += 1;
        if done == 1 {
            rounds = pass_count(p.seconds, started.elapsed().as_secs_f64());
        }
    }
    // A kernel's time is its median over the rounds; throughput is the
    // sample's kernels over the sum of those times.
    let kernel_s: Vec<f64> = scaled.iter().map(|t| median(t)).collect();
    let round_s: f64 = kernel_s.iter().sum();
    let mut lat: Vec<f64> = kernel_s.iter().map(|s| s * 1e3).collect();
    out.e2e(&setups, sample.len() as f64 / round_s, &mut lat);
    let raw_round_s: f64 = raw.iter().map(|t| median(t)).sum();
    out.note(
        "raw_throughput_per_s",
        sample.len() as f64 / raw_round_s,
        "1/s",
    );
    out.note(
        "profile_minst_per_s",
        insts as f64 / done as f64 / 1e6 / raw_round_s,
        "Minst/s",
    );
    out.note("rounds", done as f64, "count");
    out.host_speed(&speed);
    Ok(out)
}

/// One `profile_all` pass, checked against the golden copy; returns its
/// wall time in seconds.
fn pass(
    p: &Params,
    golden_text: &str,
    golden: &ProfileSet,
    out: &mut Outcome,
) -> Result<f64, String> {
    let (wall, outcome) = timed(|| profile_all(p.profile_scale));
    let outcome = outcome.map_err(|e| e.to_string())?;
    let set = &outcome.set;
    let n = (set.records.len() + outcome.quarantined.len()) as u64;
    let bad = if serde_json::to_string(set).ok().as_deref() == Some(golden_text) {
        0
    } else {
        mismatches(set, golden) + outcome.quarantined.len() as u64
    };
    out.check(n, bad.min(n));
    Ok(wall)
}

/// The traced run: one plain pass, then every table kernel through
/// [`run_kernel`] with both machine models on the worker pool, checked
/// against the committed vectors and IPCs.
fn traced(
    p: &Params,
    golden_text: &str,
    golden: &ProfileSet,
    out: &mut Outcome,
) -> Result<(), String> {
    let epoch = Instant::now();
    out.layer(epoch, "workloads.table_fingerprint", || {
        black_box(table_fingerprint())
    });
    let untraced_s = pass(p, golden_text, golden, out)?;

    let table = benchmark_table();
    let started = Instant::now();
    let runs = mica_par::par_map(&table, |spec| {
        let budget = scaled_budget(spec, p.profile_scale);
        run_kernel(spec.name(), || spec.build_vm(), budget, true, epoch)
    });
    let wall = started.elapsed();

    let mut ledger = Ledger::default();
    let mut bad = 0u64;
    for (spec, run) in table.iter().zip(runs) {
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                eprintln!("profile-paper: {e}");
                bad += 1;
                continue;
            }
        };
        let ok = golden
            .records
            .iter()
            .find(|r| r.name == spec.name())
            .is_some_and(|g| {
                g.mica == run.mica
                    && g.executed_instructions == run.insts
                    && run.ipc == Some((g.hpc.ipc_ev56, g.hpc.ipc_ev67))
            });
        if !ok {
            eprintln!(
                "profile-paper: {} does not match the committed profile",
                spec.name()
            );
            bad += 1;
        }
        ledger.add(&run.ledger);
        out.spans.push(run.span);
    }
    out.check(table.len() as u64, bad);
    ledger.report(out);
    let busy = ledger.kernel_ns as f64 / 1e9;
    out.metric(
        "par.busy_frac",
        busy / (wall.as_secs_f64() * mica_par::num_threads() as f64),
        "ratio",
    );
    out.metric(
        "bench.trace_overhead_frac",
        wall.as_secs_f64() / untraced_s - 1.0,
        "ratio",
    );
    out.note("traced_wall_ms", ms(wall), "ms");
    Ok(())
}
