//! `mica-perfbench`: run, record and compare the repository benchmark.
//!
//! ```text
//! mica-perfbench bench   --workload W --seed N --seconds S --trace 0|1
//! mica-perfbench run     --seed N [--runs R] [--traced] --out FILE
//! mica-perfbench compare A.json B.json
//! ```
//!
//! Run from the repository root (the committed `results/` is the oracle).
//! `bench` runs one workload and prints its metrics, then one JSON result
//! object as its last line. `run` runs every workload `R` times for
//! `BENCHMARK.json`'s `run_seconds`, each in its own `bench` child
//! process, and writes a result file with provenance. `compare` judges B
//! against A with `BENCHMARK.json`'s bounds; it exits 2 on a regression.

use mica_perfbench::compare::{compare, BenchSpec, ResultFile, RunRecord};
use mica_perfbench::hostspeed::pin_to_one_cpu;
use mica_perfbench::{pin_env, provenance, run_workload, Params, Report, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  mica-perfbench bench --workload W --seed N --seconds S --trace 0|1
  mica-perfbench run --seed N [--runs R] [--traced] --out FILE
  mica-perfbench compare A.json B.json";

/// `--flag value` pairs and bare flags after the subcommand.
struct Args {
    values: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    /// Parse `args`, accepting only the named `flags` (which take a value)
    /// and `switches` (which do not).
    fn parse(args: &[String], flags: &[&str], switches: &[&str]) -> Result<Args, String> {
        let mut values = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(flag) if switches.contains(&flag) => {
                    values.insert(flag.to_string(), "1".to_string());
                }
                Some(flag) if flags.contains(&flag) => {
                    values.insert(flag.to_string(), it.next().cloned().unwrap_or_default());
                }
                Some(flag) => return Err(format!("unknown option --{flag}\n{USAGE}")),
                None => positional.push(a.clone()),
            }
        }
        Ok(Args { values, positional })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.values.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }
}

/// Scratch space for runs: next to the build, inside the checkout.
fn work_base() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent()
                .and_then(Path::parent)
                .map(|d| d.join("perfbench-work"))
        })
        .unwrap_or_else(|| PathBuf::from("perfbench-work"))
}

fn bin_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|e| e.parent().map(Path::to_path_buf))
        .unwrap_or_default()
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn bench(args: &Args) -> Result<(), String> {
    let workload: String = args.get("workload", None)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (want one of {WORKLOADS:?})"
        ));
    }
    let seed: u64 = args.get("seed", None)?;
    let seconds: f64 = args.get("seconds", None)?;
    let trace = match args.get::<String>("trace", Some("0".into()))?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let golden = PathBuf::from("results");
    if !golden.join("profiles.json").is_file() {
        return Err("results/profiles.json not found: run from the repository root".into());
    }
    // End-to-end times are scaled by host-speed samples, which describe
    // only the CPU they ran on; the traced run keeps every CPU for its
    // worker pool.
    let cpu = if trace { None } else { pin_to_one_cpu() };
    let work = work_base().join(format!("{workload}-{}", std::process::id()));
    pin_env(&work);
    let p = Params::paper(seed, seconds, golden, work, bin_dir());
    let mut outcome = run_workload(&workload, &p, trace)?;
    if let Some(cpu) = cpu {
        outcome.note("pinned_cpu", cpu as f64, "cpu");
    }

    for (name, m) in outcome.notes.iter().chain(&outcome.metrics) {
        println!("{workload} {name} = {} {}", m.value, m.unit);
    }
    println!(
        "{workload}: {} of {} operations failed",
        outcome.failed, outcome.attempted
    );
    if trace {
        let path = work_base().join(format!("trace-{workload}.json"));
        let json = serde_json::to_string(&outcome.spans).expect("spans serialize");
        write_file(&path, &json)?;
        println!(
            "{workload}: {} spans in {}",
            outcome.spans.len(),
            path.display()
        );
    }
    let report = serde_json::to_string(&Report::of(&outcome)).expect("report serializes");
    println!("{report}");
    Ok(())
}

/// Run one workload in a child `bench` process and parse its last line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["bench", "--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("launch {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) failed: {}",
            output.status
        ));
    }
    serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn run(args: &Args) -> Result<(), String> {
    let seed: u64 = args.get("seed", None)?;
    let runs: u64 = args.get("runs", Some(1))?;
    let seconds = BenchSpec::load()?.run_seconds as f64;
    let trace = args.values.contains_key("traced");
    let out: String = args.get("out", None)?;
    let started = provenance::unix_now();
    let mut records = Vec::new();
    for workload in WORKLOADS {
        for i in 0..runs {
            let report = child(workload, seed + i, seconds, trace)?;
            records.push(RunRecord {
                workload: workload.to_string(),
                seed: seed + i,
                trace,
                report,
            });
        }
    }
    let file = ResultFile {
        provenance: provenance::collect(seed, seconds, Path::new("results"), started),
        runs: records,
    };
    write_file(
        Path::new(&out),
        &serde_json::to_string_pretty(&file).expect("serializes"),
    )?;
    let failed: u64 = file.runs.iter().map(|r| r.report.failed).sum();
    let attempted: u64 = file.runs.iter().map(|r| r.report.attempted).sum();
    println!(
        "{} runs, {failed} of {attempted} operations failed; results in {out}",
        file.runs.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(1);
    };
    let result = match cmd.as_str() {
        "bench" => Args::parse(rest, &["workload", "seed", "seconds", "trace"], &[])
            .and_then(|args| bench(&args)),
        "run" => {
            Args::parse(rest, &["seed", "runs", "out"], &["traced"]).and_then(|args| run(&args))
        }
        "compare" => match Args::parse(rest, &[], &[]).map(|args| args.positional) {
            Ok(files) if files.len() == 2 => {
                match compare(Path::new(&files[0]), Path::new(&files[1])) {
                    Ok(true) => return ExitCode::from(2),
                    Ok(false) => Ok(()),
                    Err(e) => Err(e),
                }
            }
            Ok(_) => Err(USAGE.to_string()),
            Err(e) => Err(e),
        },
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mica-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
