//! The `mica-prof` command-line front end.
//!
//! ```text
//! mica-prof analyze --trace FILE [--summary FILE] [--out FILE]
//! mica-prof record  --summary FILE --baseline FILE [--label STR]
//! mica-prof check   --summary FILE --baseline FILE
//!                   [--max-ratio R] [--min-abs-s S]
//! mica-prof slo     ACCESS_LOG [--slo-ms N] [--target X]
//! ```
//!
//! Exit codes: 0 success / gate passed, 1 usage or I/O error, 2 the gate
//! found a performance regression or `slo` found the latency objective
//! breached.

use mica_experiments::runner::RunSummary;
use mica_prof::analysis;
use mica_prof::baseline::{check, has_regression, render_findings, Baseline, CheckConfig};
use mica_prof::trace::Trace;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  mica-prof analyze --trace FILE [--summary FILE] [--out FILE]
  mica-prof record  --summary FILE --baseline FILE [--label STR]
  mica-prof check   --summary FILE --baseline FILE [--max-ratio R] [--min-abs-s S]
  mica-prof slo     ACCESS_LOG [--slo-ms N] [--target X]

slo counts an answer good when it is ok within N ms of queue wait plus
execution, and breaches when under a fraction X of answers are good
(defaults: --slo-ms 1000 --target 0.99).

exit codes: 0 ok, 1 usage/io error, 2 performance regression / SLO breach";

/// Flag parser over `--key value` / `--key=value` pairs, plus bare
/// positional operands (`slo ACCESS_LOG`).
struct Args {
    pairs: Vec<(String, String)>,
    free: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut free = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                free.push(arg.clone());
                continue;
            };
            if let Some((k, v)) = key.split_once('=') {
                pairs.push((k.to_string(), v.to_string()));
            } else {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                pairs.push((key.to_string(), v.clone()));
            }
        }
        Ok(Args { pairs, free })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn path(&self, key: &str) -> Option<PathBuf> {
        self.get(key).map(PathBuf::from)
    }

    fn require_path(&self, key: &str) -> Result<PathBuf, String> {
        self.path(key).ok_or_else(|| format!("--{key} is required"))
    }

    /// Reject stray positional operands for commands that take none.
    fn no_free(&self) -> Result<(), String> {
        match self.free.first() {
            Some(arg) => Err(format!("unexpected argument {arg:?}")),
            None => Ok(()),
        }
    }
}

fn load_summary(path: &std::path::Path) -> Result<RunSummary, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read summary {}: {e}", path.display()))?;
    serde_json::from_str(&text)
        .map_err(|e| format!("summary {} does not parse: {e:?}", path.display()))
}

fn cmd_analyze(args: &Args) -> Result<ExitCode, String> {
    args.no_free()?;
    let path = args.require_path("trace")?;
    let trace =
        Trace::load(&path).map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
    let summary = match args.path("summary") {
        Some(p) => Some(load_summary(&p)?),
        None => None,
    };
    let report = analysis::render(&analysis::analyze(&trace, summary.as_ref()));
    match args.path("out") {
        Some(out) => std::fs::write(&out, &report)
            .map_err(|e| format!("cannot write report {}: {e}", out.display()))?,
        None => print!("{report}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn cmd_record(args: &Args) -> Result<ExitCode, String> {
    args.no_free()?;
    let summary = load_summary(&args.require_path("summary")?)?;
    let path = args.require_path("baseline")?;
    let label = args.get("label").unwrap_or("local");
    let mut base = Baseline::load_or_empty(&path);
    let seq = base.record(summary, label, unix_now());
    base.save(&path).map_err(|e| format!("cannot write baseline {}: {e}", path.display()))?;
    println!(
        "recorded entry seq={seq} label={label} into {} ({} entries)",
        path.display(),
        base.entries.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(args: &Args) -> Result<ExitCode, String> {
    args.no_free()?;
    let summary = load_summary(&args.require_path("summary")?)?;
    let path = args.require_path("baseline")?;
    let mut cfg = CheckConfig::default();
    if let Some(r) = args.get("max-ratio") {
        cfg.max_ratio = r.parse().map_err(|_| format!("bad --max-ratio {r:?}"))?;
    }
    if let Some(s) = args.get("min-abs-s") {
        cfg.min_abs_s = s.parse().map_err(|_| format!("bad --min-abs-s {s:?}"))?;
    }
    let base = Baseline::load_or_empty(&path);
    let findings = check(&base, &summary, &cfg);
    print!("{}", render_findings(&findings));
    if has_regression(&findings) {
        eprintln!("mica-prof: performance regression detected");
        Ok(ExitCode::from(2))
    } else {
        println!("mica-prof: gate passed");
        Ok(ExitCode::SUCCESS)
    }
}

/// Audit a serve access log against the latency objective given by
/// `--slo-ms` (default 1000) and `--target` (default 0.99). A 0 ms
/// objective is refused: it would count as good only the answers the log
/// times at 0 µs.
fn cmd_slo(args: &Args) -> Result<ExitCode, String> {
    let [log_path] = args.free.as_slice() else {
        return Err("slo needs exactly one access-log path".to_string());
    };
    let slo_ms: u64 = match args.get("slo-ms") {
        Some(v) => v
            .trim()
            .parse()
            .ok()
            .filter(|&ms| ms >= 1)
            .ok_or_else(|| format!("bad --slo-ms {v:?} (want ms >= 1)"))?,
        None => 1_000,
    };
    let target: f64 = match args.get("target") {
        Some(v) => v.parse().map_err(|_| format!("bad --target {v:?}"))?,
        None => 0.99,
    };
    if !(0.0..1.0).contains(&target) {
        return Err(format!("target {target} must be in [0, 1)"));
    }
    let text = std::fs::read_to_string(log_path)
        .map_err(|e| format!("cannot read access log {log_path}: {e}"))?;
    let report = mica_prof::slo::audit(&text, slo_ms, target);
    print!("{}", mica_prof::slo::render(&report));
    if report.breached() {
        eprintln!("mica-prof: SLO breached");
        Ok(ExitCode::from(2))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let run = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "analyze" => cmd_analyze(&args),
        "record" => cmd_record(&args),
        "check" => cmd_check(&args),
        "slo" => cmd_slo(&args),
        other => Err(format!("unknown command {other:?}")),
    });
    match run {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("mica-prof: {msg}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
