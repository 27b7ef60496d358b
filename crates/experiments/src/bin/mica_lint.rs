//! `mica-lint`: run the static verifier over all 122 benchmark kernels.
//!
//! Prints every finding (errors and warnings), a per-severity total, and
//! exits nonzero if any `Error`-severity finding is present. Parallelized
//! with `mica-par` (set `MICA_THREADS` to bound the worker count).
//!
//! Flags:
//!
//! - `--json PATH`: also write the findings as a JSON array (kernel, lint
//!   name, severity, pc, disassembly, message) — the machine-readable CI
//!   artifact.
//! - `--static PATH`: also write the per-kernel static report (natural
//!   loops with nesting depth and body instruction ranges, static
//!   instruction mix, refined indirect blocks), which the test suite checks
//!   against the dynamic profile.
//!
//! Both files are written with `mica_fault::io::atomic_write_retry`, so a
//! crash mid-write never leaves a truncated artifact.

use mica_experiments::lint::{findings_json, lint_and_survey};
use mica_experiments::runner::Runner;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line; both outputs are optional.
struct Args {
    json: Option<PathBuf>,
    static_report: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { json: None, static_report: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let slot = match flag.as_str() {
            "--json" => &mut args.json,
            "--static" => &mut args.static_report,
            other => return Err(format!("unknown flag {other} (expected --json/--static)")),
        };
        let path = it.next().ok_or_else(|| format!("{flag} requires a PATH argument"))?;
        *slot = Some(PathBuf::from(path));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mica-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut run = Runner::new("mica-lint");
    let analyzed = run.stage("lint", lint_and_survey);
    let linted = analyzed.len();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut reports = Vec::with_capacity(linted);
    let mut surveys = Vec::with_capacity(linted);
    for (name, report, survey) in analyzed {
        for finding in &report.findings {
            println!("{name}: {}", finding.rendered());
        }
        errors += report.errors().count();
        warnings += report.warnings().count();
        reports.push((name, report));
        surveys.push(survey);
    }
    println!("mica-lint: {linted} programs, {errors} error(s), {warnings} warning(s)");

    if let Some(path) = &args.json {
        let json = serde_json::to_string(&findings_json(&reports)).expect("findings serialize");
        if let Err(e) = mica_fault::io::atomic_write_retry("lint-json", path, json.as_bytes()) {
            eprintln!("mica-lint: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("mica-lint: findings written to {}", path.display());
    }
    if let Some(path) = &args.static_report {
        let json = serde_json::to_string(&surveys).expect("static report serializes");
        if let Err(e) = mica_fault::io::atomic_write_retry("lint-static", path, json.as_bytes()) {
            eprintln!("mica-lint: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("mica-lint: static report written to {}", path.display());
    }

    run.finish();
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
