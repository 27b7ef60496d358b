//! End-to-end tests of the `mica-prof` binary's non-gate commands:
//! `analyze` error handling and report, and `slo`'s check of its latency
//! objective.

use std::path::PathBuf;
use std::process::Command;

struct Run {
    code: i32,
    stdout: String,
    stderr: String,
}

fn run(args: &[&str]) -> Run {
    let out =
        Command::new(env!("CARGO_BIN_EXE_mica-prof")).args(args).output().expect("mica-prof runs");
    Run {
        code: out.status.code().expect("exit code"),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mica_prof_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A minimal but complete Chrome trace: run > stage > kernel span plus
/// consistent `otherData` counts, so the trace is not truncated.
fn trace_text() -> String {
    let span = |ts: u64, dur: u64, id: u64, cat: &str, name: &str| {
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
             \"pid\":1,\"tid\":0,\"args\":{{\"trace\":7,\"span\":{id},\"parent\":{},\
             \"attrs\":{{}}}}}}",
            id - 1
        )
    };
    format!(
        "{{\"traceEvents\":[{},{},{}],\"displayTimeUnit\":\"ms\",\
         \"otherData\":{{\"events\":0,\"spans\":3,\"dropped_events\":0}}}}",
        span(10, 80, 3, "profile", "MiBench/CRC32/pcm"),
        span(5, 90, 2, "stage", "profile"),
        span(0, 100, 1, "run", "profile"),
    )
}

#[test]
fn analyze_on_a_missing_events_file_exits_nonzero_and_names_the_path() {
    let missing = temp_dir("absent").join("no-such-trace.json");
    let r = run(&["analyze", "--trace", missing.to_str().unwrap()]);
    assert_eq!(r.code, 1, "stderr:\n{}", r.stderr);
    assert!(
        r.stderr.contains("no-such-trace.json"),
        "error must name the offending path:\n{}",
        r.stderr
    );
    assert!(r.stderr.contains("cannot read trace"), "{}", r.stderr);
}

#[test]
fn analyze_prints_the_report_of_a_trace() {
    let dir = temp_dir("report");
    let trace = dir.join("trace.json");
    std::fs::write(&trace, trace_text()).unwrap();
    let r = run(&["analyze", "--trace", trace.to_str().unwrap()]);
    assert_eq!(r.code, 0, "stderr:\n{}", r.stderr);
    assert!(
        r.stdout.contains("# mica-prof report: profile\n"),
        "bin from the run span:\n{}",
        r.stdout
    );
    assert!(r.stdout.contains("## Kernels (1 spans)"), "{}", r.stdout);
    assert!(r.stdout.contains("  MiBench/CRC32/pcm "), "{}", r.stdout);
    assert!(!r.stdout.contains("WARNING"), "a complete trace is not truncated:\n{}", r.stdout);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn slo_rejects_a_zero_objective_from_the_flag() {
    let dir = temp_dir("slo_zero");
    let log = dir.join("serve-access.jsonl");
    std::fs::write(
        &log,
        "{\"kind\":\"table\",\"outcome\":\"ok\",\"queue_wait_us\":5,\"exec_us\":20}\n",
    )
    .unwrap();
    let log = log.to_str().unwrap();
    let flag = run(&["slo", log, "--slo-ms", "0"]);
    assert_eq!(flag.code, 1, "stdout:\n{}\nstderr:\n{}", flag.stdout, flag.stderr);
    assert!(flag.stderr.contains("bad --slo-ms \"0\""), "{}", flag.stderr);
    // A positive objective still audits the log.
    assert_eq!(run(&["slo", log, "--slo-ms", "1"]).code, 0);
    std::fs::remove_dir_all(dir).ok();
}
