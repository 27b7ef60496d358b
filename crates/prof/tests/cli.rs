//! End-to-end tests of the `mica-prof` binary's non-gate commands:
//! `analyze` error handling and `--json` output, and `slo`'s check of
//! its latency objective.

use std::path::PathBuf;
use std::process::Command;

struct Run {
    code: i32,
    stdout: String,
    stderr: String,
}

fn run(args: &[&str]) -> Run {
    run_with_env(args, &[])
}

fn run_with_env(args: &[&str], env: &[(&str, &str)]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_mica-prof"))
        .args(args)
        .env_remove("MICA_SERVE_SLO_MS")
        .env_remove("MICA_SERVE_SLO_TARGET")
        .envs(env.iter().copied())
        .output()
        .expect("mica-prof runs");
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

/// A minimal but complete events stream: run > stage > kernel span plus a
/// consistent flush record, so the trace is not truncated.
fn events_text() -> String {
    [
        "{\"t\":\"span\",\"ts_us\":10,\"dur_us\":80,\"tid\":0,\"depth\":2,\
         \"cat\":\"profile\",\"name\":\"MiBench/CRC32/pcm\",\"attrs\":{}}",
        "{\"t\":\"span\",\"ts_us\":5,\"dur_us\":90,\"tid\":0,\"depth\":1,\
         \"cat\":\"stage\",\"name\":\"profile\",\"attrs\":{}}",
        "{\"t\":\"span\",\"ts_us\":0,\"dur_us\":100,\"tid\":0,\"depth\":0,\
         \"cat\":\"run\",\"name\":\"profile\",\"attrs\":{}}",
        "{\"t\":\"flush\",\"events\":0,\"spans\":3,\"dropped_lines\":0}",
    ]
    .join("\n")
        + "\n"
}

#[test]
fn analyze_on_a_missing_events_file_exits_nonzero_and_names_the_path() {
    let missing = temp_dir("absent").join("no-such-events.jsonl");
    let r = run(&["analyze", "--events", missing.to_str().unwrap()]);
    assert_eq!(r.code, 1, "stderr:\n{}", r.stderr);
    assert!(
        r.stderr.contains("no-such-events.jsonl"),
        "error must name the offending path:\n{}",
        r.stderr
    );
    assert!(r.stderr.contains("cannot read events"), "{}", r.stderr);
}

#[test]
fn analyze_json_writes_a_parseable_machine_report() {
    let dir = temp_dir("json");
    let events = dir.join("events.jsonl");
    std::fs::write(&events, events_text()).unwrap();
    let json_path = dir.join("report.json");
    let r = run(&[
        "analyze",
        "--events",
        events.to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert_eq!(r.code, 0, "stderr:\n{}", r.stderr);
    assert!(r.stdout.contains("# mica-prof report"), "human report still printed");
    let text = std::fs::read_to_string(&json_path).expect("JSON report written");
    let report: mica_prof::analysis::JsonReport =
        serde_json::from_str(&text).expect("JSON report parses");
    assert_eq!(report.bin.as_deref(), Some("profile"));
    assert_eq!(report.kernel_count, 1);
    assert_eq!(report.kernels_top[0].name, "MiBench/CRC32/pcm");
    assert!(!report.truncated);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn slo_rejects_a_zero_objective_from_the_flag_or_the_environment() {
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
    let env = run_with_env(&["slo", log], &[("MICA_SERVE_SLO_MS", "0")]);
    assert_eq!(env.code, 1, "stdout:\n{}\nstderr:\n{}", env.stdout, env.stderr);
    assert!(env.stderr.contains("bad MICA_SERVE_SLO_MS \"0\""), "{}", env.stderr);
    // A positive objective from either source still audits the log.
    assert_eq!(run(&["slo", log, "--slo-ms", "1"]).code, 0);
    assert_eq!(run_with_env(&["slo", log], &[("MICA_SERVE_SLO_MS", "1")]).code, 0);
    std::fs::remove_dir_all(dir).ok();
}
