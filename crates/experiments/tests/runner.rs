//! The [`Runner`] run report: `results/run-<bin>.json` must round-trip
//! through the serde layer and carry the stage timings and counters the CI
//! dashboards key on.

use mica_experiments::profile::Quarantine;
use mica_experiments::runner::{Runner, RunSummary};

/// Both tests point `MICA_RESULTS_DIR` at their own directory; serialize
/// them so the process-global env var never flips mid-run.
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn finish_writes_a_parseable_run_summary() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("mica_runner_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("MICA_RESULTS_DIR", &dir);
    std::env::set_var("MICA_LOG", "off");
    std::env::remove_var("MICA_TRACE");
    std::env::remove_var("MICA_EVENTS");
    std::env::set_var("MICA_THREADS", "3");
    std::env::set_var("MICA_SCALE", "0.125");

    static HIST: mica_obs::Histogram = mica_obs::Histogram::new("runner.test.hist_us");
    for v in [10u64, 100, 1000] {
        HIST.record(v);
    }

    let mut run = Runner::new("testbin");
    let answer = run.stage("warmup", || 41 + 1);
    assert_eq!(answer, 42);
    run.stage("spin", || {
        let mut acc = 0u64;
        for i in 0..50_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        assert!(acc > 0);
    });
    let returned = run.finish();

    let path = dir.join("run-testbin.json");
    let text = std::fs::read_to_string(&path).expect("run summary exists");
    let parsed: RunSummary = serde_json::from_str(&text).expect("summary parses");
    assert_eq!(parsed, returned);

    assert_eq!(parsed.bin, "testbin");
    assert_eq!(parsed.threads, 3);
    assert!((parsed.scale - 0.125).abs() < 1e-12);
    assert_eq!(parsed.table_fingerprint, mica_workloads::table_fingerprint());
    assert!(parsed.wall_s > 0.0);

    let stage_names: Vec<&str> = parsed.stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(stage_names, ["warmup", "spin"]);
    assert!(parsed.stages.iter().all(|s| s.wall_s >= 0.0));
    assert!(parsed.wall_s >= parsed.stages.iter().map(|s| s.wall_s).sum::<f64>());

    // Runner::new registers the profiling counters, so they appear (at
    // least at zero) even though this test never profiled anything.
    let counter_names: Vec<&str> = parsed.counters.iter().map(|c| c.name.as_str()).collect();
    for expected in ["profile.kernels", "profile.cache.hit", "profile.cache.miss.absent"] {
        assert!(counter_names.contains(&expected), "missing counter {expected}");
    }
    let mut sorted = counter_names.clone();
    sorted.sort_unstable();
    assert_eq!(counter_names, sorted, "counters are sorted by name");

    // A run that quarantined nothing reports an empty list.
    assert!(parsed.quarantined.is_empty(), "clean run quarantines nothing");

    // Histograms ride along with their raw buckets (trailing zeros
    // trimmed) and stay sorted; the one recorded above must round-trip
    // into a queryable snapshot.
    let hist_names: Vec<&str> = parsed.histograms.iter().map(|h| h.name.as_str()).collect();
    let mut hist_sorted = hist_names.clone();
    hist_sorted.sort_unstable();
    assert_eq!(hist_names, hist_sorted, "histograms are sorted by name");
    let marker = parsed
        .histograms
        .iter()
        .find(|h| h.name == "runner.test.hist_us")
        .expect("recorded histogram appears in the summary");
    assert!(marker.count >= 3);
    assert!(marker.buckets.last() != Some(&0), "trailing zero buckets are trimmed");
    assert!(marker.to_snapshot().quantile_upper_bound(1.0) >= 1000);

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn quarantine_list_round_trips_through_the_summary() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("mica_runner_quarantine_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("MICA_RESULTS_DIR", &dir);
    std::env::set_var("MICA_LOG", "off");
    std::env::remove_var("MICA_TRACE");
    std::env::remove_var("MICA_EVENTS");

    let mut run = Runner::new("qbin");
    run.stage("noop", || ());
    run.quarantine(&[
        Quarantine {
            name: "MiBench/CRC32/pcm".to_string(),
            reason: "panic: injected fault: kernel CRC32 (MICA_FAULTS)".to_string(),
        },
        Quarantine { name: "SPEC2000/bzip2/graphic".to_string(), reason: "io error".to_string() },
    ]);
    // A run that loaded profiles records the table fingerprint their check
    // computed, and the summary carries it instead of computing its own.
    run.set_table_fingerprint(0xfeed);
    let returned = run.finish();

    let text = std::fs::read_to_string(dir.join("run-qbin.json")).expect("run summary exists");
    let parsed: RunSummary = serde_json::from_str(&text).expect("summary parses");
    assert_eq!(parsed, returned);
    assert_eq!(parsed.quarantined.len(), 2);
    assert_eq!(parsed.quarantined[0].name, "MiBench/CRC32/pcm");
    assert!(parsed.quarantined[0].reason.contains("MICA_FAULTS"));
    assert_eq!(parsed.quarantined[1].name, "SPEC2000/bzip2/graphic");
    assert_eq!(parsed.table_fingerprint, 0xfeed);

    std::fs::remove_dir_all(dir).ok();
}
