//! The parallel profiling pipeline must be bit-identical to its serial
//! reference — the cached JSON artifacts are scientific outputs, and a
//! thread-count-dependent byte in them would poison every downstream
//! comparison.
//!
//! `MICA_THREADS` is pinned to 4 so the parallel path genuinely runs
//! multi-threaded even on single-core CI machines.

use mica_experiments::profile::{profile_all, profile_all_serial};

#[test]
fn parallel_profile_all_is_byte_identical_to_serial() {
    std::env::set_var("MICA_THREADS", "4");
    std::env::set_var("MICA_LOG", "warn");
    // Tiny scale: every budget hits the 10 000-instruction floor, so the
    // full 122-benchmark sweep stays fast while still exercising every
    // kernel through both characterizations.
    let outcome = profile_all(1e-9).expect("parallel profiling succeeds");
    assert!(outcome.quarantined.is_empty(), "clean run quarantines nothing");
    let par = outcome.set;
    let ser = profile_all_serial(1e-9).expect("serial profiling succeeds");
    assert_eq!(par.records.len(), 122);
    assert_eq!(par, ser, "parallel and serial profile sets must be equal");
    let par_json = serde_json::to_string(&par).expect("serializes");
    let ser_json = serde_json::to_string(&ser).expect("serializes");
    assert_eq!(par_json, ser_json, "serialized artifacts must match byte for byte");
}

/// Observability must be a pure observer: running the identical sweep with
/// a Chrome-trace sink attached — under an installed
/// request-style [`mica_obs::TraceContext`], with concurrent ops-plane
/// scrapes (counter/histogram snapshots, the reads `ops metrics`
/// performs) — cannot change a single byte of the scientific output.
#[test]
fn tracing_does_not_change_results() {
    std::env::set_var("MICA_THREADS", "4");
    std::env::set_var("MICA_LOG", "warn");
    let dir = std::env::temp_dir().join(format!("mica_trace_determinism_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");

    let quiet = profile_all(1e-9).expect("untraced profiling succeeds").set;

    // The sink is installed programmatically (not via MICA_TRACE) because
    // the env-driven init already ran for this process.
    let trace = mica_obs::add_sink(Box::new(mica_obs::ChromeTraceSink::create(trace_path.clone())));
    let traced = {
        // The serve daemon runs every request under an installed context
        // while ops scrapes read the metrics from other threads;
        // reproduce both here around the sweep.
        let ctx = mica_obs::TraceContext::fresh();
        let _guard = mica_obs::install_context(Some(ctx));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let scraper = {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scrapes = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let _ = mica_obs::counters();
                    let _ = mica_obs::histograms();
                    scrapes += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                scrapes
            })
        };
        let set = profile_all(1e-9).expect("traced profiling succeeds").set;
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(scraper.join().expect("scraper thread") > 0, "no scrapes ran");
        set
    };
    mica_obs::flush();
    mica_obs::remove_sink(trace);

    assert_eq!(
        serde_json::to_string(&quiet).expect("serializes"),
        serde_json::to_string(&traced).expect("serializes"),
        "tracing changed the profile artifact"
    );

    // And the observer actually observed: the trace is valid Chrome-trace
    // JSON with a span per kernel, and its otherData counts the spans.
    let doc: serde::Value = serde_json::from_str(
        &std::fs::read_to_string(&trace_path).expect("trace written"),
    )
    .expect("trace parses");
    let events = doc.field("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    fn is(e: &serde::Value, key: &str, want: &str) -> bool {
        matches!(e.field(key), Some(serde::Value::String(s)) if s == want)
    }
    let kernels = events
        .iter()
        .filter(|e| is(e, "ph", "X") && is(e, "cat", "profile") && !is(e, "name", "profile_all"))
        .count();
    assert!(kernels >= 122, "expected per-kernel spans, got {kernels}");
    let spans = events.iter().filter(|e| is(e, "ph", "X")).count() as u64;
    let counted = doc.field("otherData").and_then(|o| o.field("spans")).and_then(|n| match n {
        serde::Value::Number(n) => n.as_u64(),
        _ => None,
    });
    assert_eq!(counted, Some(spans), "otherData counts every span in the file");

    std::fs::remove_dir_all(dir).ok();
}

/// Allocation profiling must be a pure observer too: the identical sweep
/// with `MICA_ALLOC`-style tracking on cannot change a byte of the
/// scientific output, while the tracker itself demonstrably counted the
/// run's allocations.
#[test]
fn alloc_tracking_does_not_change_results() {
    std::env::set_var("MICA_THREADS", "4");
    std::env::set_var("MICA_LOG", "warn");

    let untracked = profile_all(1e-9).expect("untracked profiling succeeds").set;

    // Enabled programmatically (not via MICA_ALLOC) because the env-driven
    // init already ran for this process. The test binary links
    // mica_experiments, so its #[global_allocator] is the tracking one.
    mica_obs::alloc::set_enabled(true);
    let (count_before, bytes_before) = mica_obs::alloc::totals();
    let tracked = profile_all(1e-9).expect("tracked profiling succeeds").set;
    let (count_after, bytes_after) = mica_obs::alloc::totals();
    mica_obs::alloc::set_enabled(false);

    assert_eq!(
        serde_json::to_string(&untracked).expect("serializes"),
        serde_json::to_string(&tracked).expect("serializes"),
        "allocation tracking changed the profile artifact"
    );
    assert!(
        count_after > count_before && bytes_after > bytes_before,
        "the tracker observed nothing ({count_before}..{count_after} allocs)"
    );
}

#[test]
fn profile_order_follows_table_order_not_completion_order() {
    std::env::set_var("MICA_THREADS", "4");
    std::env::set_var("MICA_LOG", "warn");
    let set = profile_all(1e-9).expect("profiles").set;
    let expected: Vec<String> =
        mica_workloads::benchmark_table().iter().map(|s| s.name()).collect();
    let got: Vec<String> = set.records.iter().map(|r| r.name.clone()).collect();
    assert_eq!(got, expected);
}
