//! Chrome-trace worker tracks must be **stable** across pool invocations:
//! every `par_map` call registers its workers through
//! [`mica_obs::set_worker`], so worker `w` always lands on logical tid
//! `1 + w`. A regression here (e.g. falling back to per-OS-thread anonymous
//! tids) would make each pool invocation open a fresh set of lanes in
//! `chrome://tracing` — a 122-benchmark run would render hundreds of
//! one-shot tracks instead of one lane per worker.

use std::sync::Barrier;

fn as_str(v: &serde::Value) -> Option<&str> {
    match v {
        serde::Value::String(s) => Some(s),
        _ => None,
    }
}

fn as_u64(v: &serde::Value) -> Option<u64> {
    match v {
        serde::Value::Number(n) => n.as_u64(),
        _ => None,
    }
}

/// The complete (`"ph":"X"`) events named `name`, as `(tid, ts, dur)`.
fn complete_events(events: &[serde::Value], name: &str) -> Vec<(u64, u64, u64)> {
    events
        .iter()
        .filter(|e| e.field("ph").and_then(as_str) == Some("X"))
        .filter(|e| e.field("name").and_then(as_str) == Some(name))
        .map(|e| {
            (
                e.field("tid").and_then(as_u64).expect("tid"),
                e.field("ts").and_then(as_u64).expect("ts"),
                e.field("dur").and_then(as_u64).expect("dur"),
            )
        })
        .collect()
}

/// Run one `par_map` where a barrier forces all four workers to
/// participate in lockstep, so every worker provably claims chunks.
fn mapped_by_four_workers(barrier: &Barrier) -> Vec<u64> {
    mica_par::par_map_indexed(64, |i| {
        barrier.wait();
        (i as u64).wrapping_mul(6364136223846793005)
    })
}

#[test]
fn two_pool_invocations_reuse_the_same_worker_tracks() {
    std::env::set_var("MICA_THREADS", "4");
    std::env::set_var("MICA_LOG", "off");
    std::env::remove_var("MICA_TRACE");

    let dir = std::env::temp_dir().join(format!("mica_worker_tracks_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let sink =
        mica_obs::add_sink(Box::new(mica_obs::ChromeTraceSink::create(trace_path.clone())));

    // 64 items / 4 workers, and every item waits on a 4-party barrier: the
    // schedule only advances when all four workers run an item at once, so
    // each call is guaranteed to put chunk spans on all four tracks.
    let barrier = Barrier::new(4);
    let first = mapped_by_four_workers(&barrier);
    let second = mapped_by_four_workers(&barrier);
    assert_eq!(first, second, "pure map is deterministic across calls");

    mica_obs::flush();
    mica_obs::remove_sink(sink);
    let doc: serde::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).expect("trace written"))
            .expect("trace parses");
    let events = doc.field("traceEvents").and_then(|v| v.as_array()).expect("traceEvents");

    // Two pool spans on the calling thread, disjoint in time.
    let mut pools = complete_events(events, "par_map");
    pools.sort_by_key(|&(_, ts, _)| ts);
    assert_eq!(pools.len(), 2, "expected one pool span per par_map call");
    assert_eq!(pools[0].0, pools[1].0, "both calls issue from the same thread");
    assert!(pools[0].1 + pools[0].2 <= pools[1].1, "pool spans are disjoint");

    // Partition chunk spans by enclosing pool span; each call must use
    // exactly the worker tracks 1..=4 (tid = 1 + worker index), never the
    // caller's track and never a fresh anonymous tid (>= 1000).
    let chunks = complete_events(events, "chunk");
    for (call, &(pool_tid, pool_ts, pool_dur)) in pools.iter().enumerate() {
        let mut tids: Vec<u64> = chunks
            .iter()
            .filter(|&&(_, ts, _)| ts >= pool_ts && ts <= pool_ts + pool_dur)
            .map(|&(tid, _, _)| tid)
            .collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids, [1, 2, 3, 4], "call {call} chunk tracks");
        assert!(!tids.contains(&pool_tid), "workers never share the caller's track");
    }

    // The worker tracks are named, once each — no duplicate or one-shot
    // lanes in the rendered trace.
    for w in 0..4u64 {
        let tid = 1 + w;
        let want = format!("worker-{w}");
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.field("name").and_then(as_str) == Some("thread_name"))
            .filter(|e| e.field("tid").and_then(as_u64) == Some(tid))
            .map(|e| {
                e.field("args")
                    .and_then(|a| a.field("name"))
                    .and_then(as_str)
                    .expect("thread_name args")
            })
            .collect();
        assert_eq!(names, [want.as_str()], "track {tid} is named exactly once");
    }

    std::fs::remove_dir_all(dir).ok();
}
