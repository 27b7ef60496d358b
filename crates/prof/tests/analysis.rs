//! The analytics engine against a synthetic but fully-shaped trace: a run
//! span over one stage over one `par_map` pool whose chunks land on two
//! worker threads and carry kernel spans with allocation attribution.

use mica_experiments::runner::{CounterEntry, HistogramEntry, RunSummary, StageSummary};
use mica_prof::analysis::{analyze, render};
use mica_prof::trace::Trace;

fn span(ts: u64, dur: u64, tid: u64, depth: u64, cat: &str, name: &str, attrs: &str) -> String {
    format!(
        "{{\"t\":\"span\",\"ts_us\":{ts},\"dur_us\":{dur},\"tid\":{tid},\"depth\":{depth},\
         \"cat\":\"{cat}\",\"name\":\"{name}\",\"attrs\":{{{attrs}}}}}"
    )
}

/// run[0..1000] > stage profile[0..1000] > par_map[0..1000, 2 threads];
/// tid 1 runs one chunk [0..400] holding kernel A, then idles; tid 2 runs
/// chunks [0..500] and [500..1000] holding kernels B and C.
fn synthetic_trace() -> String {
    let lines = [
        span(0, 390, 1, 1, "profile", "MiBench/CRC32/pcm", "\"alloc_n\":10,\"alloc_b\":640"),
        span(0, 400, 1, 0, "par", "chunk", "\"start\":0,\"len\":8"),
        span(0, 490, 2, 1, "profile", "SPEC2000/bzip2/graphic", "\"alloc_n\":20,\"alloc_b\":1280"),
        span(0, 500, 2, 0, "par", "chunk", "\"start\":8,\"len\":8"),
        span(500, 490, 2, 1, "profile", "SPEC2000/gcc/166", ""),
        span(500, 500, 2, 0, "par", "chunk", "\"start\":16,\"len\":8"),
        span(0, 1000, 0, 2, "par", "par_map", "\"items\":24,\"threads\":2"),
        span(0, 1000, 0, 1, "stage", "profile", ""),
        span(0, 1000, 0, 0, "run", "profile", ""),
        "{\"t\":\"flush\",\"events\":0,\"spans\":9,\"dropped_lines\":0}".to_string(),
    ];
    lines.join("\n") + "\n"
}

fn summary() -> RunSummary {
    RunSummary {
        bin: "profile".to_string(),
        scale: 1.0,
        threads: 2,
        pmu_period: None,
        table_fingerprint: 0xfeed,
        wall_s: 0.001,
        stages: vec![StageSummary { name: "profile".to_string(), wall_s: 0.001 }],
        counters: vec![
            CounterEntry { name: "alloc.bytes".to_string(), value: 1920 },
            CounterEntry { name: "alloc.count".to_string(), value: 30 },
            CounterEntry { name: "profile.cache.hit".to_string(), value: 3 },
            CounterEntry { name: "profile.cache.miss.absent".to_string(), value: 1 },
        ],
        histograms: vec![HistogramEntry {
            name: "par.chunk_us".to_string(),
            count: 3,
            sum: 1400,
            buckets: vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2],
        }],
        quarantined: Vec::new(),
    }
}

#[test]
fn full_analysis_of_a_synthetic_run() {
    let trace = Trace::parse(&synthetic_trace());
    assert!(!trace.truncated());
    let a = analyze(&trace, Some(&summary()));

    assert_eq!(a.bin.as_deref(), Some("profile"));
    assert_eq!(a.stages.len(), 1);
    assert!((a.stages[0].frac - 1.0).abs() < 1e-9);

    // Pool: busy = 400 + 500 + 500 = 1400 over 2×1000 capacity.
    assert_eq!(a.pools.len(), 1);
    let p = &a.pools[0];
    assert_eq!((p.threads, p.items, p.chunks), (2, 24, 3));
    assert!((p.utilization - 0.7).abs() < 1e-9, "utilization {}", p.utilization);
    // max busy 1000 / mean 700.
    assert!((p.imbalance - 1000.0 / 700.0).abs() < 1e-9, "imbalance {}", p.imbalance);
    let w1 = p.workers.iter().find(|w| w.tid == 1).expect("worker 1");
    assert_eq!((w1.chunks, w1.busy_us), (1, 400));
    assert_eq!(w1.max_idle_us, 600, "tid 1 idles from 400 to pool end");

    // Kernels: three spans, exact quantiles over [390, 490, 490].
    assert_eq!(a.kernel_count, 3);
    assert_eq!(a.kernel_quantiles_us, Some((490, 490, 490)));
    assert_eq!(a.kernels_top[0].name, "SPEC2000/bzip2/graphic");
    assert_eq!(a.kernels_top[0].alloc_n, Some(20));
    assert_eq!(a.kernels_top[0].alloc_b, Some(1280));

    // Critical path: run > stage > par_map > longest (and last-finishing)
    // chunk on tid 2 > its kernel.
    let names: Vec<&str> = a.critical_path.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["profile", "profile", "par_map", "chunk", "SPEC2000/gcc/166"]);
    assert_eq!(a.critical_path[3].tid, 2, "descends across threads into the dominant chunk");

    // Counter-derived metrics and histogram quantiles from the summary.
    assert_eq!(a.cache_hit_ratio, Some(0.75));
    assert_eq!(a.alloc_totals, Some((30, 1920)));
    assert_eq!(a.hist_quantiles.len(), 1);
    let q = &a.hist_quantiles[0];
    // Buckets: one value of bit length 9 (≤511), two of bit length 10 (≤1023).
    assert_eq!((q.p50, q.p95, q.p99), (1023, 1023, 1023));

    let report = render(&a);
    for needle in [
        "Stage decomposition",
        "Critical path",
        "utilization 70.0%",
        "SPEC2000/gcc/166",
        "cache hit ratio: 75.0%",
        "par.chunk_us",
    ] {
        assert!(report.contains(needle), "report missing {needle:?}:\n{report}");
    }
    assert!(!report.contains("WARNING"), "clean trace must not warn:\n{report}");
}

#[test]
fn truncated_trace_is_reported_not_hidden() {
    // Same trace without the flush record: the stream died mid-run.
    let text: String =
        synthetic_trace().lines().filter(|l| !l.contains("\"flush\"")).collect::<Vec<_>>().join("\n");
    let trace = Trace::parse(&text);
    assert!(trace.truncated());
    let report = render(&analyze(&trace, None));
    assert!(report.contains("WARNING"), "truncation must surface:\n{report}");
    assert!(report.contains("no terminating flush record"), "{report}");
}

#[test]
fn analysis_without_summary_recovers_run_identity_from_spans() {
    let trace = Trace::parse(&synthetic_trace());
    let a = analyze(&trace, None);
    assert_eq!(a.bin.as_deref(), Some("profile"));
    assert_eq!(a.stages.len(), 1, "stages recovered from stage spans");
    assert!(a.counters.is_empty(), "no summary, no counters");
    assert_eq!(a.pools.len(), 1);
}

#[test]
fn analyzer_attribution_renders_when_its_counters_exist() {
    let trace = Trace::parse(&synthetic_trace());
    let mut s = summary();
    s.counters.push(CounterEntry { name: "profile.analyzer.ppm_us".to_string(), value: 600 });
    s.counters.push(CounterEntry { name: "profile.analyzer.mix_us".to_string(), value: 200 });
    s.counters.push(CounterEntry { name: "profile.analyzer.hpc_us".to_string(), value: 200 });
    let a = analyze(&trace, Some(&s));
    assert_eq!(a.analyzer_us[0], ("ppm".to_string(), 600), "descending by time: {:?}", a.analyzer_us);
    assert_eq!(a.analyzer_us.len(), 3);
    let report = render(&a);
    assert!(report.contains("Profile wall time by analyzer"), "{report}");
    assert!(report.contains("60.0%"), "ppm's share of 1000us:\n{report}");

    // A run that profiled nothing (a cache hit) has none of the counters
    // and the section stays out of the report entirely.
    let plain = render(&analyze(&trace, Some(&summary())));
    assert!(!plain.contains("by analyzer"), "{plain}");
}
