//! `mica-prof` — offline trace analytics and the CI performance gate.
//!
//! The pipeline's observability layer (`mica-obs`) leaves two artifacts
//! behind: the `MICA_EVENTS` JSON-lines stream (every event and closed
//! span) and the `run-<bin>.json` summary (stage wall times, counters,
//! histogram buckets). This crate turns them into answers:
//!
//! - [`trace`] loads the stream tolerantly and reconstructs the span
//!   forest per logical thread by interval nesting;
//! - [`analysis`] computes the critical-path decomposition, `par_map`
//!   pool utilization / steal imbalance / idle gaps, per-kernel latency
//!   quantiles (exact from spans, bucket bounds from histograms), and
//!   allocation attribution from `MICA_ALLOC` span deltas;
//! - [`baseline`] maintains the `BENCH_pipeline.json` performance
//!   trajectory and implements the noise-aware regression gate
//!   (median-of-N baseline, relative × absolute thresholds);
//! - [`slo`] replays the serve daemon's access log
//!   (`results/serve-access.jsonl`) and recomputes latency-objective
//!   attainment offline, independent of the daemon's own counters.
//!
//! The `mica-prof` binary fronts them with four commands: `analyze`
//! renders a report (`--json` for the machine-readable
//! [`analysis::JsonReport`]), `record` appends a run to the trajectory,
//! `check` gates CI, and `slo` audits an access log against the latency
//! objective (exit 0 clean, 1 usage/IO error, 2 regression/breach).

pub mod analysis;
pub mod baseline;
pub mod slo;
pub mod trace;

#[cfg(test)]
mod tests {
    use crate::trace::Trace;

    fn span_line(ts: u64, dur: u64, tid: u64, depth: u64, cat: &str, name: &str) -> String {
        format!(
            "{{\"t\":\"span\",\"ts_us\":{ts},\"dur_us\":{dur},\"tid\":{tid},\"depth\":{depth},\
             \"cat\":\"{cat}\",\"name\":\"{name}\",\"attrs\":{{}}}}"
        )
    }

    #[test]
    fn parse_tolerates_garbage_and_counts_it() {
        let text = format!(
            "not json at all\n{}\n{{\"t\":\"wat\"}}\n\
             {{\"t\":\"flush\",\"events\":0,\"spans\":1,\"dropped_lines\":0}}\n",
            span_line(0, 10, 0, 0, "run", "x"),
        );
        let t = Trace::parse(&text);
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.skipped_lines, 2);
        assert!(!t.truncated(), "flush record present and consistent");
    }

    #[test]
    fn truncation_is_detected() {
        let no_flush = Trace::parse(&span_line(0, 10, 0, 0, "run", "x"));
        assert!(no_flush.truncated(), "missing flush record");

        let dropped = Trace::parse(
            "{\"t\":\"flush\",\"events\":0,\"spans\":0,\"dropped_lines\":3}\n",
        );
        assert!(dropped.truncated(), "dropped lines");

        let undercount = Trace::parse(
            "{\"t\":\"flush\",\"events\":5,\"spans\":0,\"dropped_lines\":0}\n",
        );
        assert!(undercount.truncated(), "file holds fewer records than the flush counted");
    }

    #[test]
    fn forest_recovers_nesting_within_and_across_threads() {
        // tid 0: run[0..100] > stage[5..95] > pool[10..90]; tid 1: two chunks.
        let text = [
            span_line(10, 30, 1, 0, "par", "chunk"),
            span_line(50, 30, 1, 0, "par", "chunk"),
            span_line(10, 80, 0, 2, "par", "par_map"),
            span_line(5, 90, 0, 1, "stage", "profile"),
            span_line(0, 100, 0, 0, "run", "profile_bin"),
        ]
        .join("\n");
        let t = Trace::parse(&text);
        let forest = t.forest();
        let t0 = &forest[&0];
        assert_eq!(t0.len(), 1, "one root on tid 0");
        assert_eq!(t.spans[t0[0].span].cat, "run");
        let stage = &t0[0].children[0];
        assert_eq!(t.spans[stage.span].cat, "stage");
        let pool = &stage.children[0];
        assert_eq!(t.spans[pool.span].name, "par_map");
        assert_eq!(forest[&1].len(), 2, "sibling chunks stay roots on their thread");
    }
}
