//! `mica-prof` — offline trace analytics and the SLO audit.
//!
//! The pipeline's observability layer (`mica-obs`) leaves two artifacts
//! behind: the `MICA_TRACE` Chrome-trace file (every event and closed
//! span, with its parent id) and the `run-<bin>.json` summary (stage wall
//! times, counters, histogram buckets). This crate turns them into
//! answers:
//!
//! - [`trace`] loads the trace tolerantly and builds the span tree from
//!   parent ids;
//! - [`analysis`] computes the critical-path decomposition, `par_map`
//!   pool utilization / steal imbalance / idle gaps, per-kernel latency
//!   quantiles (exact from spans, bucket bounds from histograms), and
//!   allocation attribution from the span deltas every traced run
//!   carries;
//! - [`slo`] replays the serve daemon's access log
//!   (`results/serve-access.jsonl`) and scores latency-objective
//!   attainment, the one place an SLO is scored.
//!
//! The `mica-prof` binary fronts them with two commands: `analyze`
//! renders a report, and `slo` audits an access log against the latency
//! objective (exit 0 clean, 1 usage/IO error, 2 breach). It only reads
//! artifacts; performance is gated by the benchmark under `perfbench/`,
//! which compares alternating runs of two builds on one host.

pub mod analysis;
pub mod slo;
pub mod trace;

#[cfg(test)]
mod tests {
    use crate::trace::Trace;

    fn span(ts: u64, dur: u64, tid: u64, id: u64, parent: u64, cat: &str, name: &str) -> String {
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
             \"pid\":1,\"tid\":{tid},\"args\":{{\"trace\":0,\"span\":{id},\"parent\":{parent},\
             \"attrs\":{{}}}}}}"
        )
    }

    /// A Chrome-trace document holding `elems`, with `otherData` when
    /// `counts` (events, spans, dropped) is given.
    fn doc(elems: &[String], counts: Option<(u64, u64, u64)>) -> String {
        let other = counts.map_or(String::new(), |(e, s, d)| {
            format!(",\"otherData\":{{\"events\":{e},\"spans\":{s},\"dropped_events\":{d}}}")
        });
        format!("{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"{other}}}", elems.join(","))
    }

    fn names(t: &Trace, idxs: &[usize]) -> Vec<String> {
        idxs.iter().map(|&i| t.spans()[i].name.clone()).collect()
    }

    #[test]
    fn parse_tolerates_garbage_and_counts_it() {
        let elems = [
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{}}".to_string(),
            "\"not an event\"".to_string(),
            "{\"name\":\"x\",\"ph\":\"X\",\"ts\":0}".to_string(),
            "{\"name\":\"hello\",\"cat\":\"t\",\"ph\":\"i\",\"ts\":3,\"tid\":0}".to_string(),
            span(0, 10, 0, 1, 0, "run", "x"),
        ];
        let t = Trace::parse(&doc(&elems, Some((1, 1, 0))));
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.events, 1, "instants are counted");
        assert_eq!(t.skipped, 3, "metadata, a non-object and a span missing its fields");
        assert!(!t.truncated(), "otherData present and consistent");

        let broken = Trace::parse("{\"traceEvents\":[");
        assert!(broken.spans().is_empty());
        assert!(broken.truncated(), "a document that does not parse has no otherData");
    }

    #[test]
    fn truncation_is_detected() {
        let one_span = [span(0, 10, 0, 1, 0, "run", "x")];
        assert!(Trace::parse(&doc(&one_span, None)).truncated(), "no otherData");
        assert!(Trace::parse(&doc(&one_span, Some((0, 1, 3)))).truncated(), "dropped events");
        assert!(
            Trace::parse(&doc(&one_span, Some((0, 2, 0)))).truncated(),
            "otherData counts more spans than the file holds"
        );
        assert!(
            Trace::parse(&doc(&one_span, Some((5, 1, 0)))).truncated(),
            "otherData counts more instants than the file holds"
        );
        assert!(!Trace::parse(&doc(&one_span, Some((0, 1, 0)))).truncated());
    }

    #[test]
    fn forest_recovers_nesting_within_and_across_threads() {
        // tid 0: run > stage > pool; tid 1: two chunks of the pool, one
        // holding a kernel. A span whose parent has no record is a root.
        let elems = [
            span(10, 30, 1, 5, 4, "par", "chunk"),
            span(12, 20, 1, 6, 5, "profile", "kernel"),
            span(50, 30, 1, 7, 4, "par", "chunk"),
            span(10, 80, 0, 4, 3, "par", "par_map"),
            span(5, 90, 0, 3, 2, "stage", "profile"),
            span(0, 100, 0, 2, 1, "run", "profile_bin"),
        ];
        let t = Trace::parse(&doc(&elems, Some((0, 6, 0))));
        assert_eq!(names(&t, t.roots()), ["profile_bin"], "the run's parent has no record");
        let run = t.roots()[0];
        assert_eq!(names(&t, t.children(run)), ["profile"]);
        let stage = t.children(run)[0];
        assert_eq!(names(&t, t.children(stage)), ["par_map"]);
        let pool = t.children(stage)[0];
        assert_eq!(names(&t, t.children(pool)), ["chunk", "chunk"], "chunks cross threads");
        assert_eq!(names(&t, t.children(t.children(pool)[0])), ["kernel"]);
        assert!(t.children(t.children(pool)[1]).is_empty());
    }

    #[test]
    fn tree_follows_parent_ids_where_timestamps_mis_nest() {
        // Serve: a worker (tid 1) runs a chunk of the dispatcher's pool
        // (tid 900), and inside it a request whose backfilled `queue` span
        // starts at admission, before the chunk did. The request's root
        // span closes last, on the worker.
        let elems = [
            span(50, 60, 1, 12, 20, "serve", "queue"),
            span(160, 190, 1, 13, 20, "serve", "execute"),
            span(150, 230, 1, 11, 10, "par", "chunk"),
            span(100, 300, 900, 10, 0, "par", "par_map"),
            span(50, 330, 1, 20, 0, "serve", "request"),
        ];
        let t = Trace::parse(&doc(&elems, Some((0, 5, 0))));
        assert_eq!(names(&t, t.roots()), ["request", "par_map"], "roots in start order");
        let request = t.roots()[0];
        assert_eq!(names(&t, t.children(request)), ["queue", "execute"]);
        let pool = t.roots()[1];
        assert_eq!(names(&t, t.children(pool)), ["chunk"]);
        let chunk = t.children(pool)[0];
        assert!(t.children(chunk).is_empty(), "the request's spans stay under the request");
    }
}
