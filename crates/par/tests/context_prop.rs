//! Property test for `TraceContext` propagation through the worker pool:
//! for arbitrary nestings of `par_map` inside `par_map_isolated`, run by
//! two *concurrent* "requests", every span stays connected to its
//! request's root context (no orphans) and no span ever records the other
//! request's ids (no cross-wiring). This is the contract the serve daemon
//! leans on — one request, one connected trace, no matter how deep the
//! fan-out or how interleaved the requests.

use mica_obs as obs;
use mica_par as par;
use obs::{add_sink, remove_sink, MemorySink, SpanRecord, TraceContext};
use proptest::prelude::*;
use std::sync::Once;

fn init_env() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        // Before the first obs touch: a real pool (so propagation actually
        // crosses threads) and no stderr/file sinks.
        std::env::set_var("MICA_THREADS", "3");
        std::env::set_var("MICA_LOG", "off");
        std::env::remove_var("MICA_TRACE");
    });
}

/// One simulated request: fresh context, a root span, then an isolated
/// outer map whose items optionally fan out again with a nested plain
/// `par_map`. Returns the request's root context.
fn run_request(r: usize, outer: usize, inner: usize, nest: bool) -> TraceContext {
    let ctx = TraceContext::fresh();
    let _g = obs::install_context(Some(ctx));
    let _root = obs::span("ctxprop", format!("r{r}-root"));
    let results = par::par_map_indexed_isolated(outer, |i| {
        let mut item = obs::span("ctxprop", format!("r{r}-item"));
        item.attr("i", i as u64);
        if nest {
            par::par_map_indexed(inner, |j| {
                let _leaf = obs::span("ctxprop", format!("r{r}-leaf"));
                j
            })
            .len()
        } else {
            i
        }
    });
    assert_eq!(results.len(), outer);
    assert!(results.iter().all(Result::is_ok));
    ctx
}

/// Assert every span of `trace` chains (through parents within the same
/// trace) up to the virtual root `ctx.span_id`.
fn assert_connected(spans: &[SpanRecord], ctx: TraceContext) {
    let mine: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace_id == ctx.trace_id).collect();
    assert!(!mine.is_empty(), "request produced no spans");
    let ids: std::collections::BTreeSet<u64> = mine.iter().map(|s| s.span_id).collect();
    assert_eq!(ids.len(), mine.len(), "span ids must be unique within a trace");
    for s in &mine {
        assert!(
            s.parent_id == ctx.span_id || ids.contains(&s.parent_id),
            "orphaned span {} ({}): parent {} is neither the root nor in-trace",
            s.span_id,
            s.name,
            s.parent_id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn nested_pools_never_orphan_or_cross_wire(
        outer_a in 1usize..6,
        inner_a in 1usize..5,
        nest_a in any::<bool>(),
        outer_b in 1usize..6,
        inner_b in 1usize..5,
        nest_b in any::<bool>(),
    ) {
        init_env();
        let sink = MemorySink::new();
        let id = add_sink(Box::new(sink.clone()));
        let (ctx_a, ctx_b) = std::thread::scope(|scope| {
            let a = scope.spawn(move || run_request(0, outer_a, inner_a, nest_a));
            let b = scope.spawn(move || run_request(1, outer_b, inner_b, nest_b));
            (a.join().expect("request A"), b.join().expect("request B"))
        });
        remove_sink(id);
        prop_assert_ne!(ctx_a.trace_id, ctx_b.trace_id);

        let spans: Vec<SpanRecord> = sink
            .spans()
            .into_iter()
            .filter(|s| s.trace_id == ctx_a.trace_id || s.trace_id == ctx_b.trace_id)
            .collect();

        // No orphans: every span of each request reaches its root.
        assert_connected(&spans, ctx_a);
        assert_connected(&spans, ctx_b);

        // No cross-wiring: spans named for one request never carry the
        // other's trace id, and each request kept all its items.
        for s in &spans {
            if s.name.starts_with("r0-") {
                prop_assert_eq!(s.trace_id, ctx_a.trace_id, "span {} cross-wired", &s.name);
            }
            if s.name.starts_with("r1-") {
                prop_assert_eq!(s.trace_id, ctx_b.trace_id, "span {} cross-wired", &s.name);
            }
        }
        let items_a = spans.iter().filter(|s| s.name == "r0-item").count();
        let items_b = spans.iter().filter(|s| s.name == "r1-item").count();
        prop_assert_eq!(items_a, outer_a);
        prop_assert_eq!(items_b, outer_b);
        if nest_a {
            let leaves = spans.iter().filter(|s| s.name == "r0-leaf").count();
            prop_assert_eq!(leaves, outer_a * inner_a);
        }
    }
}
