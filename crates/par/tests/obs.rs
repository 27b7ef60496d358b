//! Observability of the worker pool: chunk spans land on per-worker
//! logical threads, never interleave within a track, and the pool counters
//! account for every task — all without perturbing the mapped results.

use mica_obs::{add_sink, remove_sink, MemorySink, Record};

#[test]
fn pool_spans_nest_per_worker_and_counters_add_up() {
    // Before the first obs call: fixed pool width, no stderr/file sinks.
    std::env::set_var("MICA_THREADS", "4");
    std::env::set_var("MICA_LOG", "off");
    std::env::remove_var("MICA_TRACE");

    let mem = MemorySink::new();
    let id = add_sink(Box::new(mem.clone()));

    const N: usize = 123;
    let out = mica_par::par_map_indexed(N, |i| i * 3 + 1);
    assert_eq!(out, (0..N).map(|i| i * 3 + 1).collect::<Vec<_>>());

    remove_sink(id);
    let spans: Vec<_> = mem
        .records()
        .into_iter()
        .filter_map(|r| match r {
            Record::Span(s) => Some(s),
            Record::Event(_) => None,
        })
        .collect();

    // One pool span on the caller, at least one chunk span per busy worker.
    let pools: Vec<_> = spans.iter().filter(|s| s.name == "par_map").collect();
    let chunks: Vec<_> = spans.iter().filter(|s| s.name == "chunk").collect();
    assert_eq!(pools.len(), 1);
    assert!(!chunks.is_empty());
    assert!(
        pools[0].attrs.iter().any(|(k, v)| *k == "items" && v.to_string() == "123"),
        "pool span records the item count"
    );

    // Chunk spans run only on registered worker tracks 1..=4, and their
    // `len` attributes sum to the full input.
    let mut total_len = 0u64;
    for c in &chunks {
        assert!((1..=4).contains(&c.tid), "chunk on unexpected tid {}", c.tid);
        let len = c
            .attrs
            .iter()
            .find_map(|(k, v)| (*k == "len").then(|| v.to_string().parse::<u64>().unwrap()))
            .expect("chunk span has len attr");
        total_len += len;
    }
    assert_eq!(total_len, N as u64);

    // Stack discipline per worker track: a worker's chunk intervals are
    // sequential — each starts at or after the previous one ended. (The
    // whole-pool span lives on the caller's track, so cross-track overlap
    // is expected; within a track it would corrupt a Chrome trace.)
    for tid in 1..=4u64 {
        let mut mine: Vec<(u64, u64)> = chunks
            .iter()
            .filter(|c| c.tid == tid)
            .map(|c| (c.ts_us, c.ts_us + c.dur_us))
            .collect();
        mine.sort_unstable();
        for pair in mine.windows(2) {
            assert!(pair[1].0 >= pair[0].1, "overlapping chunks on worker {tid}");
        }
    }

    // Context propagation: every chunk span parents to the pool span that
    // submitted it (workers inherit the submitter's context), sharing its
    // trace id — here 0, because no TraceContext was installed.
    for c in &chunks {
        assert_eq!(c.parent_id, pools[0].span_id, "chunk orphaned from its pool span");
        assert_eq!(c.trace_id, pools[0].trace_id);
    }
    assert_eq!(pools[0].trace_id, 0, "untraced caller yields trace 0");

    // Counters: every task accounted for, chunk count consistent with the
    // span stream, steals are chunks beyond each worker's first.
    let counters = mica_obs::counters();
    let get = |name: &str| {
        counters
            .iter()
            .find_map(|(n, v)| (n == name).then_some(*v))
            .unwrap_or_else(|| panic!("counter {name} not registered"))
    };
    assert!(get("par.tasks") >= N as u64);
    assert!(get("par.pools") >= 1);
    assert!(get("par.chunks") >= chunks.len() as u64);
    assert!(get("par.steals") <= get("par.chunks"));
}
