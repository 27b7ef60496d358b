//! Disabled observability is free of side effects: with `MICA_LOG=off` and
//! no sinks, no event or span is ever dispatched, span guards are inert,
//! and counters still accumulate (they are plain atomics, independent of
//! the sink machinery).

use mica_obs::{dispatch_totals, enabled, spans_enabled, Counter, Level};

static PROBE: Counter = Counter::new("test.overhead.probe");

#[test]
fn disabled_pipeline_dispatches_nothing() {
    // Must run before any other mica-obs call in this process so the lazy
    // env init sees the silenced configuration (hence a dedicated test
    // binary with a single test).
    std::env::set_var("MICA_LOG", "off");
    std::env::remove_var("MICA_TRACE");

    assert!(!enabled(Level::Error));
    assert!(!enabled(Level::Trace));
    assert!(!spans_enabled());

    for i in 0..1_000u64 {
        mica_obs::info!("event {i}");
        mica_obs::error!("error {i}");
        let mut s = mica_obs::span("overhead", "work");
        s.attr("i", i);
        assert!(!s.is_recording());
        PROBE.incr();
    }

    assert_eq!(dispatch_totals(), (0, 0), "no record may reach the sink layer");
    assert_eq!(PROBE.get(), 1_000, "counters work even with logging off");
}
