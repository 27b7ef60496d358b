//! The simulated PMU must be a pure observer: profiling with `MICA_PMU=1`
//! cannot change a byte of the scientific output, and the heat artifacts
//! it produces must themselves be deterministic — identical across
//! worker-pool widths.
//!
//! Tests pass the PMU configuration explicitly through
//! [`profile_all_configured`] instead of mutating `MICA_PMU`, so they
//! cannot race on the process environment with the rest of the suite.

use mica_experiments::profile::profile_all_configured;
use mica_pmu::{PmuConfig, DEFAULT_PERIOD};

/// Tiny scale: every budget hits the 10 000-instruction floor, so a full
/// 122-benchmark sweep stays fast.
const SCALE: f64 = 1e-9;

#[test]
fn pmu_does_not_change_the_profile_set() {
    std::env::set_var("MICA_THREADS", "4");
    std::env::set_var("MICA_LOG", "warn");
    let off = profile_all_configured(SCALE, None).expect("pmu-off run");
    let on = profile_all_configured(SCALE, Some(PmuConfig::new(1009))).expect("pmu-on run");
    assert!(off.quarantined.is_empty() && on.quarantined.is_empty());
    assert!(off.heat.is_empty(), "no PMU, no heat");
    assert_eq!(on.heat.len(), 122, "one heat profile per benchmark");
    assert_eq!(
        serde_json::to_string(&off.set).expect("serializes"),
        serde_json::to_string(&on.set).expect("serializes"),
        "the PMU leg changed the profile artifact"
    );

    // Heat profiles come back in Table I order and are internally sane.
    let expected: Vec<String> =
        mica_workloads::benchmark_table().iter().map(|s| s.name()).collect();
    let got: Vec<String> = on.heat.iter().map(|h| h.kernel.clone()).collect();
    assert_eq!(got, expected);
    for h in &on.heat {
        assert!(h.retired >= 10_000, "{}: floor budget retired", h.kernel);
        assert_eq!(h.samples, h.retired / h.period, "{}: deterministic sampling", h.kernel);
        let share: f64 = h.blocks.iter().map(|b| b.share).sum();
        assert!((share - 1.0).abs() < 1e-9, "{}: shares sum to 1, got {share}", h.kernel);
    }
}

#[test]
fn heat_is_identical_across_thread_counts() {
    std::env::set_var("MICA_LOG", "warn");
    let cfg = Some(PmuConfig::new(257));

    std::env::set_var("MICA_THREADS", "1");
    let serial = profile_all_configured(SCALE, cfg).expect("1-thread run");
    std::env::set_var("MICA_THREADS", "4");
    let wide = profile_all_configured(SCALE, cfg).expect("4-thread run");

    assert_eq!(serial.heat.len(), 122);
    assert_eq!(
        serde_json::to_string(&serial.set).expect("serializes"),
        serde_json::to_string(&wide.set).expect("serializes"),
        "profile sets diverged across threads"
    );
    for (a, b) in serial.heat.iter().zip(&wide.heat) {
        assert_eq!(a, b, "heat diverged for {}", a.kernel);
        assert_eq!(a.to_json(), b.to_json(), "heat artifact bytes diverged for {}", a.kernel);
    }
}

#[test]
fn pmu_config_follows_the_cached_flag() {
    // force() drives the cached flag directly — no set_var, no races with
    // the sweeps above.
    let flag = mica_pmu::env_flag();
    flag.force(false);
    assert_eq!(PmuConfig::from_env(), None, "flag off: the PMU never configures");
    flag.force(true);
    let cfg = PmuConfig::from_env().expect("flag on: PMU configured");
    // MICA_PMU_PERIOD is unset in the test environment, so the default
    // prime period applies.
    assert_eq!(cfg.period, DEFAULT_PERIOD);
    flag.reset();
}
