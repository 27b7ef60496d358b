//! End-to-end fault injection: a kernel panic injected into the full
//! 122-benchmark profiling pass must quarantine exactly that benchmark,
//! the survivors must flow through the downstream statistics bit-identical
//! to a fault-free run, and injected artifact-write faults must be
//! survived by the bounded retry with every `fault.*` counter visible
//! through the observability registry.
//!
//! The fault plan is process-global, so every test here serializes on one
//! lock (the pattern `mica-fault`'s own tests use).

use mica_experiments::profile::{check_cache, profile_all, profile_benchmark, profile_fingerprint};
use mica_experiments::results::ProfileSet;
use mica_fault::plan::{self, FaultPlan};
use mica_stats::{kmeans, pairwise_distances, zscore_normalize};
use mica_workloads::benchmark_table;
use std::collections::BTreeMap;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn init() {
    std::env::set_var("MICA_LOG", "off");
    std::env::remove_var("MICA_TRACE");
}

fn counter_map() -> BTreeMap<String, u64> {
    mica_obs::counters().into_iter().collect()
}

#[test]
fn injected_kernel_panic_quarantines_one_and_survivors_flow_downstream() {
    let _guard = LOCK.lock().unwrap();
    init();
    let total = benchmark_table().len();

    let panics_before = counter_map().get("fault.injected.panic").copied().unwrap_or(0);
    plan::install(FaultPlan::parse("panic:kernel=CRC32").unwrap());
    let faulted = profile_all(1e-9).expect("run completes around the injected panic");
    plan::clear();

    assert_eq!(faulted.quarantined.len(), 1, "exactly one benchmark quarantined");
    assert!(faulted.quarantined[0].name.contains("CRC32"), "{:?}", faulted.quarantined[0]);
    assert!(
        faulted.quarantined[0].reason.contains("MICA_FAULTS"),
        "reason names the injection: {:?}",
        faulted.quarantined[0]
    );
    assert_eq!(faulted.set.records.len(), total - 1, "all survivors profiled");
    assert!(faulted.set.records.iter().all(|r| r.program != "CRC32"));
    assert!(
        counter_map().get("fault.injected.panic").copied().unwrap_or(0) > panics_before,
        "the injection is counted and visible through obs::counters()"
    );

    // The survivors are bit-identical to the same benchmarks in a
    // fault-free run: isolation may not perturb anyone else's profile.
    let clean = profile_all(1e-9).expect("fault-free rerun");
    assert!(clean.quarantined.is_empty());
    assert_eq!(clean.set.records.len(), total);
    let survivors: Vec<_> =
        clean.set.records.iter().filter(|r| r.program != "CRC32").cloned().collect();
    assert_eq!(faulted.set.records, survivors, "survivor records bit-identical to a clean run");

    // Downstream statistics run on the partial (121-benchmark) set.
    let ds = mica_experiments::analysis::mica_dataset(&faulted.set);
    assert_eq!(ds.rows(), total - 1);
    let z = zscore_normalize(&ds);
    let d = pairwise_distances(&z);
    assert_eq!(d.values().len(), (total - 1) * (total - 2) / 2);
    let clustering = kmeans(&z, 4, 0x4d49_4341);
    assert_eq!(clustering.labels.len(), total - 1);
}

#[test]
fn injected_cache_write_faults_are_survived_by_the_retry_budget() {
    let _guard = LOCK.lock().unwrap();
    init();
    let dir = std::env::temp_dir().join(format!("mica_fault_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profiles.json");

    // A well-formed set, cheaply: one real record cloned across the table.
    let spec = benchmark_table().into_iter().find(|b| b.program == "CRC32").unwrap();
    let rec = profile_benchmark(&spec, 10_000).unwrap();
    let set = ProfileSet {
        scale: 1.0,
        fingerprint: profile_fingerprint(),
        records: vec![rec; benchmark_table().len()],
    };

    // Two write errors against the budget of three retries: the
    // save must survive, bump the retry/survival counters, and leave a
    // complete cache with no temp file.
    let before = counter_map();
    plan::install(FaultPlan::parse("io:cache-write@2").unwrap());
    set.save(&path).expect("save survives two injected write errors");
    plan::clear();
    let after = counter_map();
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
    };
    assert_eq!(delta("fault.injected.io"), 2);
    assert_eq!(delta("fault.io.retries"), 2);
    assert_eq!(delta("fault.survived.io"), 1);
    assert!(!mica_fault::io::tmp_path(&path).exists());
    assert_eq!(check_cache(&path, 1.0), Ok(set.clone()));

    // Kill-mid-write (torn temp file) on the first attempt: the retry
    // re-stages and renames, so the destination is never partial.
    let mut newer = set.clone();
    newer.scale = 2.0;
    plan::install(FaultPlan::parse("torn:cache-write").unwrap());
    newer.save(&path).expect("save survives a torn first attempt");
    plan::clear();
    assert!(!mica_fault::io::tmp_path(&path).exists(), "the retry renamed the temp file away");
    assert_eq!(check_cache(&path, 2.0), Ok(newer), "destination holds the complete new content");

    std::fs::remove_dir_all(dir).ok();
}
