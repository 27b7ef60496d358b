//! The profile cache must explain itself: every way a cached `ProfileSet`
//! can be unusable maps to a distinct [`CacheMiss`] reason, and a reusable
//! cache is accepted verbatim.

use mica_experiments::profile::{check_cache, profile_benchmark, profile_fingerprint, CacheMiss};
use mica_experiments::results::ProfileSet;
use mica_workloads::benchmark_table;
use std::path::PathBuf;

fn init() -> PathBuf {
    std::env::set_var("MICA_LOG", "off");
    std::env::remove_var("MICA_TRACE");
    let dir = std::env::temp_dir().join(format!("mica_cache_reasons_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A well-formed cache at `scale` with the current fingerprint: one real
/// record cloned across the whole table.
fn good_set(scale: f64) -> ProfileSet {
    let spec = benchmark_table().into_iter().find(|b| b.program == "CRC32").unwrap();
    let rec = profile_benchmark(&spec, 10_000).unwrap();
    ProfileSet {
        scale,
        fingerprint: profile_fingerprint(),
        records: vec![rec; benchmark_table().len()],
    }
}

#[test]
fn every_rejection_reason_is_distinguished() {
    let dir = init();

    // Absent: no file at all.
    let missing = dir.join("nope.json");
    assert_eq!(check_cache(&missing, 1.0), Err(CacheMiss::Absent));
    assert_eq!(CacheMiss::Absent.reason(), "absent");

    // Unreadable: the path exists but cannot be read as a file.
    let as_dir = dir.join("cache_is_a_dir.json");
    std::fs::create_dir_all(&as_dir).unwrap();
    match check_cache(&as_dir, 1.0) {
        Err(CacheMiss::Unreadable(_)) => {}
        other => panic!("expected Unreadable, got {other:?}"),
    }

    // Parse: not a ProfileSet.
    let garbled = dir.join("garbled.json");
    std::fs::write(&garbled, "{\"scale\": oops").unwrap();
    let miss = check_cache(&garbled, 1.0).unwrap_err();
    assert!(matches!(miss, CacheMiss::Parse(_)), "got {miss:?}");
    assert_eq!(miss.reason(), "parse");

    let good = good_set(0.5);

    // Scale: cached at a different budget multiplier.
    let path = dir.join("profiles.json");
    good.save(&path).unwrap();
    assert_eq!(
        check_cache(&path, 0.25),
        Err(CacheMiss::Scale { cached: 0.5, requested: 0.25 })
    );

    // Fingerprint: a different workload table or metric layout.
    let mut stale = good.clone();
    stale.fingerprint ^= 1;
    stale.save(&path).unwrap();
    assert_eq!(
        check_cache(&path, 0.5),
        Err(CacheMiss::Fingerprint {
            cached: profile_fingerprint() ^ 1,
            current: profile_fingerprint()
        })
    );

    // Size: record count drifted from the table.
    let mut short = good.clone();
    short.records.pop();
    short.save(&path).unwrap();
    assert_eq!(
        check_cache(&path, 0.5),
        Err(CacheMiss::Size { cached: benchmark_table().len() - 1, expected: benchmark_table().len() })
    );

    // And the happy path: the good cache round-trips untouched.
    good.save(&path).unwrap();
    assert_eq!(check_cache(&path, 0.5), Ok(good));

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn hit_and_miss_feed_the_cache_counters() {
    let dir = init();
    let path = dir.join("counted.json");
    let before: std::collections::BTreeMap<String, u64> =
        mica_obs::counters().into_iter().collect();
    let get = |snap: &std::collections::BTreeMap<String, u64>, name: &str| {
        snap.get(name).copied().unwrap_or(0)
    };

    // First call: absent cache -> miss.absent, then the re-profile result
    // is cached; second call: hit.
    let first = mica_experiments::profile::load_or_profile_all(&path, 1e-9).unwrap();
    let second = mica_experiments::profile::load_or_profile_all(&path, 1e-9).unwrap();
    assert_eq!(first, second);

    let after: std::collections::BTreeMap<String, u64> = mica_obs::counters().into_iter().collect();
    assert_eq!(
        get(&after, "profile.cache.miss.absent"),
        get(&before, "profile.cache.miss.absent") + 1
    );
    assert_eq!(get(&after, "profile.cache.hit"), get(&before, "profile.cache.hit") + 1);

    std::fs::remove_dir_all(dir).ok();
}

/// Corrupt caches — the artifacts a crash mid-write would leave behind if
/// writes were not atomic — must be rejected with `CacheMiss::Parse`, and a
/// re-profile must rewrite the cache in place through the atomic temp-file
/// protocol (no `.profiles.json.tmp` survivor, old-or-new content only).
#[test]
fn corrupted_caches_reject_cleanly_and_rewrite_atomically() {
    std::env::set_var("MICA_LOG", "off");
    std::env::remove_var("MICA_TRACE");
    let dir = std::env::temp_dir().join(format!("mica_cache_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profiles.json");
    let snap = |name: &str| -> u64 {
        mica_obs::counters().into_iter().find(|(n, _)| n == name).map(|(_, v)| v).unwrap_or(0)
    };

    // Truncated mid-JSON: the classic torn write.
    let good = good_set(1e-9);
    good.save(&path).unwrap();
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();
    assert!(matches!(check_cache(&path, 1e-9).unwrap_err(), CacheMiss::Parse(_)));

    // Zero-byte file: a crash after create but before any byte landed.
    // `load_or_profile_all` must shrug it off, re-profile, and leave a
    // well-formed cache behind with no temp file next to it.
    std::fs::write(&path, b"").unwrap();
    let parse_before = snap("profile.cache.miss.parse");
    let outcome = mica_experiments::profile::load_or_profile_all(&path, 1e-9).unwrap();
    assert!(outcome.quarantined.is_empty());
    assert!(
        snap("profile.cache.miss.parse") > parse_before,
        "zero-byte cache counts as a parse miss"
    );
    assert!(!mica_fault::io::tmp_path(&path).exists(), "no temp file left after rewrite");
    assert_eq!(check_cache(&path, 1e-9), Ok(outcome.set.clone()));

    // Wrong fingerprint: a structurally valid cache from another table
    // layout is rejected for the precise reason, then atomically replaced.
    let mut stale = outcome.set.clone();
    stale.fingerprint ^= 0xdead;
    stale.save(&path).unwrap();
    let fp_before = snap("profile.cache.miss.fingerprint");
    let refreshed = mica_experiments::profile::load_or_profile_all(&path, 1e-9).unwrap();
    assert_eq!(
        snap("profile.cache.miss.fingerprint"),
        fp_before + 1,
        "stale fingerprint counts as a fingerprint miss"
    );
    assert!(!mica_fault::io::tmp_path(&path).exists(), "no temp file left after rewrite");
    let reread = check_cache(&path, 1e-9).unwrap();
    assert_eq!(reread.fingerprint, mica_experiments::profile::profile_fingerprint());
    assert_eq!(reread, refreshed.set);

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn rejected_cache_emits_structured_warn() {
    let dir = init();
    let path = dir.join("warned.json");
    std::fs::write(&path, "not json at all").unwrap();

    let mem = mica_obs::MemorySink::new();
    let id = mica_obs::add_sink(Box::new(mem.clone()));
    let _ = mica_experiments::profile::load_or_profile_all(&path, 1e-9).unwrap();
    mica_obs::remove_sink(id);

    let warns: Vec<_> = mem
        .events()
        .into_iter()
        .filter(|e| e.level == mica_obs::Level::Warn && e.message.contains("re-profiling"))
        .collect();
    assert_eq!(warns.len(), 1, "exactly one cache-rejection warning");
    let reason = warns[0]
        .attrs
        .iter()
        .find_map(|(k, v)| (*k == "reason").then(|| v.to_string()))
        .expect("warn carries a reason attribute");
    assert_eq!(reason, "parse");

    std::fs::remove_dir_all(dir).ok();
}
