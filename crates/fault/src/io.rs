//! Atomic, retried artifact writes.
//!
//! Every artifact the pipeline produces (profile cache, CSV/SVG results,
//! run summaries, trace files) used to be a raw `fs::write` — a crash or
//! `ENOSPC` mid-write left a torn file that poisoned the next run. The
//! helpers here follow the classic write-to-temp-then-rename protocol:
//!
//! 1. the payload is written to `.<file>.tmp` next to the destination,
//! 2. the temp file is `rename(2)`d over the destination.
//!
//! Rename is atomic on POSIX filesystems, so at every instant the
//! destination holds either the complete old content or the complete new
//! content — never a prefix. [`atomic_write_retry`] adds three extra
//! attempts after the first, spaced by an exponential backoff with
//! **deterministic jitter** seeded from the retry site name (no
//! wall-clock randomness, so faulting runs reproduce, but two sites
//! retrying the same artifact directory no longer thunder in lockstep),
//! capped at 32 ms.
//!
//! Both helpers consult the installed [`crate::plan`] first, keyed by the
//! caller-supplied `site` name, so CI can deterministically inject write
//! errors (`io:SITE`) and simulated kill-mid-write tears (`torn:SITE`)
//! at any adopter.

use crate::metrics;
use crate::plan::{self, IoFaultKind};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Extra attempts after the first failed write.
const RETRIES: u32 = 3;

/// Cap on one backoff, in milliseconds.
const BACKOFF_CAP_MS: u64 = 32;

/// FNV-1a hash of a site name — the seed for deterministic backoff jitter.
fn site_seed(site: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Backoff before retry attempt `attempt` (1-based) at `site`: the
/// exponential base 1, 2, 4, … ms plus a jitter in `[0, base)` derived
/// from the site name and the attempt number (splitmix64 of the FNV
/// seed), the sum capped at 32 ms. No wall-clock randomness
/// enters the schedule, so a given `(site, attempt)` pair always waits the
/// same amount — runs reproduce — while distinct sites desynchronize.
pub fn backoff_ms(site: &str, attempt: u32) -> u64 {
    let base = 1u64 << attempt.saturating_sub(1).min(5);
    let mut x = site_seed(site) ^ (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (base + x % base).min(BACKOFF_CAP_MS)
}

/// The sibling temp path the atomic protocol stages into:
/// `dir/.<file>.tmp`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
    path.with_file_name(format!(".{name}.tmp"))
}

fn injected_error(site: &str, what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what} at site {site} (MICA_FAULTS)"))
}

/// Write `bytes` to `path` atomically: stage into [`tmp_path`], then
/// rename over the destination. Parent directories are created as needed.
///
/// An installed fault plan may fail the attempt (`io:SITE`, nothing
/// written) or tear it (`torn:SITE`, a partial temp file is left behind as
/// a simulated kill mid-write) — in both cases the destination is
/// untouched.
///
/// # Errors
///
/// Propagates filesystem errors and injected faults.
pub fn atomic_write(site: &str, path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)?;
    }
    if let Some(ms) = plan::slow_fault(site) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    match plan::io_fault(site) {
        Some(IoFaultKind::Error) => {
            metrics::incr(&metrics::INJECTED_IO);
            return Err(injected_error(site, "write error"));
        }
        Some(IoFaultKind::Torn) => {
            metrics::incr(&metrics::INJECTED_TORN);
            // A kill mid-write tears the *temp* file; the destination is
            // protected by the rename that never happens.
            let _ = fs::write(tmp_path(path), &bytes[..bytes.len() / 2]);
            return Err(injected_error(site, "torn write (simulated crash mid-write)"));
        }
        None => {}
    }
    let tmp = tmp_path(path);
    if let Err(e) = fs::write(&tmp, bytes) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    fs::rename(&tmp, path)?;
    metrics::incr(&metrics::ATOMIC_WRITES);
    Ok(())
}

/// [`atomic_write`] with up to `retries` extra attempts, sleeping the
/// deterministic site-jittered [`backoff_ms`] schedule between attempts.
///
/// # Errors
///
/// The last attempt's error once the budget is exhausted.
pub fn atomic_write_with_retries(
    site: &str,
    path: &Path,
    bytes: &[u8],
    retries: u32,
) -> io::Result<()> {
    let mut attempt = 0u32;
    loop {
        match atomic_write(site, path, bytes) {
            Ok(()) => {
                if attempt > 0 {
                    metrics::incr(&metrics::SURVIVED_IO);
                    eprintln!(
                        "mica-fault: write to {} (site {site}) succeeded after {attempt} retr{}",
                        path.display(),
                        if attempt == 1 { "y" } else { "ies" }
                    );
                }
                return Ok(());
            }
            Err(e) => {
                if attempt >= retries {
                    return Err(e);
                }
                attempt += 1;
                metrics::incr(&metrics::IO_RETRIES);
                eprintln!(
                    "warning: write to {} (site {site}) failed ({e}); retry {attempt}/{retries}",
                    path.display()
                );
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms(site, attempt)));
            }
        }
    }
}

/// [`atomic_write_with_retries`] with three extra attempts — the form the
/// pipeline's artifact writers use.
///
/// # Errors
///
/// See [`atomic_write_with_retries`].
pub fn atomic_write_retry(site: &str, path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with_retries(site, path, bytes, RETRIES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultPlan, TEST_LOCK};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mica_fault_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_creates_parents_and_leaves_no_tmp() {
        let dir = tmp_dir("atomic");
        let path = dir.join("deep/nested/out.json");
        atomic_write("test.atomic", &path, b"{\"ok\":true}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"ok\":true}");
        assert!(!tmp_path(&path).exists(), "temp file renamed away");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn atomic_write_replaces_existing_content_completely() {
        let dir = tmp_dir("replace");
        let path = dir.join("out.txt");
        atomic_write("test.replace", &path, b"old old old old").unwrap();
        atomic_write("test.replace", &path, b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn injected_error_fails_without_touching_destination() {
        let _g = TEST_LOCK.lock().unwrap();
        let dir = tmp_dir("injected");
        let path = dir.join("out.txt");
        fs::write(&path, b"old").unwrap();
        plan::install(FaultPlan::parse("io:test.site").unwrap());
        let err = atomic_write("test.site", &path, b"new").unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert_eq!(fs::read(&path).unwrap(), b"old");
        plan::clear();
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_write_leaves_old_or_new_never_partial() {
        let _g = TEST_LOCK.lock().unwrap();
        let dir = tmp_dir("torn");
        let path = dir.join("out.json");
        let old = b"{\"version\":\"old\"}".to_vec();
        let new = b"{\"version\":\"new-and-longer\"}".to_vec();
        atomic_write("test.torn", &path, &old).unwrap();

        // Kill-during-write: with a zero retry budget the tear is fatal,
        // but the destination still holds the complete old content.
        plan::install(FaultPlan::parse("torn:test.torn").unwrap());
        atomic_write_with_retries("test.torn", &path, &new, 0).unwrap_err();
        assert_eq!(fs::read(&path).unwrap(), old, "old content intact after tear");
        let partial = fs::read(tmp_path(&path)).unwrap();
        assert_eq!(partial, new[..new.len() / 2], "the tear hit the temp file only");

        // The rewrite after the injected tear replaces it atomically.
        plan::clear();
        atomic_write_retry("test.torn", &path, &new).unwrap();
        assert_eq!(fs::read(&path).unwrap(), new);
        assert!(!tmp_path(&path).exists());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn retry_survives_a_bounded_fault_budget() {
        let _g = TEST_LOCK.lock().unwrap();
        let dir = tmp_dir("retry");
        let path = dir.join("out.txt");
        plan::install(FaultPlan::parse("io:test.retry@2").unwrap());
        let survived_before = metrics::get(&metrics::SURVIVED_IO);
        atomic_write_with_retries("test.retry", &path, b"payload", 3).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"payload");
        assert_eq!(metrics::get(&metrics::SURVIVED_IO), survived_before + 1);

        // A budget smaller than the fault count exhausts and fails.
        plan::install(FaultPlan::parse("io:test.retry@5").unwrap());
        atomic_write_with_retries("test.retry", &path, b"other", 2).unwrap_err();
        assert_eq!(fs::read(&path).unwrap(), b"payload", "failed write changed nothing");
        plan::clear();
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn backoff_schedule_is_deterministic_per_site() {
        let a: Vec<u64> = (1..=8).map(|n| backoff_ms("cache-write", n)).collect();
        let b: Vec<u64> = (1..=8).map(|n| backoff_ms("cache-write", n)).collect();
        assert_eq!(a, b, "same site, same schedule — no wall-clock randomness");
    }

    #[test]
    fn backoff_stays_between_base_and_cap() {
        // Every site that retries a write, plus the serve client's.
        let sites = [
            "cache-write",
            "results",
            "run-summary",
            "lint-json",
            "lint-static",
            "obs.trace",
            "serve-index",
            "serve-client",
        ];
        for site in sites {
            for attempt in 1..=12u32 {
                let base = 1u64 << attempt.saturating_sub(1).min(5);
                let ms = backoff_ms(site, attempt);
                assert!(ms >= base.min(32), "{site} attempt {attempt}: {ms} below base {base}");
                assert!(ms < (2 * base).max(33), "{site} attempt {attempt}: {ms} past jitter range");
                assert!(ms <= 32, "{site} attempt {attempt}: {ms} above the 32 ms cap");
            }
        }
        // Attempt 1 has base 1 and an empty jitter range: exactly 1 ms.
        assert_eq!(backoff_ms("anything", 1), 1);
    }

    #[test]
    fn backoff_jitter_separates_sites() {
        // With a 16 ms base and jitter in [0, 16), five distinct sites
        // colliding on the identical schedule would mean the seed is dead.
        let sites = ["cache-write", "results", "run-summary", "serve-index", "trace"];
        let at5: Vec<u64> = sites.iter().map(|s| backoff_ms(s, 5)).collect();
        let distinct: std::collections::BTreeSet<u64> = at5.iter().copied().collect();
        assert!(distinct.len() > 1, "all sites share one schedule: {at5:?}");
    }

    #[test]
    fn tmp_path_is_a_hidden_sibling() {
        assert_eq!(
            tmp_path(Path::new("results/profiles.json")),
            Path::new("results/.profiles.json.tmp")
        );
    }
}
