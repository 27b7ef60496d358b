//! Process-wide fault counters.
//!
//! `mica-fault` sits *below* `mica-obs` in the dependency stack, so it
//! cannot use the observability crate's counter registry. Instead it keeps
//! its own fixed set of relaxed atomics and exposes a [`snapshot`];
//! `mica_obs::counters()` merges that snapshot into its own, so every run
//! summary lists the `fault.*` counters alongside the rest.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! fault_counters {
    ($( $(#[$doc:meta])* $name:ident => $label:literal ),+ $(,)?) => {
        $( $(#[$doc])* pub static $name: AtomicU64 = AtomicU64::new(0); )+

        /// Every fault counter as `(name, value)`, ascending by name.
        pub fn snapshot() -> Vec<(&'static str, u64)> {
            let mut v = vec![ $( ($label, $name.load(Ordering::Relaxed)) ),+ ];
            v.sort_unstable_by_key(|&(name, _)| name);
            v
        }
    };
}

fault_counters! {
    /// Kernel panics injected by a `panic:kernel=` directive.
    INJECTED_PANIC => "fault.injected.panic",
    /// Server-request panics injected by a `panic:request=` directive.
    INJECTED_REQUEST_PANIC => "fault.injected.request_panic",
    /// Latency injections fired by a `slow:` directive.
    INJECTED_SLOW => "fault.injected.slow",
    /// Write attempts failed by an `io:` directive.
    INJECTED_IO => "fault.injected.io",
    /// Write attempts torn by a `torn:` directive.
    INJECTED_TORN => "fault.injected.torn",
    /// Writes that failed at least once (injected or real) and then
    /// succeeded on a retry.
    SURVIVED_IO => "fault.survived.io",
    /// Retry attempts performed by [`crate::io::atomic_write_retry`].
    IO_RETRIES => "fault.io.retries",
    /// Atomic writes that reached the rename (i.e. completed).
    ATOMIC_WRITES => "fault.io.atomic_writes",
}

/// Bump a counter by one. Public so adopters outside this crate (e.g. the
/// serve response path injecting `io:respond`) can account for faults they
/// inject themselves after consulting [`crate::plan::io_fault`].
pub fn incr(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// Read a counter (tests and assertions).
pub fn get(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let snap = snapshot();
        assert_eq!(snap.len(), 8);
        let names: Vec<&str> = snap.iter().map(|&(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert!(names.contains(&"fault.injected.panic"));
        assert!(names.contains(&"fault.injected.request_panic"));
        assert!(names.contains(&"fault.injected.slow"));
        assert!(names.contains(&"fault.survived.io"));
    }
}
