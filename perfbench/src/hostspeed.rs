//! Host-speed calibration.
//!
//! The benchmark runs on a shared host whose speed moves under the program:
//! profiling the same kernels ran 1.7× slower in some stretches than in
//! others, and a stretch lasts tens of seconds, longer than a run. A run
//! therefore takes a calibration sample — a fixed piece of harness-local
//! work, timed — between consecutive units of the program's work, and
//! reports each unit's time scaled to a reference host speed:
//!
//! ```text
//! scaled = raw × reference_s / mean(sample before, sample after)
//! ```
//!
//! The sample is code of the benchmark, so no change to the program makes
//! it faster or slower; a program that does more work shows as more scaled
//! time. A slower host does not slow every kind of code alike, so the
//! sample imitates the work it scales ([`Sample`]). Simpler loops slowed
//! less than the program did when the host slowed: over five minutes of
//! profiling, while the raw throughput of 20-second windows moved through a
//! 1.46× range, those windows spread by 16% (interquartile range over
//! median) raw, by 9% scaled by a pure arithmetic loop, and by 4% scaled by
//! the [`Sample::Analyzer`] sample.
//!
//! A sample describes only the CPU it ran on, so end-to-end runs pin
//! themselves to one ([`pin_to_one_cpu`]).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

type Map<K> = HashMap<K, u32, BuildHasherDefault<DefaultHasher>>;

/// What a calibration sample imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sample {
    /// The analyzers: a 1 MiB table of two-bit counters indexed by branch
    /// address and history, and a hash map of touched addresses. Scales
    /// kernel profiling, the analysis commands and zoo submissions.
    Analyzer,
    /// Request service: numbers formatted into a line and parsed back, and
    /// short-lived string keys in a hash map. Scales table lookups, whose
    /// time goes to parsing, rendering and allocation. Over five minutes of
    /// back-to-back lookup rounds, 10-second windows of the answer rate
    /// moved through a 41% range raw, 17% scaled by the analyzer sample and
    /// 6% scaled by this one.
    Service,
}

impl Sample {
    /// Seconds one sample takes on the reference host (a 2-vCPU Xeon guest)
    /// in its fast stretches; scaled times read as seconds on that host.
    pub fn reference_s(self) -> f64 {
        match self {
            Sample::Analyzer => 0.006,
            Sample::Service => 0.003,
        }
    }

    /// One sample of the fixed work; returns its duration in seconds.
    fn once(self) -> f64 {
        let started = Instant::now();
        match self {
            Sample::Analyzer => analyzer_work(),
            Sample::Service => service_work(),
        }
        started.elapsed().as_secs_f64()
    }
}

/// Branch events per analyzer sample.
const STEPS: u64 = 100_000;
/// Counter-table entries: 1 MiB, larger than a core's first two cache
/// levels share.
const TABLE_BITS: u32 = 20;

fn analyzer_work() {
    let mask = (1u64 << TABLE_BITS) - 1;
    let mut table = vec![1u8; 1 << TABLE_BITS];
    let mut touched: Map<u64> = Map::default();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let (mut history, mut hits) = (0u64, 0u64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let pc = (x >> 20) & 0x3ff;
        let taken = !(pc * 7 + (history & 3)).is_multiple_of(3);
        let slot = &mut table[(((pc << 10) ^ history) & mask) as usize];
        hits += u64::from((*slot >= 2) == taken);
        *slot = if taken {
            (*slot + 1).min(3)
        } else {
            slot.saturating_sub(1)
        };
        history = (history << 1) | u64::from(taken);
        *touched.entry(x & 0xffff).or_insert(0) += 1;
    }
    black_box((hits, touched.len()));
}

/// Lines per service sample, each 47 numbers (a metric vector) long.
const LINES: usize = 200;

fn service_work() {
    let mut line = String::new();
    let mut keys: Map<String> = Map::default();
    let (mut x, mut sum) = (0.123_456_789_f64, 0.0);
    for i in 0..LINES {
        line.clear();
        for j in 0..47 {
            x = (x * 1.618_033 + j as f64 * 0.37).fract() * 1000.0 + 0.001;
            let _ = write!(line, "{x},");
        }
        sum += line
            .split(',')
            .filter_map(|t| t.parse::<f64>().ok())
            .sum::<f64>();
        for j in 0..40 {
            *keys
                .entry(format!("key-{}", (i * 40 + j) % 997))
                .or_insert(0) += 1;
        }
        if i % 12 == 11 {
            keys.clear();
        }
    }
    black_box((sum, keys.len()));
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and so every thread and child process it starts
/// afterwards, to one CPU: the highest-numbered one it may run on. Returns
/// that CPU, or `None` where the affinity calls fail (the run then goes
/// unpinned).
///
/// A sample describes only the CPU it ran on: the benchmark host's two
/// vCPUs change speed independently (over one minute, the same loop ran
/// from 0.63× to 1.48× as fast on one as on the other), so work on one
/// vCPU scaled by a sample from the other is scaled by the wrong speed.
/// Call before starting any thread.
pub fn pin_to_one_cpu() -> Option<usize> {
    // The C library's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly `cpusetsize` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `cpusetsize` bytes,
    // and pid 0 names the calling thread.
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (pinned == 0).then_some(cpu)
}

/// The calibration samples of one run, in the order they were taken.
#[derive(Debug, Clone)]
pub struct HostSpeed {
    kind: Sample,
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Start with one sample of `kind`, the one before the first unit of
    /// work.
    pub fn new(kind: Sample) -> HostSpeed {
        HostSpeed {
            kind,
            samples: vec![kind.once()],
        }
    }

    /// Take a sample.
    pub fn sample(&mut self) {
        self.samples.push(self.kind.once());
    }

    /// Index of the latest sample.
    pub fn last(&self) -> usize {
        self.samples.len() - 1
    }

    /// `raw_s` of work done between samples `before` and `before + 1`,
    /// scaled to the reference speed.
    pub fn scale(&self, raw_s: f64, before: usize) -> f64 {
        let pair = &self.samples[before..=before + 1];
        raw_s * self.kind.reference_s() * 2.0 / (pair[0] + pair[1])
    }

    /// Run `f`, then take a sample: `(scaled_s, raw_s, result)`.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (f64, f64, R) {
        let before = self.last();
        let started = Instant::now();
        let out = f();
        let raw = started.elapsed().as_secs_f64();
        self.sample();
        (self.scale(raw, before), raw, out)
    }

    /// Median sample, in seconds.
    pub fn median_s(&self) -> f64 {
        crate::median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_uses_the_samples_around_the_work() {
        let r = Sample::Analyzer.reference_s();
        let speed = HostSpeed {
            kind: Sample::Analyzer,
            samples: vec![r, 3.0 * r, 2.0 * r],
        };
        // Work between a reference-speed sample and one three times slower
        // ran at half the reference speed on average.
        assert!((speed.scale(1.0, 0) - 0.5).abs() < 1e-12);
        assert!((speed.scale(5.0, 1) - 2.0).abs() < 1e-12);
    }
}
