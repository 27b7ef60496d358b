//! Deterministic fault plans (`MICA_FAULTS`).
//!
//! A [`FaultPlan`] is a list of directives describing faults to inject at
//! exact, reproducible points: a named kernel's profiling run, or the
//! first `N` write attempts at a named I/O site. The process-global plan
//! is parsed from `MICA_FAULTS` on first use; tests swap it with
//! [`install`] / [`clear`].
//!
//! Injection is consulted from two places:
//!
//! - the profiling pipeline asks [`should_panic_kernel`] before running a
//!   kernel and panics (to be caught by `par_map_isolated`) on a match;
//! - [`crate::io::atomic_write`] asks [`io_fault`] before touching the
//!   filesystem and fails (or tears) the attempt on a match.
//!
//! Occurrence accounting (`@N`) is per directive and cumulative across the
//! process: `io:cache-write@2` fails the first two attempts at site
//! `cache-write`, wherever they come from, then stands down. All adopted
//! write sites are driven from the main thread, so occurrence order is
//! deterministic; kernel-panic directives match by *name* and are
//! scheduling-independent by construction.

use std::fmt;
use std::sync::{Mutex, OnceLock};

/// What an `io:`/`torn:` directive does to a write attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The attempt fails with an injected I/O error; nothing is written.
    Error,
    /// The attempt is torn: a partial temp file is left behind and an
    /// injected error is returned — a simulated kill mid-write.
    Torn,
}

/// One parsed `MICA_FAULTS` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `panic:kernel=NAME` — panic whenever kernel NAME is profiled.
    PanicKernel {
        /// Program name (`adpcm`) or full `suite/program/input` name.
        kernel: String,
    },
    /// `panic:request=N` — panic while serving the N-th submission
    /// (1-based across the process), to be caught by the server's
    /// per-request quarantine.
    PanicRequest {
        /// Which request (counting calls to [`should_panic_request`])
        /// panics.
        nth: u64,
    },
    /// `io:SITE[@N]` / `torn:SITE[@N]` — fault the first N write attempts
    /// at SITE.
    Io {
        /// Site name as passed to [`crate::io::atomic_write`].
        site: String,
        /// Error or torn write.
        kind: IoFaultKind,
        /// How many attempts to fault before standing down.
        attempts: u64,
    },
    /// `slow:SITE[=MS][@N]` — delay the first N operations at SITE by MS
    /// milliseconds (default 25). Adopters ask [`slow_fault`] and sleep.
    Slow {
        /// Site name (write sites and server request sites both qualify).
        site: String,
        /// Injected latency, milliseconds.
        millis: u64,
        /// How many operations to slow before standing down.
        attempts: u64,
    },
}

impl fmt::Display for Directive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Directive::PanicKernel { kernel } => write!(f, "panic:kernel={kernel}"),
            Directive::PanicRequest { nth } => write!(f, "panic:request={nth}"),
            Directive::Io { site, kind: IoFaultKind::Error, attempts } => {
                write!(f, "io:{site}@{attempts}")
            }
            Directive::Io { site, kind: IoFaultKind::Torn, attempts } => {
                write!(f, "torn:{site}@{attempts}")
            }
            Directive::Slow { site, millis, attempts } => {
                write!(f, "slow:{site}={millis}@{attempts}")
            }
        }
    }
}

/// A parsed fault plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Directives in `MICA_FAULTS` order.
    pub directives: Vec<Directive>,
}

/// Why a `MICA_FAULTS` directive did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    /// The offending directive text.
    pub directive: String,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad MICA_FAULTS directive {:?}: {}", self.directive, self.message)
    }
}

impl std::error::Error for PlanParseError {}

impl FaultPlan {
    /// An empty plan (nothing injected).
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when no directive is present.
    pub fn is_empty(&self) -> bool {
        self.directives.is_empty()
    }

    /// Parse the `MICA_FAULTS` grammar (see the crate docs). Empty and
    /// whitespace-only input parse to the empty plan.
    ///
    /// # Errors
    ///
    /// The first directive that does not parse.
    pub fn parse(s: &str) -> Result<FaultPlan, PlanParseError> {
        let mut directives = Vec::new();
        for raw in s.split(',') {
            let d = raw.trim();
            if d.is_empty() {
                continue;
            }
            directives.push(parse_directive(d)?);
        }
        Ok(FaultPlan { directives })
    }
}

impl fmt::Display for FaultPlan {
    /// Render the plan in canonical grammar; `FaultPlan::parse` of the
    /// rendering reproduces the plan exactly (round-trip tested).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.directives.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

fn parse_directive(d: &str) -> Result<Directive, PlanParseError> {
    let err = |message: &str| PlanParseError { directive: d.to_string(), message: message.into() };
    let (head, rest) = d.split_once(':').ok_or_else(|| err("expected `kind:...`"))?;
    match head.trim() {
        "panic" => {
            let (what, arg) = rest
                .split_once('=')
                .ok_or_else(|| err("expected `panic:kernel=NAME` or `panic:request=N`"))?;
            match what.trim() {
                "kernel" => {
                    let kernel = arg.trim();
                    if kernel.is_empty() {
                        return Err(err("empty kernel name"));
                    }
                    Ok(Directive::PanicKernel { kernel: kernel.to_string() })
                }
                "request" => {
                    let nth = arg
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| err("`panic:request=N` needs a positive integer"))?;
                    if nth == 0 {
                        return Err(err("`panic:request=N` needs a positive integer"));
                    }
                    Ok(Directive::PanicRequest { nth })
                }
                _ => Err(err("only `panic:kernel=NAME` and `panic:request=N` are supported")),
            }
        }
        kind @ ("io" | "torn") => {
            let kind =
                if kind == "io" { IoFaultKind::Error } else { IoFaultKind::Torn };
            let (site, attempts) = match rest.split_once('@') {
                None => (rest.trim(), 1),
                Some((site, n)) => (
                    site.trim(),
                    n.trim().parse::<u64>().map_err(|_| err("`@N` must be a positive integer"))?,
                ),
            };
            if site.is_empty() {
                return Err(err("empty site name"));
            }
            if attempts == 0 {
                return Err(err("`@N` must be a positive integer"));
            }
            Ok(Directive::Io { site: site.to_string(), kind, attempts })
        }
        "slow" => {
            let (spec, attempts) = match rest.split_once('@') {
                None => (rest, 1),
                Some((spec, n)) => (
                    spec,
                    n.trim().parse::<u64>().map_err(|_| err("`@N` must be a positive integer"))?,
                ),
            };
            if attempts == 0 {
                return Err(err("`@N` must be a positive integer"));
            }
            let (site, millis) = match spec.split_once('=') {
                None => (spec.trim(), 25),
                Some((site, ms)) => (
                    site.trim(),
                    ms.trim()
                        .parse::<u64>()
                        .map_err(|_| err("`=MS` must be a non-negative integer"))?,
                ),
            };
            if site.is_empty() {
                return Err(err("empty site name"));
            }
            Ok(Directive::Slow { site: site.to_string(), millis, attempts })
        }
        _ => Err(err("unknown directive kind (want `panic`, `io`, `torn` or `slow`)")),
    }
}

/// The installed plan plus per-directive fire counts.
struct PlanState {
    plan: FaultPlan,
    /// Times each directive has fired, indexed like `plan.directives`.
    fired: Vec<u64>,
}

impl PlanState {
    fn new(plan: FaultPlan) -> PlanState {
        let fired = vec![0; plan.directives.len()];
        PlanState { plan, fired }
    }
}

static PLAN: OnceLock<Mutex<PlanState>> = OnceLock::new();

fn state() -> &'static Mutex<PlanState> {
    PLAN.get_or_init(|| {
        let plan = match std::env::var("MICA_FAULTS") {
            Err(_) => FaultPlan::empty(),
            Ok(s) => match FaultPlan::parse(&s) {
                Ok(plan) => {
                    if !plan.is_empty() {
                        eprintln!(
                            "mica-fault: injecting {} fault(s) from MICA_FAULTS={s:?}",
                            plan.directives.len()
                        );
                    }
                    plan
                }
                Err(e) => {
                    eprintln!("warning: {e}; ignoring the whole MICA_FAULTS value");
                    FaultPlan::empty()
                }
            },
        };
        Mutex::new(PlanState::new(plan))
    })
}

/// Replace the process-global plan (tests and embedders). Resets all
/// occurrence counts.
pub fn install(plan: FaultPlan) {
    *state().lock().expect("fault plan poisoned") = PlanState::new(plan);
}

/// Remove every directive — nothing is injected until the next
/// [`install`].
pub fn clear() {
    install(FaultPlan::empty());
}

/// Whether any directive is installed (cheap pre-check for hot paths).
pub fn active() -> bool {
    !state().lock().expect("fault plan poisoned").plan.is_empty()
}

/// Should profiling kernel `name` panic? Matches `panic:kernel=` directives
/// by exact name; call once with the program name and once with the full
/// `suite/program/input` name (short-circuited so a match is counted once).
/// Counts the injection when it matches.
pub fn should_panic_kernel(name: &str) -> bool {
    let st = state().lock().expect("fault plan poisoned");
    for d in &st.plan.directives {
        if let Directive::PanicKernel { kernel } = d {
            if kernel == name {
                drop(st);
                crate::metrics::incr(&crate::metrics::INJECTED_PANIC);
                return true;
            }
        }
    }
    false
}

/// Should the submission being admitted right now panic? Every call counts
/// one request against each `panic:request=N` directive; the call whose
/// running count hits `N` returns true (exactly once per directive).
/// Counted requests are whatever the adopter says they are — the server
/// calls this once per accepted submission — so `N` is deterministic under
/// FIFO admission regardless of worker scheduling. Bumps the
/// `fault.injected.request_panic` counter when it fires.
pub fn should_panic_request() -> bool {
    let mut st = state().lock().expect("fault plan poisoned");
    let mut fire = false;
    for i in 0..st.plan.directives.len() {
        let nth = match &st.plan.directives[i] {
            Directive::PanicRequest { nth } => *nth,
            _ => continue,
        };
        st.fired[i] += 1;
        if st.fired[i] == nth {
            fire = true;
        }
    }
    drop(st);
    if fire {
        crate::metrics::incr(&crate::metrics::INJECTED_REQUEST_PANIC);
    }
    fire
}

/// Should the operation at `site` be artificially delayed? Consumes one
/// occurrence of the first matching `slow:` directive with occurrences
/// left and returns the injected latency in milliseconds — the caller
/// sleeps (so the delay lands on the adopter's thread, not under the plan
/// lock). Bumps the `fault.injected.slow` counter when it fires.
pub fn slow_fault(site: &str) -> Option<u64> {
    let mut st = state().lock().expect("fault plan poisoned");
    for i in 0..st.plan.directives.len() {
        let (millis, attempts) = match &st.plan.directives[i] {
            Directive::Slow { site: s, millis, attempts } if s == site => (*millis, *attempts),
            _ => continue,
        };
        if st.fired[i] < attempts {
            st.fired[i] += 1;
            drop(st);
            crate::metrics::incr(&crate::metrics::INJECTED_SLOW);
            return Some(millis);
        }
    }
    None
}

/// Should this write attempt at `site` be faulted? Consumes one occurrence
/// of the first matching directive with occurrences left. Counting of the
/// injection itself happens in [`crate::io::atomic_write`], which knows
/// whether the fault was an error or a tear.
pub fn io_fault(site: &str) -> Option<IoFaultKind> {
    let mut st = state().lock().expect("fault plan poisoned");
    for (i, d) in st.plan.directives.iter().enumerate() {
        if let Directive::Io { site: s, kind, attempts } = d {
            if s == site && st.fired[i] < *attempts {
                let kind = *kind;
                st.fired[i] += 1;
                return Some(kind);
            }
        }
    }
    None
}

/// Serializes every unit test, in any module of this crate, that installs
/// or clears the process-wide plan: a test holds it from its `install`
/// until its last check of what the plan did.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_parses_every_directive_kind() {
        let p = FaultPlan::parse("panic:kernel=adpcm, io:cache-write@2 ,torn:results").unwrap();
        assert_eq!(
            p.directives,
            vec![
                Directive::PanicKernel { kernel: "adpcm".into() },
                Directive::Io {
                    site: "cache-write".into(),
                    kind: IoFaultKind::Error,
                    attempts: 2
                },
                Directive::Io { site: "results".into(), kind: IoFaultKind::Torn, attempts: 1 },
            ]
        );
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ,, ").unwrap().is_empty());
    }

    #[test]
    fn grammar_parses_serve_side_directives() {
        let p = FaultPlan::parse("panic:request=2, slow:respond@3, slow:serve.request=150").unwrap();
        assert_eq!(
            p.directives,
            vec![
                Directive::PanicRequest { nth: 2 },
                Directive::Slow { site: "respond".into(), millis: 25, attempts: 3 },
                Directive::Slow { site: "serve.request".into(), millis: 150, attempts: 1 },
            ]
        );
    }

    #[test]
    fn plans_round_trip_through_display() {
        for s in [
            "panic:kernel=adpcm,io:cache-write@2,torn:results",
            "panic:request=3,slow:serve.request=150@2,io:respond@1",
            "slow:cache-write,slow:results=0@4",
            "",
        ] {
            let plan = FaultPlan::parse(s).unwrap();
            let rendered = plan.to_string();
            let reparsed = FaultPlan::parse(&rendered).unwrap();
            assert_eq!(reparsed, plan, "{s:?} -> {rendered:?} did not round-trip");
        }
    }

    #[test]
    fn bad_directives_are_rejected_with_context() {
        for bad in [
            "panic",
            "panic:kernel=",
            "panic:thread=main",
            "panic:request=",
            "panic:request=0",
            "panic:request=x",
            "io:",
            "io:site@0",
            "io:site@x",
            "slow:",
            "slow:site@0",
            "slow:site=ms",
            "slow:=5",
            "boom:site",
        ] {
            let e = FaultPlan::parse(bad).unwrap_err();
            assert_eq!(e.directive, bad.trim());
            assert!(!e.message.is_empty());
        }
    }

    #[test]
    fn kernel_panic_matches_by_exact_name_every_time() {
        let _g = TEST_LOCK.lock().unwrap();
        install(FaultPlan::parse("panic:kernel=adpcm").unwrap());
        assert!(should_panic_kernel("adpcm"));
        assert!(should_panic_kernel("adpcm"), "kernel directives fire every time");
        assert!(!should_panic_kernel("adpcm_c"));
        assert!(!should_panic_kernel("MiBench/adpcm/rawcaudio"));
        clear();
        assert!(!should_panic_kernel("adpcm"));
    }

    #[test]
    fn request_panic_fires_on_the_nth_request_only() {
        let _g = TEST_LOCK.lock().unwrap();
        install(FaultPlan::parse("panic:request=3").unwrap());
        let fired: Vec<bool> = (0..5).map(|_| should_panic_request()).collect();
        assert_eq!(fired, vec![false, false, true, false, false]);
        // Reinstalling resets the request count.
        install(FaultPlan::parse("panic:request=1").unwrap());
        assert!(should_panic_request());
        assert!(!should_panic_request());
        clear();
        assert!(!should_panic_request());
    }

    #[test]
    fn slow_occurrences_are_consumed_and_sited() {
        let _g = TEST_LOCK.lock().unwrap();
        install(FaultPlan::parse("slow:a=7@2").unwrap());
        assert_eq!(slow_fault("a"), Some(7));
        assert_eq!(slow_fault("b"), None, "other sites never slow");
        assert_eq!(slow_fault("a"), Some(7));
        assert_eq!(slow_fault("a"), None, "budget exhausted");
        clear();
    }

    #[test]
    fn io_occurrences_are_consumed_in_order() {
        let _g = TEST_LOCK.lock().unwrap();
        install(FaultPlan::parse("io:a@2,torn:a").unwrap());
        // First two attempts consume the `io:a@2` budget, the third falls
        // through to `torn:a`, the fourth finds nothing left.
        assert_eq!(io_fault("a"), Some(IoFaultKind::Error));
        assert_eq!(io_fault("a"), Some(IoFaultKind::Error));
        assert_eq!(io_fault("a"), Some(IoFaultKind::Torn));
        assert_eq!(io_fault("a"), None);
        assert_eq!(io_fault("b"), None, "other sites never fault");
        clear();
    }
}
