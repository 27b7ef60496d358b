//! The [`Sink`] trait plus the stderr and in-memory implementations.

use crate::{Event, Level, SpanRecord};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Receives events and closed spans from the global dispatch. All methods
/// take `&self` — sinks handle their own interior mutability — and must be
/// cheap enough to call from worker threads.
pub trait Sink: Send + Sync {
    /// The most verbose event level this sink wants, or `None` for no
    /// events at all. The global fast path is the max over all sinks.
    fn event_interest(&self) -> Option<Level> {
        Some(Level::Trace)
    }

    /// Whether this sink records closed spans. Span creation is skipped
    /// entirely when no sink wants them.
    fn wants_spans(&self) -> bool {
        true
    }

    /// Deliver one event (already filtered by [`Sink::event_interest`]).
    fn on_event(&self, event: &Event);

    /// Deliver one closed span.
    fn on_span(&self, span: &SpanRecord);

    /// Finalize buffered output. Called by [`crate::flush`] and when the
    /// sink is removed.
    fn flush(&self) {}
}

/// Human-readable leveled logger on stderr — the `MICA_LOG` sink.
///
/// Events print as `[  12.345s LEVEL target] message (k=v, ...)`. Spans
/// print only at `trace` verbosity (they flood below that, and the trace
/// sink is the right tool for span analysis).
pub struct StderrSink {
    level: Level,
}

impl StderrSink {
    /// A stderr logger at the given verbosity.
    pub fn new(level: Level) -> StderrSink {
        StderrSink { level }
    }
}

fn render_attrs(attrs: &[(&'static str, crate::Attr)]) -> String {
    if attrs.is_empty() {
        return String::new();
    }
    let body: Vec<String> = attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!(" ({})", body.join(", "))
}

impl Sink for StderrSink {
    fn event_interest(&self) -> Option<Level> {
        Some(self.level)
    }

    fn wants_spans(&self) -> bool {
        self.level >= Level::Trace
    }

    fn on_event(&self, event: &Event) {
        let secs = event.ts_us as f64 / 1e6;
        let mut err = std::io::stderr().lock();
        let _ = writeln!(
            err,
            "[{secs:9.3}s {:5} {}] {}{}",
            event.level.as_str(),
            event.target,
            event.message,
            render_attrs(&event.attrs),
        );
    }

    fn on_span(&self, span: &SpanRecord) {
        let secs = span.ts_us as f64 / 1e6;
        let mut err = std::io::stderr().lock();
        let _ = writeln!(
            err,
            "[{secs:9.3}s SPAN  {}] {} took {}us on tid {}{}",
            span.cat,
            span.name,
            span.dur_us,
            span.tid,
            render_attrs(&span.attrs),
        );
    }
}

/// One captured record, in dispatch order.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A leveled event.
    Event(Event),
    /// A closed span.
    Span(SpanRecord),
}

/// A capture sink for tests: clone the handle, install one clone with
/// [`crate::add_sink`], and read records back through the other.
#[derive(Clone, Default)]
pub struct MemorySink {
    records: Arc<Mutex<Vec<Record>>>,
}

impl MemorySink {
    /// An empty capture sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Every record captured so far, in dispatch order.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().expect("capture buffer poisoned").clone()
    }

    /// Only the captured events.
    pub fn events(&self) -> Vec<Event> {
        self.records()
            .into_iter()
            .filter_map(|r| match r {
                Record::Event(e) => Some(e),
                Record::Span(_) => None,
            })
            .collect()
    }

    /// Only the captured spans, in close order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.records()
            .into_iter()
            .filter_map(|r| match r {
                Record::Span(s) => Some(s),
                Record::Event(_) => None,
            })
            .collect()
    }

    /// Drop everything captured so far.
    pub fn clear(&self) {
        self.records.lock().expect("capture buffer poisoned").clear();
    }
}

impl Sink for MemorySink {
    fn on_event(&self, event: &Event) {
        self.records.lock().expect("capture buffer poisoned").push(Record::Event(event.clone()));
    }

    fn on_span(&self, span: &SpanRecord) {
        self.records.lock().expect("capture buffer poisoned").push(Record::Span(span.clone()));
    }
}
