//! Chrome-trace exporter (`MICA_TRACE=out.json`).
//!
//! Emits the Trace Event Format understood by `chrome://tracing` and
//! Perfetto: spans as complete (`"ph":"X"`) events and leveled events as
//! instants (`"ph":"i"`), all under one pid with the logical thread id as
//! the track — so `par_map` fan-out renders as one lane per pool worker
//! (`worker-0`…`worker-N`) beside the `main` lane.
//!
//! Records are buffered in memory and the whole file (including
//! `thread_name` metadata for every tid seen) is rewritten on each
//! [`Sink::flush`], so a crash mid-run loses the trace but a normal run
//! pays no per-span I/O. The flush goes through `mica_fault::io` — a
//! temp-then-rename atomic write with bounded retry — so a reader never
//! observes a half-written trace; if the write still fails after the
//! retry budget, `obs.trace.dropped_events` counts what was lost.
//!
//! Every flushed file ends with the format's top-level `otherData`
//! object,
//!
//! ```json
//! "otherData":{"events":N,"spans":M,"dropped_events":D}
//! ```
//!
//! the instants and spans the sink received and the dropped-event count
//! at flush time, so a consumer (`mica-prof`) can prove the file
//! complete: one without `otherData`, with counts above the records it
//! holds, or with dropped events is reported as truncated instead of
//! silently under-counted.

use crate::{push_json_attrs, push_json_str, Counter, Event, Sink, SpanRecord};
use std::path::PathBuf;
use std::sync::Mutex;

/// Trace events lost because the final flush failed even after retries.
static DROPPED_EVENTS: Counter = Counter::new("obs.trace.dropped_events");

/// Buffering Chrome-trace writer; finalized by [`Sink::flush`].
pub struct ChromeTraceSink {
    path: PathBuf,
    buffer: Mutex<Buffer>,
}

/// Pre-rendered JSON objects, one per trace event, with how many of them
/// are instants and spans (for `otherData`).
#[derive(Default)]
struct Buffer {
    objs: Vec<String>,
    events: u64,
    spans: u64,
}

impl ChromeTraceSink {
    /// A sink that will write `path` at flush time (no I/O until then).
    pub fn create(path: PathBuf) -> ChromeTraceSink {
        ChromeTraceSink { path, buffer: Mutex::new(Buffer::default()) }
    }
}

impl Sink for ChromeTraceSink {
    fn on_event(&self, event: &Event) {
        let mut obj = String::with_capacity(96 + event.message.len());
        obj.push_str("{\"name\":");
        push_json_str(&mut obj, &event.message);
        obj.push_str(",\"cat\":");
        push_json_str(&mut obj, event.target);
        obj.push_str(",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
        obj.push_str(&event.ts_us.to_string());
        obj.push_str(",\"pid\":1,\"tid\":");
        obj.push_str(&event.tid.to_string());
        obj.push_str(",\"args\":{\"level\":\"");
        obj.push_str(event.level.lower());
        obj.push_str("\",\"attrs\":");
        push_json_attrs(&mut obj, &event.attrs);
        obj.push_str("}}");
        let mut buffer = self.buffer.lock().expect("trace buffer poisoned");
        buffer.objs.push(obj);
        buffer.events += 1;
    }

    fn on_span(&self, span: &SpanRecord) {
        let mut obj = String::with_capacity(96 + span.name.len());
        obj.push_str("{\"name\":");
        push_json_str(&mut obj, &span.name);
        obj.push_str(",\"cat\":");
        push_json_str(&mut obj, span.cat);
        obj.push_str(",\"ph\":\"X\",\"ts\":");
        obj.push_str(&span.ts_us.to_string());
        obj.push_str(",\"dur\":");
        obj.push_str(&span.dur_us.to_string());
        obj.push_str(",\"pid\":1,\"tid\":");
        obj.push_str(&span.tid.to_string());
        // Context ids ride in args (the Trace Event Format has no
        // first-class span ids for "X" events): trace groups one
        // request's spans, span/parent rebuild the tree.
        obj.push_str(",\"args\":{\"trace\":");
        obj.push_str(&span.trace_id.to_string());
        obj.push_str(",\"span\":");
        obj.push_str(&span.span_id.to_string());
        obj.push_str(",\"parent\":");
        obj.push_str(&span.parent_id.to_string());
        obj.push_str(",\"attrs\":");
        push_json_attrs(&mut obj, &span.attrs);
        obj.push_str("}}");
        let mut buffer = self.buffer.lock().expect("trace buffer poisoned");
        buffer.objs.push(obj);
        buffer.spans += 1;
    }

    fn flush(&self) {
        let buffer = self.buffer.lock().expect("trace buffer poisoned");
        let objs = &buffer.objs;
        let mut out = String::with_capacity(objs.iter().map(|e| e.len() + 2).sum::<usize>() + 512);
        out.push_str("{\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"mica\"}}",
        );
        for (tid, name) in crate::thread_names() {
            out.push_str(",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
            out.push_str(&tid.to_string());
            out.push_str(",\"args\":{\"name\":");
            push_json_str(&mut out, &name);
            out.push_str("}},{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":");
            out.push_str(&tid.to_string());
            out.push_str(",\"args\":{\"sort_index\":");
            out.push_str(&tid.to_string());
            out.push_str("}}");
        }
        for obj in objs {
            out.push(',');
            out.push_str(obj);
        }
        out.push_str(&format!(
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"events\":{},\"spans\":{},\"dropped_events\":{}}}}}",
            buffer.events,
            buffer.spans,
            DROPPED_EVENTS.get(),
        ));
        if let Err(e) = mica_fault::io::atomic_write_retry("obs.trace", &self.path, out.as_bytes())
        {
            DROPPED_EVENTS.add(objs.len() as u64);
            eprintln!(
                "warning: cannot write trace file {}: {e} ({} events dropped)",
                self.path.display(),
                objs.len()
            );
        }
    }
}
