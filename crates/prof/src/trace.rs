//! Loader for `MICA_TRACE` Chrome-trace files.
//!
//! The file is one Trace Event Format document (see `mica_obs`'s Chrome
//! sink): complete (`"ph":"X"`) events are spans, carrying their
//! `trace`/`span`/`parent` ids and attributes in `args`; instant
//! (`"ph":"i"`) events are log records, of which only the count is kept;
//! any other element (the `M` metadata, a phase this version does not
//! know, a malformed record) is skipped and counted. Loading is
//! deliberately *tolerant*: the profiler must be able to analyze a trace
//! written by a newer (or older, or crashed) pipeline and say what it can.
//!
//! The span tree is built once, from parent ids: a span whose parent has
//! no record in the file is a root. So a `par_map` pool's chunks, which
//! run on worker threads, are its children, and a span whose timestamps
//! would nest it under the wrong parent (serve's backfilled `queue` span)
//! still hangs under its own.

use serde::Value;
use std::collections::HashMap;

/// One closed span (`"ph":"X"`).
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Open timestamp, microseconds since tracing started.
    pub ts_us: u64,
    /// Wall duration in microseconds.
    pub dur_us: u64,
    /// Logical thread id the span ran on.
    pub tid: u64,
    /// Process-unique id of the span.
    pub span_id: u64,
    /// Id of the span it opened under (0 = none).
    pub parent_id: u64,
    /// Static category (`run`, `stage`, `par`, `profile`, …).
    pub cat: String,
    /// Span name (stage name, kernel name, …).
    pub name: String,
    /// Structured attributes (`alloc_n`/`alloc_b` on every span: the
    /// allocation tracker is on whenever spans are recorded).
    pub attrs: Vec<(String, Value)>,
}

impl SpanRec {
    /// End timestamp in microseconds.
    pub fn end_us(&self) -> u64 {
        self.ts_us.saturating_add(self.dur_us)
    }

    /// A `u64` attribute by name, when present and representable.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        match self.attrs.iter().find(|(k, _)| k == key)?.1 {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }
}

/// The counts the trace sink writes as the document's `otherData` when it
/// flushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCounts {
    /// Instants the sink received over its lifetime.
    pub events: u64,
    /// Spans the sink received over its lifetime.
    pub spans: u64,
    /// Records lost to failed flushes (`obs.trace.dropped_events`).
    pub dropped_events: u64,
}

/// A parsed `MICA_TRACE` file with its span tree.
#[derive(Debug, Default)]
pub struct Trace {
    /// Spans in file (close) order; the tree below indexes into it.
    spans: Vec<SpanRec>,
    /// Instants in the file.
    pub events: usize,
    /// The sink's `otherData` counts, when the file has them.
    pub counts: Option<TraceCounts>,
    /// Elements that are neither a span nor an instant.
    pub skipped: usize,
    /// `children[i]`: the spans whose parent is `spans[i]`, in start order.
    children: Vec<Vec<usize>>,
    /// Spans whose parent has no record, in start order.
    roots: Vec<usize>,
}

fn get_str(obj: &Value, key: &str) -> Option<String> {
    match obj.field(key)? {
        Value::String(s) => Some(s.clone()),
        _ => None,
    }
}

fn get_u64(obj: &Value, key: &str) -> Option<u64> {
    match obj.field(key)? {
        Value::Number(n) => n.as_u64(),
        _ => None,
    }
}

impl Trace {
    /// Parse a Chrome-trace document. Never fails: a document that does
    /// not parse yields an empty trace, which has no `otherData` and so
    /// reads as truncated.
    pub fn parse(text: &str) -> Trace {
        let mut trace = Trace::default();
        let Ok(doc) = serde_json::from_str::<Value>(text) else { return trace };
        for elem in doc.field("traceEvents").and_then(Value::as_array).unwrap_or_default() {
            match elem.field("ph") {
                Some(Value::String(ph)) if ph == "i" => trace.events += 1,
                Some(Value::String(ph)) if ph == "X" => match Trace::parse_span(elem) {
                    Some(span) => trace.spans.push(span),
                    None => trace.skipped += 1,
                },
                _ => trace.skipped += 1,
            }
        }
        trace.counts = doc.field("otherData").and_then(|o| {
            Some(TraceCounts {
                events: get_u64(o, "events")?,
                spans: get_u64(o, "spans")?,
                dropped_events: get_u64(o, "dropped_events")?,
            })
        });
        trace.build_tree();
        trace
    }

    /// Read and parse the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; parse problems are tolerated and
    /// surface as [`Trace::skipped`] or as truncation.
    pub fn load(path: &std::path::Path) -> std::io::Result<Trace> {
        Ok(Trace::parse(&std::fs::read_to_string(path)?))
    }

    fn parse_span(elem: &Value) -> Option<SpanRec> {
        let args = elem.field("args")?;
        Some(SpanRec {
            ts_us: get_u64(elem, "ts")?,
            dur_us: get_u64(elem, "dur")?,
            tid: get_u64(elem, "tid")?,
            span_id: get_u64(args, "span")?,
            parent_id: get_u64(args, "parent")?,
            cat: get_str(elem, "cat")?,
            name: get_str(elem, "name")?,
            attrs: args
                .field("attrs")
                .and_then(Value::as_object)
                .map(<[_]>::to_vec)
                .unwrap_or_default(),
        })
    }

    fn build_tree(&mut self) {
        let index: HashMap<u64, usize> =
            self.spans.iter().enumerate().map(|(i, s)| (s.span_id, i)).collect();
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| self.spans[i].ts_us);
        self.children = vec![Vec::new(); self.spans.len()];
        for i in order {
            match index.get(&self.spans[i].parent_id) {
                Some(&p) if p != i => self.children[p].push(i),
                _ => self.roots.push(i),
            }
        }
    }

    /// Spans in file (close) order. [`Trace::children`] and
    /// [`Trace::roots`] index into this slice.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// The spans whose parent is `spans()[span]`, in start order.
    pub fn children(&self, span: usize) -> &[usize] {
        &self.children[span]
    }

    /// The spans whose parent has no record in the file, in start order.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Whether the file is provably incomplete: no `otherData` (the run
    /// died before its final flush, or the document does not parse),
    /// dropped events, or counts above the records the file holds.
    pub fn truncated(&self) -> bool {
        match self.counts {
            None => true,
            Some(c) => {
                c.dropped_events > 0
                    || (c.events as usize) > self.events
                    || (c.spans as usize) > self.spans.len()
            }
        }
    }
}
