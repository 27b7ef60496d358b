//! Trace recording and replay.
//!
//! The paper's cost argument (110 machine-days of instrumentation) is about
//! re-running benchmarks once per analysis. Recording the retired-
//! instruction stream once and replaying it into any number of
//! [`TraceSink`]s removes the re-execution cost entirely: a [`Trace`] is a
//! faithful in-memory stand-in for the original run.

use crate::inst::DynInst;
use crate::vm::TraceSink;

/// A recorded dynamic instruction stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<DynInst>,
}

/// A [`TraceSink`] that records every retired instruction.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    trace: Trace,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the recorder into the recorded trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl TraceSink for TraceRecorder {
    fn retire(&mut self, inst: &DynInst) {
        self.trace.events.push(*inst);
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        self.trace.events.extend_from_slice(block);
    }
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded instructions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events.
    pub fn events(&self) -> &[DynInst] {
        &self.events
    }

    /// Feed every recorded instruction to `sink`, in order, one
    /// [`TraceSink::retire`] call per instruction — the reference delivery
    /// path block delivery is verified against.
    pub fn replay<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        for e in &self.events {
            sink.retire(e);
        }
    }

    /// Feed the recorded stream to `sink` in blocks of at most
    /// `block_size` instructions via [`TraceSink::retire_block`].
    ///
    /// For any `block_size >= 1` the sink observes exactly the stream
    /// [`Trace::replay`] delivers (same instructions, same order); only the
    /// delivery granularity changes. `block_size` of zero is rounded up
    /// to one.
    pub fn replay_blocks<S: TraceSink + ?Sized>(&self, sink: &mut S, block_size: usize) {
        for chunk in self.events.chunks(block_size.max(1)) {
            sink.retire_block(chunk);
        }
    }
}

impl FromIterator<DynInst> for Trace {
    fn from_iter<I: IntoIterator<Item = DynInst>>(iter: I) -> Self {
        Trace { events: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::*;
    use crate::{Asm, Vm};

    fn record_sample() -> Trace {
        let mut a = Asm::new();
        let head = a.label();
        a.li(T0, 0);
        a.li(T2, 0x9000);
        a.bind(head);
        a.ld8(T3, T2, 0);
        a.fadd(F1, F0, F0);
        a.st8(T3, T2, 8);
        a.addi(T0, T0, 1);
        a.slti(T1, T0, 50);
        a.bne(T1, ZERO, head);
        a.halt();
        let mut rec = TraceRecorder::new();
        Vm::new(a.assemble().unwrap()).run(&mut rec, 100_000).unwrap();
        rec.into_trace()
    }

    #[test]
    fn recorder_captures_every_retired_instruction() {
        let t = record_sample();
        assert_eq!(t.len(), 2 + 50 * 6 + 1);
    }

    #[test]
    fn replay_equals_live_analysis() {
        use crate::vm::CountingSink;
        let t = record_sample();
        let mut sink = CountingSink::default();
        t.replay(&mut sink);
        assert_eq!(sink.retired() as usize, t.len());
    }

    #[test]
    fn replay_blocks_matches_replay_for_any_block_size() {
        let t = record_sample();
        let mut reference = TraceRecorder::new();
        t.replay(&mut reference);
        let reference = reference.into_trace();
        for block_size in [0usize, 1, 2, 3, 7, 64, 1 << 20] {
            let mut rec = TraceRecorder::new();
            t.replay_blocks(&mut rec, block_size);
            assert_eq!(rec.into_trace(), reference, "block_size = {block_size}");
        }
    }
}
