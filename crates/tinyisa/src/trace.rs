//! Trace recording and replay.
//!
//! The paper's cost argument (110 machine-days of instrumentation) is about
//! re-running benchmarks once per analysis. Recording the retired-
//! instruction stream once and replaying it into any number of
//! [`TraceSink`]s removes the re-execution cost entirely: a [`Trace`] is a
//! faithful stand-in for the original run, in memory or on disk (compact
//! binary encoding, ~11-27 bytes per instruction).

use crate::inst::{CtrlInfo, DynInst, InstClass, MemAccess, RegRef};
use crate::vm::TraceSink;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

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

/// Errors while decoding a serialized trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The byte stream is not a valid trace encoding.
    Malformed(&'static str),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Malformed(what) => write!(f, "malformed trace: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

const MAGIC: &[u8; 8] = b"MICATRC1";
const NO_REG: u8 = 0xff;

fn class_code(c: InstClass) -> u8 {
    match c {
        InstClass::IntAlu => 0,
        InstClass::IntMul => 1,
        InstClass::Fp => 2,
        InstClass::Load => 3,
        InstClass::Store => 4,
        InstClass::Branch => 5,
        InstClass::Jump => 6,
    }
}

fn class_from(code: u8) -> Option<InstClass> {
    Some(match code {
        0 => InstClass::IntAlu,
        1 => InstClass::IntMul,
        2 => InstClass::Fp,
        3 => InstClass::Load,
        4 => InstClass::Store,
        5 => InstClass::Branch,
        6 => InstClass::Jump,
        _ => return None,
    })
}

fn reg_code(r: Option<RegRef>) -> u8 {
    match r {
        None => NO_REG,
        Some(r) => r.unified() as u8,
    }
}

fn reg_from(code: u8) -> Result<Option<RegRef>, TraceError> {
    match code {
        NO_REG => Ok(None),
        0..=31 => Ok(Some(RegRef::Int(code))),
        32..=63 => Ok(Some(RegRef::Fp(code - 32))),
        _ => Err(TraceError::Malformed("register code out of range")),
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

    /// Serialize to the compact binary encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.events.len() * 16);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        for e in &self.events {
            out.extend_from_slice(&e.pc.to_le_bytes());
            out.push(class_code(e.class));
            out.push(reg_code(e.dst));
            for s in e.srcs {
                out.push(reg_code(s));
            }
            let mut flags = 0u8;
            if let Some(m) = e.mem {
                flags |= 1;
                if m.is_store {
                    flags |= 2;
                }
            }
            if let Some(c) = e.ctrl {
                flags |= 4;
                if c.taken {
                    flags |= 8;
                }
                if c.conditional {
                    flags |= 16;
                }
            }
            out.push(flags);
            if let Some(m) = e.mem {
                out.extend_from_slice(&m.addr.to_le_bytes());
                out.push(m.size as u8);
            }
            if let Some(c) = e.ctrl {
                out.extend_from_slice(&c.target.to_le_bytes());
            }
        }
        out
    }

    /// Decode the binary encoding produced by [`Trace::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`TraceError::Malformed`] on any structural problem.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], TraceError> {
            if *pos + n > bytes.len() {
                return Err(TraceError::Malformed("truncated"));
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 8)? != MAGIC {
            return Err(TraceError::Malformed("bad magic"));
        }
        let count = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize;
        let mut events = Vec::with_capacity(count.min(1 << 24));
        for _ in 0..count {
            let pc = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
            let class = class_from(take(&mut pos, 1)?[0])
                .ok_or(TraceError::Malformed("bad class code"))?;
            let dst = reg_from(take(&mut pos, 1)?[0])?;
            let mut srcs = [None; 3];
            for s in &mut srcs {
                *s = reg_from(take(&mut pos, 1)?[0])?;
            }
            let flags = take(&mut pos, 1)?[0];
            let mem = if flags & 1 != 0 {
                let addr = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
                let size = take(&mut pos, 1)?[0] as u64;
                Some(MemAccess { addr, size, is_store: flags & 2 != 0 })
            } else {
                None
            };
            let ctrl = if flags & 4 != 0 {
                let target = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
                Some(CtrlInfo { taken: flags & 8 != 0, target, conditional: flags & 16 != 0 })
            } else {
                None
            };
            events.push(DynInst { pc, class, dst, srcs, mem, ctrl });
        }
        if pos != bytes.len() {
            return Err(TraceError::Malformed("trailing bytes"));
        }
        Ok(Trace { events })
    }

    /// Write the trace to a file atomically (temp-then-rename with bounded
    /// retry), so a crash mid-save leaves the previous trace intact rather
    /// than a truncated binary that [`Trace::load`] would reject.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors once the retry budget is exhausted.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        mica_fault::io::atomic_write_retry("tinyisa.trace", path, &self.to_bytes())
    }

    /// Read a trace from a file.
    ///
    /// # Errors
    ///
    /// See [`TraceError`].
    pub fn load(path: &Path) -> Result<Self, TraceError> {
        Self::from_bytes(&fs::read(path)?)
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
    fn binary_round_trip_is_lossless() {
        let t = record_sample();
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
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

    #[test]
    fn file_round_trip() {
        let t = record_sample();
        let path = std::env::temp_dir().join("tinyisa_trace_test.bin");
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_errors_propagate_and_leave_no_temp_file() {
        let t = record_sample();
        // The destination's parent is a regular file, so the staged temp
        // write cannot succeed; the error must reach the caller.
        let dir = std::env::temp_dir().join(format!("tinyisa_save_err_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("not_a_dir");
        std::fs::write(&blocker, b"file, not dir").unwrap();
        let path = blocker.join("trace.bin");
        t.save(&path).unwrap_err();
        assert_eq!(std::fs::read(&blocker).unwrap(), b"file, not dir");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_replaces_an_existing_trace_atomically() {
        let t = record_sample();
        let dir = std::env::temp_dir().join(format!("tinyisa_save_repl_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.bin");
        std::fs::write(&path, b"stale garbage").unwrap();
        t.save(&path).unwrap();
        assert_eq!(Trace::load(&path).unwrap(), t);
        assert!(
            !mica_fault::io::tmp_path(&path).exists(),
            "temp file renamed away"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(matches!(
            Trace::from_bytes(b"not a trace"),
            Err(TraceError::Malformed(_))
        ));
        let mut bytes = record_sample().to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(Trace::from_bytes(&bytes), Err(TraceError::Malformed(_))));
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(Trace::from_bytes(&bytes).is_err());
    }

    #[test]
    fn encoding_is_compact() {
        let t = record_sample();
        let bytes = t.to_bytes();
        let per_inst = (bytes.len() - 16) as f64 / t.len() as f64;
        assert!(per_inst < 24.0, "bytes/inst = {per_inst}");
    }
}
