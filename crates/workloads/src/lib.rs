//! The 122 benchmark instances of Table I, recreated as algorithm kernels
//! for the [`tinyisa`] VM.
//!
//! The paper characterizes 122 benchmarks from 6 suites (BioInfoMark,
//! BioMetricsWorkload, CommBench, MediaBench, MiBench, SPEC CPU2000)
//! compiled for the Alpha ISA. Those binaries (and the machines to run them)
//! are not available, so this crate substitutes hand-written kernels that
//! implement the same *algorithms* — banded sequence alignment, FFTs, DCT
//! codecs, LZ compression, Feistel ciphers, shortest paths, pointer-chasing
//! network optimization, software rasterization, bytecode interpretation,
//! and so on — parameterized per benchmark instance (working-set sizes,
//! alphabet sizes, entropy of inputs, ...) to reproduce the *inherent
//! behavioral diversity* the methodology measures.
//!
//! Entry points:
//!
//! - [`benchmark_table`] — the full 122-entry table (suite, program, input,
//!   kernel, instruction budget);
//! - [`BenchmarkSpec::build_vm`] — assemble the kernel and initialize its
//!   data segments, ready to run against any
//!   [`TraceSink`](tinyisa::TraceSink);
//! - [`BenchmarkSpec::program`] — the same program without its data, for
//!   static analysis and [`table_fingerprint`];
//! - [`Kernel`] — the kernel zoo itself, usable directly.
//!
//! # Example
//!
//! ```
//! use mica_workloads::{benchmark_table, Suite};
//! use tinyisa::CountingSink;
//!
//! let table = benchmark_table();
//! assert_eq!(table.len(), 122);
//! let crc = table.iter().find(|b| b.program == "CRC32").unwrap();
//! assert_eq!(crc.suite, Suite::MiBench);
//!
//! let mut vm = crc.build_vm().expect("kernel assembles");
//! let mut sink = tinyisa::CountingSink::default();
//! vm.run(&mut sink, 10_000).unwrap();
//! assert_eq!(sink.retired(), 10_000); // kernels run until out of fuel
//! # let _ = CountingSink::default();
//! ```

mod data;
pub mod kernels;
mod table;

pub use kernels::Kernel;
pub use table::{benchmark_table, table_fingerprint, BenchmarkSpec, Suite, NUM_BENCHMARKS};

/// Base address of the primary data segment used by all kernels.
pub const DATA_BASE: u64 = 0x0100_0000;
/// Base address of the secondary data segment (tables, outputs).
pub const DATA2_BASE: u64 = 0x0800_0000;
/// Base address of the third data segment (large auxiliary structures).
pub const DATA3_BASE: u64 = 0x4000_0000;
/// Conventional initial stack pointer (grows down).
pub const STACK_TOP: u64 = 0x00f0_0000;
