//! The 47 microarchitecture-independent program characteristics of the MICA
//! methodology (Hoste & Eeckhout, IISWC 2006), computed online from a
//! [`tinyisa`] instruction trace.
//!
//! The metrics cover six categories, in the exact order of Table II of the
//! paper:
//!
//! 1. **Instruction mix** (6): fraction of loads, stores, control transfers,
//!    integer arithmetic, integer multiplies, floating-point operations.
//! 2. **ILP** (4): IPC of an idealized out-of-order processor (perfect
//!    caches, perfect branch prediction, unlimited functional units) limited
//!    only by a window of 32/64/128/256 in-flight instructions.
//! 3. **Register traffic** (9): average number of register input operands,
//!    average degree of register use, and the cumulative distribution of
//!    register dependency distances (≤ 1, 2, 4, 8, 16, 32, 64).
//! 4. **Working set** (4): unique 32-byte blocks and 4 KiB pages touched by
//!    the data and the instruction stream.
//! 5. **Data stream strides** (20): cumulative distributions of local and
//!    global load/store strides (= 0, ≤ 8, ≤ 64, ≤ 512, ≤ 4096 bytes).
//! 6. **Branch predictability** (4): accuracy of four Prediction-by-
//!    Partial-Matching predictors (GAg, PAg, GAs, PAs).
//!
//! # Example
//!
//! ```
//! use tinyisa::{Asm, Vm, regs::*};
//! use mica_core::CharacterizationSuite;
//!
//! # fn main() -> Result<(), tinyisa::AsmError> {
//! let mut a = Asm::new();
//! let head = a.label();
//! a.li(T0, 0);
//! a.li(T2, 0x8000);
//! a.bind(head);
//! a.st8(T0, T2, 0);
//! a.addi(T2, T2, 8);
//! a.addi(T0, T0, 1);
//! a.slti(T1, T0, 1000);
//! a.bne(T1, ZERO, head);
//! a.halt();
//!
//! let mut suite = CharacterizationSuite::new();
//! let mut vm = Vm::new(a.assemble()?);
//! vm.run(&mut suite, 1_000_000).unwrap();
//! let v = suite.finish();
//! // One store per 5-instruction loop iteration:
//! assert!((v.get(mica_core::metrics::PCT_STORES) - 0.2).abs() < 0.01);
//! # Ok(())
//! # }
//! ```

mod ilp;
mod mix;
mod ppm;
mod regtraffic;
mod strides;
mod suite;
mod vector;
mod working_set;

pub use ilp::IlpAnalyzer;
pub use mix::InstructionMix;
pub use ppm::{PpmPredictor, PpmVariant};
pub use regtraffic::{RegTraffic, DEP_DIST_BUCKETS};
pub use strides::{StrideAnalyzer, STRIDE_BUCKETS};
pub use suite::CharacterizationSuite;
pub use vector::{Category, MetricId, MetricInfo, MicaVector, METRICS, NUM_METRICS};
pub use working_set::WorkingSet;

/// Named [`MetricId`] constants for all 47 characteristics, in Table II
/// order.
pub mod metrics {
    use crate::vector::MetricId;

    pub const PCT_LOADS: MetricId = MetricId(0);
    pub const PCT_STORES: MetricId = MetricId(1);
    pub const PCT_CONTROL: MetricId = MetricId(2);
    pub const PCT_ARITH: MetricId = MetricId(3);
    pub const PCT_INT_MUL: MetricId = MetricId(4);
    pub const PCT_FP: MetricId = MetricId(5);
    pub const ILP_32: MetricId = MetricId(6);
    pub const ILP_64: MetricId = MetricId(7);
    pub const ILP_128: MetricId = MetricId(8);
    pub const ILP_256: MetricId = MetricId(9);
    pub const AVG_INPUT_OPERANDS: MetricId = MetricId(10);
    pub const AVG_DEGREE_OF_USE: MetricId = MetricId(11);
    pub const DEP_DIST_LE_1: MetricId = MetricId(12);
    pub const DEP_DIST_LE_2: MetricId = MetricId(13);
    pub const DEP_DIST_LE_4: MetricId = MetricId(14);
    pub const DEP_DIST_LE_8: MetricId = MetricId(15);
    pub const DEP_DIST_LE_16: MetricId = MetricId(16);
    pub const DEP_DIST_LE_32: MetricId = MetricId(17);
    pub const DEP_DIST_LE_64: MetricId = MetricId(18);
    pub const D_WSS_BLOCKS: MetricId = MetricId(19);
    pub const D_WSS_PAGES: MetricId = MetricId(20);
    pub const I_WSS_BLOCKS: MetricId = MetricId(21);
    pub const I_WSS_PAGES: MetricId = MetricId(22);
    pub const LOCAL_LOAD_STRIDE_0: MetricId = MetricId(23);
    pub const LOCAL_LOAD_STRIDE_8: MetricId = MetricId(24);
    pub const LOCAL_LOAD_STRIDE_64: MetricId = MetricId(25);
    pub const LOCAL_LOAD_STRIDE_512: MetricId = MetricId(26);
    pub const LOCAL_LOAD_STRIDE_4096: MetricId = MetricId(27);
    pub const GLOBAL_LOAD_STRIDE_0: MetricId = MetricId(28);
    pub const GLOBAL_LOAD_STRIDE_8: MetricId = MetricId(29);
    pub const GLOBAL_LOAD_STRIDE_64: MetricId = MetricId(30);
    pub const GLOBAL_LOAD_STRIDE_512: MetricId = MetricId(31);
    pub const GLOBAL_LOAD_STRIDE_4096: MetricId = MetricId(32);
    pub const LOCAL_STORE_STRIDE_0: MetricId = MetricId(33);
    pub const LOCAL_STORE_STRIDE_8: MetricId = MetricId(34);
    pub const LOCAL_STORE_STRIDE_64: MetricId = MetricId(35);
    pub const LOCAL_STORE_STRIDE_512: MetricId = MetricId(36);
    pub const LOCAL_STORE_STRIDE_4096: MetricId = MetricId(37);
    pub const GLOBAL_STORE_STRIDE_0: MetricId = MetricId(38);
    pub const GLOBAL_STORE_STRIDE_8: MetricId = MetricId(39);
    pub const GLOBAL_STORE_STRIDE_64: MetricId = MetricId(40);
    pub const GLOBAL_STORE_STRIDE_512: MetricId = MetricId(41);
    pub const GLOBAL_STORE_STRIDE_4096: MetricId = MetricId(42);
    pub const PPM_GAG: MetricId = MetricId(43);
    pub const PPM_PAG: MetricId = MetricId(44);
    pub const PPM_GAS: MetricId = MetricId(45);
    pub const PPM_PAS: MetricId = MetricId(46);
}
