//! The 122-benchmark table (the paper's Table I), with each benchmark
//! mapped onto a parameterized [`Kernel`].

use crate::kernels::{FilterKind, Kernel, SchedKind};
use tinyisa::{AsmError, Program, Vm};

/// The six benchmark suites of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Suite {
    BioInfoMark,
    BioMetricsWorkload,
    CommBench,
    MediaBench,
    MiBench,
    SpecCpu2000,
}

impl Suite {
    /// All suites, in Table I order.
    pub const ALL: [Suite; 6] = [
        Suite::BioInfoMark,
        Suite::BioMetricsWorkload,
        Suite::CommBench,
        Suite::MediaBench,
        Suite::MiBench,
        Suite::SpecCpu2000,
    ];
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Suite::BioInfoMark => "BioInfoMark",
            Suite::BioMetricsWorkload => "BioMetricsWorkload",
            Suite::CommBench => "CommBench",
            Suite::MediaBench => "MediaBench",
            Suite::MiBench => "MiBench",
            Suite::SpecCpu2000 => "SPEC2000",
        };
        f.write_str(s)
    }
}

/// One benchmark instance: suite, program and input names as in Table I,
/// the paper's dynamic instruction count, and the kernel standing in for
/// the original binary.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Suite the benchmark belongs to.
    pub suite: Suite,
    /// Program name, exactly as in Table I.
    pub program: &'static str,
    /// Input name, exactly as in Table I.
    pub input: &'static str,
    /// The paper's dynamic instruction count for this run, in millions.
    pub paper_icount_millions: u64,
    /// The kernel (and parameters) this reproduction runs instead.
    pub kernel: Kernel,
}

impl BenchmarkSpec {
    /// `suite/program/input` identifier.
    pub fn name(&self) -> String {
        format!("{}/{}/{}", self.suite, self.program, self.input)
    }

    /// Deterministic per-benchmark data seed (FNV-1a over the name).
    pub fn seed(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.name().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Scaled dynamic-instruction budget for profiling this instance.
    ///
    /// Benchmarks keep their Table I *relative ordering* but are compressed
    /// logarithmically into a 150 K – 1.2 M instruction range so that all
    /// 122 can be profiled in minutes instead of machine-months. All
    /// characteristics are rates or converging distributions, so this
    /// preserves the behavioral signature (see DESIGN.md).
    pub fn instruction_budget(&self) -> u64 {
        let l = (self.paper_icount_millions.max(1) as f64).log10();
        (150_000.0 * (1.0 + l)) as u64
    }

    /// Assemble the kernel and initialize its data, ready to run.
    ///
    /// # Errors
    ///
    /// Propagates assembly failures from [`Kernel::build_vm`].
    pub fn build_vm(&self) -> Result<Vm, AsmError> {
        self.kernel.build_vm(self.seed())
    }

    /// The kernel's program without its data (see [`Kernel::program`]):
    /// what static analysis and the table fingerprint read.
    ///
    /// # Errors
    ///
    /// As [`BenchmarkSpec::build_vm`].
    pub fn program(&self) -> Result<Program, AsmError> {
        self.kernel.program(self.seed())
    }
}

/// Number of benchmark instances (matches the paper).
pub const NUM_BENCHMARKS: usize = 122;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fold one benchmark into a table fingerprint: its name, paper
/// instruction count, data seed, kernel parameterization (via its `Debug`
/// rendering), and the *assembled instruction stream* of the kernel.
fn fold_spec(h: u64, spec: &BenchmarkSpec) -> u64 {
    let program = spec.program().expect("table kernels must assemble");
    let mut h = fnv1a(h, spec.name().as_bytes());
    h = fnv1a(h, &spec.paper_icount_millions.to_le_bytes());
    h = fnv1a(h, &spec.seed().to_le_bytes());
    h = fnv1a(h, format!("{:?}", spec.kernel).as_bytes());
    h = fnv1a(h, &(program.len() as u64).to_le_bytes());
    fnv1a(h, format!("{:?}", program.insts()).as_bytes())
}

/// FNV-1a fingerprint of the entire benchmark table, folding in every
/// benchmark in order (see `fold_spec`). Any edit to the table —
/// reordering, re-parameterizing a kernel, swapping an input — changes the
/// value, and so does any edit to a kernel builder that alters the emitted
/// program, so profile caches keyed on it cannot silently survive a change
/// to what actually runs. Only the programs are assembled, never the data
/// segments, so a call costs a few tens of milliseconds.
pub fn table_fingerprint() -> u64 {
    benchmark_table().iter().fold(fnv1a(0xcbf2_9ce4_8422_2325, b"mica-table-v2"), fold_spec)
}

macro_rules! bench {
    ($suite:ident, $prog:expr, $input:expr, $icnt:expr, $kernel:expr) => {
        BenchmarkSpec {
            suite: Suite::$suite,
            program: $prog,
            input: $input,
            paper_icount_millions: $icnt,
            kernel: $kernel,
        }
    };
}

/// The full 122-benchmark table, in Table I order.
pub fn benchmark_table() -> Vec<BenchmarkSpec> {
    use FilterKind as FK;
    use Kernel as K;
    use SchedKind as SK;
    vec![
        // --- BioInfoMark (12) ---
        bench!(BioInfoMark, "blast", "protein", 81_092, K::DbScan { db_bytes: 8 << 20, word: 8 }),
        bench!(BioInfoMark, "ce", "ce", 4_816, K::DpAlign { m: 2048, band: 256, alphabet: 20 }),
        bench!(BioInfoMark, "clustalw", "clustalw", 884_859, K::DpAlign { m: 4096, band: 512, alphabet: 20 }),
        bench!(BioInfoMark, "fasta", "fasta34", 759_654, K::StrSearch { text_bytes: 1 << 20, patterns: 48, pat_len: 12, alphabet: 4 }),
        bench!(BioInfoMark, "glimmer", "004663", 26_610, K::MarkovScan { seq_bytes: 1 << 16, order: 8 }),
        bench!(BioInfoMark, "hmmer", "build", 321, K::Viterbi { states: 128, steps: 128 }),
        bench!(BioInfoMark, "hmmer", "calibrate", 43_048, K::Viterbi { states: 128, steps: 512 }),
        bench!(BioInfoMark, "hmmer", "search (artemia)", 47, K::Viterbi { states: 256, steps: 256 }),
        bench!(BioInfoMark, "hmmer", "search (sprot)", 1_785_862, K::Viterbi { states: 256, steps: 2048 }),
        bench!(BioInfoMark, "phylip", "dnapenny", 184_557, K::PhyloEval { leaves: 128, sites: 64 }),
        bench!(BioInfoMark, "phylip", "promlk", 557_514, K::PhyloEval { leaves: 64, sites: 256 }),
        bench!(BioInfoMark, "predator", "predator", 804_859, K::DpAlign { m: 1024, band: 64, alphabet: 20 }),
        // --- BioMetricsWorkload (8) ---
        bench!(BioMetricsWorkload, "csu", "Bayesian (project)", 403_313, K::Covariance { dims: 96, samples: 64 }),
        bench!(BioMetricsWorkload, "csu", "Bayesian (train)", 28_158, K::Covariance { dims: 128, samples: 128 }),
        bench!(BioMetricsWorkload, "csu", "PreprocessNormalize", 4_059, K::ImageFilter { w: 256, h: 256, kind: FK::Smooth }),
        bench!(BioMetricsWorkload, "csu", "SubspaceProject (LDA)", 6_054, K::Gemm { n: 96 }),
        bench!(BioMetricsWorkload, "csu", "SubspaceProject (PCA)", 6_098, K::Gemm { n: 112 }),
        bench!(BioMetricsWorkload, "csu", "SubspaceTrain (LDA)", 51_297, K::Covariance { dims: 160, samples: 96 }),
        bench!(BioMetricsWorkload, "csu", "SubspaceTrain (PCA)", 41_729, K::Gemm { n: 144 }),
        bench!(BioMetricsWorkload, "speak", "decode", 46_648, K::NnScan { neurons: 256, dims: 64 }),
        // --- CommBench (12) ---
        bench!(CommBench, "cast", "decode", 130, K::Feistel { blocks: 2048, rounds: 12, sbox_bits: 8 }),
        bench!(CommBench, "cast", "encode", 130, K::Feistel { blocks: 2048, rounds: 12, sbox_bits: 8 }),
        bench!(CommBench, "drr", "drr", 235, K::QueueSched { packets: 2048, kind: SK::Drr }),
        bench!(CommBench, "frag", "frag", 49, K::QueueSched { packets: 1024, kind: SK::Frag }),
        bench!(CommBench, "jpeg", "decode", 238, K::Dct8x8 { blocks: 128, quality: 12 }),
        bench!(CommBench, "jpeg", "encode", 339, K::Dct8x8 { blocks: 192, quality: 8 }),
        bench!(CommBench, "reed", "decode", 1_298, K::ReedSolomon { blocks: 96, msg_len: 64, nsym: 32 }),
        bench!(CommBench, "reed", "encode", 912, K::ReedSolomon { blocks: 128, msg_len: 64, nsym: 16 }),
        bench!(CommBench, "rtr", "rtr", 1_137, K::TrieLookup { keys: 16_384, queries: 8192, depth: 24 }),
        bench!(CommBench, "tcp", "tcp", 58, K::QueueSched { packets: 2048, kind: SK::Tcp }),
        bench!(CommBench, "zip", "decode", 50, K::LzDecompress { bytes: 1 << 16, entropy: 40 }),
        bench!(CommBench, "zip", "encode", 322, K::LzCompress { bytes: 1 << 16, window: 4096, entropy: 40 }),
        // --- MediaBench (12) ---
        bench!(MediaBench, "epic", "test1", 205, K::Wavelet { len: 1 << 14, levels: 8, inverse: false }),
        bench!(MediaBench, "epic", "test2", 2_296, K::Wavelet { len: 1 << 16, levels: 10, inverse: false }),
        bench!(MediaBench, "unepic", "test1", 35, K::Wavelet { len: 1 << 14, levels: 8, inverse: true }),
        bench!(MediaBench, "unepic", "test2", 876, K::Wavelet { len: 1 << 16, levels: 10, inverse: true }),
        bench!(MediaBench, "g721", "decode", 323, K::Adpcm { samples: 1 << 15, decode: true }),
        bench!(MediaBench, "g721", "encode", 343, K::Adpcm { samples: 1 << 15, decode: false }),
        bench!(MediaBench, "ghostscript", "gs", 868, K::Raster { size: 256, tris: 256, textured: false }),
        bench!(MediaBench, "mesa", "mipmap", 32, K::ImageFilter { w: 512, h: 512, kind: FK::Smooth }),
        bench!(MediaBench, "mesa", "osdemo", 10, K::Raster { size: 192, tris: 128, textured: true }),
        bench!(MediaBench, "mesa", "texgen", 86, K::Raster { size: 256, tris: 192, textured: true }),
        bench!(MediaBench, "mpeg2", "decode", 149, K::HuffmanDecode { symbols: 128, stream_bytes: 1 << 14 }),
        bench!(MediaBench, "mpeg2", "encode", 1_528, K::MotionEst { w: 128, h: 96, range: 4 }),
        // --- MiBench (30) ---
        bench!(MiBench, "CRC32", "large", 612, K::Crc32 { bytes: 1 << 18 }),
        bench!(MiBench, "FFT", "fft (large)", 237, K::Fft { log2n: 12 }),
        bench!(MiBench, "FFT", "fftinv (large)", 217, K::Fft { log2n: 12 }),
        bench!(MiBench, "adpcm", "rawcaudio", 758, K::Adpcm { samples: 1 << 16, decode: false }),
        bench!(MiBench, "adpcm", "rawdaudio", 639, K::Adpcm { samples: 1 << 16, decode: true }),
        bench!(MiBench, "basicmath", "large", 1_523, K::Basicmath { values: 4096 }),
        bench!(MiBench, "bitcount", "large", 681, K::Bitops { words: 8192 }),
        bench!(MiBench, "blowfish", "decode", 495, K::Feistel { blocks: 4096, rounds: 16, sbox_bits: 8 }),
        bench!(MiBench, "blowfish", "encode", 498, K::Feistel { blocks: 4096, rounds: 16, sbox_bits: 8 }),
        bench!(MiBench, "dijkstra", "large", 252, K::Dijkstra { nodes: 128 }),
        bench!(MiBench, "ghostscript", "large", 868, K::Raster { size: 224, tris: 192, textured: false }),
        bench!(MiBench, "ispell", "large", 1_027, K::HashDict { entries: 1 << 15, queries: 1 << 14, hit_rate: 800 }),
        bench!(MiBench, "jpeg", "cjpeg", 121, K::Dct8x8 { blocks: 160, quality: 10 }),
        bench!(MiBench, "jpeg", "djpeg", 24, K::Dct8x8 { blocks: 96, quality: 14 }),
        bench!(MiBench, "lame", "large", 1_199, K::Mdct { frames: 64, block: 256 }),
        bench!(MiBench, "mad", "large", 345, K::Fir { taps: 32, samples: 1 << 15 }),
        bench!(MiBench, "patricia", "large", 399, K::TrieLookup { keys: 8192, queries: 16_384, depth: 20 }),
        bench!(MiBench, "pgp", "decode", 111, K::ModExp { words: 16, exp_bits: 96 }),
        bench!(MiBench, "pgp", "encode", 48, K::ModExp { words: 8, exp_bits: 64 }),
        bench!(MiBench, "qsort", "large", 512, K::Qsort { elems: 1 << 14 }),
        bench!(MiBench, "rsynth", "say (large)", 775, K::Fir { taps: 48, samples: 24_576 }),
        bench!(MiBench, "sha", "large", 114, K::Sha { bytes: 1 << 16 }),
        bench!(MiBench, "susan", "corners (large)", 29, K::ImageFilter { w: 128, h: 128, kind: FK::Corners }),
        bench!(MiBench, "susan", "edges (large)", 73, K::ImageFilter { w: 192, h: 192, kind: FK::Edges }),
        bench!(MiBench, "susan", "smoothing (large)", 300, K::ImageFilter { w: 256, h: 256, kind: FK::Smooth }),
        bench!(MiBench, "tiff", "2bw", 143, K::ImageFilter { w: 320, h: 240, kind: FK::Convert }),
        bench!(MiBench, "tiff", "2rgba", 268, K::ImageFilter { w: 384, h: 288, kind: FK::Convert }),
        bench!(MiBench, "tiff", "dither", 1_228, K::ImageFilter { w: 320, h: 240, kind: FK::Dither }),
        bench!(MiBench, "tiff", "median", 763, K::ImageFilter { w: 256, h: 192, kind: FK::Median }),
        bench!(MiBench, "typeset", "lout", 609, K::TextLayout { words: 16_384, line_width: 72 }),
        // --- SPEC CPU2000 (48) ---
        bench!(SpecCpu2000, "ammp", "ref", 388_534, K::Spmv { rows: 16_384, nnz_per_row: 16 }),
        bench!(SpecCpu2000, "applu", "ref", 336_798, K::Stencil { w: 160, h: 160, iters: 4 }),
        bench!(SpecCpu2000, "apsi", "ref", 361_955, K::Stencil { w: 128, h: 128, iters: 6 }),
        bench!(SpecCpu2000, "art", "ref-110", 77_067, K::NnScan { neurons: 1024, dims: 128 }),
        bench!(SpecCpu2000, "art", "ref-470", 84_660, K::NnScan { neurons: 1024, dims: 160 }),
        bench!(SpecCpu2000, "bzip2", "graphic", 157_003, K::Bwtish { block: 1 << 16, entropy: 55 }),
        bench!(SpecCpu2000, "bzip2", "program", 136_389, K::Bwtish { block: 1 << 16, entropy: 25 }),
        bench!(SpecCpu2000, "bzip2", "source", 122_267, K::Bwtish { block: 1 << 16, entropy: 15 }),
        bench!(SpecCpu2000, "crafty", "ref", 194_311, K::Bitops { words: 1 << 15 }),
        bench!(SpecCpu2000, "eon", "cook", 100_552, K::Raytrace { spheres: 64, rays: 2048 }),
        bench!(SpecCpu2000, "eon", "kajiya", 131_268, K::Raytrace { spheres: 96, rays: 2048 }),
        bench!(SpecCpu2000, "eon", "rush", 73_139, K::Raytrace { spheres: 48, rays: 1024 }),
        bench!(SpecCpu2000, "equake", "ref", 158_071, K::Spmv { rows: 32_768, nnz_per_row: 24 }),
        bench!(SpecCpu2000, "facerec", "ref", 249_735, K::Fft { log2n: 14 }),
        bench!(SpecCpu2000, "fma3d", "ref", 312_960, K::Stencil { w: 192, h: 192, iters: 4 }),
        bench!(SpecCpu2000, "galgel", "ref", 326_916, K::LuSolve { n: 96 }),
        bench!(SpecCpu2000, "gap", "ref", 310_323, K::Interp { program_len: 8192 }),
        bench!(SpecCpu2000, "gcc", "166", 46_614, K::HashDict { entries: 1 << 16, queries: 1 << 14, hit_rate: 600 }),
        bench!(SpecCpu2000, "gcc", "200", 106_339, K::PointerChase { nodes: 1 << 15, node_bytes: 64 }),
        bench!(SpecCpu2000, "gcc", "expr", 11_847, K::Interp { program_len: 1 << 14 }),
        bench!(SpecCpu2000, "gcc", "integrate", 13_019, K::HashDict { entries: 1 << 14, queries: 1 << 13, hit_rate: 700 }),
        bench!(SpecCpu2000, "gcc", "scilab", 60_784, K::PointerChase { nodes: 1 << 14, node_bytes: 48 }),
        bench!(SpecCpu2000, "gzip", "graphic", 113_400, K::LzCompress { bytes: 1 << 17, window: 8192, entropy: 55 }),
        bench!(SpecCpu2000, "gzip", "log", 42_506, K::LzCompress { bytes: 1 << 17, window: 8192, entropy: 10 }),
        bench!(SpecCpu2000, "gzip", "program", 161_726, K::LzCompress { bytes: 1 << 17, window: 8192, entropy: 25 }),
        bench!(SpecCpu2000, "gzip", "random", 91_961, K::LzCompress { bytes: 1 << 17, window: 8192, entropy: 95 }),
        bench!(SpecCpu2000, "gzip", "source", 84_366, K::LzCompress { bytes: 1 << 17, window: 8192, entropy: 15 }),
        bench!(SpecCpu2000, "lucas", "ref", 134_753, K::Fft { log2n: 16 }),
        bench!(SpecCpu2000, "mcf", "ref", 59_800, K::PointerChase { nodes: 1 << 18, node_bytes: 64 }),
        bench!(SpecCpu2000, "mesa", "ref", 314_449, K::Raster { size: 320, tris: 256, textured: true }),
        bench!(SpecCpu2000, "mgrid", "ref", 440_934, K::Stencil { w: 256, h: 256, iters: 2 }),
        bench!(SpecCpu2000, "parser", "ref", 530_784, K::HashDict { entries: 1 << 15, queries: 1 << 14, hit_rate: 500 }),
        bench!(SpecCpu2000, "perlbmk", "splitmail.535", 69_857, K::Interp { program_len: 1 << 13 }),
        bench!(SpecCpu2000, "perlbmk", "splitmail.704", 73_966, K::Interp { program_len: 3 << 12 }),
        bench!(SpecCpu2000, "perlbmk", "splitmail.850", 142_509, K::Interp { program_len: 1 << 14 }),
        bench!(SpecCpu2000, "perlbmk", "splitmail.957", 122_893, K::Interp { program_len: 5 << 12 }),
        bench!(SpecCpu2000, "perlbmk", "diffmail", 43_327, K::Interp { program_len: 1 << 12 }),
        bench!(SpecCpu2000, "perlbmk", "makerand", 2_055, K::Interp { program_len: 1 << 11 }),
        bench!(SpecCpu2000, "perlbmk", "perfect", 29_791, K::Interp { program_len: 3 << 11 }),
        bench!(SpecCpu2000, "sixtrack", "ref", 452_446, K::Fir { taps: 256, samples: 1 << 14 }),
        bench!(SpecCpu2000, "swim", "ref", 221_868, K::Stencil { w: 384, h: 384, iters: 1 }),
        bench!(SpecCpu2000, "twolf", "ref", 397_222, K::Annealing { cells: 1 << 13, sweeps: 16, temp: 700 }),
        bench!(SpecCpu2000, "vortex", "ref1", 129_793, K::HashDict { entries: 1 << 16, queries: 1 << 15, hit_rate: 850 }),
        bench!(SpecCpu2000, "vortex", "ref2", 151_475, K::HashDict { entries: 1 << 16, queries: 1 << 15, hit_rate: 850 }),
        bench!(SpecCpu2000, "vortex", "ref3", 145_113, K::HashDict { entries: 1 << 15, queries: 1 << 14, hit_rate: 900 }),
        bench!(SpecCpu2000, "vpr", "place", 117_001, K::Annealing { cells: 1 << 12, sweeps: 24, temp: 300 }),
        bench!(SpecCpu2000, "vpr", "route", 82_351, K::Dijkstra { nodes: 192 }),
        bench!(SpecCpu2000, "wupwise", "ref", 337_770, K::Gemm { n: 192 }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_122_entries() {
        assert_eq!(benchmark_table().len(), NUM_BENCHMARKS);
    }

    #[test]
    fn names_are_unique() {
        let table = benchmark_table();
        let mut names: Vec<String> = table.iter().map(|b| b.name()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate benchmark names");
    }

    #[test]
    fn suite_sizes_match_table_i() {
        let table = benchmark_table();
        let count = |s: Suite| table.iter().filter(|b| b.suite == s).count();
        assert_eq!(count(Suite::BioInfoMark), 12);
        assert_eq!(count(Suite::BioMetricsWorkload), 8);
        assert_eq!(count(Suite::CommBench), 12);
        assert_eq!(count(Suite::MediaBench), 12);
        assert_eq!(count(Suite::MiBench), 30);
        assert_eq!(count(Suite::SpecCpu2000), 48);
    }

    #[test]
    fn seeds_are_distinct_per_benchmark() {
        let table = benchmark_table();
        let mut seeds: Vec<u64> = table.iter().map(|b| b.seed()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), NUM_BENCHMARKS);
    }

    #[test]
    fn budgets_track_paper_instruction_counts() {
        let table = benchmark_table();
        let sprot = table.iter().find(|b| b.input == "search (sprot)").unwrap();
        let artemia = table.iter().find(|b| b.input == "search (artemia)").unwrap();
        assert!(sprot.instruction_budget() > artemia.instruction_budget());
        for b in &table {
            let budget = b.instruction_budget();
            assert!((150_000..=1_200_000).contains(&budget), "{}: {budget}", b.name());
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive_to_kernel_params() {
        assert_eq!(table_fingerprint(), table_fingerprint());
        assert_ne!(table_fingerprint(), 0);
        // The fingerprint covers kernel parameters, not just names: two
        // specs differing only in kernel parameterization hash apart.
        let a = BenchmarkSpec {
            suite: Suite::MiBench,
            program: "sha",
            input: "large",
            paper_icount_millions: 114,
            kernel: Kernel::Sha { bytes: 1 << 16 },
        };
        let mut b = a.clone();
        b.kernel = Kernel::Sha { bytes: 1 << 17 };
        assert_ne!(fold_spec(0, &a), fold_spec(0, &b));
    }

    #[test]
    fn every_benchmark_builds_and_runs() {
        for b in benchmark_table() {
            let mut vm = b.build_vm().unwrap_or_else(|e| panic!("{} fails: {e}", b.name()));
            assert_eq!(b.program().unwrap(), *vm.program(), "{}", b.name());
            let mut sink = tinyisa::CountingSink::default();
            let exit = vm
                .run(&mut sink, 5_000)
                .unwrap_or_else(|e| panic!("{} faults: {e}", b.name()));
            assert_eq!(exit, tinyisa::RunExit::FuelExhausted, "{} halted early", b.name());
        }
    }
}
