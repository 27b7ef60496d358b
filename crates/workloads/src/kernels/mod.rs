//! The kernel zoo: every algorithm family the 122 benchmark instances are
//! built from.

mod bio;
mod compress;
mod crypto;
mod dsp;
mod graph;
mod linalg;
mod media;
mod misc;

pub use media::FilterKind;
pub use misc::SchedKind;

use tinyisa::{AsmError, Program, Vm};

/// What a kernel builder produces. Every builder assembles its program,
/// wraps it in a [`Vm`], and returns right there for [`Build::Program`];
/// only [`Build::Full`] goes on to synthesize the data segments, which are
/// most of a build's cost (about 75 MiB across the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Build {
    /// The program on empty memory.
    Program,
    /// The program and its initialized data.
    Full,
}

/// An algorithm kernel plus its parameters. [`Kernel::build_vm`] assembles
/// the program and initializes its input data (deterministically from
/// `seed`), producing a VM that runs the workload in an endless steady-state
/// loop — execution length is controlled purely by the fuel passed to
/// [`Vm::run`]. [`Kernel::program`] assembles the same program without the
/// data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Banded Smith-Waterman-style DP alignment.
    DpAlign { m: u64, band: u64, alphabet: u8 },
    /// blast-class large-database scan with hash seeding.
    DbScan { db_bytes: u64, word: u64 },
    /// Markov-model sequence scoring (glimmer).
    MarkovScan { seq_bytes: u64, order: u32 },
    /// Viterbi max-plus DP (hmmer).
    Viterbi { states: u64, steps: u64 },
    /// Recursive phylogenetic likelihood (phylip).
    PhyloEval { leaves: u64, sites: u64 },
    /// Dense FP matrix multiply.
    Gemm { n: u64 },
    /// Covariance accumulation over sample vectors.
    Covariance { dims: u64, samples: u64 },
    /// Five-point Jacobi stencil.
    Stencil { w: u64, h: u64, iters: u64 },
    /// CSR sparse matrix-vector product.
    Spmv { rows: u64, nnz_per_row: u64 },
    /// Winner-take-all neural prototype scan (art, speech GMMs).
    NnScan { neurons: u64, dims: u64 },
    /// LU decomposition with partial pivoting.
    LuSolve { n: u64 },
    /// Iterative radix-2 complex FFT.
    Fft { log2n: u32 },
    /// FIR filtering.
    Fir { taps: u64, samples: u64 },
    /// IMA-style ADPCM coding.
    Adpcm { samples: u64, decode: bool },
    /// 8x8 DCT + quantization.
    Dct8x8 { blocks: u64, quality: u64 },
    /// Haar-style lifting wavelet.
    Wavelet { len: u64, levels: u64, inverse: bool },
    /// Scalar math loops (Newton sqrt, cubics, GCD).
    Basicmath { values: u64 },
    /// Windowed MDCT filterbank (audio coders).
    Mdct { frames: u64, block: u64 },
    /// Feistel block cipher with S-boxes.
    Feistel { blocks: u64, rounds: u64, sbox_bits: u32 },
    /// SHA-1-style compression rounds.
    Sha { bytes: u64 },
    /// Table-driven CRC32.
    Crc32 { bytes: u64 },
    /// Multi-limb modular exponentiation.
    ModExp { words: u64, exp_bits: u64 },
    /// Reed-Solomon GF(256) coding.
    ReedSolomon { blocks: u64, msg_len: u64, nsym: u64 },
    /// Hash-chain LZ77 compression.
    LzCompress { bytes: u64, window: u64, entropy: u64 },
    /// LZ77 decompression of a host-compressed stream.
    LzDecompress { bytes: u64, entropy: u64 },
    /// bzip2-flavored block transform (counting sort + MTF).
    Bwtish { block: u64, entropy: u64 },
    /// Heapless Dijkstra over a dense adjacency matrix.
    Dijkstra { nodes: u64 },
    /// Radix-trie lookups (patricia, route tables).
    TrieLookup { keys: u64, queries: u64, depth: u64 },
    /// mcf-class pointer chasing over a shuffled ring.
    PointerChase { nodes: u64, node_bytes: u64 },
    /// Open-addressed hash-dictionary probing.
    HashDict { entries: u64, queries: u64, hit_rate: u64 },
    /// Scanline triangle rasterization.
    Raster { size: u64, tris: u64, textured: bool },
    /// Image filtering (smooth/edges/median/dither/convert).
    ImageFilter { w: u64, h: u64, kind: FilterKind },
    /// Block motion estimation (SAD search).
    MotionEst { w: u64, h: u64, range: u64 },
    /// Bytecode interpreter with compare-chain dispatch.
    Interp { program_len: u64 },
    /// Bitboard manipulation and popcounts.
    Bitops { words: u64 },
    /// Iterative quicksort of keyed records.
    Qsort { elems: u64 },
    /// Ray-sphere tracing with a called intersection routine.
    Raytrace { spheres: u64, rays: u64 },
    /// Packet processing (DRR / fragmentation / TCP monitoring).
    QueueSched { packets: u64, kind: SchedKind },
    /// Greedy justified line breaking over a linked word list.
    TextLayout { words: u64, line_width: u64 },
    /// Simulated-annealing placement (random swaps, accept/reject).
    Annealing { cells: u64, sweeps: u64, temp: u64 },
    /// Canonical-Huffman bitstream decoding (entropy decode).
    HuffmanDecode { symbols: u64, stream_bytes: u64 },
    /// Boyer-Moore-Horspool multi-pattern text search.
    StrSearch { text_bytes: u64, patterns: u64, pat_len: u64, alphabet: u8 },
}

impl Kernel {
    /// Assemble the kernel and initialize its data from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] if the generated program fails to assemble
    /// (which would be a bug in the kernel builder, but is surfaced rather
    /// than panicking).
    pub fn build_vm(&self, seed: u64) -> Result<Vm, AsmError> {
        self.build(seed, Build::Full)
    }

    /// The kernel's program alone: the same instructions [`Kernel::build_vm`]
    /// runs, without synthesizing the data segments. Takes the seed because
    /// a few programs embed facts about their host-generated input (the LZ
    /// token count, for one).
    ///
    /// # Errors
    ///
    /// As [`Kernel::build_vm`].
    pub fn program(&self, seed: u64) -> Result<Program, AsmError> {
        self.build(seed, Build::Program).map(|vm| vm.program().clone())
    }

    fn build(&self, seed: u64, build: Build) -> Result<Vm, AsmError> {
        match *self {
            Kernel::DpAlign { m, band, alphabet } => bio::dp_align(m, band, alphabet, seed, build),
            Kernel::DbScan { db_bytes, word } => bio::db_scan(db_bytes, word, seed, build),
            Kernel::MarkovScan { seq_bytes, order } => {
                bio::markov_scan(seq_bytes, order, seed, build)
            }
            Kernel::Viterbi { states, steps } => bio::viterbi(states, steps, seed, build),
            Kernel::PhyloEval { leaves, sites } => bio::phylo_eval(leaves, sites, seed, build),
            Kernel::Gemm { n } => linalg::gemm(n, seed, build),
            Kernel::Covariance { dims, samples } => linalg::covariance(dims, samples, seed, build),
            Kernel::Stencil { w, h, iters } => linalg::stencil(w, h, iters, seed, build),
            Kernel::Spmv { rows, nnz_per_row } => linalg::spmv(rows, nnz_per_row, seed, build),
            Kernel::NnScan { neurons, dims } => linalg::nn_scan(neurons, dims, seed, build),
            Kernel::LuSolve { n } => linalg::lu_solve(n, seed, build),
            Kernel::Fft { log2n } => dsp::fft(log2n, seed, build),
            Kernel::Fir { taps, samples } => dsp::fir(taps, samples, seed, build),
            Kernel::Adpcm { samples, decode } => dsp::adpcm(samples, decode, seed, build),
            Kernel::Dct8x8 { blocks, quality } => dsp::dct8x8(blocks, quality, seed, build),
            Kernel::Wavelet { len, levels, inverse } => {
                dsp::wavelet(len, levels, inverse, seed, build)
            }
            Kernel::Basicmath { values } => dsp::basicmath(values, seed, build),
            Kernel::Mdct { frames, block } => dsp::mdct(frames, block, seed, build),
            Kernel::Feistel { blocks, rounds, sbox_bits } => {
                crypto::feistel(blocks, rounds, sbox_bits, seed, build)
            }
            Kernel::Sha { bytes } => crypto::sha(bytes, seed, build),
            Kernel::Crc32 { bytes } => crypto::crc32(bytes, seed, build),
            Kernel::ModExp { words, exp_bits } => crypto::modexp(words, exp_bits, seed, build),
            Kernel::ReedSolomon { blocks, msg_len, nsym } => {
                crypto::reed_solomon(blocks, msg_len, nsym, seed, build)
            }
            Kernel::LzCompress { bytes, window, entropy } => {
                compress::lz_compress(bytes, window, entropy, seed, build)
            }
            Kernel::LzDecompress { bytes, entropy } => {
                compress::lz_decompress(bytes, entropy, seed, build)
            }
            Kernel::Bwtish { block, entropy } => compress::bwtish(block, entropy, seed, build),
            Kernel::Dijkstra { nodes } => graph::dijkstra(nodes, seed, build),
            Kernel::TrieLookup { keys, queries, depth } => {
                graph::trie_lookup(keys, queries, depth, seed, build)
            }
            Kernel::PointerChase { nodes, node_bytes } => {
                graph::pointer_chase(nodes, node_bytes, seed, build)
            }
            Kernel::HashDict { entries, queries, hit_rate } => {
                graph::hash_dict(entries, queries, hit_rate, seed, build)
            }
            Kernel::Raster { size, tris, textured } => {
                media::raster(size, tris, textured, seed, build)
            }
            Kernel::ImageFilter { w, h, kind } => media::image_filter(w, h, kind, seed, build),
            Kernel::MotionEst { w, h, range } => media::motion_est(w, h, range, seed, build),
            Kernel::Interp { program_len } => misc::interp(program_len, seed, build),
            Kernel::Bitops { words } => misc::bitops(words, seed, build),
            Kernel::Qsort { elems } => misc::qsort(elems, seed, build),
            Kernel::Raytrace { spheres, rays } => misc::raytrace(spheres, rays, seed, build),
            Kernel::QueueSched { packets, kind } => misc::queue_sched(packets, kind, seed, build),
            Kernel::TextLayout { words, line_width } => {
                misc::text_layout(words, line_width, seed, build)
            }
            Kernel::Annealing { cells, sweeps, temp } => {
                misc::annealing(cells, sweeps, temp, seed, build)
            }
            Kernel::HuffmanDecode { symbols, stream_bytes } => {
                misc::huffman_decode(symbols, stream_bytes, seed, build)
            }
            Kernel::StrSearch { text_bytes, patterns, pat_len, alphabet } => {
                graph::str_search(text_bytes, patterns, pat_len, alphabet, seed, build)
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use tinyisa::{DynInst, InstClass, RunExit, TraceSink, Vm};

    /// Instruction-class fractions observed while burning `fuel`.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct MixCounts {
        pub loads: f64,
        pub stores: f64,
        pub control: f64,
        pub arith: f64,
        pub int_mul: f64,
        pub fp: f64,
    }

    #[derive(Default)]
    struct Counter {
        counts: [u64; 6],
        total: u64,
    }

    impl TraceSink for Counter {
        fn retire(&mut self, inst: &DynInst) {
            self.total += 1;
            let i = match inst.class {
                InstClass::Load => 0,
                InstClass::Store => 1,
                InstClass::Branch | InstClass::Jump => 2,
                InstClass::IntAlu => 3,
                InstClass::IntMul => 4,
                InstClass::Fp => 5,
            };
            self.counts[i] += 1;
        }
    }

    /// Run `fuel` instructions, asserting the kernel loops forever (fuel
    /// exhaustion, never a halt or crash), and return the class mix.
    pub fn mix_of(mut vm: Vm, fuel: u64) -> MixCounts {
        let mut c = Counter::default();
        let exit = vm.run(&mut c, fuel).expect("kernel must not fault");
        assert_eq!(exit, RunExit::FuelExhausted, "kernels run until out of fuel");
        let t = c.total.max(1) as f64;
        MixCounts {
            loads: c.counts[0] as f64 / t,
            stores: c.counts[1] as f64 / t,
            control: c.counts[2] as f64 / t,
            arith: c.counts[3] as f64 / t,
            int_mul: c.counts[4] as f64 / t,
            fp: c.counts[5] as f64 / t,
        }
    }

    /// Run and assert fuel exhaustion only.
    pub fn run_fuel(vm: Vm, fuel: u64) {
        let _ = mix_of(vm, fuel);
    }
}
