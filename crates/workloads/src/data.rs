//! Seeded data-segment generators.
//!
//! Kernel inputs (sequences, images, packet traces, sparse matrices, ...)
//! are synthesized deterministically from a seed, so every profiling run of
//! a benchmark instance sees bit-identical data.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinyisa::Memory;

/// A deterministic generator writing kernel inputs into VM memory.
#[derive(Debug)]
pub struct DataGen {
    rng: StdRng,
}

impl DataGen {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Self {
        DataGen { rng: StdRng::seed_from_u64(seed) }
    }

    /// Uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// Uniform value in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.rng.gen_range(0..bound.max(1))
    }

    /// Uniform double in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.rng.gen()
    }

    /// `len` uniform random bytes (incompressible, high-entropy input —
    /// e.g. SPEC gzip's `random` input), drawn as the iterator is consumed.
    pub fn random_bytes(&mut self, len: u64) -> impl Iterator<Item = u8> + '_ {
        (0..len).map(|_| self.rng.gen())
    }

    /// Fill `[base, base+len)` with [`random_bytes`](Self::random_bytes).
    pub fn fill_random(&mut self, mem: &mut Memory, base: u64, len: u64) {
        write_from(mem, base, self.random_bytes(len));
    }

    /// `len` bytes drawn from a small alphabet (DNA- or protein-like
    /// sequences; also moderately compressible text stand-ins), drawn as the
    /// iterator is consumed.
    pub fn alphabet_bytes(&mut self, len: u64, alphabet: u8) -> impl Iterator<Item = u8> + '_ {
        let alphabet = alphabet.max(1);
        (0..len).map(move |_| self.rng.gen_range(0..alphabet))
    }

    /// Fill `[base, base+len)` with [`alphabet_bytes`](Self::alphabet_bytes).
    pub fn fill_alphabet(&mut self, mem: &mut Memory, base: u64, len: u64, alphabet: u8) {
        write_from(mem, base, self.alphabet_bytes(len, alphabet));
    }

    /// `len` repetitive, highly compressible bytes: random phrases of
    /// `phrase` bytes repeated with occasional mutations
    /// (`mutation_per_mille` per byte). The phrase is drawn at once, the
    /// mutations as the iterator is consumed.
    pub fn repetitive_bytes(
        &mut self,
        len: u64,
        phrase: u64,
        mutation_per_mille: u64,
    ) -> impl Iterator<Item = u8> + '_ {
        let phrase = phrase.max(1);
        let pattern: Vec<u8> = (0..phrase).map(|_| self.rng.gen_range(b'a'..=b'z')).collect();
        (0..len).map(move |i| {
            let mut b = pattern[(i % phrase) as usize];
            if self.rng.gen_range(0..1000u64) < mutation_per_mille {
                b = self.rng.gen_range(b'a'..=b'z');
            }
            b
        })
    }

    /// Fill `[base, base+len)` with
    /// [`repetitive_bytes`](Self::repetitive_bytes).
    pub fn fill_repetitive(
        &mut self,
        mem: &mut Memory,
        base: u64,
        len: u64,
        phrase: u64,
        mutation_per_mille: u64,
    ) {
        write_from(mem, base, self.repetitive_bytes(len, phrase, mutation_per_mille));
    }

    /// Fill `count` doubles in `[-1, 1)` starting at `base`.
    pub fn fill_f64(&mut self, mem: &mut Memory, base: u64, count: u64) {
        for i in 0..count {
            mem.write_f64(base + i * 8, self.rng.gen_range(-1.0..1.0));
        }
    }

    /// Fill `count` little-endian `u32` values below `bound`.
    pub fn fill_u32_below(&mut self, mem: &mut Memory, base: u64, count: u64, bound: u64) {
        for i in 0..count {
            mem.write_le(base + i * 4, 4, self.below(bound));
        }
    }

    /// Fill `count` little-endian `u64` values below `bound`.
    pub fn fill_u64_below(&mut self, mem: &mut Memory, base: u64, count: u64, bound: u64) {
        for i in 0..count {
            mem.write_le(base + i * 8, 8, self.below(bound));
        }
    }

    /// Write a singly linked ring of `nodes` nodes of `node_bytes` each
    /// (first 8 bytes = pointer to next), in a random permutation order so
    /// traversal is cache-hostile. Returns the address of the first node.
    pub fn build_random_ring(
        &mut self,
        mem: &mut Memory,
        base: u64,
        nodes: u64,
        node_bytes: u64,
    ) -> u64 {
        assert!(nodes > 0, "ring needs at least one node");
        let node_bytes = node_bytes.max(8);
        let mut order: Vec<u64> = (0..nodes).collect();
        // Fisher-Yates shuffle.
        for i in (1..order.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for w in order.windows(2) {
            mem.write_le(base + w[0] * node_bytes, 8, base + w[1] * node_bytes);
        }
        mem.write_le(base + order[nodes as usize - 1] * node_bytes, 8, base + order[0] * node_bytes);
        base + order[0] * node_bytes
    }

    /// Grayscale-image-like data: smooth gradients plus noise, one byte per
    /// pixel, row-major `w x h`.
    pub fn fill_image(&mut self, mem: &mut Memory, base: u64, w: u64, h: u64) {
        for y in 0..h {
            for x in 0..w {
                let v = ((x * 255 / w.max(1)) + (y * 131 / h.max(1))) as i64
                    + self.rng.gen_range(-16i64..16);
                mem.write_u8(base + y * w + x, v.clamp(0, 255) as u8);
            }
        }
    }

    /// Audio-like data: a sum of two sine waves plus noise, 16-bit samples.
    pub fn fill_audio(&mut self, mem: &mut Memory, base: u64, samples: u64) {
        for i in 0..samples {
            let t = i as f64;
            let v = 8000.0 * (t * 0.05).sin()
                + 3000.0 * (t * 0.21).sin()
                + self.rng.gen_range(-500.0..500.0);
            mem.write_le(base + i * 2, 2, (v as i64 as u64) & 0xffff);
        }
    }
}

/// Write `bytes` from `base` on as they are drawn. A data image can run to
/// megabytes, so it is never buffered whole.
fn write_from(mem: &mut Memory, base: u64, bytes: impl Iterator<Item = u8>) {
    for (addr, b) in (base..).zip(bytes) {
        mem.write_u8(addr, b);
    }
}

/// Precompute the FFT twiddle-factor table (`count` complex roots of unity)
/// used by the FFT kernel: `(cos(-2 pi k / n), sin(-2 pi k / n))` pairs.
pub fn write_twiddles(mem: &mut Memory, base: u64, n: u64) {
    for k in 0..n / 2 {
        let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
        mem.write_f64(base + k * 16, ang.cos());
        mem.write_f64(base + k * 16 + 8, ang.sin());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut m1 = Memory::new();
        let mut m2 = Memory::new();
        DataGen::new(7).fill_random(&mut m1, 0x1000, 256);
        DataGen::new(7).fill_random(&mut m2, 0x1000, 256);
        assert_eq!(m1.read_bytes(0x1000, 256), m2.read_bytes(0x1000, 256));
    }

    #[test]
    fn alphabet_respects_bound() {
        let mut m = Memory::new();
        DataGen::new(1).fill_alphabet(&mut m, 0, 1000, 4);
        assert!(m.read_bytes(0, 1000).iter().all(|&b| b < 4));
    }

    #[test]
    fn repetitive_data_is_compressible() {
        let mut m = Memory::new();
        DataGen::new(2).fill_repetitive(&mut m, 0, 4096, 32, 10);
        let bytes = m.read_bytes(0, 4096);
        // Most positions repeat 32 bytes later.
        let repeats =
            bytes.windows(33).filter(|w| w[0] == w[32]).count() as f64 / (4096 - 32) as f64;
        assert!(repeats > 0.9, "repeat fraction {repeats}");
    }

    #[test]
    fn ring_visits_every_node_once() {
        let mut m = Memory::new();
        let base = 0x10_0000;
        let head = DataGen::new(3).build_random_ring(&mut m, base, 64, 16);
        let mut seen = std::collections::HashSet::new();
        let mut p = head;
        for _ in 0..64 {
            assert!(seen.insert(p), "cycle shorter than 64 nodes");
            p = m.read_le(p, 8);
        }
        assert_eq!(p, head, "ring closes");
    }

    #[test]
    fn twiddles_are_unit_magnitude() {
        let mut m = Memory::new();
        write_twiddles(&mut m, 0, 64);
        for k in 0..32 {
            let c = m.read_f64(k * 16);
            let s = m.read_f64(k * 16 + 8);
            assert!((c * c + s * s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn image_values_in_byte_range_with_gradient() {
        let mut m = Memory::new();
        DataGen::new(4).fill_image(&mut m, 0, 64, 64);
        let left: u64 = (0..64).map(|y| m.read_u8(y * 64) as u64).sum();
        let right: u64 = (0..64).map(|y| m.read_u8(y * 64 + 63) as u64).sum();
        assert!(right > left, "horizontal gradient present");
    }
}
