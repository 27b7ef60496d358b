//! Sparse paged byte-addressable memory.

use crate::flat::FlatTable;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// A sparse, demand-allocated 64-bit address space.
///
/// Pages (4 KiB) are allocated on first write; reads of never-written memory
/// return zeroes without allocating, so touching a huge address range with
/// loads does not consume host memory.
#[derive(Debug, Default, Clone)]
pub struct Memory {
    /// Page number → index of its frame.
    pages: FlatTable<usize>,
    frames: Vec<Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Create an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident (written) pages.
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }

    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(addr >> PAGE_SHIFT).map(|&i| &*self.frames[i])
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        let page = addr >> PAGE_SHIFT;
        let i = match self.pages.get(page) {
            Some(&i) => i,
            None => {
                self.pages.insert(page, self.frames.len());
                self.frames.push(Box::new([0u8; PAGE_SIZE]));
                self.frames.len() - 1
            }
        };
        &mut self.frames[i]
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & OFFSET_MASK) as usize],
            None => 0,
        }
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        let p = self.page_mut(addr);
        p[(addr & OFFSET_MASK) as usize] = val;
    }

    /// Read `n <= 8` bytes little-endian, possibly spanning a page boundary.
    pub fn read_le(&self, addr: u64, n: u64) -> u64 {
        debug_assert!(n <= 8);
        // Fast path: access within a single page.
        let off = (addr & OFFSET_MASK) as usize;
        if off + n as usize <= PAGE_SIZE {
            match self.page(addr) {
                Some(p) => {
                    let mut buf = [0u8; 8];
                    buf[..n as usize].copy_from_slice(&p[off..off + n as usize]);
                    u64::from_le_bytes(buf)
                }
                None => 0,
            }
        } else {
            let mut v = 0u64;
            for i in 0..n {
                v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
            }
            v
        }
    }

    /// Write the low `n <= 8` bytes of `val` little-endian.
    pub fn write_le(&mut self, addr: u64, n: u64, val: u64) {
        debug_assert!(n <= 8);
        let off = (addr & OFFSET_MASK) as usize;
        if off + n as usize <= PAGE_SIZE {
            let p = self.page_mut(addr);
            p[off..off + n as usize].copy_from_slice(&val.to_le_bytes()[..n as usize]);
        } else {
            for i in 0..n {
                self.write_u8(addr.wrapping_add(i), (val >> (8 * i)) as u8);
            }
        }
    }

    /// Read a 64-bit IEEE double.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_le(addr, 8))
    }

    /// Write a 64-bit IEEE double.
    pub fn write_f64(&mut self, addr: u64, val: f64) {
        self.write_le(addr, 8, val.to_bits());
    }

    /// Bulk-copy a byte slice into memory (used to set up data segments).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }

    /// Bulk-read `len` bytes.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i as u64)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero_without_allocating() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0xdead_beef), 0);
        assert_eq!(m.read_le(1 << 40, 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trip_widths() {
        let mut m = Memory::new();
        m.write_le(0x1000, 1, 0xab);
        m.write_le(0x1008, 2, 0xcdef);
        m.write_le(0x1010, 4, 0x1234_5678);
        m.write_le(0x1018, 8, 0xdead_beef_cafe_babe);
        assert_eq!(m.read_le(0x1000, 1), 0xab);
        assert_eq!(m.read_le(0x1008, 2), 0xcdef);
        assert_eq!(m.read_le(0x1010, 4), 0x1234_5678);
        assert_eq!(m.read_le(0x1018, 8), 0xdead_beef_cafe_babe);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = 0x1fff; // last byte of a page, spans into next
        m.write_le(addr, 8, 0x0102_0304_0506_0708);
        assert_eq!(m.read_le(addr, 8), 0x0102_0304_0506_0708);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn f64_round_trip() {
        let mut m = Memory::new();
        m.write_f64(0x2000, -3.25);
        assert_eq!(m.read_f64(0x2000), -3.25);
        m.write_f64(0x2000, f64::INFINITY);
        assert_eq!(m.read_f64(0x2000), f64::INFINITY);
    }

    #[test]
    fn bulk_bytes() {
        let mut m = Memory::new();
        m.write_bytes(0x3000, b"hello world");
        assert_eq!(m.read_bytes(0x3000, 11), b"hello world");
    }

    #[test]
    fn page_zero_round_trips() {
        let mut m = Memory::new();
        m.write_le(0x10, 8, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_le(0x10, 8), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(0x1000), 0, "page 1 stays unwritten");
        assert_eq!(m.resident_pages(), 1);
        m.write_u8(0x1000, 1);
        assert_eq!(m.read_le(0x10, 8), 0x0123_4567_89ab_cdef);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn narrow_write_does_not_clobber_neighbors() {
        let mut m = Memory::new();
        m.write_le(0x4000, 8, u64::MAX);
        m.write_le(0x4002, 2, 0);
        assert_eq!(m.read_le(0x4000, 8), 0xffff_ffff_0000_ffff);
    }
}
