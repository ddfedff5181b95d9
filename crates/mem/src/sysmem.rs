//! Off-chip system memory behind the interconnection network.
//!
//! The 108Mini baseline accesses its working set through a data cache backed
//! by this memory; the DBA configurations reach it only through the data
//! prefetcher's burst transfers. Timing is modelled as a fixed access
//! latency plus a per-beat cost for burst transfers (see
//! [`crate::prefetch::BurstBus`]).

use crate::error::MemError;
use crate::Width;
use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse flat memory. Pages are allocated on first touch so that multi-
/// megabyte address spaces cost nothing until used.
#[derive(Debug, Default, Clone)]
pub struct SystemMemory {
    pages: HashMap<u32, Box<[u8; PAGE_SIZE]>>,
    /// Lifetime statistics: bytes read.
    pub bytes_read: u64,
    /// Lifetime statistics: bytes written.
    pub bytes_written: u64,
}

impl SystemMemory {
    /// Creates an empty system memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn page(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&mut self, addr: u32) -> u8 {
        self.bytes_read += 1;
        self.page(addr)[(addr as usize) % PAGE_SIZE]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, v: u8) {
        self.bytes_written += 1;
        self.page(addr)[(addr as usize) % PAGE_SIZE] = v;
    }

    /// Reads a naturally-aligned access of the given width.
    pub fn read(&mut self, addr: u32, width: Width) -> Result<u128, MemError> {
        let len = width.bytes();
        if !(addr as usize).is_multiple_of(len) {
            return Err(MemError::Misaligned { addr, align: len });
        }
        let mut v: u128 = 0;
        for i in (0..len).rev() {
            v = (v << 8) | self.read_u8(addr + i as u32) as u128;
        }
        Ok(v)
    }

    /// Writes a naturally-aligned access of the given width.
    pub fn write(&mut self, addr: u32, width: Width, value: u128) -> Result<(), MemError> {
        let len = width.bytes();
        if !(addr as usize).is_multiple_of(len) {
            return Err(MemError::Misaligned { addr, align: len });
        }
        let mut v = value;
        for i in 0..len {
            self.write_u8(addr + i as u32, (v & 0xff) as u8);
            v >>= 8;
        }
        Ok(())
    }

    /// Copies a `u32` slice into memory starting at `addr`.
    pub fn load_words(&mut self, addr: u32, words: &[u32]) -> Result<(), MemError> {
        for (i, w) in words.iter().enumerate() {
            self.write(addr + 4 * i as u32, Width::W32, *w as u128)?;
        }
        Ok(())
    }

    /// Reads `n` consecutive `u32`s starting at `addr`.
    pub fn read_words(&mut self, addr: u32, n: usize) -> Result<Vec<u32>, MemError> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.read(addr + 4 * i as u32, Width::W32)? as u32);
        }
        Ok(out)
    }

    /// Returns the memory to its freshly built state: no resident pages,
    /// zeroed statistics.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Number of pages currently allocated (test/inspection helper).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_allocation_on_touch() {
        let mut m = SystemMemory::new();
        assert_eq!(m.resident_pages(), 0);
        m.write(0x8000_0000, Width::W32, 42).unwrap();
        m.write(0x9000_0000, Width::W32, 43).unwrap();
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read(0x8000_0000, Width::W32).unwrap(), 42);
        assert_eq!(m.read(0x9000_0000, Width::W32).unwrap(), 43);
    }

    #[test]
    fn cross_page_wide_access() {
        let mut m = SystemMemory::new();
        let addr = 0x8000_1000 - 16; // last 16 bytes of a page
        let v: u128 = 0xaaaa_bbbb_cccc_dddd_eeee_ffff_0000_1111;
        m.write(addr, Width::W128, v).unwrap();
        assert_eq!(m.read(addr, Width::W128).unwrap(), v);
    }

    #[test]
    fn misaligned_rejected() {
        let mut m = SystemMemory::new();
        assert!(matches!(
            m.read(3, Width::W32),
            Err(MemError::Misaligned { .. })
        ));
    }

    #[test]
    fn words_roundtrip() {
        let mut m = SystemMemory::new();
        let ws: Vec<u32> = (0..100).map(|i| i * 7).collect();
        m.load_words(0x8000_0000, &ws).unwrap();
        assert_eq!(m.read_words(0x8000_0000, 100).unwrap(), ws);
    }
}
