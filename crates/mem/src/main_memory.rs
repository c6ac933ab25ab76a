//! Sparse byte-addressable main memory (functional storage).
//!
//! All machine models store architectural memory state here; the cache
//! structures in this crate are *timing-only* (tags and replacement state,
//! no data arrays), mirroring how the paper's RTL testbench modelled caches
//! "only … functionally with delays" (§7.1).

use diag_asm::Program;

use crate::fxmap::FxHashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse paged main memory.
///
/// Reads of never-written locations return zero, the bare-metal convention
/// used by all workloads.
///
/// # Examples
///
/// ```
/// use diag_mem::MainMemory;
///
/// let mut mem = MainMemory::new();
/// mem.write_u32(0x1000, 0xDEAD_BEEF);
/// assert_eq!(mem.read_u32(0x1000), 0xDEAD_BEEF);
/// assert_eq!(mem.read_u8(0x1001), 0xBE);
/// assert_eq!(mem.read_u32(0x9999_0000), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    pages: FxHashMap<u32, Box<[u8; PAGE_SIZE]>>,
    /// Zeroed pages of earlier runs, handed out before a new page is
    /// allocated.
    spare: Vec<Box<[u8; PAGE_SIZE]>>,
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> MainMemory {
        MainMemory::default()
    }

    /// Returns the memory to the all-zero state of [`MainMemory::new`],
    /// keeping its pages for reuse: only the pages the last run touched
    /// are zeroed.
    pub fn renew(&mut self) {
        for (_, mut page) in self.pages.drain() {
            page.fill(0);
            self.spare.push(page);
        }
    }

    /// Creates a memory pre-loaded with a program's text and data segments.
    pub fn with_program(program: &Program) -> MainMemory {
        let mut mem = MainMemory::new();
        mem.load_program(program);
        mem
    }

    /// Loads a program image (text and data segments).
    pub fn load_program(&mut self, program: &Program) {
        let text: Vec<u8> = program
            .text()
            .iter()
            .flat_map(|word| word.to_le_bytes())
            .collect();
        self.write_bytes(program.text_base(), &text);
        self.write_bytes(program.data_base(), program.data());
    }

    /// Copies `bytes` to consecutive addresses from `addr`, one page-sized
    /// chunk (and one page lookup) at a time. Every page the range
    /// overlaps becomes resident, zero bytes included.
    fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let offset = (addr as usize) & (PAGE_SIZE - 1);
            let n = rest.len().min(PAGE_SIZE - offset);
            let (chunk, tail) = rest.split_at(n);
            self.page_mut(addr)[offset..offset + n].copy_from_slice(chunk);
            addr = addr.wrapping_add(n as u32);
            rest = tail;
        }
    }

    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|p| &**p)
    }

    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        let spare = &mut self.spare;
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| spare.pop().unwrap_or_else(|| Box::new([0u8; PAGE_SIZE])))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        self.page_mut(addr)[offset] = value;
    }

    /// Reads a little-endian u16 (no alignment requirement; the machines
    /// enforce alignment architecturally).
    pub fn read_u16(&self, addr: u32) -> u16 {
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + 2 <= PAGE_SIZE {
            // Whole halfword on one page: a single lookup.
            return match self.page(addr) {
                Some(p) => u16::from_le_bytes([p[offset], p[offset + 1]]),
                None => 0,
            };
        }
        u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
    }

    /// Writes a little-endian u16.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        let [b0, b1] = value.to_le_bytes();
        self.write_u8(addr, b0);
        self.write_u8(addr.wrapping_add(1), b1);
    }

    /// Reads a little-endian u32.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + 4 <= PAGE_SIZE {
            // Whole word on one page: a single lookup instead of four.
            return match self.page(addr) {
                Some(p) => {
                    u32::from_le_bytes([p[offset], p[offset + 1], p[offset + 2], p[offset + 3]])
                }
                None => 0,
            };
        }
        u32::from_le_bytes([
            self.read_u8(addr),
            self.read_u8(addr.wrapping_add(1)),
            self.read_u8(addr.wrapping_add(2)),
            self.read_u8(addr.wrapping_add(3)),
        ])
    }

    /// Writes a little-endian u32.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + 4 <= PAGE_SIZE {
            self.page_mut(addr)[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
            return;
        }
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), b);
        }
    }

    /// Reads `size` bytes (1, 2, or 4) as a zero-extended u32.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, or 4.
    #[inline]
    pub fn read(&self, addr: u32, size: u32) -> u32 {
        match size {
            1 => self.read_u8(addr) as u32,
            2 => self.read_u16(addr) as u32,
            4 => self.read_u32(addr),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Writes the low `size` bytes (1, 2, or 4) of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, or 4.
    pub fn write(&mut self, addr: u32, size: u32, value: u32) {
        match size {
            1 => self.write_u8(addr, value as u8),
            2 => self.write_u16(addr, value as u16),
            4 => self.write_u32(addr, value),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Number of touched pages (for memory-footprint assertions in tests).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let mem = MainMemory::new();
        assert_eq!(mem.read_u32(0), 0);
        assert_eq!(mem.read_u8(u32::MAX), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn byte_halfword_word_round_trip() {
        let mut mem = MainMemory::new();
        mem.write_u8(5, 0xAB);
        assert_eq!(mem.read_u8(5), 0xAB);
        mem.write_u16(100, 0xBEEF);
        assert_eq!(mem.read_u16(100), 0xBEEF);
        mem.write_u32(200, 0x1234_5678);
        assert_eq!(mem.read_u32(200), 0x1234_5678);
        assert_eq!(mem.read_u8(200), 0x78); // little-endian
        assert_eq!(mem.read_u8(203), 0x12);
    }

    #[test]
    fn cross_page_word() {
        let mut mem = MainMemory::new();
        let addr = PAGE_SIZE as u32 - 2;
        mem.write_u32(addr, 0xAABB_CCDD);
        assert_eq!(mem.read_u32(addr), 0xAABB_CCDD);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn sized_access() {
        let mut mem = MainMemory::new();
        mem.write(8, 4, 0x0102_0304);
        assert_eq!(mem.read(8, 1), 4);
        assert_eq!(mem.read(8, 2), 0x0304);
        assert_eq!(mem.read(8, 4), 0x0102_0304);
        mem.write(8, 1, 0xFF);
        assert_eq!(mem.read(8, 4), 0x0102_03FF);
    }

    #[test]
    fn program_loading() {
        use diag_asm::assemble;
        let p = assemble(".data\nv:\n.word 99\n.text\nnop\necall\n").unwrap();
        let mem = MainMemory::with_program(&p);
        assert_eq!(mem.read_u32(p.text_base()), p.text()[0]);
        assert_eq!(mem.read_u32(p.symbol("v").unwrap()), 99);
    }

    #[test]
    fn write_bytes_matches_bytewise_writes() {
        // Ranges inside one page, spanning pages, and wrapping the top of
        // the address space.
        let payload: Vec<u8> = (0..3 * PAGE_SIZE as u32 + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        for (start, len) in [
            (0x100u32, 64usize),
            (PAGE_SIZE as u32 - 3, 10),
            (0x2_0005, payload.len()),
            (u32::MAX - 5, 12),
            (0x40, 0),
        ] {
            let mut chunked = MainMemory::new();
            chunked.write_bytes(start, &payload[..len]);
            let mut bytewise = MainMemory::new();
            for (i, &b) in payload[..len].iter().enumerate() {
                bytewise.write_u8(start.wrapping_add(i as u32), b);
            }
            assert_eq!(chunked.resident_pages(), bytewise.resident_pages());
            for i in 0..len as u32 + 8 {
                let a = start.wrapping_add(i).wrapping_sub(4);
                assert_eq!(chunked.read_u8(a), bytewise.read_u8(a), "{start:#x}+{i}");
            }
        }
    }

    #[test]
    fn renewed_memory_reads_zero_and_reuses_pages() {
        let mut mem = MainMemory::new();
        for i in 0..4u32 {
            mem.write_u32(i * PAGE_SIZE as u32 + 8, 0xFFFF_FFFF);
        }
        mem.renew();
        assert_eq!(mem.resident_pages(), 0);
        for i in 0..4u32 {
            assert_eq!(mem.read_u32(i * PAGE_SIZE as u32 + 8), 0);
        }
        // A recycled page comes back all zero.
        mem.write_u8(0x9000, 1);
        assert_eq!(mem.read_u32(0x9008), 0);
        assert_eq!((mem.resident_pages(), mem.spare.len()), (1, 3));
    }

    #[test]
    #[should_panic(expected = "unsupported access size")]
    fn invalid_size_panics() {
        MainMemory::new().read(0, 3);
    }
}
