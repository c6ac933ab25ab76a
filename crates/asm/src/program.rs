//! Loadable program images.
//!
//! A [`Program`] is the common currency between the assembler/builder and
//! the machine models: a text segment of 32-bit instruction words, a data
//! segment of bytes, an entry point, and a symbol table.

use std::collections::BTreeMap;
use std::fmt;

use diag_isa::{decode, Inst, INST_BYTES};

/// Default base address of the text segment.
pub const TEXT_BASE: u32 = 0x0000_1000;
/// Default base address of the data segment.
pub const DATA_BASE: u32 = 0x0010_0000;
/// Default initial stack pointer (grows down). Each hardware thread `t`
/// receives `STACK_TOP - t * STACK_STRIDE`.
pub const STACK_TOP: u32 = 0x0100_0000;
/// Per-thread stack spacing.
pub const STACK_STRIDE: u32 = 0x0001_0000;

/// A fully-resolved program image ready to load into a machine.
///
/// # Examples
///
/// ```
/// use diag_asm::ProgramBuilder;
/// use diag_isa::Reg;
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::A0, 42);
/// b.ecall();
/// let program = b.build()?;
/// assert_eq!(program.text_len(), 2);
/// # Ok::<(), diag_asm::AsmError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    text: Vec<u32>,
    text_base: u32,
    data: Vec<u8>,
    data_base: u32,
    entry: u32,
    symbols: BTreeMap<String, u32>,
}

impl Program {
    /// Assembles a program from its parts. Most callers should use
    /// [`crate::ProgramBuilder`] or [`crate::assemble`] instead.
    pub fn from_parts(
        text: Vec<u32>,
        text_base: u32,
        data: Vec<u8>,
        data_base: u32,
        entry: u32,
        symbols: BTreeMap<String, u32>,
    ) -> Program {
        Program {
            text,
            text_base,
            data,
            data_base,
            entry,
            symbols,
        }
    }

    /// The instruction words of the text segment.
    pub fn text(&self) -> &[u32] {
        &self.text
    }

    /// Number of instructions in the text segment.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// Base address of the text segment.
    pub fn text_base(&self) -> u32 {
        self.text_base
    }

    /// One past the last text address.
    pub fn text_end(&self) -> u32 {
        self.text_base + (self.text.len() as u32) * INST_BYTES
    }

    /// The initialized data segment bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Base address of the data segment.
    pub fn data_base(&self) -> u32 {
        self.data_base
    }

    /// The entry-point address.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Looks up a symbol's address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// All symbols in address order.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, u32)> {
        self.symbols.iter().map(|(n, &a)| (n.as_str(), a))
    }

    /// The instruction word at `addr`, if `addr` is inside the text segment
    /// and word-aligned.
    pub fn fetch(&self, addr: u32) -> Option<u32> {
        if addr < self.text_base || !addr.is_multiple_of(INST_BYTES) {
            return None;
        }
        let index = ((addr - self.text_base) / INST_BYTES) as usize;
        self.text.get(index).copied()
    }

    /// Decodes the instruction at `addr`.
    pub fn decode_at(&self, addr: u32) -> Option<Inst> {
        self.fetch(addr).and_then(|w| decode(w).ok())
    }

    /// Whether `addr` is a word-aligned address inside the text segment.
    pub fn contains_text_addr(&self, addr: u32) -> bool {
        addr >= self.text_base && addr < self.text_end() && addr.is_multiple_of(INST_BYTES)
    }

    /// The nearest symbol at or before `addr`, for humanizing addresses in
    /// diagnostics. Returns the symbol name and `addr`'s byte offset from it.
    pub fn symbol_before(&self, addr: u32) -> Option<(&str, u32)> {
        self.symbols
            .iter()
            .filter(|&(_, &a)| a <= addr)
            .max_by_key(|&(_, &a)| a)
            .map(|(n, &a)| (n.as_str(), addr - a))
    }

    /// A human-readable location for `addr`: the address plus, when a symbol
    /// precedes it, `<symbol+offset>`.
    ///
    /// # Examples
    ///
    /// ```
    /// use diag_asm::assemble;
    ///
    /// let p = assemble("start:\n  addi a0, zero, 1\n  ecall\n").unwrap();
    /// assert_eq!(p.describe_addr(p.entry() + 4), "0x1004 <start+0x4>");
    /// ```
    pub fn describe_addr(&self, addr: u32) -> String {
        match self.symbol_before(addr) {
            Some((name, 0)) => format!("{addr:#x} <{name}>"),
            Some((name, off)) => format!("{addr:#x} <{name}+{off:#x}>"),
            None => format!("{addr:#x}"),
        }
    }

    /// Disassembly lines for the instructions around `addr` (`before` and
    /// `after` counted in instructions), clamped to the text segment — the
    /// context block embedded in analyzer diagnostics. The line for `addr`
    /// itself is marked with `>`.
    pub fn disasm_context(&self, addr: u32, before: u32, after: u32) -> Vec<String> {
        let mut lines = Vec::new();
        if !self.contains_text_addr(addr) {
            return lines;
        }
        let lo = addr.saturating_sub(before * INST_BYTES).max(self.text_base);
        let hi = (addr + after * INST_BYTES).min(self.text_end() - INST_BYTES);
        let mut at = lo;
        while at <= hi {
            let Some(word) = self.fetch(at) else {
                break;
            };
            let marker = if at == addr { '>' } else { ' ' };
            match decode(word) {
                Ok(inst) => lines.push(format!("{marker} {at:#07x}: {inst}")),
                Err(_) => lines.push(format!("{marker} {at:#07x}: <illegal {word:#010x}>")),
            }
            at += INST_BYTES;
        }
        lines
    }

    /// A listing of the whole text segment: `addr: word  disassembly`.
    pub fn listing(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for (i, &word) in self.text.iter().enumerate() {
            let addr = self.text_base + (i as u32) * INST_BYTES;
            let _ = match decode(word) {
                Ok(inst) => writeln!(out, "{addr:#07x}: {word:08x}  {inst}"),
                Err(_) => writeln!(out, "{addr:#07x}: {word:08x}  <illegal>"),
            };
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program: {} instructions at {:#x}, {} data bytes at {:#x}, entry {:#x}",
            self.text.len(),
            self.text_base,
            self.data.len(),
            self.data_base,
            self.entry
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diag_isa::encode;

    fn sample() -> Program {
        let text = vec![encode(&Inst::NOP), encode(&Inst::Ecall)];
        Program::from_parts(
            text,
            TEXT_BASE,
            vec![1, 2, 3, 4],
            DATA_BASE,
            TEXT_BASE,
            BTreeMap::new(),
        )
    }

    #[test]
    fn fetch_bounds() {
        let p = sample();
        assert_eq!(p.fetch(TEXT_BASE), Some(encode(&Inst::NOP)));
        assert_eq!(p.fetch(TEXT_BASE + 4), Some(encode(&Inst::Ecall)));
        assert_eq!(p.fetch(TEXT_BASE + 8), None);
        assert_eq!(p.fetch(TEXT_BASE - 4), None);
        assert_eq!(p.fetch(TEXT_BASE + 2), None); // misaligned
    }

    #[test]
    fn decode_at_works() {
        let p = sample();
        assert_eq!(p.decode_at(TEXT_BASE + 4), Some(Inst::Ecall));
    }

    #[test]
    fn listing_contains_disassembly() {
        let p = sample();
        let listing = p.listing();
        assert!(listing.contains("ecall"));
        assert!(listing.contains("addi zero, zero, 0"));
    }

    #[test]
    fn text_end() {
        let p = sample();
        assert_eq!(p.text_end(), TEXT_BASE + 8);
    }
}
