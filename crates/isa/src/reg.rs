//! Architectural register types for the RV32 integer and floating-point
//! register files, plus the unified register-lane index space used by DiAG.
//!
//! DiAG abstracts every architectural register as a *register lane* — a wire
//! bundle carrying the register's value and a valid bit through the row of
//! processing elements (paper §2, §4.1). The unified [`ArchReg`] index maps
//! the 32 integer registers to lanes `0..32` and the 32 floating-point
//! registers to lanes `32..64`.

use core::fmt;
use core::str::FromStr;

/// Number of integer registers in RV32.
pub const NUM_INT_REGS: usize = 32;
/// Number of floating-point registers in RV32F.
pub const NUM_FP_REGS: usize = 32;
/// Total number of register lanes in a DiAG processor supporting RV32IMF.
pub const NUM_LANES: usize = NUM_INT_REGS + NUM_FP_REGS;

/// An RV32 integer register, `x0` through `x31`.
///
/// `x0` is hardwired to zero; writes to it are discarded by every machine
/// model in this workspace.
///
/// # Examples
///
/// ```
/// use diag_isa::Reg;
///
/// let sp: Reg = "sp".parse().unwrap();
/// assert_eq!(sp, Reg::SP);
/// assert_eq!(sp.number(), 2);
/// assert_eq!(sp.to_string(), "sp");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

/// An RV32F floating-point register, `f0` through `f31`.
///
/// # Examples
///
/// ```
/// use diag_isa::FReg;
///
/// let fa0: FReg = "fa0".parse().unwrap();
/// assert_eq!(fa0.number(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FReg(u8);

/// A register lane index in DiAG's unified lane space.
///
/// Lanes `0..32` carry the integer registers `x0..x31`; lanes `32..64` carry
/// the floating-point registers `f0..f31`. The lane for `x0` exists but is
/// always valid and always zero.
///
/// # Examples
///
/// ```
/// use diag_isa::{ArchReg, Reg, FReg};
///
/// assert_eq!(ArchReg::from(Reg::A0).index(), 10);
/// assert_eq!(ArchReg::from(FReg::new(3)).index(), 35);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArchReg(u8);

/// Error returned when parsing a register name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError {
    name: String,
}

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown register name `{}`", self.name)
    }
}

impl std::error::Error for ParseRegError {}

const INT_ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

const FP_ABI_NAMES: [&str; 32] = [
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7", "fs0", "fs1", "fa0", "fa1", "fa2",
    "fa3", "fa4", "fa5", "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7", "fs8", "fs9",
    "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
];

impl Reg {
    /// The hardwired-zero register `x0`.
    pub const ZERO: Reg = Reg(0);
    /// Return address register `x1`.
    pub const RA: Reg = Reg(1);
    /// Stack pointer register `x2`.
    pub const SP: Reg = Reg(2);
    /// Global pointer register `x3`.
    pub const GP: Reg = Reg(3);
    /// Thread pointer register `x4`.
    pub const TP: Reg = Reg(4);
    /// Temporary register `t0` (`x5`).
    pub const T0: Reg = Reg(5);
    /// Temporary register `t1` (`x6`).
    pub const T1: Reg = Reg(6);
    /// Temporary register `t2` (`x7`).
    pub const T2: Reg = Reg(7);
    /// Saved register / frame pointer `s0` (`x8`).
    pub const S0: Reg = Reg(8);
    /// Saved register `s1` (`x9`).
    pub const S1: Reg = Reg(9);
    /// Argument/return register `a0` (`x10`).
    pub const A0: Reg = Reg(10);
    /// Argument/return register `a1` (`x11`).
    pub const A1: Reg = Reg(11);
    /// Argument register `a2` (`x12`).
    pub const A2: Reg = Reg(12);
    /// Argument register `a3` (`x13`).
    pub const A3: Reg = Reg(13);
    /// Argument register `a4` (`x14`).
    pub const A4: Reg = Reg(14);
    /// Argument register `a5` (`x15`).
    pub const A5: Reg = Reg(15);
    /// Argument register `a6` (`x16`).
    pub const A6: Reg = Reg(16);
    /// Argument register `a7` (`x17`).
    pub const A7: Reg = Reg(17);
    /// Saved register `s2` (`x18`).
    pub const S2: Reg = Reg(18);
    /// Saved register `s3` (`x19`).
    pub const S3: Reg = Reg(19);
    /// Saved register `s4` (`x20`).
    pub const S4: Reg = Reg(20);
    /// Saved register `s5` (`x21`).
    pub const S5: Reg = Reg(21);
    /// Saved register `s6` (`x22`).
    pub const S6: Reg = Reg(22);
    /// Saved register `s7` (`x23`).
    pub const S7: Reg = Reg(23);
    /// Saved register `s8` (`x24`).
    pub const S8: Reg = Reg(24);
    /// Saved register `s9` (`x25`).
    pub const S9: Reg = Reg(25);
    /// Saved register `s10` (`x26`).
    pub const S10: Reg = Reg(26);
    /// Saved register `s11` (`x27`).
    pub const S11: Reg = Reg(27);
    /// Temporary register `t3` (`x28`).
    pub const T3: Reg = Reg(28);
    /// Temporary register `t4` (`x29`).
    pub const T4: Reg = Reg(29);
    /// Temporary register `t5` (`x30`).
    pub const T5: Reg = Reg(30);
    /// Temporary register `t6` (`x31`).
    pub const T6: Reg = Reg(31);

    /// Creates a register from its number.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[inline]
    pub const fn new(n: u8) -> Reg {
        assert!(n < 32, "integer register number out of range");
        Reg(n)
    }

    /// Creates a register from its number, returning `None` if out of range.
    #[inline]
    pub const fn try_new(n: u8) -> Option<Reg> {
        if n < 32 {
            Some(Reg(n))
        } else {
            None
        }
    }

    /// The register's number, `0..32`.
    #[inline]
    pub const fn number(self) -> u8 {
        self.0
    }

    /// Whether this is the hardwired-zero register `x0`.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The ABI name of this register (e.g. `"sp"` for `x2`).
    pub fn abi_name(self) -> &'static str {
        INT_ABI_NAMES[self.0 as usize]
    }

    /// Iterates over all 32 integer registers in numeric order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..32).map(Reg)
    }
}

impl FReg {
    /// Creates a floating-point register from its number.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[inline]
    pub const fn new(n: u8) -> FReg {
        assert!(n < 32, "floating-point register number out of range");
        FReg(n)
    }

    /// Creates a floating-point register, returning `None` if out of range.
    #[inline]
    pub const fn try_new(n: u8) -> Option<FReg> {
        if n < 32 {
            Some(FReg(n))
        } else {
            None
        }
    }

    /// The register's number, `0..32`.
    #[inline]
    pub const fn number(self) -> u8 {
        self.0
    }

    /// The ABI name of this register (e.g. `"fa0"` for `f10`).
    pub fn abi_name(self) -> &'static str {
        FP_ABI_NAMES[self.0 as usize]
    }

    /// Iterates over all 32 floating-point registers in numeric order.
    pub fn all() -> impl Iterator<Item = FReg> {
        (0..32).map(FReg)
    }
}

impl ArchReg {
    /// The lane carrying the hardwired-zero integer register.
    pub const ZERO: ArchReg = ArchReg(0);

    /// Creates a lane index directly.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 64`.
    #[inline]
    pub const fn new(index: u8) -> ArchReg {
        assert!(index < NUM_LANES as u8, "register lane index out of range");
        ArchReg(index)
    }

    /// The unified lane index, `0..64`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this lane carries an integer register.
    #[inline]
    pub const fn is_int(self) -> bool {
        self.0 < NUM_INT_REGS as u8
    }

    /// Whether this lane carries a floating-point register.
    #[inline]
    pub const fn is_fp(self) -> bool {
        !self.is_int()
    }

    /// Whether this is the `x0` lane, which is always valid and zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The integer register carried by this lane, if any.
    pub fn as_int(self) -> Option<Reg> {
        if self.is_int() {
            Some(Reg(self.0))
        } else {
            None
        }
    }

    /// The floating-point register carried by this lane, if any.
    pub fn as_fp(self) -> Option<FReg> {
        if self.is_fp() {
            Some(FReg(self.0 - NUM_INT_REGS as u8))
        } else {
            None
        }
    }

    /// Iterates over all 64 lanes in index order.
    pub fn all() -> impl Iterator<Item = ArchReg> {
        (0..NUM_LANES as u8).map(ArchReg)
    }
}

impl From<Reg> for ArchReg {
    #[inline]
    fn from(r: Reg) -> ArchReg {
        ArchReg(r.0)
    }
}

impl From<FReg> for ArchReg {
    #[inline]
    fn from(r: FReg) -> ArchReg {
        ArchReg(r.0 + NUM_INT_REGS as u8)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_int() {
            Some(r) => r.fmt(f),
            None => FReg(self.0 - NUM_INT_REGS as u8).fmt(f),
        }
    }
}

impl FromStr for Reg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<Reg, ParseRegError> {
        if let Some(idx) = INT_ABI_NAMES.iter().position(|&n| n == s) {
            return Ok(Reg(idx as u8));
        }
        // Accept the architectural names x0..x31 and the common alias `fp`.
        if s == "fp" {
            return Ok(Reg::S0);
        }
        if let Some(num) = s.strip_prefix('x') {
            if let Ok(n) = num.parse::<u8>() {
                if let Some(r) = Reg::try_new(n) {
                    return Ok(r);
                }
            }
        }
        Err(ParseRegError {
            name: s.to_string(),
        })
    }
}

impl FromStr for FReg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<FReg, ParseRegError> {
        if let Some(idx) = FP_ABI_NAMES.iter().position(|&n| n == s) {
            return Ok(FReg(idx as u8));
        }
        if let Some(num) = s.strip_prefix('f') {
            if let Ok(n) = num.parse::<u8>() {
                if let Some(r) = FReg::try_new(n) {
                    return Ok(r);
                }
            }
        }
        Err(ParseRegError {
            name: s.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_names_round_trip() {
        for r in Reg::all() {
            let parsed: Reg = r.abi_name().parse().unwrap();
            assert_eq!(parsed, r);
        }
        for r in FReg::all() {
            let parsed: FReg = r.abi_name().parse().unwrap();
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn numeric_names_parse() {
        for n in 0..32u8 {
            let r: Reg = format!("x{n}").parse().unwrap();
            assert_eq!(r.number(), n);
            let f: FReg = format!("f{n}").parse().unwrap();
            assert_eq!(f.number(), n);
        }
    }

    #[test]
    fn fp_alias_parses_to_s0() {
        let r: Reg = "fp".parse().unwrap();
        assert_eq!(r, Reg::S0);
    }

    #[test]
    fn unknown_names_rejected() {
        assert!("x32".parse::<Reg>().is_err());
        assert!("q7".parse::<Reg>().is_err());
        assert!("f32".parse::<FReg>().is_err());
        assert!("".parse::<Reg>().is_err());
    }

    #[test]
    fn lane_mapping_is_bijective() {
        let mut seen = [false; NUM_LANES];
        for r in Reg::all() {
            let lane = ArchReg::from(r);
            assert!(lane.is_int());
            assert!(!lane.is_fp());
            assert_eq!(lane.as_int(), Some(r));
            assert_eq!(lane.as_fp(), None);
            assert!(!seen[lane.index()]);
            seen[lane.index()] = true;
        }
        for r in FReg::all() {
            let lane = ArchReg::from(r);
            assert!(lane.is_fp());
            assert_eq!(lane.as_fp(), Some(r));
            assert_eq!(lane.as_int(), None);
            assert!(!seen[lane.index()]);
            seen[lane.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zero_lane_properties() {
        assert!(ArchReg::ZERO.is_zero());
        assert!(ArchReg::from(Reg::ZERO).is_zero());
        assert!(!ArchReg::from(FReg::new(0)).is_zero());
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::RA.is_zero());
    }

    #[test]
    fn display_uses_abi_names() {
        assert_eq!(Reg::A0.to_string(), "a0");
        assert_eq!(FReg::new(10).to_string(), "fa0");
        assert_eq!(ArchReg::from(Reg::SP).to_string(), "sp");
        assert_eq!(ArchReg::from(FReg::new(0)).to_string(), "ft0");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_new_panics_out_of_range() {
        let _ = Reg::new(32);
    }

    #[test]
    fn try_new_bounds() {
        assert!(Reg::try_new(31).is_some());
        assert!(Reg::try_new(32).is_none());
        assert!(FReg::try_new(31).is_some());
        assert!(FReg::try_new(32).is_none());
    }
}
