//! The abstract value domain: u32 intervals with a known-alignment bit.
//!
//! An [`Itv`] denotes the set of 32-bit values
//! `{ v : lo <= v <= hi  and  trailing_zeros(v) >= tz }` (with
//! `trailing_zeros(0) == 32`, so zero satisfies every alignment claim).
//! The range component proves bounds facts; the trailing-zeros component
//! proves natural-alignment facts for memory accesses. The two components
//! are independent conjuncts: `lo`/`hi` themselves need not satisfy the
//! alignment constraint.
//!
//! Every transfer function below is *conservative*: for all concrete
//! inputs drawn from the operand sets, the concrete result (as computed
//! by [`diag_isa::exec::alu`]) is a member of the result set. The unit
//! tests at the bottom check this exhaustively over small value grids for
//! every ALU opcode.

/// An interval of u32 values with a minimum trailing-zero count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Itv {
    /// Inclusive lower bound.
    pub lo: u32,
    /// Inclusive upper bound.
    pub hi: u32,
    /// Every member has at least this many trailing zero bits (0..=32).
    pub tz: u8,
}

/// Smallest `2^k - 1` mask covering `x` (all bits at or below the highest
/// set bit of `x`).
fn smear(x: u32) -> u32 {
    if x == 0 {
        0
    } else {
        u32::MAX >> x.leading_zeros()
    }
}

/// `trailing_zeros` clamped into the `tz` encoding (0 maps to 32).
fn tzof(v: u32) -> u8 {
    v.trailing_zeros().min(32) as u8
}

impl Itv {
    /// The full domain: any 32-bit value.
    pub fn top() -> Itv {
        Itv {
            lo: 0,
            hi: u32::MAX,
            tz: 0,
        }
    }

    /// The singleton `{v}`.
    pub fn exact(v: u32) -> Itv {
        Itv {
            lo: v,
            hi: v,
            tz: tzof(v),
        }
    }

    /// The plain range `[lo, hi]`. Any range of two or more values
    /// contains an odd number, so no alignment is claimed unless the
    /// range is a singleton.
    pub fn range(lo: u32, hi: u32) -> Itv {
        debug_assert!(lo <= hi);
        if lo == hi {
            Itv::exact(lo)
        } else {
            Itv { lo, hi, tz: 0 }
        }
    }

    /// `Some(v)` when the range pins a single value.
    pub fn is_singleton(&self) -> Option<u32> {
        if self.lo == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    /// Membership test against both conjuncts.
    pub fn contains(&self, v: u32) -> bool {
        self.lo <= v && v <= self.hi && tzof(v) >= self.tz
    }

    /// Least upper bound: the smallest `Itv` covering both.
    pub fn join(&self, other: &Itv) -> Itv {
        Itv {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            tz: self.tz.min(other.tz),
        }
    }

    /// Widening: jump any still-moving bound straight to the lattice
    /// extreme so ascending chains at loop heads terminate. `self` is the
    /// previous state, `next` the newly joined one.
    pub fn widen(&self, next: &Itv) -> Itv {
        Itv {
            lo: if next.lo < self.lo { 0 } else { self.lo },
            hi: if next.hi > self.hi { u32::MAX } else { self.hi },
            tz: next.tz.min(self.tz),
        }
    }

    /// Intersection; `None` when the ranges are disjoint (the refined
    /// state is infeasible). The alignment conjuncts simply accumulate.
    pub fn intersect(&self, other: &Itv) -> Option<Itv> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo > hi {
            None
        } else {
            Some(Itv {
                lo,
                hi,
                tz: self.tz.max(other.tz),
            })
        }
    }

    /// Wrapping add. Exact when the u64 sums of both bound pairs land in
    /// the same 2^32 window (either both wrap or neither does); the
    /// alignment claim survives wrapping because 2^32 is a multiple of
    /// any claimed power of two.
    pub fn add(&self, other: &Itv) -> Itv {
        let tz = self.tz.min(other.tz);
        let lo = self.lo as u64 + other.lo as u64;
        let hi = self.hi as u64 + other.hi as u64;
        if (lo >> 32) == (hi >> 32) {
            Itv {
                lo: lo as u32,
                hi: hi as u32,
                tz,
            }
        } else {
            Itv {
                lo: 0,
                hi: u32::MAX,
                tz,
            }
        }
    }

    /// Wrapping subtract; same both-wrap-or-neither argument as
    /// [`Itv::add`], in i64.
    pub fn sub(&self, other: &Itv) -> Itv {
        let tz = self.tz.min(other.tz);
        let lo = self.lo as i64 - other.hi as i64;
        let hi = self.hi as i64 - other.lo as i64;
        if (lo < 0) == (hi < 0) {
            Itv {
                lo: lo as u32,
                hi: hi as u32,
                tz,
            }
        } else {
            Itv {
                lo: 0,
                hi: u32::MAX,
                tz,
            }
        }
    }

    /// Shift left by a known amount (`s` already masked to 0..=31).
    /// Alignment always gains `s` bits; the range is exact when no
    /// member's high bits shift out.
    pub fn sll_by(&self, s: u32) -> Itv {
        let tz = (self.tz as u32 + s).min(32) as u8;
        if s == 0 {
            return *self;
        }
        if self.hi >> (32 - s) == 0 {
            Itv {
                lo: self.lo << s,
                hi: self.hi << s,
                tz,
            }
        } else {
            Itv {
                lo: 0,
                hi: u32::MAX,
                tz,
            }
        }
    }

    /// Logical shift right by a known amount: monotone, always exact.
    pub fn srl_by(&self, s: u32) -> Itv {
        Itv {
            lo: self.lo >> s,
            hi: self.hi >> s,
            tz: self.tz.saturating_sub(s as u8),
        }
    }

    /// Arithmetic shift right by a known amount. Monotone on each sign
    /// half; for sign-mixed ranges only the alignment claim survives
    /// (shifting a multiple of 2^s right by `s` is exact division).
    pub fn sra_by(&self, s: u32) -> Itv {
        let tz = self.tz.saturating_sub(s as u8);
        let neg = 0x8000_0000u32;
        if self.hi < neg || self.lo >= neg {
            // u32 order equals i32 order within one sign half.
            Itv {
                lo: ((self.lo as i32) >> s) as u32,
                hi: ((self.hi as i32) >> s) as u32,
                tz,
            }
        } else {
            Itv {
                lo: 0,
                hi: u32::MAX,
                tz,
            }
        }
    }

    /// Bitwise and: the result never exceeds either operand (unsigned),
    /// and keeps the zeros of both.
    pub fn and(&self, other: &Itv) -> Itv {
        if let (Some(a), Some(b)) = (self.is_singleton(), other.is_singleton()) {
            return Itv::exact(a & b);
        }
        Itv {
            lo: 0,
            hi: self.hi.min(other.hi),
            tz: self.tz.max(other.tz),
        }
    }

    /// Bitwise or: at least the larger operand, at most all bits up to
    /// the highest bit either side can set.
    pub fn or(&self, other: &Itv) -> Itv {
        if let (Some(a), Some(b)) = (self.is_singleton(), other.is_singleton()) {
            return Itv::exact(a | b);
        }
        Itv {
            lo: self.lo.max(other.lo),
            hi: smear(self.hi | other.hi),
            tz: self.tz.min(other.tz),
        }
    }

    /// Bitwise xor: bounded by the bit positions either side can set.
    pub fn xor(&self, other: &Itv) -> Itv {
        if let (Some(a), Some(b)) = (self.is_singleton(), other.is_singleton()) {
            return Itv::exact(a ^ b);
        }
        Itv {
            lo: 0,
            hi: smear(self.hi | other.hi),
            tz: self.tz.min(other.tz),
        }
    }

    /// Low 32 bits of the product. Exact when the extreme product fits in
    /// u32; factor alignments always accumulate (mod 2^32 preserves any
    /// power-of-two divisor up to 2^32).
    pub fn mul(&self, other: &Itv) -> Itv {
        let tz = (self.tz as u32 + other.tz as u32).min(32) as u8;
        if self.hi as u64 * other.hi as u64 <= u32::MAX as u64 {
            Itv {
                lo: self.lo * other.lo,
                hi: self.hi * other.hi,
                tz,
            }
        } else {
            Itv {
                lo: 0,
                hi: u32::MAX,
                tz,
            }
        }
    }

    /// High 32 bits of the unsigned product: monotone in both operands.
    pub fn mulhu(&self, other: &Itv) -> Itv {
        Itv::range(
            ((self.lo as u64 * other.lo as u64) >> 32) as u32,
            ((self.hi as u64 * other.hi as u64) >> 32) as u32,
        )
    }

    /// Unsigned quotient, when the divisor is provably nonzero
    /// (division by zero yields `u32::MAX` in RV32M, outside the
    /// monotone formula).
    pub fn divu(&self, other: &Itv) -> Itv {
        if other.lo >= 1 {
            Itv::range(self.lo / other.hi, self.hi / other.lo)
        } else {
            Itv::top()
        }
    }

    /// Unsigned remainder: `a % b < b` when `b != 0`, and `a % b <= a`
    /// always (`a % 0 == a` in RV32M).
    pub fn remu(&self, other: &Itv) -> Itv {
        if other.lo >= 1 {
            Itv::range(0, self.hi.min(other.hi - 1))
        } else {
            Itv::range(0, self.hi)
        }
    }

    /// Signed quotient, only in the easy quadrant: both operands
    /// provably non-negative and the divisor nonzero. Anything touching
    /// a sign bit (or the `i32::MIN / -1` overflow case) degrades.
    pub fn div_signed(&self, other: &Itv) -> Itv {
        let nn = |i: &Itv| i.hi <= i32::MAX as u32;
        if nn(self) && nn(other) && other.lo >= 1 {
            Itv::range(self.lo / other.hi, self.hi / other.lo)
        } else {
            Itv::top()
        }
    }

    /// Signed remainder in the same non-negative quadrant.
    pub fn rem_signed(&self, other: &Itv) -> Itv {
        let nn = |i: &Itv| i.hi <= i32::MAX as u32;
        if nn(self) && nn(other) && other.lo >= 1 {
            Itv::range(0, self.hi.min(other.hi - 1))
        } else {
            Itv::top()
        }
    }

    /// `a < b` (unsigned) as a 0/1 interval; decided when the ranges
    /// don't overlap.
    pub fn sltu(&self, other: &Itv) -> Itv {
        if self.hi < other.lo {
            Itv::exact(1)
        } else if self.lo >= other.hi {
            Itv::exact(0)
        } else {
            Itv::range(0, 1)
        }
    }

    /// `a < b` (signed) as a 0/1 interval, via the sign-bias transform.
    pub fn slt(&self, other: &Itv) -> Itv {
        match (self.bias(), other.bias()) {
            (Some(a), Some(b)) => a.sltu(&b),
            _ => Itv::range(0, 1),
        }
    }

    /// Maps the interval through `v ^ 0x8000_0000`, which carries signed
    /// order onto unsigned order. The image is a contiguous interval only
    /// when the range does not straddle the sign boundary.
    pub fn bias(&self) -> Option<Itv> {
        let b = 0x8000_0000u32;
        if self.lo < b && self.hi >= b {
            None
        } else {
            Some(Itv {
                lo: self.lo ^ b,
                hi: self.hi ^ b,
                tz: 0,
            })
        }
    }

    /// Undoes [`Itv::bias`], reattaching the alignment claim `tz` (a
    /// refinement never invalidates the original claim).
    fn unbias(biased: Itv, tz: u8) -> Itv {
        let b = 0x8000_0000u32;
        Itv {
            lo: biased.lo ^ b,
            hi: biased.hi ^ b,
            tz,
        }
    }
}

/// Refinement of an operand pair `(a, b)` through a known-true unsigned
/// `a < b`. Returns `None` when the predicate is infeasible for the pair.
pub fn refine_ltu(a: &Itv, b: &Itv) -> Option<(Itv, Itv)> {
    if b.hi == 0 || a.lo == u32::MAX {
        return None;
    }
    let a2 = a.intersect(&Itv {
        lo: 0,
        hi: b.hi - 1,
        tz: 0,
    })?;
    let b2 = b.intersect(&Itv {
        lo: a.lo + 1,
        hi: u32::MAX,
        tz: 0,
    })?;
    Some((a2, b2))
}

/// Refinement through a known-true unsigned `a >= b`.
pub fn refine_geu(a: &Itv, b: &Itv) -> Option<(Itv, Itv)> {
    let a2 = a.intersect(&Itv {
        lo: b.lo,
        hi: u32::MAX,
        tz: 0,
    })?;
    let b2 = b.intersect(&Itv {
        lo: 0,
        hi: a.hi,
        tz: 0,
    })?;
    Some((a2, b2))
}

/// Refinement through a known-true signed `a < b`, when both intervals
/// stay within one sign half (otherwise returns the operands unchanged —
/// skipping a refinement is always sound).
pub fn refine_lt(a: &Itv, b: &Itv) -> Option<(Itv, Itv)> {
    match (a.bias(), b.bias()) {
        (Some(ab), Some(bb)) => {
            let (a2, b2) = refine_ltu(&ab, &bb)?;
            Some((Itv::unbias(a2, a.tz), Itv::unbias(b2, b.tz)))
        }
        _ => Some((*a, *b)),
    }
}

/// Refinement through a known-true signed `a >= b`.
pub fn refine_ge(a: &Itv, b: &Itv) -> Option<(Itv, Itv)> {
    match (a.bias(), b.bias()) {
        (Some(ab), Some(bb)) => {
            let (a2, b2) = refine_geu(&ab, &bb)?;
            Some((Itv::unbias(a2, a.tz), Itv::unbias(b2, b.tz)))
        }
        _ => Some((*a, *b)),
    }
}

/// Refinement through a known-true `a == b`: both collapse to the
/// intersection.
pub fn refine_eq(a: &Itv, b: &Itv) -> Option<(Itv, Itv)> {
    let m = a.intersect(b)?;
    Some((m, m))
}

/// Refinement through a known-true `a != b`: useful only against a
/// singleton, where a touching bound can be nudged off it.
pub fn refine_ne(a: &Itv, b: &Itv) -> Option<(Itv, Itv)> {
    fn trim(x: &Itv, v: u32) -> Option<Itv> {
        let mut x = *x;
        if x.lo == v && x.hi == v {
            return None;
        }
        if x.lo == v {
            x.lo += 1;
        }
        if x.hi == v {
            x.hi -= 1;
        }
        Some(x)
    }
    match (a.is_singleton(), b.is_singleton()) {
        (Some(av), Some(bv)) if av == bv => None,
        (Some(av), _) => Some((*a, trim(b, av)?)),
        (_, Some(bv)) => Some((trim(a, bv)?, *b)),
        _ => Some((*a, *b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diag_isa::exec::{alu, branch_taken};
    use diag_isa::AluOp;

    /// A small grid of concrete values chosen to hit wrap boundaries,
    /// sign boundaries, and alignment corners.
    const GRID: &[u32] = &[
        0,
        1,
        2,
        3,
        4,
        5,
        7,
        8,
        12,
        16,
        31,
        32,
        100,
        0xFF,
        0x100,
        0x7FFF_FFFE,
        0x7FFF_FFFF,
        0x8000_0000,
        0x8000_0001,
        0xFFFF_FF00,
        0xFFFF_FFFE,
        u32::MAX,
    ];

    /// Every interval with grid endpoints (lo <= hi), plus singletons.
    fn grid_itvs() -> Vec<Itv> {
        let mut out = Vec::new();
        for &a in GRID {
            for &b in GRID {
                if a <= b {
                    out.push(Itv::range(a, b));
                }
            }
        }
        out
    }

    /// Concrete members of `i` drawn from the grid (endpoints included
    /// via `range` construction).
    fn members(i: &Itv) -> Vec<u32> {
        GRID.iter().copied().filter(|&v| i.contains(v)).collect()
    }

    fn apply(op: AluOp, a: &Itv, b: &Itv) -> Itv {
        match op {
            AluOp::Add => a.add(b),
            AluOp::Sub => a.sub(b),
            AluOp::Sll => match b.is_singleton() {
                Some(s) => a.sll_by(s & 0x1F),
                None => Itv {
                    lo: 0,
                    hi: u32::MAX,
                    tz: a.tz,
                },
            },
            AluOp::Srl => match b.is_singleton() {
                Some(s) => a.srl_by(s & 0x1F),
                None => Itv::top(),
            },
            AluOp::Sra => match b.is_singleton() {
                Some(s) => a.sra_by(s & 0x1F),
                None => Itv::top(),
            },
            AluOp::Slt => a.slt(b),
            AluOp::Sltu => a.sltu(b),
            AluOp::Xor => a.xor(b),
            AluOp::Or => a.or(b),
            AluOp::And => a.and(b),
            AluOp::Mul => a.mul(b),
            AluOp::Mulh => Itv::top(),
            AluOp::Mulhsu => Itv::top(),
            AluOp::Mulhu => a.mulhu(b),
            AluOp::Div => a.div_signed(b),
            AluOp::Divu => a.divu(b),
            AluOp::Rem => a.rem_signed(b),
            AluOp::Remu => a.remu(b),
        }
    }

    #[test]
    fn transfer_functions_are_sound_on_the_grid() {
        let itvs = grid_itvs();
        let ops = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Sll,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Slt,
            AluOp::Sltu,
            AluOp::Xor,
            AluOp::Or,
            AluOp::And,
            AluOp::Mul,
            AluOp::Mulh,
            AluOp::Mulhsu,
            AluOp::Mulhu,
            AluOp::Div,
            AluOp::Divu,
            AluOp::Rem,
            AluOp::Remu,
        ];
        for a in &itvs {
            let avs = members(a);
            for b in &itvs {
                let bvs = members(b);
                for &op in &ops {
                    let r = apply(op, a, b);
                    for &av in &avs {
                        for &bv in &bvs {
                            let c = alu(op, av, bv);
                            assert!(
                                r.contains(c),
                                "{op:?}: {av:#x} op {bv:#x} = {c:#x} not in {r:?} \
                                 (a={a:?}, b={b:?})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn alignment_claims_survive_arithmetic() {
        // 16-aligned plus 4-aligned is 4-aligned, scaled by 8 is
        // 32-aligned, and shifting right gives it back.
        let a = Itv {
            lo: 16,
            hi: 64,
            tz: 4,
        };
        let b = Itv {
            lo: 4,
            hi: 12,
            tz: 2,
        };
        let s = a.add(&b);
        assert_eq!(s.tz, 2);
        assert_eq!(s.sll_by(3).tz, 5);
        assert_eq!(s.sll_by(3).srl_by(1).tz, 4);
        for v in [20u32, 28, 76] {
            assert!(s.contains(v));
        }
        assert!(!s.contains(21));
    }

    #[test]
    fn refinements_are_sound_on_the_grid() {
        let itvs = grid_itvs();
        for a in &itvs {
            for b in &itvs {
                let pairs: [(Option<(Itv, Itv)>, diag_isa::BranchOp); 6] = [
                    (refine_ltu(a, b), diag_isa::BranchOp::Bltu),
                    (refine_geu(a, b), diag_isa::BranchOp::Bgeu),
                    (refine_lt(a, b), diag_isa::BranchOp::Blt),
                    (refine_ge(a, b), diag_isa::BranchOp::Bge),
                    (refine_eq(a, b), diag_isa::BranchOp::Beq),
                    (refine_ne(a, b), diag_isa::BranchOp::Bne),
                ];
                for (refined, op) in pairs {
                    for &av in &members(a) {
                        for &bv in &members(b) {
                            if branch_taken(op, av, bv) {
                                // The concrete pair satisfies the
                                // predicate, so it must survive.
                                let (a2, b2) = refined.unwrap_or_else(|| {
                                    panic!("{op:?} refined {a:?},{b:?} to bottom but {av:#x},{bv:#x} satisfies it")
                                });
                                assert!(a2.contains(av), "{op:?} lost {av:#x} from {a:?}");
                                assert!(b2.contains(bv), "{op:?} lost {bv:#x} from {b:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn join_and_widen_cover_both_sides() {
        let a = Itv::range(4, 10);
        let b = Itv::range(8, 20);
        let j = a.join(&b);
        assert_eq!((j.lo, j.hi), (4, 20));
        let w = a.widen(&j);
        assert_eq!((w.lo, w.hi), (4, u32::MAX));
        let w2 = b.widen(&a.join(&b));
        assert_eq!((w2.lo, w2.hi), (0, 20));
    }

    #[test]
    fn intersect_detects_disjoint() {
        assert!(Itv::range(0, 4).intersect(&Itv::range(5, 9)).is_none());
        let m = Itv::range(0, 8).intersect(&Itv::range(4, 12)).unwrap();
        assert_eq!((m.lo, m.hi), (4, 8));
    }
}
