//! Branch prediction for the out-of-order baseline: gshare direction
//! predictor, branch target buffer, and return-address stack.

use diag_isa::{Inst, Reg};

/// A gshare + BTB + RAS predictor.
///
/// The default predictor has empty tables; [`BranchPredictor::renew`]
/// sizes them.
#[derive(Debug, Clone, Default)]
pub struct BranchPredictor {
    /// 2-bit saturating counters indexed by `pc ^ history`.
    counters: Vec<u8>,
    /// Global history register.
    history: u64,
    /// Branch target buffer: tag + target per entry.
    btb: Vec<Option<(u32, u32)>>,
    /// Return address stack.
    ras: Vec<u32>,
    ras_depth: usize,
    lookups: u64,
    mispredicts: u64,
}

/// A prediction for one control-transfer instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted taken?
    pub taken: bool,
    /// Predicted target (meaningful when `taken`).
    pub target: Option<u32>,
}

impl BranchPredictor {
    /// Creates a predictor with the given table sizes (powers of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `btb_entries` is not a power of two.
    pub fn new(entries: usize, btb_entries: usize, ras_depth: usize) -> BranchPredictor {
        let mut bpred = BranchPredictor::default();
        bpred.renew(entries, btb_entries, ras_depth);
        bpred
    }

    /// Turns this predictor into [`BranchPredictor::new`] of the given
    /// sizes, keeping its tables' storage.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `btb_entries` is not a power of two.
    pub fn renew(&mut self, entries: usize, btb_entries: usize, ras_depth: usize) {
        assert!(
            entries.is_power_of_two(),
            "gshare entries must be a power of two"
        );
        assert!(
            btb_entries.is_power_of_two(),
            "BTB entries must be a power of two"
        );
        self.counters.clear();
        self.counters.resize(entries, 2); // weakly taken
        self.history = 0;
        self.btb.clear();
        self.btb.resize(btb_entries, None);
        self.ras.clear();
        self.ras.reserve(ras_depth);
        self.ras_depth = ras_depth;
        self.lookups = 0;
        self.mispredicts = 0;
    }

    fn gshare_index(&self, pc: u32) -> usize {
        ((pc >> 2) as usize ^ self.history as usize) & (self.counters.len() - 1)
    }

    fn btb_index(&self, pc: u32) -> usize {
        ((pc >> 2) as usize) & (self.btb.len() - 1)
    }

    /// Predicts the outcome of the control instruction `inst` at `pc`.
    /// Non-control instructions predict fall-through.
    pub fn predict(&mut self, pc: u32, inst: &Inst) -> Prediction {
        match *inst {
            Inst::Branch { .. } => {
                self.lookups += 1;
                let taken = self.counters[self.gshare_index(pc)] >= 2;
                let target = self.btb_lookup(pc);
                Prediction {
                    taken: taken && target.is_some(),
                    target,
                }
            }
            Inst::Jal { .. } => {
                self.lookups += 1;
                Prediction {
                    taken: true,
                    target: self.btb_lookup(pc),
                }
            }
            Inst::Jalr { rd, rs1, .. } => {
                self.lookups += 1;
                // Returns predict through the RAS.
                if rd == Reg::ZERO && rs1 == Reg::RA {
                    Prediction {
                        taken: true,
                        target: self.ras.last().copied(),
                    }
                } else {
                    Prediction {
                        taken: true,
                        target: self.btb_lookup(pc),
                    }
                }
            }
            _ => Prediction {
                taken: false,
                target: None,
            },
        }
    }

    fn btb_lookup(&self, pc: u32) -> Option<u32> {
        match self.btb[self.btb_index(pc)] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Updates predictor state with the actual outcome; returns whether
    /// the given prediction was a misprediction.
    pub fn update(
        &mut self,
        pc: u32,
        inst: &Inst,
        prediction: Prediction,
        taken: bool,
        target: u32,
    ) -> bool {
        let mispredicted = match *inst {
            Inst::Branch { .. } => {
                let idx = self.gshare_index(pc);
                if taken {
                    self.counters[idx] = (self.counters[idx] + 1).min(3);
                } else {
                    self.counters[idx] = self.counters[idx].saturating_sub(1);
                }
                self.history = (self.history << 1) | taken as u64;
                if taken {
                    let idx = self.btb_index(pc);
                    self.btb[idx] = Some((pc, target));
                }
                prediction.taken != taken || (taken && prediction.target != Some(target))
            }
            Inst::Jal { rd, .. } => {
                let idx = self.btb_index(pc);
                self.btb[idx] = Some((pc, target));
                if rd == Reg::RA {
                    self.push_ras(pc.wrapping_add(4));
                }
                prediction.target != Some(target)
            }
            Inst::Jalr { rd, rs1, .. } => {
                let mispredicted = prediction.target != Some(target);
                if rd == Reg::ZERO && rs1 == Reg::RA {
                    self.ras.pop();
                } else {
                    let idx = self.btb_index(pc);
                    self.btb[idx] = Some((pc, target));
                }
                if rd == Reg::RA {
                    self.push_ras(pc.wrapping_add(4));
                }
                mispredicted
            }
            _ => false,
        };
        if mispredicted {
            self.mispredicts += 1;
        }
        mispredicted
    }

    fn push_ras(&mut self, addr: u32) {
        if self.ras.len() == self.ras_depth {
            self.ras.remove(0);
        }
        self.ras.push(addr);
    }

    /// Total direction/target lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Total mispredictions.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diag_isa::BranchOp;

    fn branch() -> Inst {
        Inst::Branch {
            op: BranchOp::Bne,
            rs1: Reg::T0,
            rs2: Reg::ZERO,
            offset: -16,
        }
    }

    #[test]
    fn learns_a_loop_branch() {
        let mut bp = BranchPredictor::new(64, 64, 8);
        let pc = 0x1000;
        let target = 0x0FF0;
        // Train: taken repeatedly.
        for _ in 0..4 {
            let p = bp.predict(pc, &branch());
            bp.update(pc, &branch(), p, true, target);
        }
        let p = bp.predict(pc, &branch());
        assert!(p.taken);
        assert_eq!(p.target, Some(target));
        assert!(!bp.update(pc, &branch(), p, true, target));
    }

    #[test]
    fn first_taken_mispredicts_via_btb_miss() {
        let mut bp = BranchPredictor::new(64, 64, 8);
        let p = bp.predict(0x2000, &branch());
        assert!(bp.update(0x2000, &branch(), p, true, 0x1FF0));
        assert_eq!(bp.mispredicts(), 1);
    }

    #[test]
    fn not_taken_branch_learns() {
        let mut bp = BranchPredictor::new(64, 64, 8);
        let pc = 0x3000;
        for _ in 0..4 {
            let p = bp.predict(pc, &branch());
            bp.update(pc, &branch(), p, false, 0);
        }
        let p = bp.predict(pc, &branch());
        assert!(!p.taken);
        assert!(!bp.update(pc, &branch(), p, false, 0));
    }

    #[test]
    fn ras_predicts_returns() {
        let mut bp = BranchPredictor::new(64, 64, 8);
        let call = Inst::Jal {
            rd: Reg::RA,
            offset: 0x100,
        };
        let ret = Inst::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 0,
        };
        let p = bp.predict(0x1000, &call);
        bp.update(0x1000, &call, p, true, 0x1100);
        // The return from 0x1100 should predict 0x1004 via the RAS.
        let p = bp.predict(0x1100, &ret);
        assert_eq!(p.target, Some(0x1004));
        assert!(!bp.update(0x1100, &ret, p, true, 0x1004));
    }

    #[test]
    fn jal_hits_btb_after_first_sight() {
        let mut bp = BranchPredictor::new(64, 64, 8);
        let j = Inst::Jal {
            rd: Reg::ZERO,
            offset: 64,
        };
        let p = bp.predict(0x4000, &j);
        assert!(bp.update(0x4000, &j, p, true, 0x4040), "cold BTB");
        let p = bp.predict(0x4000, &j);
        assert_eq!(p.target, Some(0x4040));
    }
}
