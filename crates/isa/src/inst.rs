//! The decoded instruction representation for RV32IMF plus the DiAG SIMT
//! extension instructions (`simt_s` / `simt_e`, paper §5.4).
//!
//! [`Inst`] is the single decoded form shared by the assembler, the DiAG
//! machine, and the out-of-order baseline. Encoding and decoding to the
//! 32-bit RISC-V wire format live in [`crate::encode`] and [`crate::decode`].

use crate::reg::{ArchReg, FReg, Reg};

/// Operations performed by the integer ALU (and the M-extension units).
///
/// The same operation set is used for register-register (`OP`) and, for the
/// non-M subset, register-immediate (`OP-IMM`) instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (`add` / `addi`).
    Add,
    /// Subtraction (`sub`); not available in immediate form.
    Sub,
    /// Logical left shift (`sll` / `slli`).
    Sll,
    /// Signed set-less-than (`slt` / `slti`).
    Slt,
    /// Unsigned set-less-than (`sltu` / `sltiu`).
    Sltu,
    /// Bitwise exclusive or (`xor` / `xori`).
    Xor,
    /// Logical right shift (`srl` / `srli`).
    Srl,
    /// Arithmetic right shift (`sra` / `srai`).
    Sra,
    /// Bitwise or (`or` / `ori`).
    Or,
    /// Bitwise and (`and` / `andi`).
    And,
    /// Low 32 bits of signed multiplication (`mul`, RV32M).
    Mul,
    /// High 32 bits of signed × signed multiplication (`mulh`, RV32M).
    Mulh,
    /// High 32 bits of signed × unsigned multiplication (`mulhsu`, RV32M).
    Mulhsu,
    /// High 32 bits of unsigned × unsigned multiplication (`mulhu`, RV32M).
    Mulhu,
    /// Signed division (`div`, RV32M).
    Div,
    /// Unsigned division (`divu`, RV32M).
    Divu,
    /// Signed remainder (`rem`, RV32M).
    Rem,
    /// Unsigned remainder (`remu`, RV32M).
    Remu,
}

impl AluOp {
    /// Whether this operation belongs to the RV32M multiply/divide extension.
    pub const fn is_m_ext(self) -> bool {
        matches!(
            self,
            AluOp::Mul
                | AluOp::Mulh
                | AluOp::Mulhsu
                | AluOp::Mulhu
                | AluOp::Div
                | AluOp::Divu
                | AluOp::Rem
                | AluOp::Remu
        )
    }

    /// Whether this operation has an immediate (`OP-IMM`) form.
    pub const fn has_imm_form(self) -> bool {
        !self.is_m_ext() && !matches!(self, AluOp::Sub)
    }
}

/// Conditional branch comparisons (`BRANCH` major opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// Branch if equal (`beq`).
    Beq,
    /// Branch if not equal (`bne`).
    Bne,
    /// Branch if signed less-than (`blt`).
    Blt,
    /// Branch if signed greater-or-equal (`bge`).
    Bge,
    /// Branch if unsigned less-than (`bltu`).
    Bltu,
    /// Branch if unsigned greater-or-equal (`bgeu`).
    Bgeu,
}

/// Load widths and sign treatments (`LOAD` major opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// Load signed byte (`lb`).
    Lb,
    /// Load signed halfword (`lh`).
    Lh,
    /// Load word (`lw`).
    Lw,
    /// Load unsigned byte (`lbu`).
    Lbu,
    /// Load unsigned halfword (`lhu`).
    Lhu,
}

impl LoadOp {
    /// Access size in bytes.
    pub const fn size(self) -> u32 {
        match self {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw => 4,
        }
    }
}

/// Store widths (`STORE` major opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// Store byte (`sb`).
    Sb,
    /// Store halfword (`sh`).
    Sh,
    /// Store word (`sw`).
    Sw,
}

impl StoreOp {
    /// Access size in bytes.
    pub const fn size(self) -> u32 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
        }
    }
}

/// Two-operand single-precision floating-point operations (`OP-FP`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// `fadd.s`
    Add,
    /// `fsub.s`
    Sub,
    /// `fmul.s`
    Mul,
    /// `fdiv.s`
    Div,
    /// `fsqrt.s` (rs2 is ignored / must be `f0` in the encoding)
    Sqrt,
    /// `fsgnj.s`
    SgnJ,
    /// `fsgnjn.s`
    SgnJN,
    /// `fsgnjx.s`
    SgnJX,
    /// `fmin.s`
    Min,
    /// `fmax.s`
    Max,
}

/// Fused multiply-add family (`MADD`/`MSUB`/`NMSUB`/`NMADD` major opcodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FmaOp {
    /// `fmadd.s`: `rs1 * rs2 + rs3`
    MAdd,
    /// `fmsub.s`: `rs1 * rs2 - rs3`
    MSub,
    /// `fnmsub.s`: `-(rs1 * rs2) + rs3`
    NMSub,
    /// `fnmadd.s`: `-(rs1 * rs2) - rs3`
    NMAdd,
}

/// Floating-point comparisons writing an integer register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpCmpOp {
    /// `feq.s`
    Eq,
    /// `flt.s`
    Lt,
    /// `fle.s`
    Le,
}

/// Operations moving or converting from the FP register file to the integer
/// register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpToIntOp {
    /// `fcvt.w.s`: float → signed i32
    CvtW,
    /// `fcvt.wu.s`: float → unsigned u32
    CvtWu,
    /// `fmv.x.w`: raw bit move
    MvXW,
    /// `fclass.s`: classification mask
    Class,
}

/// Operations moving or converting from the integer register file to the FP
/// register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntToFpOp {
    /// `fcvt.s.w`: signed i32 → float
    CvtW,
    /// `fcvt.s.wu`: unsigned u32 → float
    CvtWu,
    /// `fmv.w.x`: raw bit move
    MvWX,
}

/// A decoded RV32IMF (+ DiAG SIMT extension) instruction.
///
/// This is the canonical decoded form used throughout the workspace. It is
/// produced by [`crate::decode::decode`] and by the assembler, and consumed
/// by every machine model.
///
/// # Examples
///
/// ```
/// use diag_isa::{decode, encode, Inst, Reg, AluOp};
///
/// let inst = Inst::Op { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 };
/// let word = encode(&inst);
/// assert_eq!(decode(word).unwrap(), inst);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `lui rd, imm`: load upper immediate. `imm` is the already-shifted
    /// 32-bit value (low 12 bits zero).
    Lui {
        /// Destination register.
        rd: Reg,
        /// Upper-immediate value with low 12 bits zero.
        imm: i32,
    },
    /// `auipc rd, imm`: add upper immediate to PC.
    Auipc {
        /// Destination register.
        rd: Reg,
        /// Upper-immediate value with low 12 bits zero.
        imm: i32,
    },
    /// `jal rd, offset`: jump and link.
    Jal {
        /// Link register (often `ra` or `zero`).
        rd: Reg,
        /// Signed byte offset from this instruction's address.
        offset: i32,
    },
    /// `jalr rd, offset(rs1)`: indirect jump and link.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Signed byte offset added to `rs1`.
        offset: i32,
    },
    /// Conditional branch `op rs1, rs2, offset`.
    Branch {
        /// Comparison performed.
        op: BranchOp,
        /// First compared register.
        rs1: Reg,
        /// Second compared register.
        rs2: Reg,
        /// Signed byte offset from this instruction's address.
        offset: i32,
    },
    /// Integer load `op rd, offset(rs1)`.
    Load {
        /// Width/sign of the access.
        op: LoadOp,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Integer store `op rs2, offset(rs1)`.
    Store {
        /// Width of the access.
        op: StoreOp,
        /// Base address register.
        rs1: Reg,
        /// Data register.
        rs2: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Register-immediate ALU operation (`OP-IMM` major opcode).
    OpImm {
        /// Operation; must satisfy [`AluOp::has_imm_form`].
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Sign-extended 12-bit immediate (shift amounts use the low 5 bits).
        imm: i32,
    },
    /// Register-register ALU / M-extension operation (`OP` major opcode).
    Op {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// `fence`: memory ordering. Modelled as a no-op that serializes the
    /// cluster's load/store unit.
    Fence,
    /// `ecall`: environment call. Bare-metal programs in this workspace use
    /// it to halt the current hardware thread (the paper's prototype lacks
    /// system-instruction support; §6).
    Ecall,
    /// `ebreak`: breakpoint; treated as a halting trap.
    Ebreak,
    /// `flw rd, offset(rs1)`: floating-point load word.
    Flw {
        /// Destination FP register.
        rd: FReg,
        /// Base address register.
        rs1: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// `fsw rs2, offset(rs1)`: floating-point store word.
    Fsw {
        /// Base address register.
        rs1: Reg,
        /// FP data register.
        rs2: FReg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Two-operand FP arithmetic (`OP-FP`).
    FpOp {
        /// Operation.
        op: FpOp,
        /// Destination FP register.
        rd: FReg,
        /// First source FP register.
        rs1: FReg,
        /// Second source FP register (ignored by `fsqrt.s`).
        rs2: FReg,
    },
    /// Fused multiply-add family.
    FpFma {
        /// Which fused operation.
        op: FmaOp,
        /// Destination FP register.
        rd: FReg,
        /// Multiplicand.
        rs1: FReg,
        /// Multiplier.
        rs2: FReg,
        /// Addend.
        rs3: FReg,
    },
    /// FP comparison writing an integer register.
    FpCmp {
        /// Comparison.
        op: FpCmpOp,
        /// Destination integer register.
        rd: Reg,
        /// First source FP register.
        rs1: FReg,
        /// Second source FP register.
        rs2: FReg,
    },
    /// FP → integer move/convert/classify.
    FpToInt {
        /// Operation.
        op: FpToIntOp,
        /// Destination integer register.
        rd: Reg,
        /// Source FP register.
        rs1: FReg,
    },
    /// Integer → FP move/convert.
    IntToFp {
        /// Operation.
        op: IntToFpOp,
        /// Destination FP register.
        rd: FReg,
        /// Source integer register.
        rs1: Reg,
    },
    /// `simt_s rc, r_step, r_end, interval` (DiAG extension, paper §5.4).
    ///
    /// Marks the start of a thread-pipelined region. Spawns loop instances
    /// that retain the current register file except the control register
    /// `rc`, which advances by the value of `r_step` per instance until the
    /// value of `r_end` is reached. A new instance is initiated at most once
    /// every `interval` cycles.
    SimtS {
        /// Control (induction) register.
        rc: Reg,
        /// Register holding the per-instance step added to `rc`.
        r_step: Reg,
        /// Register holding the exclusive end bound for `rc`.
        r_end: Reg,
        /// Minimum cycles between successive thread initiations (1..=127).
        interval: u8,
    },
    /// `simt_e rc, r_end, l_offset` (DiAG extension, paper §5.4).
    ///
    /// Marks the end of the pipelined region started `l_offset` bytes
    /// earlier. Only the final instance's register lanes propagate to the
    /// next processing cluster when the terminating condition is met.
    SimtE {
        /// Control (induction) register, matching the paired `simt_s`.
        rc: Reg,
        /// Register holding the exclusive end bound for `rc`.
        r_end: Reg,
        /// Signed byte offset back to the paired `simt_s` (negative).
        l_offset: i32,
    },
}

/// The kind of functional unit an instruction executes on, used for latency
/// and energy accounting by both machine models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Single-cycle integer ALU (also used by branches/jumps for target and
    /// comparison computation).
    IntAlu,
    /// Pipelined integer multiplier.
    IntMul,
    /// Unpipelined integer divider.
    IntDiv,
    /// Floating-point add/sub/compare/convert/move unit.
    FpAlu,
    /// Floating-point multiplier (also used by FMA).
    FpMul,
    /// Floating-point divide/square-root unit.
    FpDiv,
    /// Address generation + memory port.
    Mem,
    /// No functional unit (fences, ecall, SIMT markers).
    None,
}

impl Inst {
    /// A canonical no-op: `addi x0, x0, 0`.
    pub const NOP: Inst = Inst::OpImm {
        op: AluOp::Add,
        rd: Reg::ZERO,
        rs1: Reg::ZERO,
        imm: 0,
    };

    /// The functional unit this instruction occupies while executing.
    pub fn fu_kind(&self) -> FuKind {
        match self {
            Inst::Lui { .. }
            | Inst::Auipc { .. }
            | Inst::Jal { .. }
            | Inst::Jalr { .. }
            | Inst::Branch { .. }
            | Inst::OpImm { .. } => FuKind::IntAlu,
            Inst::Op { op, .. } => match op {
                AluOp::Mul | AluOp::Mulh | AluOp::Mulhsu | AluOp::Mulhu => FuKind::IntMul,
                AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => FuKind::IntDiv,
                _ => FuKind::IntAlu,
            },
            Inst::Load { .. } | Inst::Store { .. } | Inst::Flw { .. } | Inst::Fsw { .. } => {
                FuKind::Mem
            }
            Inst::FpOp { op, .. } => match op {
                FpOp::Mul => FuKind::FpMul,
                FpOp::Div | FpOp::Sqrt => FuKind::FpDiv,
                _ => FuKind::FpAlu,
            },
            Inst::FpFma { .. } => FuKind::FpMul,
            Inst::FpCmp { .. } | Inst::FpToInt { .. } | Inst::IntToFp { .. } => FuKind::FpAlu,
            Inst::Fence | Inst::Ecall | Inst::Ebreak | Inst::SimtS { .. } | Inst::SimtE { .. } => {
                FuKind::None
            }
        }
    }

    /// Execution latency in cycles, excluding memory-hierarchy time for
    /// loads/stores (paper §7.1 models FP as fixed delays).
    pub fn exec_latency(&self) -> u32 {
        match self.fu_kind() {
            FuKind::IntAlu | FuKind::None => 1,
            FuKind::IntMul => 3,
            FuKind::IntDiv => 20,
            FuKind::FpAlu => 4,
            FuKind::FpMul => 4,
            FuKind::FpDiv => match self {
                Inst::FpOp { op: FpOp::Sqrt, .. } => 16,
                _ => 12,
            },
            FuKind::Mem => 1, // address generation; memory time added by the LSU
        }
    }

    /// Whether this instruction can change control flow.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Branch { .. } | Inst::Ecall | Inst::Ebreak
        )
    }

    /// Whether this is an unconditional direct or indirect jump.
    pub fn is_jump(&self) -> bool {
        matches!(self, Inst::Jal { .. } | Inst::Jalr { .. })
    }

    /// Whether this instruction reads memory.
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Flw { .. })
    }

    /// Whether this instruction writes memory.
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Store { .. } | Inst::Fsw { .. })
    }

    /// Whether this instruction accesses memory at all.
    pub fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Whether this instruction uses the floating-point unit, for the
    /// clock-gated FPU energy accounting of paper §6.1.3 / §7.3.1.
    pub fn uses_fpu(&self) -> bool {
        matches!(
            self.fu_kind(),
            FuKind::FpAlu | FuKind::FpMul | FuKind::FpDiv
        )
    }

    /// The memory access size in bytes, if this is a load or store.
    pub fn mem_size(&self) -> Option<u32> {
        match self {
            Inst::Load { op, .. } => Some(op.size()),
            Inst::Store { op, .. } => Some(op.size()),
            Inst::Flw { .. } | Inst::Fsw { .. } => Some(4),
            _ => None,
        }
    }

    /// Source register lanes read by this instruction, in the unified
    /// [`ArchReg`] lane space. `x0` sources are included (the lane is always
    /// valid) so callers need no special casing.
    pub fn sources(&self) -> SourceSet {
        let mut set = SourceSet::default();
        match *self {
            Inst::Lui { .. }
            | Inst::Auipc { .. }
            | Inst::Jal { .. }
            | Inst::Fence
            | Inst::Ecall
            | Inst::Ebreak => {}
            Inst::Jalr { rs1, .. } => set.push(rs1.into()),
            Inst::Branch { rs1, rs2, .. } => {
                set.push(rs1.into());
                set.push(rs2.into());
            }
            Inst::Load { rs1, .. } => set.push(rs1.into()),
            Inst::Store { rs1, rs2, .. } => {
                set.push(rs1.into());
                set.push(rs2.into());
            }
            Inst::OpImm { rs1, .. } => set.push(rs1.into()),
            Inst::Op { rs1, rs2, .. } => {
                set.push(rs1.into());
                set.push(rs2.into());
            }
            Inst::Flw { rs1, .. } => set.push(rs1.into()),
            Inst::Fsw { rs1, rs2, .. } => {
                set.push(rs1.into());
                set.push(rs2.into());
            }
            Inst::FpOp { op, rs1, rs2, .. } => {
                set.push(rs1.into());
                if op != FpOp::Sqrt {
                    set.push(rs2.into());
                }
            }
            Inst::FpFma { rs1, rs2, rs3, .. } => {
                set.push(rs1.into());
                set.push(rs2.into());
                set.push(rs3.into());
            }
            Inst::FpCmp { rs1, rs2, .. } => {
                set.push(rs1.into());
                set.push(rs2.into());
            }
            Inst::FpToInt { rs1, .. } => set.push(rs1.into()),
            Inst::IntToFp { rs1, .. } => set.push(rs1.into()),
            Inst::SimtS {
                rc, r_step, r_end, ..
            } => {
                set.push(rc.into());
                set.push(r_step.into());
                set.push(r_end.into());
            }
            Inst::SimtE { rc, r_end, .. } => {
                set.push(rc.into());
                set.push(r_end.into());
            }
        }
        set
    }

    /// The destination register lane written by this instruction, if any.
    /// Writes to `x0` are reported as `None` (they are architectural no-ops,
    /// and in DiAG the `x0` lane is never driven).
    pub fn dest(&self) -> Option<ArchReg> {
        let lane: ArchReg = match *self {
            Inst::Lui { rd, .. }
            | Inst::Auipc { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::OpImm { rd, .. }
            | Inst::Op { rd, .. }
            | Inst::FpCmp { rd, .. }
            | Inst::FpToInt { rd, .. } => rd.into(),
            Inst::Flw { rd, .. }
            | Inst::FpOp { rd, .. }
            | Inst::FpFma { rd, .. }
            | Inst::IntToFp { rd, .. } => rd.into(),
            Inst::SimtS { rc, .. } => rc.into(),
            _ => return None,
        };
        if lane.is_zero() {
            None
        } else {
            Some(lane)
        }
    }

    /// The statically-known branch/jump target, given this instruction's
    /// address. `jalr` has no static target and returns `None`.
    pub fn static_target(&self, pc: u32) -> Option<u32> {
        match *self {
            Inst::Jal { offset, .. } | Inst::Branch { offset, .. } => {
                Some(pc.wrapping_add(offset as u32))
            }
            _ => None,
        }
    }

    /// Whether this is a conditional branch with a negative offset — the
    /// pattern DiAG's control unit inspects for datapath reuse (paper §4.3.2).
    pub fn is_backward_branch(&self) -> bool {
        match *self {
            Inst::Branch { offset, .. } => offset < 0,
            Inst::Jal { offset, .. } => offset < 0,
            _ => false,
        }
    }
}

/// Static control-flow classification of an instruction.
///
/// This is the single classification shared by everything that walks a
/// program statically — CFG recovery in `diag-analyze`, assembler target
/// validation, and the machines' fetch redirect logic — so that "what can
/// this instruction do to the PC" is answered in exactly one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlFlow {
    /// Falls through to the next sequential instruction.
    Next,
    /// Conditional branch: falls through or transfers to `pc + offset`.
    Branch {
        /// Signed byte offset from the branch's own address.
        offset: i32,
    },
    /// Unconditional direct jump (`jal`) to `pc + offset`. `link` is true
    /// when a return address is written (a call).
    Jump {
        /// Signed byte offset from the jump's own address.
        offset: i32,
        /// Whether a return address is written (rd != x0).
        link: bool,
    },
    /// Indirect jump through a register (`jalr`): the target is not
    /// statically known. `link` is true for indirect calls.
    Indirect {
        /// Whether a return address is written (rd != x0).
        link: bool,
    },
    /// Halts the hardware thread (`ecall` in this bare-metal workspace).
    Halt,
    /// Trap (`ebreak`): vectors to the trap handler when one is configured,
    /// otherwise halts.
    Trap,
    /// `simt_e`: falls through when the pipelined region terminates, or
    /// transfers back to `pc + l_offset + 4` (the instruction after the
    /// paired `simt_s`) for the next loop instance.
    SimtLoop {
        /// Signed byte offset back to the paired `simt_s` (negative).
        l_offset: i32,
    },
}

impl Inst {
    /// Classifies what this instruction can do to the program counter.
    ///
    /// # Examples
    ///
    /// ```
    /// use diag_isa::{ControlFlow, Inst, Reg};
    ///
    /// let j = Inst::Jal { rd: Reg::ZERO, offset: -8 };
    /// assert_eq!(j.control_flow(), ControlFlow::Jump { offset: -8, link: false });
    /// assert_eq!(Inst::NOP.control_flow(), ControlFlow::Next);
    /// ```
    pub fn control_flow(&self) -> ControlFlow {
        match *self {
            Inst::Branch { offset, .. } => ControlFlow::Branch { offset },
            Inst::Jal { rd, offset } => ControlFlow::Jump {
                offset,
                link: !rd.is_zero(),
            },
            Inst::Jalr { rd, .. } => ControlFlow::Indirect {
                link: !rd.is_zero(),
            },
            Inst::Ecall => ControlFlow::Halt,
            Inst::Ebreak => ControlFlow::Trap,
            Inst::SimtE { l_offset, .. } => ControlFlow::SimtLoop { l_offset },
            _ => ControlFlow::Next,
        }
    }

    /// Successor addresses that are statically knowable for an instruction
    /// at `pc`: `(fall_through, taken_target)`. An unconditional jump has no
    /// fall-through; an indirect jump or halt has neither.
    pub fn static_successors(&self, pc: u32) -> (Option<u32>, Option<u32>) {
        let next = pc.wrapping_add(4);
        match self.control_flow() {
            ControlFlow::Next => (Some(next), None),
            ControlFlow::Branch { offset } => (Some(next), Some(pc.wrapping_add(offset as u32))),
            ControlFlow::Jump { offset, .. } => (None, Some(pc.wrapping_add(offset as u32))),
            // `ebreak` either halts or vectors to a configured trap handler;
            // neither continuation is knowable from the instruction alone.
            ControlFlow::Indirect { .. } | ControlFlow::Halt | ControlFlow::Trap => (None, None),
            ControlFlow::SimtLoop { l_offset } => (
                Some(next),
                Some(pc.wrapping_add(l_offset as u32).wrapping_add(4)),
            ),
        }
    }
}

/// A small fixed-capacity set of source lanes (an instruction reads at most
/// three registers — FMA).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceSet {
    regs: [Option<ArchReg>; 3],
    len: u8,
}

impl SourceSet {
    fn push(&mut self, r: ArchReg) {
        self.regs[self.len as usize] = Some(r);
        self.len += 1;
    }

    /// Number of source operands.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the instruction reads no registers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the source lanes.
    pub fn iter(&self) -> impl Iterator<Item = ArchReg> + '_ {
        // `push` fills `regs` in order and counts `len` with it, so the
        // first `len` slots are all `Some`.
        self.regs
            .iter()
            .take(self.len as usize)
            .map(|r| r.expect("within len")) // lint: allow(unwrap)
    }
}

impl IntoIterator for SourceSet {
    type Item = ArchReg;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<ArchReg>, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_properties() {
        assert_eq!(Inst::NOP.dest(), None);
        assert_eq!(Inst::NOP.fu_kind(), FuKind::IntAlu);
        assert_eq!(Inst::NOP.exec_latency(), 1);
        assert!(!Inst::NOP.is_control());
    }

    #[test]
    fn x0_dest_is_none() {
        let i = Inst::Op {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::A0,
            rs2: Reg::A1,
        };
        assert_eq!(i.dest(), None);
        let j = Inst::Jal {
            rd: Reg::ZERO,
            offset: -8,
        };
        assert_eq!(j.dest(), None);
    }

    #[test]
    fn fp_dest_maps_to_fp_lane() {
        let i = Inst::FpOp {
            op: FpOp::Add,
            rd: FReg::new(2),
            rs1: FReg::new(0),
            rs2: FReg::new(1),
        };
        let d = i.dest().unwrap();
        assert!(d.is_fp());
        assert_eq!(d.index(), 34);
    }

    #[test]
    fn sources_counts() {
        assert_eq!(
            Inst::Lui {
                rd: Reg::A0,
                imm: 0x1000
            }
            .sources()
            .len(),
            0
        );
        assert_eq!(
            Inst::Op {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2
            }
            .sources()
            .len(),
            2
        );
        let fma = Inst::FpFma {
            op: FmaOp::MAdd,
            rd: FReg::new(0),
            rs1: FReg::new(1),
            rs2: FReg::new(2),
            rs3: FReg::new(3),
        };
        assert_eq!(fma.sources().len(), 3);
        let srcs: Vec<_> = fma.sources().iter().collect();
        assert!(srcs.iter().all(|r| r.is_fp()));
    }

    #[test]
    fn sqrt_reads_one_source() {
        let i = Inst::FpOp {
            op: FpOp::Sqrt,
            rd: FReg::new(1),
            rs1: FReg::new(2),
            rs2: FReg::new(0),
        };
        assert_eq!(i.sources().len(), 1);
    }

    #[test]
    fn fu_kind_classification() {
        assert_eq!(
            Inst::Op {
                op: AluOp::Mul,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2
            }
            .fu_kind(),
            FuKind::IntMul
        );
        assert_eq!(
            Inst::Op {
                op: AluOp::Rem,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2
            }
            .fu_kind(),
            FuKind::IntDiv
        );
        assert_eq!(
            Inst::FpOp {
                op: FpOp::Div,
                rd: FReg::new(0),
                rs1: FReg::new(1),
                rs2: FReg::new(2)
            }
            .fu_kind(),
            FuKind::FpDiv
        );
        assert_eq!(
            Inst::Flw {
                rd: FReg::new(0),
                rs1: Reg::A0,
                offset: 0
            }
            .fu_kind(),
            FuKind::Mem
        );
    }

    #[test]
    fn static_targets() {
        let b = Inst::Branch {
            op: BranchOp::Bne,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: -16,
        };
        assert_eq!(b.static_target(0x100), Some(0xF0));
        assert!(b.is_backward_branch());
        let j = Inst::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 0,
        };
        assert_eq!(j.static_target(0x100), None);
    }

    #[test]
    fn mem_classification() {
        let l = Inst::Load {
            op: LoadOp::Lw,
            rd: Reg::A0,
            rs1: Reg::SP,
            offset: 4,
        };
        assert!(l.is_load() && l.is_mem() && !l.is_store());
        assert_eq!(l.mem_size(), Some(4));
        let s = Inst::Store {
            op: StoreOp::Sb,
            rs1: Reg::SP,
            rs2: Reg::A0,
            offset: 0,
        };
        assert!(s.is_store() && s.is_mem() && !s.is_load());
        assert_eq!(s.mem_size(), Some(1));
        let f = Inst::Fsw {
            rs1: Reg::SP,
            rs2: FReg::new(1),
            offset: 8,
        };
        assert_eq!(f.mem_size(), Some(4));
    }

    #[test]
    fn uses_fpu_excludes_fp_memory_ops() {
        // FP loads/stores use the memory port, not the FPU datapath, and are
        // not FPU activations for clock-gating purposes.
        assert!(!Inst::Flw {
            rd: FReg::new(0),
            rs1: Reg::A0,
            offset: 0
        }
        .uses_fpu());
        assert!(Inst::FpOp {
            op: FpOp::Add,
            rd: FReg::new(0),
            rs1: FReg::new(1),
            rs2: FReg::new(2)
        }
        .uses_fpu());
    }

    #[test]
    fn simt_markers_have_sources() {
        let s = Inst::SimtS {
            rc: Reg::T0,
            r_step: Reg::T1,
            r_end: Reg::T2,
            interval: 1,
        };
        assert_eq!(s.sources().len(), 3);
        assert_eq!(s.dest(), Some(ArchReg::from(Reg::T0)));
        let e = Inst::SimtE {
            rc: Reg::T0,
            r_end: Reg::T2,
            l_offset: -64,
        };
        assert_eq!(e.sources().len(), 2);
        assert_eq!(e.dest(), None);
    }

    #[test]
    fn control_flow_classification() {
        let b = Inst::Branch {
            op: BranchOp::Beq,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: 16,
        };
        assert_eq!(b.control_flow(), ControlFlow::Branch { offset: 16 });
        assert_eq!(b.static_successors(0x1000), (Some(0x1004), Some(0x1010)));

        let call = Inst::Jal {
            rd: Reg::RA,
            offset: 0x40,
        };
        assert_eq!(
            call.control_flow(),
            ControlFlow::Jump {
                offset: 0x40,
                link: true
            }
        );
        assert_eq!(call.static_successors(0x1000), (None, Some(0x1040)));

        let ret = Inst::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 0,
        };
        assert_eq!(ret.control_flow(), ControlFlow::Indirect { link: false });
        assert_eq!(ret.static_successors(0x1000), (None, None));

        assert_eq!(Inst::Ecall.control_flow(), ControlFlow::Halt);
        assert_eq!(Inst::Ecall.static_successors(0x1000), (None, None));
        assert_eq!(Inst::Ebreak.control_flow(), ControlFlow::Trap);

        // simt_e resumes at the instruction after the paired simt_s.
        let e = Inst::SimtE {
            rc: Reg::T0,
            r_end: Reg::T1,
            l_offset: -64,
        };
        assert_eq!(e.control_flow(), ControlFlow::SimtLoop { l_offset: -64 });
        assert_eq!(e.static_successors(0x1080), (Some(0x1084), Some(0x1044)));

        assert_eq!(
            Inst::Load {
                op: LoadOp::Lw,
                rd: Reg::A0,
                rs1: Reg::SP,
                offset: 0
            }
            .control_flow(),
            ControlFlow::Next
        );
    }

    #[test]
    fn alu_op_imm_forms() {
        assert!(AluOp::Add.has_imm_form());
        assert!(!AluOp::Sub.has_imm_form());
        assert!(!AluOp::Mul.has_imm_form());
        assert!(AluOp::Mul.is_m_ext());
        assert!(!AluOp::And.is_m_ext());
    }
}
