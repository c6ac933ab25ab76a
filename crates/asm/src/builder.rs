//! A typed, label-aware program builder.
//!
//! [`ProgramBuilder`] is the primary way workloads in this workspace are
//! authored: kernels are emitted as Rust code rather than assembly text,
//! which gives compile-time register checking while still producing genuine
//! RV32IMF machine code that every machine model fetches and decodes.
//!
//! # Examples
//!
//! A loop summing `a0` integers starting at address `a1`:
//!
//! ```
//! use diag_asm::ProgramBuilder;
//! use diag_isa::regs::*;
//!
//! let mut b = ProgramBuilder::new();
//! let data = b.data_words("input", &[1, 2, 3, 4]);
//! b.li(A0, 4);
//! b.li(A1, data as i32);
//! b.li(A2, 0);
//! let loop_top = b.bind_new_label();
//! b.lw(T0, A1, 0);
//! b.add(A2, A2, T0);
//! b.addi(A1, A1, 4);
//! b.addi(A0, A0, -1);
//! b.bnez(A0, loop_top);
//! b.ecall();
//! let program = b.build()?;
//! # Ok::<(), diag_asm::AsmError>(())
//! ```

use std::collections::BTreeMap;

use diag_isa::{
    decode, encode, AluOp, BranchOp, ControlFlow, FReg, FmaOp, FpCmpOp, FpOp, FpToIntOp, Inst,
    IntToFpOp, LoadOp, Reg, StoreOp, INST_BYTES,
};

use crate::error::AsmError;
use crate::program::{Program, DATA_BASE, TEXT_BASE};

/// A forward- or backward-referenceable position in the text segment.
///
/// Create one with [`ProgramBuilder::new_label`], bind it to the current
/// position with [`ProgramBuilder::bind`], and use it as a branch target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

#[derive(Debug, Clone)]
enum Item {
    Fixed(Inst),
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        target: Label,
    },
    Jal {
        rd: Reg,
        target: Label,
    },
    La {
        rd: Reg,
        symbol: String,
    },
    SimtE {
        rc: Reg,
        r_end: Reg,
        target: Label,
    },
}

impl Item {
    /// Size of the item in instruction words (fixed at emission time).
    fn words(&self) -> u32 {
        match self {
            Item::La { .. } => 2,
            _ => 1,
        }
    }
}

/// Incrementally builds a [`Program`].
///
/// Text is emitted through instruction-named methods (`add`, `lw`, `bnez`,
/// …); data is placed with the `data_*` methods, which return the symbol's
/// absolute address. Labels provide branch targets in both directions.
/// [`build`](ProgramBuilder::build) resolves all references and encodes the
/// final image.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    items: Vec<Item>,
    /// Word position of each item (prefix sums of item sizes).
    positions: Vec<u32>,
    next_pos: u32,
    labels: Vec<Option<u32>>, // word position each label is bound to
    label_names: Vec<Option<String>>,
    data: Vec<u8>,
    symbols: BTreeMap<String, u32>,
}

macro_rules! op3 {
    ($($(#[$doc:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$doc])*
            pub fn $name(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
                self.inst(Inst::Op { op: $op, rd, rs1, rs2 });
            }
        )*
    };
}

macro_rules! op_imm {
    ($($(#[$doc:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$doc])*
            pub fn $name(&mut self, rd: Reg, rs1: Reg, imm: i32) {
                self.inst(Inst::OpImm { op: $op, rd, rs1, imm });
            }
        )*
    };
}

macro_rules! loads {
    ($($(#[$doc:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$doc])*
            pub fn $name(&mut self, rd: Reg, base: Reg, offset: i32) {
                self.inst(Inst::Load { op: $op, rd, rs1: base, offset });
            }
        )*
    };
}

macro_rules! stores {
    ($($(#[$doc:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$doc])*
            pub fn $name(&mut self, src: Reg, base: Reg, offset: i32) {
                self.inst(Inst::Store { op: $op, rs1: base, rs2: src, offset });
            }
        )*
    };
}

macro_rules! branches {
    ($($(#[$doc:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$doc])*
            pub fn $name(&mut self, rs1: Reg, rs2: Reg, target: Label) {
                self.push(Item::Branch { op: $op, rs1, rs2, target });
            }
        )*
    };
}

macro_rules! fp3 {
    ($($(#[$doc:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$doc])*
            pub fn $name(&mut self, rd: FReg, rs1: FReg, rs2: FReg) {
                self.inst(Inst::FpOp { op: $op, rd, rs1, rs2 });
            }
        )*
    };
}

macro_rules! fp_fma {
    ($($(#[$doc:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$doc])*
            pub fn $name(&mut self, rd: FReg, rs1: FReg, rs2: FReg, rs3: FReg) {
                self.inst(Inst::FpFma { op: $op, rd, rs1, rs2, rs3 });
            }
        )*
    };
}

macro_rules! fp_cmp {
    ($($(#[$doc:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$doc])*
            pub fn $name(&mut self, rd: Reg, rs1: FReg, rs2: FReg) {
                self.inst(Inst::FpCmp { op: $op, rd, rs1, rs2 });
            }
        )*
    };
}

impl ProgramBuilder {
    /// Creates an empty builder with the default segment layout.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Current text position in words (i.e. the index of the next emitted
    /// instruction, counting expanded pseudo-instructions).
    pub fn position(&self) -> u32 {
        self.next_pos
    }

    fn push(&mut self, item: Item) {
        self.positions.push(self.next_pos);
        self.next_pos += item.words();
        self.items.push(item);
    }

    /// Emits an already-decoded instruction verbatim.
    pub fn inst(&mut self, inst: Inst) {
        self.push(Item::Fixed(inst));
    }

    /// Creates a new, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        self.label_names.push(None);
        Label(self.labels.len() - 1)
    }

    /// Creates a new named label (the name appears in error messages).
    pub fn new_named_label(&mut self, name: &str) -> Label {
        let l = self.new_label();
        self.label_names[l.0] = Some(name.to_string());
        l
    }

    /// Binds `label` to the current position. Named labels also enter the
    /// program's symbol table, so diagnostics and listings can describe
    /// text addresses as `<name+offset>`.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound — binding twice is always a
    /// programming error in kernel-construction code.
    pub fn bind(&mut self, label: Label) {
        assert!(
            self.labels[label.0].is_none(),
            "label {} bound twice",
            self.label_name(label)
        );
        self.labels[label.0] = Some(self.next_pos);
        if let Some(name) = self.label_names[label.0].clone() {
            self.symbols
                .insert(name, TEXT_BASE + self.next_pos * INST_BYTES);
        }
    }

    /// Binds `label` to an explicit word position (used by the assembler for
    /// numeric branch offsets).
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind_at(&mut self, label: Label, word_pos: u32) {
        assert!(
            self.labels[label.0].is_none(),
            "label {} bound twice",
            self.label_name(label)
        );
        self.labels[label.0] = Some(word_pos);
    }

    /// Whether `label` has been bound to a position.
    pub fn is_bound(&self, label: Label) -> bool {
        self.labels[label.0].is_some()
    }

    /// Creates a label and binds it to the current position in one step.
    pub fn bind_new_label(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    fn label_name(&self, label: Label) -> String {
        self.label_names[label.0]
            .clone()
            .unwrap_or_else(|| format!("L{}", label.0))
    }

    // ---- data segment -------------------------------------------------

    fn align_data(&mut self, align: usize) {
        while !self.data.len().is_multiple_of(align) {
            self.data.push(0);
        }
    }

    fn define_symbol(&mut self, name: &str, addr: u32) -> u32 {
        self.symbols.insert(name.to_string(), addr);
        addr
    }

    /// Defines `name` as an alias for an arbitrary address (used by the
    /// assembler for stacked data labels). Last definition wins.
    pub fn define_data_symbol(&mut self, name: &str, addr: u32) -> u32 {
        self.define_symbol(name, addr)
    }

    /// Whether a data symbol with this name exists.
    pub fn has_symbol(&self, name: &str) -> bool {
        self.symbols.contains_key(name)
    }

    /// Places raw bytes in the data segment under `name`; returns the
    /// absolute address.
    pub fn data_bytes(&mut self, name: &str, bytes: &[u8]) -> u32 {
        let addr = DATA_BASE + self.data.len() as u32;
        self.data.extend_from_slice(bytes);
        self.define_symbol(name, addr)
    }

    /// Places little-endian 32-bit words in the data segment.
    pub fn data_words(&mut self, name: &str, words: &[u32]) -> u32 {
        self.align_data(4);
        let addr = DATA_BASE + self.data.len() as u32;
        for w in words {
            self.data.extend_from_slice(&w.to_le_bytes());
        }
        self.define_symbol(name, addr)
    }

    /// Places IEEE-754 single-precision values in the data segment.
    pub fn data_floats(&mut self, name: &str, values: &[f32]) -> u32 {
        self.align_data(4);
        let addr = DATA_BASE + self.data.len() as u32;
        for v in values {
            self.data.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self.define_symbol(name, addr)
    }

    /// Reserves `len` zeroed bytes in the data segment.
    pub fn data_zeroed(&mut self, name: &str, len: usize) -> u32 {
        self.align_data(4);
        let addr = DATA_BASE + self.data.len() as u32;
        self.data.resize(self.data.len() + len, 0);
        self.define_symbol(name, addr)
    }

    // ---- RV32I --------------------------------------------------------

    op3! {
        /// `add rd, rs1, rs2`
        add => AluOp::Add;
        /// `sub rd, rs1, rs2`
        sub => AluOp::Sub;
        /// `sll rd, rs1, rs2`
        sll => AluOp::Sll;
        /// `slt rd, rs1, rs2`
        slt => AluOp::Slt;
        /// `sltu rd, rs1, rs2`
        sltu => AluOp::Sltu;
        /// `xor rd, rs1, rs2`
        xor => AluOp::Xor;
        /// `srl rd, rs1, rs2`
        srl => AluOp::Srl;
        /// `sra rd, rs1, rs2`
        sra => AluOp::Sra;
        /// `or rd, rs1, rs2`
        or => AluOp::Or;
        /// `and rd, rs1, rs2`
        and => AluOp::And;
        /// `mul rd, rs1, rs2` (RV32M)
        mul => AluOp::Mul;
        /// `mulh rd, rs1, rs2` (RV32M)
        mulh => AluOp::Mulh;
        /// `mulhsu rd, rs1, rs2` (RV32M)
        mulhsu => AluOp::Mulhsu;
        /// `mulhu rd, rs1, rs2` (RV32M)
        mulhu => AluOp::Mulhu;
        /// `div rd, rs1, rs2` (RV32M)
        div => AluOp::Div;
        /// `divu rd, rs1, rs2` (RV32M)
        divu => AluOp::Divu;
        /// `rem rd, rs1, rs2` (RV32M)
        rem => AluOp::Rem;
        /// `remu rd, rs1, rs2` (RV32M)
        remu => AluOp::Remu;
    }

    op_imm! {
        /// `addi rd, rs1, imm`
        addi => AluOp::Add;
        /// `slti rd, rs1, imm`
        slti => AluOp::Slt;
        /// `sltiu rd, rs1, imm`
        sltiu => AluOp::Sltu;
        /// `xori rd, rs1, imm`
        xori => AluOp::Xor;
        /// `ori rd, rs1, imm`
        ori => AluOp::Or;
        /// `andi rd, rs1, imm`
        andi => AluOp::And;
        /// `slli rd, rs1, shamt`
        slli => AluOp::Sll;
        /// `srli rd, rs1, shamt`
        srli => AluOp::Srl;
        /// `srai rd, rs1, shamt`
        srai => AluOp::Sra;
    }

    loads! {
        /// `lw rd, offset(base)`
        lw => LoadOp::Lw;
        /// `lh rd, offset(base)`
        lh => LoadOp::Lh;
        /// `lb rd, offset(base)`
        lb => LoadOp::Lb;
        /// `lhu rd, offset(base)`
        lhu => LoadOp::Lhu;
        /// `lbu rd, offset(base)`
        lbu => LoadOp::Lbu;
    }

    stores! {
        /// `sw src, offset(base)`
        sw => StoreOp::Sw;
        /// `sh src, offset(base)`
        sh => StoreOp::Sh;
        /// `sb src, offset(base)`
        sb => StoreOp::Sb;
    }

    branches! {
        /// `beq rs1, rs2, target`
        beq => BranchOp::Beq;
        /// `bne rs1, rs2, target`
        bne => BranchOp::Bne;
        /// `blt rs1, rs2, target`
        blt => BranchOp::Blt;
        /// `bge rs1, rs2, target`
        bge => BranchOp::Bge;
        /// `bltu rs1, rs2, target`
        bltu => BranchOp::Bltu;
        /// `bgeu rs1, rs2, target`
        bgeu => BranchOp::Bgeu;
    }

    /// `lui rd, imm` where `imm` is the value placed in the upper 20 bits
    /// (pass the full 32-bit value with low 12 bits zero).
    pub fn lui(&mut self, rd: Reg, imm: i32) {
        self.inst(Inst::Lui { rd, imm });
    }

    /// `auipc rd, imm`.
    pub fn auipc(&mut self, rd: Reg, imm: i32) {
        self.inst(Inst::Auipc { rd, imm });
    }

    /// `jal rd, target`.
    pub fn jal(&mut self, rd: Reg, target: Label) {
        self.push(Item::Jal { rd, target });
    }

    /// `jalr rd, offset(rs1)`.
    pub fn jalr(&mut self, rd: Reg, rs1: Reg, offset: i32) {
        self.inst(Inst::Jalr { rd, rs1, offset });
    }

    /// `ecall` — halts the current hardware thread in this workspace's
    /// bare-metal convention.
    pub fn ecall(&mut self) {
        self.inst(Inst::Ecall);
    }

    /// `ebreak`.
    pub fn ebreak(&mut self) {
        self.inst(Inst::Ebreak);
    }

    /// `fence`.
    pub fn fence(&mut self) {
        self.inst(Inst::Fence);
    }

    // ---- pseudo-instructions -------------------------------------------

    /// `nop`.
    pub fn nop(&mut self) {
        self.inst(Inst::NOP);
    }

    /// `li rd, value`: loads a 32-bit constant, expanding to `addi` or
    /// `lui`(+`addi`) as needed.
    pub fn li(&mut self, rd: Reg, value: i32) {
        if (-2048..=2047).contains(&value) {
            self.addi(rd, Reg::ZERO, value);
        } else {
            let hi = (value.wrapping_add(0x800) as u32) & 0xFFFF_F000;
            let lo = value.wrapping_sub(hi as i32);
            self.lui(rd, hi as i32);
            if lo != 0 {
                self.addi(rd, rd, lo);
            }
        }
    }

    /// `la rd, symbol`: loads a data symbol's address (fixed two-word
    /// `lui`+`addi` expansion, resolved at build time).
    pub fn la(&mut self, rd: Reg, symbol: &str) {
        self.push(Item::La {
            rd,
            symbol: symbol.to_string(),
        });
    }

    /// `mv rd, rs`.
    pub fn mv(&mut self, rd: Reg, rs: Reg) {
        self.addi(rd, rs, 0);
    }

    /// `not rd, rs`.
    pub fn not(&mut self, rd: Reg, rs: Reg) {
        self.xori(rd, rs, -1);
    }

    /// `neg rd, rs`.
    pub fn neg(&mut self, rd: Reg, rs: Reg) {
        self.sub(rd, Reg::ZERO, rs);
    }

    /// `seqz rd, rs`: set if zero.
    pub fn seqz(&mut self, rd: Reg, rs: Reg) {
        self.sltiu(rd, rs, 1);
    }

    /// `snez rd, rs`: set if nonzero.
    pub fn snez(&mut self, rd: Reg, rs: Reg) {
        self.sltu(rd, Reg::ZERO, rs);
    }

    /// `j target`: unconditional jump.
    pub fn j(&mut self, target: Label) {
        self.jal(Reg::ZERO, target);
    }

    /// `call target`: call linking through `ra`.
    pub fn call(&mut self, target: Label) {
        self.jal(Reg::RA, target);
    }

    /// `ret`: return through `ra`.
    pub fn ret(&mut self) {
        self.jalr(Reg::ZERO, Reg::RA, 0);
    }

    /// `jr rs`: indirect jump.
    pub fn jr(&mut self, rs: Reg) {
        self.jalr(Reg::ZERO, rs, 0);
    }

    /// `beqz rs, target`.
    pub fn beqz(&mut self, rs: Reg, target: Label) {
        self.beq(rs, Reg::ZERO, target);
    }

    /// `bnez rs, target`.
    pub fn bnez(&mut self, rs: Reg, target: Label) {
        self.bne(rs, Reg::ZERO, target);
    }

    /// `blez rs, target` (`rs <= 0`).
    pub fn blez(&mut self, rs: Reg, target: Label) {
        self.bge(Reg::ZERO, rs, target);
    }

    /// `bgez rs, target` (`rs >= 0`).
    pub fn bgez(&mut self, rs: Reg, target: Label) {
        self.bge(rs, Reg::ZERO, target);
    }

    /// `bltz rs, target` (`rs < 0`).
    pub fn bltz(&mut self, rs: Reg, target: Label) {
        self.blt(rs, Reg::ZERO, target);
    }

    /// `bgtz rs, target` (`rs > 0`).
    pub fn bgtz(&mut self, rs: Reg, target: Label) {
        self.blt(Reg::ZERO, rs, target);
    }

    /// `bgt rs1, rs2, target` (`rs1 > rs2`, signed).
    pub fn bgt(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.blt(rs2, rs1, target);
    }

    /// `ble rs1, rs2, target` (`rs1 <= rs2`, signed).
    pub fn ble(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.bge(rs2, rs1, target);
    }

    /// `bgtu rs1, rs2, target` (`rs1 > rs2`, unsigned).
    pub fn bgtu(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.bltu(rs2, rs1, target);
    }

    /// `bleu rs1, rs2, target` (`rs1 <= rs2`, unsigned).
    pub fn bleu(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.bgeu(rs2, rs1, target);
    }

    // ---- RV32F ----------------------------------------------------------

    /// `flw rd, offset(base)`.
    pub fn flw(&mut self, rd: FReg, base: Reg, offset: i32) {
        self.inst(Inst::Flw {
            rd,
            rs1: base,
            offset,
        });
    }

    /// `fsw src, offset(base)`.
    pub fn fsw(&mut self, src: FReg, base: Reg, offset: i32) {
        self.inst(Inst::Fsw {
            rs1: base,
            rs2: src,
            offset,
        });
    }

    fp3! {
        /// `fadd.s rd, rs1, rs2`
        fadd_s => FpOp::Add;
        /// `fsub.s rd, rs1, rs2`
        fsub_s => FpOp::Sub;
        /// `fmul.s rd, rs1, rs2`
        fmul_s => FpOp::Mul;
        /// `fdiv.s rd, rs1, rs2`
        fdiv_s => FpOp::Div;
        /// `fsgnj.s rd, rs1, rs2`
        fsgnj_s => FpOp::SgnJ;
        /// `fsgnjn.s rd, rs1, rs2`
        fsgnjn_s => FpOp::SgnJN;
        /// `fsgnjx.s rd, rs1, rs2`
        fsgnjx_s => FpOp::SgnJX;
        /// `fmin.s rd, rs1, rs2`
        fmin_s => FpOp::Min;
        /// `fmax.s rd, rs1, rs2`
        fmax_s => FpOp::Max;
    }

    /// `fsqrt.s rd, rs1`.
    pub fn fsqrt_s(&mut self, rd: FReg, rs1: FReg) {
        self.inst(Inst::FpOp {
            op: FpOp::Sqrt,
            rd,
            rs1,
            rs2: FReg::new(0),
        });
    }

    fp_fma! {
        /// `fmadd.s rd, rs1, rs2, rs3`: `rd = rs1 * rs2 + rs3`
        fmadd_s => FmaOp::MAdd;
        /// `fmsub.s rd, rs1, rs2, rs3`: `rd = rs1 * rs2 - rs3`
        fmsub_s => FmaOp::MSub;
        /// `fnmsub.s rd, rs1, rs2, rs3`: `rd = -(rs1 * rs2) + rs3`
        fnmsub_s => FmaOp::NMSub;
        /// `fnmadd.s rd, rs1, rs2, rs3`: `rd = -(rs1 * rs2) - rs3`
        fnmadd_s => FmaOp::NMAdd;
    }

    fp_cmp! {
        /// `feq.s rd, rs1, rs2`
        feq_s => FpCmpOp::Eq;
        /// `flt.s rd, rs1, rs2`
        flt_s => FpCmpOp::Lt;
        /// `fle.s rd, rs1, rs2`
        fle_s => FpCmpOp::Le;
    }

    /// `fcvt.w.s rd, rs1`: float → signed int.
    pub fn fcvt_w_s(&mut self, rd: Reg, rs1: FReg) {
        self.inst(Inst::FpToInt {
            op: FpToIntOp::CvtW,
            rd,
            rs1,
        });
    }

    /// `fcvt.wu.s rd, rs1`: float → unsigned int.
    pub fn fcvt_wu_s(&mut self, rd: Reg, rs1: FReg) {
        self.inst(Inst::FpToInt {
            op: FpToIntOp::CvtWu,
            rd,
            rs1,
        });
    }

    /// `fmv.x.w rd, rs1`: raw bit move FP → int.
    pub fn fmv_x_w(&mut self, rd: Reg, rs1: FReg) {
        self.inst(Inst::FpToInt {
            op: FpToIntOp::MvXW,
            rd,
            rs1,
        });
    }

    /// `fclass.s rd, rs1`.
    pub fn fclass_s(&mut self, rd: Reg, rs1: FReg) {
        self.inst(Inst::FpToInt {
            op: FpToIntOp::Class,
            rd,
            rs1,
        });
    }

    /// `fcvt.s.w rd, rs1`: signed int → float.
    pub fn fcvt_s_w(&mut self, rd: FReg, rs1: Reg) {
        self.inst(Inst::IntToFp {
            op: IntToFpOp::CvtW,
            rd,
            rs1,
        });
    }

    /// `fcvt.s.wu rd, rs1`: unsigned int → float.
    pub fn fcvt_s_wu(&mut self, rd: FReg, rs1: Reg) {
        self.inst(Inst::IntToFp {
            op: IntToFpOp::CvtWu,
            rd,
            rs1,
        });
    }

    /// `fmv.w.x rd, rs1`: raw bit move int → FP.
    pub fn fmv_w_x(&mut self, rd: FReg, rs1: Reg) {
        self.inst(Inst::IntToFp {
            op: IntToFpOp::MvWX,
            rd,
            rs1,
        });
    }

    /// `fmv.s rd, rs` (pseudo: `fsgnj.s rd, rs, rs`).
    pub fn fmv_s(&mut self, rd: FReg, rs: FReg) {
        self.fsgnj_s(rd, rs, rs);
    }

    /// `fabs.s rd, rs` (pseudo: `fsgnjx.s rd, rs, rs`).
    pub fn fabs_s(&mut self, rd: FReg, rs: FReg) {
        self.fsgnjx_s(rd, rs, rs);
    }

    /// `fneg.s rd, rs` (pseudo: `fsgnjn.s rd, rs, rs`).
    pub fn fneg_s(&mut self, rd: FReg, rs: FReg) {
        self.fsgnjn_s(rd, rs, rs);
    }

    /// `fli.s rd, value` (pseudo: loads an f32 constant through a temporary
    /// integer register).
    pub fn fli_s(&mut self, rd: FReg, tmp: Reg, value: f32) {
        self.li(tmp, value.to_bits() as i32);
        self.fmv_w_x(rd, tmp);
    }

    // ---- DiAG SIMT extension (paper §5.4) --------------------------------

    /// `simt_s rc, r_step, r_end, interval`: begins a thread-pipelined loop
    /// region (paper §5.4).
    pub fn simt_s(&mut self, rc: Reg, r_step: Reg, r_end: Reg, interval: u8) {
        self.inst(Inst::SimtS {
            rc,
            r_step,
            r_end,
            interval,
        });
    }

    /// `simt_e rc, r_end, start`: ends the pipelined region started at the
    /// `start` label (the encoded `l_offset` is computed at build time).
    pub fn simt_e(&mut self, rc: Reg, r_end: Reg, start: Label) {
        self.push(Item::SimtE {
            rc,
            r_end,
            target: start,
        });
    }

    // ---- finalization ----------------------------------------------------

    /// Resolves all labels and symbols and produces the program image.
    ///
    /// # Errors
    ///
    /// Returns an error if a referenced label was never bound, a branch or
    /// jump target is out of encodable range, or a `la` references an
    /// undefined symbol.
    pub fn build(self) -> Result<Program, AsmError> {
        let mut text = Vec::with_capacity(self.next_pos as usize);
        let resolve = |label: Label| -> Result<u32, AsmError> {
            self.labels[label.0].ok_or_else(|| AsmError::UnboundLabel {
                label: self.label_names[label.0]
                    .clone()
                    .unwrap_or_else(|| format!("L{}", label.0)),
            })
        };
        for (item, &pos) in self.items.iter().zip(&self.positions) {
            let pc = TEXT_BASE + pos * INST_BYTES;
            match item {
                Item::Fixed(inst) => text.push(encode(inst)),
                Item::Branch {
                    op,
                    rs1,
                    rs2,
                    target,
                } => {
                    let dest = TEXT_BASE + resolve(*target)? * INST_BYTES;
                    let offset = dest as i64 - pc as i64;
                    if !(-4096..=4094).contains(&offset) {
                        return Err(AsmError::OffsetOutOfRange {
                            mnemonic: "branch",
                            offset,
                            limit: 4096,
                        });
                    }
                    text.push(encode(&Inst::Branch {
                        op: *op,
                        rs1: *rs1,
                        rs2: *rs2,
                        offset: offset as i32,
                    }));
                }
                Item::Jal { rd, target } => {
                    let dest = TEXT_BASE + resolve(*target)? * INST_BYTES;
                    let offset = dest as i64 - pc as i64;
                    if !(-(1 << 20)..(1 << 20)).contains(&offset) {
                        return Err(AsmError::OffsetOutOfRange {
                            mnemonic: "jal",
                            offset,
                            limit: 1 << 20,
                        });
                    }
                    text.push(encode(&Inst::Jal {
                        rd: *rd,
                        offset: offset as i32,
                    }));
                }
                Item::La { rd, symbol } => {
                    let addr =
                        *self
                            .symbols
                            .get(symbol)
                            .ok_or_else(|| AsmError::UndefinedSymbol {
                                name: symbol.clone(),
                            })? as i32;
                    let hi = (addr.wrapping_add(0x800) as u32) & 0xFFFF_F000;
                    let lo = addr.wrapping_sub(hi as i32);
                    text.push(encode(&Inst::Lui {
                        rd: *rd,
                        imm: hi as i32,
                    }));
                    text.push(encode(&Inst::OpImm {
                        op: AluOp::Add,
                        rd: *rd,
                        rs1: *rd,
                        imm: lo,
                    }));
                }
                Item::SimtE { rc, r_end, target } => {
                    let dest = TEXT_BASE + resolve(*target)? * INST_BYTES;
                    let offset = dest as i64 - pc as i64;
                    if !(-2048..=2047).contains(&offset) {
                        return Err(AsmError::OffsetOutOfRange {
                            mnemonic: "simt_e",
                            offset,
                            limit: 2048,
                        });
                    }
                    text.push(encode(&Inst::SimtE {
                        rc: *rc,
                        r_end: *r_end,
                        l_offset: offset as i32,
                    }));
                }
            }
        }
        validate_static_targets(&text)?;
        Ok(Program::from_parts(
            text,
            TEXT_BASE,
            self.data,
            DATA_BASE,
            TEXT_BASE,
            self.symbols,
        ))
    }
}

/// Rejects control transfers whose statically-known target is unaligned or
/// outside the text segment. Label-resolved items can only go wrong through
/// raw [`ProgramBuilder::inst`] pushes or numeric offsets, but either way the
/// program would fault at runtime with `PcOutOfRange` — fail assembly instead.
fn validate_static_targets(text: &[u32]) -> Result<(), AsmError> {
    let text_end = TEXT_BASE + (text.len() as u32) * INST_BYTES;
    for (i, &word) in text.iter().enumerate() {
        let Ok(inst) = decode(word) else { continue };
        let pc = TEXT_BASE + (i as u32) * INST_BYTES;
        let (mnemonic, target) = match inst.control_flow() {
            ControlFlow::Branch { offset } => ("branch", pc.wrapping_add(offset as u32)),
            ControlFlow::Jump { offset, .. } => ("jal", pc.wrapping_add(offset as u32)),
            // simt_e resumes at the instruction after the paired simt_s, so
            // the simt_s itself must be in text.
            ControlFlow::SimtLoop { l_offset } => ("simt_e", pc.wrapping_add(l_offset as u32)),
            _ => continue,
        };
        if target < TEXT_BASE || target >= text_end || !target.is_multiple_of(INST_BYTES) {
            return Err(AsmError::TargetOutOfText {
                mnemonic,
                pc,
                target,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use diag_isa::decode;
    use diag_isa::regs::*;

    #[test]
    fn forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        let end = b.new_label();
        let top = b.bind_new_label();
        b.addi(A0, A0, -1);
        b.beqz(A0, end);
        b.j(top);
        b.bind(end);
        b.ecall();
        let p = b.build().unwrap();
        // beqz at word 1 targets word 3: offset +8.
        match p.decode_at(p.text_base() + 4).unwrap() {
            Inst::Branch { offset, .. } => assert_eq!(offset, 8),
            other => panic!("unexpected {other:?}"),
        }
        // j at word 2 targets word 0: offset -8.
        match p.decode_at(p.text_base() + 8).unwrap() {
            Inst::Jal { offset, .. } => assert_eq!(offset, -8),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_text_branch_rejected() {
        // A raw branch past the end of text would fault at runtime with
        // PcOutOfRange; the builder must reject it at assembly time.
        let mut b = ProgramBuilder::new();
        b.inst(Inst::Branch {
            op: BranchOp::Beq,
            rs1: A0,
            rs2: A1,
            offset: 64,
        });
        b.ecall();
        match b.build() {
            Err(AsmError::TargetOutOfText {
                mnemonic: "branch",
                pc,
                target,
            }) => {
                assert_eq!(pc, TEXT_BASE);
                assert_eq!(target, TEXT_BASE + 64);
            }
            other => panic!("expected TargetOutOfText, got {other:?}"),
        }
    }

    #[test]
    fn before_text_jump_rejected() {
        let mut b = ProgramBuilder::new();
        b.inst(Inst::Jal {
            rd: ZERO,
            offset: -8,
        });
        b.ecall();
        assert!(matches!(
            b.build(),
            Err(AsmError::TargetOutOfText {
                mnemonic: "jal",
                ..
            })
        ));
    }

    #[test]
    fn misaligned_target_rejected() {
        let mut b = ProgramBuilder::new();
        b.ecall();
        b.inst(Inst::Jal {
            rd: ZERO,
            offset: -2,
        });
        b.ecall();
        assert!(matches!(b.build(), Err(AsmError::TargetOutOfText { .. })));
    }

    #[test]
    fn out_of_text_simt_e_rejected() {
        let mut b = ProgramBuilder::new();
        b.inst(Inst::SimtE {
            rc: T0,
            r_end: T1,
            l_offset: -64,
        });
        b.ecall();
        assert!(matches!(
            b.build(),
            Err(AsmError::TargetOutOfText {
                mnemonic: "simt_e",
                ..
            })
        ));
    }

    #[test]
    fn named_labels_become_symbols() {
        let mut b = ProgramBuilder::new();
        b.nop();
        let l = b.new_named_label("loop_head");
        b.bind(l);
        b.ecall();
        let p = b.build().unwrap();
        assert_eq!(p.symbol("loop_head"), Some(TEXT_BASE + 4));
        assert_eq!(p.describe_addr(TEXT_BASE + 4), "0x1004 <loop_head>");
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        let never = b.new_named_label("never");
        b.j(never);
        match b.build() {
            Err(AsmError::UnboundLabel { label }) => assert_eq!(label, "never"),
            other => panic!("expected UnboundLabel, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn rebinding_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.bind_new_label();
        b.bind(l);
    }

    #[test]
    fn li_expansion() {
        let mut b = ProgramBuilder::new();
        b.li(A0, 5); // 1 word
        b.li(A1, 0x12345); // 2 words
        b.li(A2, 0x1000); // lui only, 1 word
        b.li(A3, -4096); // lui only (0xFFFFF000)
        let p = b.build().unwrap();
        assert_eq!(p.text_len(), 5);
        // Verify li semantics by symbolic evaluation.
        let mut regs = [0u32; 32];
        let mut i = 0;
        while i < p.text_len() {
            let inst = p.decode_at(p.text_base() + (i as u32) * 4).unwrap();
            match inst {
                Inst::Lui { rd, imm } => regs[rd.number() as usize] = imm as u32,
                Inst::OpImm { rd, rs1, imm, .. } => {
                    regs[rd.number() as usize] =
                        regs[rs1.number() as usize].wrapping_add(imm as u32)
                }
                other => panic!("unexpected {other:?}"),
            }
            i += 1;
        }
        assert_eq!(regs[10], 5);
        assert_eq!(regs[11], 0x12345);
        assert_eq!(regs[12], 0x1000);
        assert_eq!(regs[13] as i32, -4096);
    }

    #[test]
    fn la_resolves_data_symbols() {
        let mut b = ProgramBuilder::new();
        let addr = b.data_words("table", &[1, 2, 3]);
        b.la(A0, "table");
        b.ecall();
        let p = b.build().unwrap();
        assert_eq!(p.symbol("table"), Some(addr));
        // Evaluate the lui+addi pair (la always emits two words).
        let hi = match p.decode_at(p.text_base()).unwrap() {
            Inst::Lui { imm, .. } => imm as u32,
            other => panic!("unexpected {other:?}"),
        };
        let result = match p.decode_at(p.text_base() + 4).unwrap() {
            Inst::OpImm { imm, .. } => hi.wrapping_add(imm as u32),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(result, addr);
    }

    #[test]
    fn la_undefined_symbol_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.la(A0, "missing");
        assert_eq!(
            b.build().unwrap_err(),
            AsmError::UndefinedSymbol {
                name: "missing".to_string()
            }
        );
    }

    #[test]
    fn data_alignment() {
        let mut b = ProgramBuilder::new();
        b.data_bytes("b", &[1]);
        let w = b.data_words("w", &[7]);
        assert_eq!(w % 4, 0);
        let f = b.data_floats("f", &[1.5]);
        assert_eq!(f % 4, 0);
        let p = b.build().unwrap();
        let off = (w - p.data_base()) as usize;
        assert_eq!(&p.data()[off..off + 4], &7u32.to_le_bytes());
    }

    #[test]
    fn branch_out_of_range_detected() {
        let mut b = ProgramBuilder::new();
        let far = b.new_label();
        b.beq(A0, A1, far);
        for _ in 0..2000 {
            b.nop();
        }
        b.bind(far);
        b.ecall();
        match b.build() {
            Err(AsmError::OffsetOutOfRange {
                mnemonic: "branch", ..
            }) => {}
            other => panic!("expected OffsetOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn simt_e_offset_points_back_to_simt_s() {
        let mut b = ProgramBuilder::new();
        let start = b.bind_new_label();
        b.simt_s(T0, T1, T2, 1);
        b.add(A0, A0, T0);
        b.simt_e(T0, T2, start);
        let p = b.build().unwrap();
        match p.decode_at(p.text_base() + 8).unwrap() {
            Inst::SimtE { l_offset, .. } => assert_eq!(l_offset, -8),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pseudo_instructions_encode() {
        let mut b = ProgramBuilder::new();
        b.mv(A0, A1);
        b.not(A0, A0);
        b.neg(A0, A0);
        b.seqz(A0, A1);
        b.snez(A0, A1);
        b.ret();
        let p = b.build().unwrap();
        assert_eq!(p.text_len(), 6);
        for i in 0..6 {
            assert!(decode(p.text()[i]).is_ok());
        }
        assert_eq!(
            p.decode_at(p.text_base() + 20).unwrap(),
            Inst::Jalr {
                rd: ZERO,
                rs1: RA,
                offset: 0
            }
        );
    }

    #[test]
    fn fli_loads_float_constant() {
        let mut b = ProgramBuilder::new();
        b.fli_s(FReg::new(0), T0, 3.25);
        let p = b.build().unwrap();
        // li t0, bits; fmv.w.x ft0, t0
        let bits = 3.25f32.to_bits();
        let mut t0 = 0u32;
        for i in 0..p.text_len() {
            match p.decode_at(p.text_base() + (i as u32) * 4).unwrap() {
                Inst::Lui { imm, .. } => t0 = imm as u32,
                Inst::OpImm { imm, .. } => t0 = t0.wrapping_add(imm as u32),
                Inst::IntToFp { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(t0, bits);
    }
}
