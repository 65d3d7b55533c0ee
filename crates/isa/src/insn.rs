//! Decoded instruction representation and branch conditions.

use crate::opcode::Opcode;
use crate::reg::Gpr;
use std::fmt;

/// Branch conditions for the `J` instruction, encoded in its `ra` field.
///
/// Signed conditions (`Lt`/`Le`/`Gt`/`Ge`) follow integer `CMP`; unsigned
/// conditions (`B`/`Ae`) follow x87 `FCOMIP`, which reports through CF/ZF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Cond {
    /// Unconditional.
    Always = 0,
    /// ZF set.
    Eq = 1,
    /// ZF clear.
    Ne = 2,
    /// Signed less-than (SF != OF).
    Lt = 3,
    /// Signed less-or-equal (ZF or SF != OF).
    Le = 4,
    /// Signed greater-than.
    Gt = 5,
    /// Signed greater-or-equal.
    Ge = 6,
    /// Unsigned below (CF set) — used after `FCOMIP`.
    B = 7,
    /// Unsigned above-or-equal (CF clear).
    Ae = 8,
    /// Unsigned below-or-equal (CF or ZF).
    Be = 9,
    /// Unsigned above (neither CF nor ZF).
    A = 10,
}

impl Cond {
    /// Decode a 4-bit condition field. Out-of-range values (11–15) decode
    /// to `None`, which the machine treats as an illegal instruction.
    pub fn from_index(i: u8) -> Option<Cond> {
        use Cond::*;
        Some(match i {
            0 => Always,
            1 => Eq,
            2 => Ne,
            3 => Lt,
            4 => Le,
            5 => Gt,
            6 => Ge,
            7 => B,
            8 => Ae,
            9 => Be,
            10 => A,
            _ => return None,
        })
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Always => "mp",
            Cond::Eq => "e",
            Cond::Ne => "ne",
            Cond::Lt => "l",
            Cond::Le => "le",
            Cond::Gt => "g",
            Cond::Ge => "ge",
            Cond::B => "b",
            Cond::Ae => "ae",
            Cond::Be => "be",
            Cond::A => "a",
        };
        f.write_str(s)
    }
}

/// A decoded FaultLab instruction.
///
/// Field conventions: `rd` destination, `ra`/`rb`/`rs` sources, `base` an
/// address register, `off` a sign-extended 12-bit displacement, `imm` a
/// 32-bit immediate from the trailing word.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Insn {
    /// No operation.
    Nop,
    /// `rd <- imm`.
    MovI { rd: Gpr, imm: u32 },
    /// `rd <- rs`.
    Mov { rd: Gpr, rs: Gpr },
    /// Three-operand integer ALU operation.
    Alu {
        op: AluOp,
        rd: Gpr,
        ra: Gpr,
        rb: Gpr,
    },
    /// `rd <- ra + imm`.
    AddI { rd: Gpr, ra: Gpr, imm: u32 },
    /// `rd <- ra * imm`.
    MulI { rd: Gpr, ra: Gpr, imm: u32 },
    /// Compare registers, set EFLAGS.
    Cmp { ra: Gpr, rb: Gpr },
    /// Compare register with immediate, set EFLAGS.
    CmpI { ra: Gpr, imm: u32 },
    /// Conditional jump to absolute address `target`.
    J { cond: Cond, target: u32 },
    /// Indirect jump.
    JmpR { rs: Gpr },
    /// `rd <- mem32[base + off]`.
    Ld { rd: Gpr, base: Gpr, off: i32 },
    /// `mem32[base + off] <- rb`.
    St { rb: Gpr, base: Gpr, off: i32 },
    /// `rd <- mem32[addr]`.
    LdG { rd: Gpr, addr: u32 },
    /// `mem32[addr] <- rs`.
    StG { rs: Gpr, addr: u32 },
    /// `rd <- zx(mem8[base + off])`.
    LdB { rd: Gpr, base: Gpr, off: i32 },
    /// `mem8[base + off] <- rb & 0xff`.
    StB { rb: Gpr, base: Gpr, off: i32 },
    /// Push `rs`.
    Push { rs: Gpr },
    /// Pop into `rd`.
    Pop { rd: Gpr },
    /// Direct call.
    Call { target: u32 },
    /// Indirect call.
    CallR { rs: Gpr },
    /// Return.
    Ret,
    /// Prologue: push EBP; EBP <- ESP; ESP -= frame.
    Enter { frame: u32 },
    /// Epilogue: ESP <- EBP; pop EBP.
    Leave,
    /// System call with 12-bit number.
    Sys { num: u16 },
    /// Halt; exit status in EAX.
    Halt,

    /// Push f64 from `[base + off]`.
    Fld { base: Gpr, off: i32 },
    /// Push f64 from absolute `addr`.
    FldG { addr: u32 },
    /// Store st0 (no pop) to `[base + off]`.
    Fst { base: Gpr, off: i32 },
    /// Store st0 and pop.
    Fstp { base: Gpr, off: i32 },
    /// Store st0 to absolute `addr` and pop.
    FstpG { addr: u32 },
    /// Push i32 from memory, converted.
    Fild { base: Gpr, off: i32 },
    /// Round st0 to i32, store, pop.
    Fistp { base: Gpr, off: i32 },
    /// Push the value of a GPR, converted.
    FildR { rs: Gpr },
    /// Pop st0 as i32 into a GPR.
    FistpR { rd: Gpr },
    /// Push +0.0.
    Fldz,
    /// Push +1.0.
    Fld1,
    /// FPU stack arithmetic: st1 <- st1 op st0; pop.
    Fbinp { op: FpuBinOp },
    /// Unary operation on st0.
    Funop { op: FpuUnOp },
    /// Exchange st0 and st(i).
    Fxch { i: u8 },
    /// Push a copy of st(i).
    FldSt { i: u8 },
    /// Compare st0 with st1 into EFLAGS, pop.
    Fcomip,
    /// Free st0.
    Fpop,
}

/// Integer ALU operations folded into [`Insn::Alu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Sar,
}

/// FPU binary stack operations folded into [`Insn::Fbinp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuBinOp {
    Add,
    Sub,
    SubR,
    Mul,
    Div,
    DivR,
}

/// FPU unary operations folded into [`Insn::Funop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuUnOp {
    Chs,
    Abs,
    Sqrt,
    Sin,
    Cos,
    Exp,
    Ln,
}

impl Insn {
    /// The opcode under which this instruction encodes.
    pub fn opcode(&self) -> Opcode {
        match self {
            Insn::Nop => Opcode::Nop,
            Insn::MovI { .. } => Opcode::MovI,
            Insn::Mov { .. } => Opcode::Mov,
            Insn::Alu { op, .. } => match op {
                AluOp::Add => Opcode::Add,
                AluOp::Sub => Opcode::Sub,
                AluOp::Mul => Opcode::Mul,
                AluOp::Div => Opcode::Div,
                AluOp::Mod => Opcode::Mod,
                AluOp::And => Opcode::And,
                AluOp::Or => Opcode::Or,
                AluOp::Xor => Opcode::Xor,
                AluOp::Shl => Opcode::Shl,
                AluOp::Shr => Opcode::Shr,
                AluOp::Sar => Opcode::Sar,
            },
            Insn::AddI { .. } => Opcode::AddI,
            Insn::MulI { .. } => Opcode::MulI,
            Insn::Cmp { .. } => Opcode::Cmp,
            Insn::CmpI { .. } => Opcode::CmpI,
            Insn::J { .. } => Opcode::J,
            Insn::JmpR { .. } => Opcode::JmpR,
            Insn::Ld { .. } => Opcode::Ld,
            Insn::St { .. } => Opcode::St,
            Insn::LdG { .. } => Opcode::LdG,
            Insn::StG { .. } => Opcode::StG,
            Insn::LdB { .. } => Opcode::LdB,
            Insn::StB { .. } => Opcode::StB,
            Insn::Push { .. } => Opcode::Push,
            Insn::Pop { .. } => Opcode::Pop,
            Insn::Call { .. } => Opcode::Call,
            Insn::CallR { .. } => Opcode::CallR,
            Insn::Ret => Opcode::Ret,
            Insn::Enter { .. } => Opcode::Enter,
            Insn::Leave => Opcode::Leave,
            Insn::Sys { .. } => Opcode::Sys,
            Insn::Halt => Opcode::Halt,
            Insn::Fld { .. } => Opcode::Fld,
            Insn::FldG { .. } => Opcode::FldG,
            Insn::Fst { .. } => Opcode::Fst,
            Insn::Fstp { .. } => Opcode::Fstp,
            Insn::FstpG { .. } => Opcode::FstpG,
            Insn::Fild { .. } => Opcode::Fild,
            Insn::Fistp { .. } => Opcode::Fistp,
            Insn::FildR { .. } => Opcode::FildR,
            Insn::FistpR { .. } => Opcode::FistpR,
            Insn::Fldz => Opcode::Fldz,
            Insn::Fld1 => Opcode::Fld1,
            Insn::Fbinp { op } => match op {
                FpuBinOp::Add => Opcode::Faddp,
                FpuBinOp::Sub => Opcode::Fsubp,
                FpuBinOp::SubR => Opcode::Fsubrp,
                FpuBinOp::Mul => Opcode::Fmulp,
                FpuBinOp::Div => Opcode::Fdivp,
                FpuBinOp::DivR => Opcode::Fdivrp,
            },
            Insn::Funop { op } => match op {
                FpuUnOp::Chs => Opcode::Fchs,
                FpuUnOp::Abs => Opcode::Fabs,
                FpuUnOp::Sqrt => Opcode::Fsqrt,
                FpuUnOp::Sin => Opcode::Fsin,
                FpuUnOp::Cos => Opcode::Fcos,
                FpuUnOp::Exp => Opcode::Fexp,
                FpuUnOp::Ln => Opcode::Fln,
            },
            Insn::Fxch { .. } => Opcode::Fxch,
            Insn::FldSt { .. } => Opcode::FldSt,
            Insn::Fcomip => Opcode::Fcomip,
            Insn::Fpop => Opcode::Fpop,
        }
    }

    /// The general-purpose registers executing the instruction reads, as
    /// a mask of bits `1 << Gpr::index()`: its source and address
    /// operands, ESP for every instruction that pushes or pops, EBP for
    /// `enter` and `leave`, EAX for `halt` (the exit status), and for
    /// `sys` the registers the trap's services read ([`SYS_ARGS`]). A
    /// register no instruction of a program reads is never read by it.
    ///
    /// [`SYS_ARGS`]: crate::syscall::SYS_ARGS
    pub fn gpr_reads(&self) -> u8 {
        use crate::syscall::SYS_ARGS;
        use Insn::*;
        let regs: &[Gpr] = match self {
            Nop | MovI { .. } | J { .. } | LdG { .. } | FistpR { .. } => &[],
            Mov { rs, .. } | JmpR { rs } | StG { rs, .. } | FildR { rs } => &[*rs],
            Alu { ra, rb, .. } | Cmp { ra, rb } => &[*ra, *rb],
            AddI { ra, .. } | MulI { ra, .. } | CmpI { ra, .. } => &[*ra],
            Ld { base, .. } | LdB { base, .. } => &[*base],
            St { rb, base, .. } | StB { rb, base, .. } => &[*rb, *base],
            Push { rs } | CallR { rs } => &[*rs, Gpr::Esp],
            Pop { .. } | Call { .. } | Ret => &[Gpr::Esp],
            Enter { .. } | Leave => &[Gpr::Ebp, Gpr::Esp],
            Sys { .. } => &SYS_ARGS,
            Halt => &[Gpr::Eax],
            Fld { base, .. }
            | Fst { base, .. }
            | Fstp { base, .. }
            | Fild { base, .. }
            | Fistp { base, .. } => &[*base],
            FldG { .. } | FstpG { .. } | Fldz | Fld1 | Fbinp { .. } | Funop { .. } => &[],
            Fxch { .. } | FldSt { .. } | Fcomip | Fpop => &[],
        };
        regs.iter().fold(0, |m, r| m | 1 << r.index())
    }

    /// Length in 32-bit words when encoded.
    pub fn encoded_words(&self) -> usize {
        if self.opcode().has_imm_word() {
            2
        } else {
            1
        }
    }

    /// Whether this instruction transfers control (ends a basic block).
    /// The machine's basic-block counter — the time axis of the paper's
    /// working-set plots (Tables 5–7) — increments on these.
    pub fn is_block_end(&self) -> bool {
        matches!(
            self,
            Insn::J { .. }
                | Insn::JmpR { .. }
                | Insn::Call { .. }
                | Insn::CallR { .. }
                | Insn::Ret
                | Insn::Halt
                | Insn::Sys { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_roundtrip() {
        for i in 0..11u8 {
            let c = Cond::from_index(i).unwrap();
            assert_eq!(c as u8, i);
        }
        for i in 11..16u8 {
            assert!(Cond::from_index(i).is_none());
        }
    }

    #[test]
    fn block_end_classification() {
        assert!(Insn::Ret.is_block_end());
        assert!(Insn::Halt.is_block_end());
        assert!(Insn::J {
            cond: Cond::Eq,
            target: 0
        }
        .is_block_end());
        assert!(!Insn::Nop.is_block_end());
        assert!(!Insn::Fldz.is_block_end());
    }

    #[test]
    fn reads_name_sources_and_implicit_registers_only() {
        use crate::syscall::SYS_ARGS;
        let mask = |regs: &[Gpr]| regs.iter().fold(0u8, |m, r| m | 1 << r.index());
        let (eax, edi) = (Gpr::Eax, Gpr::Edi);
        assert_eq!(Insn::Mov { rd: eax, rs: edi }.gpr_reads(), mask(&[edi]));
        assert_eq!(Insn::MovI { rd: edi, imm: 1 }.gpr_reads(), 0);
        assert_eq!(Insn::Push { rs: edi }.gpr_reads(), mask(&[edi, Gpr::Esp]));
        assert_eq!(Insn::Pop { rd: edi }.gpr_reads(), mask(&[Gpr::Esp]));
        assert_eq!(Insn::Sys { num: 0 }.gpr_reads(), mask(&SYS_ARGS));
        assert_eq!(Insn::Halt.gpr_reads(), mask(&[eax]));
        assert_eq!(Insn::FistpR { rd: edi }.gpr_reads(), 0);
    }

    #[test]
    fn encoded_words_match_opcode_flag() {
        assert_eq!(
            Insn::MovI {
                rd: Gpr::Eax,
                imm: 7
            }
            .encoded_words(),
            2
        );
        assert_eq!(
            Insn::Mov {
                rd: Gpr::Eax,
                rs: Gpr::Ebx
            }
            .encoded_words(),
            1
        );
        assert_eq!(Insn::Call { target: 0x08048000 }.encoded_words(), 2);
    }
}
