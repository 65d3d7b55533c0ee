//! Static register-usage analysis (§6.1.1 of the paper).
//!
//! "These effects are strongly dependent, however, on the quality of live
//! register allocation and management (a function of the compiler) and
//! the size of the register file." The paper cites Springer's study of
//! register usage on a PowerPC 750 (4–5 of 64 registers live without
//! optimisation, 14–15 with `-O`) and observes that x87 code "generally
//! uses only four of the registers in the stack."
//!
//! This module scans a compiled image and reports, per general-purpose
//! register, how many text-section instructions *reference* it — the
//! static pressure that predicts the per-register fault sensitivity the
//! campaigns measure dynamically.

use fl_isa::insn::{FpuBinOp, FpuUnOp};
use fl_isa::{decode_at, Gpr, Insn};
use fl_machine::ProgramImage;
use std::fmt::Write as _;

/// Static usage counts per register over the application text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegisterPressure {
    /// Per-GPR reference counts, indexed by [`Gpr`] encoding.
    pub gpr_refs: [u32; 8],
    /// Instructions that touch the FPU stack.
    pub fpu_insns: u32,
    /// Total decodable instructions scanned.
    pub total_insns: u32,
    /// Instructions with at least one GPR operand (excluding the
    /// implicit ESP/EBP of push/pop/call/frame instructions).
    pub gpr_insns: u32,
}

fn regs_of(insn: &Insn) -> (Vec<Gpr>, bool) {
    use Insn::*;
    let mut gprs = Vec::new();
    let mut fpu = false;
    match *insn {
        Nop | Ret | Leave | Halt | J { .. } | Call { .. } | Enter { .. } | Sys { .. } => {}
        MovI { rd, .. } => gprs.push(rd),
        Mov { rd, rs } => gprs.extend([rd, rs]),
        Alu { rd, ra, rb, .. } => gprs.extend([rd, ra, rb]),
        AddI { rd, ra, .. } | MulI { rd, ra, .. } => gprs.extend([rd, ra]),
        Cmp { ra, rb } => gprs.extend([ra, rb]),
        CmpI { ra, .. } => gprs.push(ra),
        JmpR { rs } | CallR { rs } | Push { rs } => gprs.push(rs),
        Pop { rd } => gprs.push(rd),
        Ld { rd, base, .. } | LdB { rd, base, .. } => gprs.extend([rd, base]),
        St { rb, base, .. } | StB { rb, base, .. } => gprs.extend([rb, base]),
        LdG { rd, .. } => gprs.push(rd),
        StG { rs, .. } => gprs.push(rs),
        Fld { base, .. }
        | Fst { base, .. }
        | Fstp { base, .. }
        | Fild { base, .. }
        | Fistp { base, .. } => {
            gprs.push(base);
            fpu = true;
        }
        FldG { .. } | FstpG { .. } | Fldz | Fld1 | Fcomip | Fpop | Fxch { .. } | FldSt { .. } => {
            fpu = true
        }
        FildR { rs } => {
            gprs.push(rs);
            fpu = true;
        }
        FistpR { rd } => {
            gprs.push(rd);
            fpu = true;
        }
        Fbinp { op: FpuBinOp::Add }
        | Fbinp { op: FpuBinOp::Sub }
        | Fbinp { op: FpuBinOp::SubR }
        | Fbinp { op: FpuBinOp::Mul }
        | Fbinp { op: FpuBinOp::Div }
        | Fbinp { op: FpuBinOp::DivR } => fpu = true,
        Funop { op: FpuUnOp::Chs }
        | Funop { op: FpuUnOp::Abs }
        | Funop { op: FpuUnOp::Sqrt }
        | Funop { op: FpuUnOp::Sin }
        | Funop { op: FpuUnOp::Cos }
        | Funop { op: FpuUnOp::Exp }
        | Funop { op: FpuUnOp::Ln } => fpu = true,
    }
    (gprs, fpu)
}

/// A text bank as the instruction words it holds.
fn words(bank: &[u8]) -> Vec<u32> {
    bank.chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Scan an image's application text.
pub fn analyze_image(image: &ProgramImage) -> RegisterPressure {
    let words = words(&image.text);
    let mut p = RegisterPressure::default();
    let mut idx = 0;
    while idx < words.len() {
        match decode_at(&words, idx) {
            Ok((insn, len)) => {
                p.total_insns += 1;
                let (gprs, fpu) = regs_of(&insn);
                if !gprs.is_empty() {
                    p.gpr_insns += 1;
                }
                for g in gprs {
                    p.gpr_refs[g.index() as usize] += 1;
                }
                if fpu {
                    p.fpu_insns += 1;
                }
                idx += len;
            }
            Err(_) => idx += 1,
        }
    }
    p
}

/// The GPRs some word of either text bank of `image` reads when decoded
/// as an instruction ([`Insn::gpr_reads`]), as a mask of bits `1 <<
/// Gpr::index()`. Every word is decoded, the second word of a two-word
/// instruction included, so whatever a run of the image executes in its
/// own text, it reads no register outside the mask.
pub(crate) fn gprs_read(image: &ProgramImage) -> u8 {
    let mut mask = 0;
    for bank in [&image.text, &image.lib_text] {
        let words = words(bank);
        for idx in 0..words.len() {
            if let Ok((insn, _)) = decode_at(&words, idx) {
                mask |= insn.gpr_reads();
            }
        }
    }
    mask
}

/// Render the analysis as text.
pub fn render_register_pressure(image: &ProgramImage) -> String {
    let p = analyze_image(image);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Static register pressure over {} decoded instructions",
        p.total_insns
    );
    let _ = writeln!(out, "{:<6} {:>8} {:>9}", "reg", "refs", "refs/insn");
    for g in Gpr::ALL {
        let refs = p.gpr_refs[g.index() as usize];
        let _ = writeln!(
            out,
            "{:<6} {:>8} {:>9.3}",
            g.to_string(),
            refs,
            refs as f64 / p.total_insns.max(1) as f64
        );
    }
    let _ = writeln!(
        out,
        "FPU-stack instructions: {} ({:.1}% of text)",
        p.fpu_insns,
        100.0 * p.fpu_insns as f64 / p.total_insns.max(1) as f64
    );
    let _ = writeln!(
        out,
        "\nNote: ESP and EBP are additionally live in EVERY instruction\n\
         (stack discipline + frame chain), beyond these explicit counts —\n\
         the §6.1.1 explanation for the integer register file's 38-63%\n\
         fault manifestation rate."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_apps::{App, AppKind, AppParams};

    #[test]
    fn scratch_registers_dominate_compiled_code() {
        let img = fl_lang::compile(
            "global float t[32];
             fn work(int n) -> float {
                 var float acc;
                 var int i;
                 acc = 0.0;
                 for (i = 0; i < n; i = i + 1) { acc = acc + t[i % 32] * 1.5; }
                 return acc;
             }
             fn main() { print_flt(work(10), 3); }",
        )
        .unwrap();
        let p = analyze_image(&img);
        assert!(p.total_insns > 40);
        let eax = p.gpr_refs[Gpr::Eax.index() as usize];
        let edi = p.gpr_refs[Gpr::Edi.index() as usize];
        // The stack-machine codegen leans on EAX; EDI is essentially
        // unused — the static shape behind differential sensitivity.
        assert!(eax > 10 * (edi + 1), "eax {eax} vs edi {edi}");
        assert!(p.fpu_insns > 0);
    }

    #[test]
    fn an_image_that_reads_edi_keeps_it_live() {
        use fl_isa::encode;
        let edi = 1 << Gpr::Edi.index();
        for kind in [AppKind::Wavetoy, AppKind::Jacobi3d] {
            let mut img = App::build(kind, AppParams::tiny(kind)).image;
            let read = gprs_read(&img);
            // The compiled apps and the library never read EDI; every
            // stack instruction reads ESP, every syscall EAX.
            assert_eq!(read & edi, 0, "{kind}");
            assert_ne!(read & 1 << Gpr::Esp.index(), 0, "{kind}");
            assert_ne!(read & 1 << Gpr::Eax.index(), 0, "{kind}");
            // One word anywhere in the library text that reads EDI.
            let mov = Insn::Mov {
                rd: Gpr::Eax,
                rs: Gpr::Edi,
            };
            img.lib_text.extend(encode(&mov).to_bytes());
            assert_eq!(gprs_read(&img), read | edi, "{kind}");
        }
    }

    #[test]
    fn renders() {
        let img = fl_lang::compile("fn main() { print_int(1); }").unwrap();
        let text = render_register_pressure(&img);
        assert!(text.contains("eax"));
        assert!(text.contains("FPU-stack"));
    }
}
