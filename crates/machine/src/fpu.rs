//! x87 FPU state: eight 80-bit data registers organised as a stack, plus
//! the seven special-purpose registers the paper injected into (§6.1.1):
//! CWD, SWD, TWD, FIP, FCS, FOO and FOS.
//!
//! Semantics reproduced from the paper's findings:
//!
//! * The **TOP** field lives in bits 11–13 of SWD; a fault there rotates
//!   the whole register stack.
//! * **TWD** holds two tag bits per physical register (valid / zero /
//!   special / empty). Tags are *materialised state*, not derived: a fault
//!   that flips a tag can relabel a valid number as empty or special, and
//!   a subsequent read then yields NaN — "changing one bit can turn a
//!   valid number into NaN or zero" (§6.1.1).
//! * **FIP/FCS/FOO/FOS** are written by every FPU instruction but never
//!   read, so faults in them are harmless — exactly what the paper found.
//! * Stack overflow/underflow produce the x87 "indefinite" QNaN rather
//!   than trapping (masked exceptions, the Linux default).
//!
//! What an instruction can *read* of this state is narrower than what it
//! holds — TOP, which slots are empty, and the contents of the non-empty
//! ones; `observable.rs` states that readable set, once.

use crate::f80::{F80Class, F80};
use fl_isa::FpuSpecial;

/// Tag values, as encoded in TWD (two bits per register).
pub const TAG_VALID: u16 = 0;
/// Tag value for zero.
pub const TAG_ZERO: u16 = 1;
/// Tag value for NaN/infinity/denormal.
pub const TAG_SPECIAL: u16 = 2;
/// Tag value for an empty slot.
pub const TAG_EMPTY: u16 = 3;

/// The x87 indefinite QNaN produced on masked invalid operations.
fn indefinite() -> F80 {
    F80::from_f64(f64::NAN)
}

/// x87 FPU register file.
#[derive(Debug, Clone, PartialEq)]
pub struct Fpu {
    /// Physical data registers R0–R7 (stack-addressed via TOP).
    pub regs: [F80; 8],
    /// Control word.
    pub cwd: u16,
    /// Status word; TOP in bits 11–13.
    pub swd: u16,
    /// Tag word; two bits per physical register.
    pub twd: u16,
    /// Last FPU instruction pointer (offset).
    pub fip: u32,
    /// Last FPU instruction pointer (segment selector).
    pub fcs: u16,
    /// Last FPU operand pointer (offset).
    pub foo: u32,
    /// Last FPU operand pointer (segment selector).
    pub fos: u16,
}

impl Default for Fpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Fpu {
    /// Power-on state: empty stack (all tags empty), default control word.
    pub fn new() -> Self {
        Fpu {
            regs: [F80::ZERO; 8],
            cwd: 0x037f, // masked exceptions, 64-bit precision, round-nearest
            swd: 0,
            twd: 0xffff, // all empty
            fip: 0,
            fcs: 0,
            foo: 0,
            fos: 0,
        }
    }

    /// Current top-of-stack index (bits 11–13 of SWD).
    pub fn top(&self) -> u8 {
        ((self.swd >> 11) & 7) as u8
    }

    fn set_top(&mut self, t: u8) {
        self.swd = (self.swd & !(7 << 11)) | (((t & 7) as u16) << 11);
    }

    /// Physical register index of st(i).
    pub fn phys(&self, i: u8) -> usize {
        ((self.top() + i) & 7) as usize
    }

    /// Tag of physical register `p`.
    pub fn tag(&self, p: usize) -> u16 {
        (self.twd >> (2 * p)) & 3
    }

    fn set_tag(&mut self, p: usize, tag: u16) {
        self.twd = (self.twd & !(3 << (2 * p))) | ((tag & 3) << (2 * p));
    }

    fn tag_for(v: F80) -> u16 {
        match v.classify() {
            F80Class::Valid => TAG_VALID,
            F80Class::Zero => TAG_ZERO,
            F80Class::Special => TAG_SPECIAL,
        }
    }

    /// Read st(i), honouring the tag word: an *empty* tag reads as the
    /// indefinite QNaN (masked stack fault); other tags read the stored
    /// bits. A tag flipped to `special` over a valid number still reads
    /// the number — the NaN appears when the *value bits* say so or the
    /// slot is empty, matching observed x87 behaviour.
    pub fn read_st(&self, i: u8) -> F80 {
        let p = self.phys(i);
        if self.tag(p) == TAG_EMPTY {
            indefinite()
        } else {
            self.regs[p]
        }
    }

    /// Read st(i) as f64 (for arithmetic routed through the host).
    pub fn read_st_f64(&self, i: u8) -> f64 {
        self.read_st(i).to_f64()
    }

    /// Overwrite st(i) with a value, updating its tag.
    pub fn write_st(&mut self, i: u8, v: F80) {
        let p = self.phys(i);
        self.regs[p] = v;
        self.set_tag(p, Self::tag_for(v));
    }

    /// Push a value. On stack overflow (target slot not empty) the x87
    /// masked response replaces the value with the indefinite QNaN.
    pub fn push(&mut self, v: F80) {
        let new_top = (self.top().wrapping_sub(1)) & 7;
        self.set_top(new_top);
        let p = new_top as usize;
        let val = if self.tag(p) != TAG_EMPTY {
            indefinite()
        } else {
            v
        };
        self.regs[p] = val;
        self.set_tag(p, Self::tag_for(val));
    }

    /// Pop st0, returning its value (indefinite if the slot was empty).
    pub fn pop(&mut self) -> F80 {
        let p = self.phys(0);
        let v = if self.tag(p) == TAG_EMPTY {
            indefinite()
        } else {
            self.regs[p]
        };
        self.set_tag(p, TAG_EMPTY);
        self.set_top((self.top() + 1) & 7);
        v
    }

    /// Exchange st0 and st(i) (values and tags).
    pub fn fxch(&mut self, i: u8) {
        let p0 = self.phys(0);
        let pi = self.phys(i);
        self.regs.swap(p0, pi);
        let t0 = self.tag(p0);
        let ti = self.tag(pi);
        self.set_tag(p0, ti);
        self.set_tag(pi, t0);
    }

    /// The value of special register `s`, zero-extended.
    pub fn special(&self, s: FpuSpecial) -> u32 {
        match s {
            FpuSpecial::Cwd => self.cwd as u32,
            FpuSpecial::Swd => self.swd as u32,
            FpuSpecial::Twd => self.twd as u32,
            FpuSpecial::Fip => self.fip,
            FpuSpecial::Fcs => self.fcs as u32,
            FpuSpecial::Foo => self.foo,
            FpuSpecial::Fos => self.fos as u32,
        }
    }

    /// Number of non-empty stack slots (used by tests and the register
    /// analysis of §6.1.1).
    pub fn depth(&self) -> usize {
        (0..8).filter(|&p| self.tag(p) != TAG_EMPTY).count()
    }

    /// Record the instruction/operand pointers (written by every FPU
    /// instruction; never read back — faults here are inert).
    pub fn note_insn(&mut self, eip: u32, operand: Option<u32>) {
        self.fip = eip;
        self.fcs = 0x23; // user code segment selector on Linux IA-32
        if let Some(a) = operand {
            self.foo = a;
            self.fos = 0x2b; // user data segment selector
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_lifo() {
        let mut f = Fpu::new();
        f.push(F80::from_f64(1.0));
        f.push(F80::from_f64(2.0));
        f.push(F80::from_f64(3.0));
        assert_eq!(f.depth(), 3);
        assert_eq!(f.pop().to_f64(), 3.0);
        assert_eq!(f.pop().to_f64(), 2.0);
        assert_eq!(f.pop().to_f64(), 1.0);
        assert_eq!(f.depth(), 0);
    }

    #[test]
    fn top_wraps_around() {
        let mut f = Fpu::new();
        assert_eq!(f.top(), 0);
        f.push(F80::ONE);
        assert_eq!(f.top(), 7);
        f.pop();
        assert_eq!(f.top(), 0);
    }

    #[test]
    fn tags_follow_values() {
        let mut f = Fpu::new();
        f.push(F80::ZERO);
        assert_eq!(f.tag(f.phys(0)), TAG_ZERO);
        f.write_st(0, F80::from_f64(2.5));
        assert_eq!(f.tag(f.phys(0)), TAG_VALID);
        f.write_st(0, F80::from_f64(f64::INFINITY));
        assert_eq!(f.tag(f.phys(0)), TAG_SPECIAL);
    }

    #[test]
    fn empty_read_yields_nan() {
        let f = Fpu::new();
        assert!(f.read_st(0).to_f64().is_nan());
        assert!(f.read_st(5).to_f64().is_nan());
    }

    #[test]
    fn pop_from_empty_yields_nan() {
        let mut f = Fpu::new();
        assert!(f.pop().to_f64().is_nan());
    }

    #[test]
    fn overflow_pushes_indefinite() {
        let mut f = Fpu::new();
        for i in 0..8 {
            f.push(F80::from_f64(i as f64 + 1.0));
        }
        assert_eq!(f.depth(), 8);
        // Ninth push overwrites the slot with indefinite NaN.
        f.push(F80::from_f64(9.0));
        assert!(f.read_st(0).to_f64().is_nan());
    }

    #[test]
    fn twd_flip_makes_valid_register_read_as_nan() {
        // The §6.1.1 TWD scenario: a tag bit flip relabels a valid
        // register as empty; the next read returns NaN.
        let mut f = Fpu::new();
        f.push(F80::from_f64(42.0));
        let p = f.phys(0);
        assert_eq!(f.tag(p), TAG_VALID);
        // Flip both tag bits (valid 00 -> empty 11) as two single-bit SEUs
        // or one double flip; even one bit (00 -> 01 zero) changes class.
        f.twd ^= 3 << (2 * p);
        assert!(f.read_st(0).to_f64().is_nan());
    }

    #[test]
    fn swd_top_flip_rotates_stack() {
        let mut f = Fpu::new();
        f.push(F80::from_f64(10.0)); // physical slot 7
                                     // Flip the lowest TOP bit: st0 now addresses a different slot.
        f.swd ^= 1 << 11;
        assert_ne!(f.read_st(0).to_f64(), 10.0);
    }

    #[test]
    fn fxch_swaps_values_and_tags() {
        let mut f = Fpu::new();
        f.push(F80::ZERO);
        f.push(F80::from_f64(7.0));
        f.fxch(1);
        assert_eq!(f.read_st(0).to_f64(), 0.0);
        assert_eq!(f.read_st(1).to_f64(), 7.0);
        assert_eq!(f.tag(f.phys(0)), TAG_ZERO);
        assert_eq!(f.tag(f.phys(1)), TAG_VALID);
    }

    #[test]
    fn note_insn_only_touches_pointer_regs() {
        let mut f = Fpu::new();
        let before = (f.cwd, f.swd, f.twd);
        f.note_insn(0x08048010, Some(0x0a000000));
        assert_eq!((f.cwd, f.swd, f.twd), before);
        assert_eq!(f.fip, 0x08048010);
        assert_eq!(f.foo, 0x0a000000);
    }
}
