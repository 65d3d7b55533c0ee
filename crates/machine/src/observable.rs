//! What an instruction can read of the CPU — stated here and nowhere
//! else.
//!
//! A [`Cpu`] holds more than a running program can observe. Readable are
//! all eight GPRs, EIP, the four condition flags of EFLAGS (`cond_holds`
//! is their one reader; the ISA has no `pushf`), x87 TOP (SWD bits
//! 11–13), which slots TWD marks empty, and the contents of the slots it
//! does not. Everything else is written but answers no read: CWD, the
//! other 13 bits of SWD, FIP/FCS/FOO/FOS (§6.1.1: "written but never
//! read"; no `fnstsw`/`fldcw`/`fnstenv`), whether a non-empty tag says
//! valid, zero or special (`read_st`/`push`/`pop` consult a tag for
//! emptiness only), the 80 bits behind an empty tag, and the other 28
//! bits of EFLAGS.
//!
//! Two users: [`Machine::converged_on`](crate::Machine::converged_on)
//! compares CPUs with [`Cpu::observably_eq`], and the campaign engine
//! decides a register flip benign when it is drawn if [`Cpu::can_read`]
//! denies the bit. `tests/prop_machine.rs` holds the statement to the
//! machine: state that differs only in what it calls unreadable never
//! changes what any opcode does, on either execution path.

use crate::fpu::{Fpu, TAG_EMPTY};
use crate::machine::Cpu;
use fl_isa::{FpuSpecial, RegisterName};
use fl_isa::{EFLAGS_CF, EFLAGS_OF, EFLAGS_SF, EFLAGS_ZF};

/// The condition flags: all of EFLAGS an instruction reads.
const EFLAGS_READABLE: u32 = EFLAGS_ZF | EFLAGS_SF | EFLAGS_CF | EFLAGS_OF;

impl Fpu {
    /// The bits of special register `s` some instruction can read, in
    /// whatever state the FPU is. TWD counts as readable throughout:
    /// whether a tag bit changes a slot's emptiness depends on the other
    /// bit of the pair, so only [`Fpu::observably_eq`] can excuse one.
    pub fn readable(s: FpuSpecial) -> u32 {
        use FpuSpecial::{Cwd, Fcs, Fip, Foo, Fos, Swd, Twd};
        match s {
            Swd => 7 << 11,
            Twd => 0xffff,
            Cwd | Fip | Fcs | Foo | Fos => 0,
        }
    }

    /// Do the two register files answer every read alike? Equal in the
    /// [`Fpu::readable`] bits of each special register but TWD, in which
    /// slots TWD calls empty, and in the contents of those it does not.
    pub fn observably_eq(&self, o: &Fpu) -> bool {
        let mut specials = FpuSpecial::ALL.iter().filter(|&&s| s != FpuSpecial::Twd);
        specials.all(|&s| (self.special(s) ^ o.special(s)) & Fpu::readable(s) == 0)
            && (0..8).all(|p| match (self.tag(p), o.tag(p)) {
                (TAG_EMPTY, TAG_EMPTY) => true,
                (TAG_EMPTY, _) | (_, TAG_EMPTY) => false,
                _ => self.regs[p] == o.regs[p],
            })
    }
}

impl Cpu {
    /// Can any instruction, in any state, read bit `bit` of `reg`? A
    /// data register's bits count as readable: they are not exactly
    /// while its tag says empty, which only [`Cpu::observably_eq`] can
    /// see.
    pub fn can_read(reg: RegisterName, bit: u32) -> bool {
        let mask = match reg {
            RegisterName::Gpr(_) | RegisterName::Eip | RegisterName::St(_) => return true,
            RegisterName::Eflags => EFLAGS_READABLE,
            RegisterName::FpuSpecial(s) => Fpu::readable(s),
        };
        mask >> (bit & 31) & 1 == 1
    }

    /// Do the two CPUs answer every read an instruction can make alike?
    /// This, not `==`, is what "the same CPU state" means to a running
    /// program: they may differ only where [`Cpu::can_read`] is false and
    /// behind empty x87 tags.
    pub fn observably_eq(&self, o: &Cpu) -> bool {
        // Destructured so a new field cannot be left out silently.
        let Cpu {
            gpr,
            eip,
            eflags,
            fpu,
        } = self;
        *gpr == o.gpr
            && *eip == o.eip
            && (eflags ^ o.eflags) & EFLAGS_READABLE == 0
            && fpu.observably_eq(&o.fpu)
    }
}
