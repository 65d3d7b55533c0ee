//! System call numbers.
//!
//! The FaultLab machine exposes the services a real MPI application gets
//! from the C library, the operating system, and the MPI library through
//! a single `SYS` trap. Application-facing MPI entry points live in the
//! *library text region* (0x40000000, Figure 1 of the paper) as compiled
//! wrapper functions; each wrapper marshals arguments and issues one of the
//! `Mpi*` syscalls below, exactly as MPICH's API layer sits above its ADI.
//! The machine flags "currently inside an MPI routine" while an `Mpi*`
//! syscall (or library-text execution) is active; the malloc runtime uses
//! that flag to tag heap chunks user vs MPI (§3.2).

use crate::reg::Gpr;

/// The registers a `SYS` trap passes its arguments in: the machine's
/// own services read EAX and ECX, the MPI services EDX and EBX too. Both
/// trap handlers read their arguments through this list, and no other
/// general-purpose register is read across the trap, so
/// [`Insn::gpr_reads`](crate::Insn::gpr_reads) of a `sys` is exactly it.
pub const SYS_ARGS: [Gpr; 4] = [Gpr::Eax, Gpr::Ecx, Gpr::Edx, Gpr::Ebx];

/// Syscall numbers carried in the 12-bit aux field of a `SYS` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Syscall {
    /// Terminate: status in EAX.
    Exit = 0,
    /// Write bytes (EAX=ptr, ECX=len) to the console stream (stdout).
    PrintStr = 1,
    /// Write the decimal rendering of EAX to the console stream.
    PrintInt = 2,
    /// Pop st0 and write it to the console with ECX significant digits.
    PrintFlt = 3,
    /// Allocate ECX bytes on the heap; pointer returned in EAX.
    /// The allocation is tagged user/MPI from the in-MPI flag (§3.2).
    Malloc = 4,
    /// Free the heap chunk at EAX.
    Free = 5,
    /// Abort after a failed internal consistency check (EAX=msg ptr,
    /// ECX=len). Classified as **Application Detected** (§5.1).
    AbortMsg = 7,
    /// Write bytes (EAX=ptr, ECX=len) to the output file stream.
    FileWrite = 8,
    /// Pop st0 and append it to the output file with ECX significant
    /// digits (plain-text output format, §4.2.1).
    FileWriteFlt = 9,
    /// Pop st0 and append its raw IEEE-754 bits to the output file
    /// (binary output format, §6.2's "a binary output format would
    /// detect more cases of incorrect output").
    FileWriteBin = 10,

    // --- MPI (issued from library wrappers at 0x40000000) ---------------
    /// MPI_Init.
    MpiInit = 16,
    /// MPI_Comm_rank: rank returned in EAX.
    MpiCommRank = 17,
    /// MPI_Comm_size: size returned in EAX.
    MpiCommSize = 18,
    /// MPI_Send: EAX=buf, ECX=len bytes, EDX=dest, EBX=tag.
    MpiSend = 19,
    /// MPI_Recv: EAX=buf, ECX=cap bytes, EDX=src (-1 = ANY_SOURCE),
    /// EBX=tag; received length returned in EAX.
    MpiRecv = 20,
    /// MPI_Barrier.
    MpiBarrier = 21,
    /// MPI_Bcast: EAX=buf, ECX=len, EDX=root.
    MpiBcast = 22,
    /// MPI_Reduce (sum of f64): EAX=sendbuf, ECX=len, EDX=root,
    /// EBX=recvbuf.
    MpiReduce = 23,
    /// MPI_Allreduce (sum of f64): EAX=sendbuf, ECX=len, EBX=recvbuf.
    MpiAllreduce = 24,
    /// MPI_Finalize.
    MpiFinalize = 25,
    /// MPI_Abort.
    MpiAbort = 26,
    /// MPI_Errhandler_set: EAX=1 registers the user error handler so
    /// argument-check failures manifest as **MPI Detected** (§5.1/§6.2)
    /// instead of aborting.
    MpiErrhandlerSet = 27,

    // --- ULFM fault-tolerance extensions (fl-ulfm) -----------------------
    /// MPIX_Comm_failure_ack: acknowledge all currently known failures.
    MpixFailureAck = 28,
    /// MPIX_Comm_failure_get_acked: bitmask of acked dead ranks in EAX.
    MpixFailureGetAcked = 29,
    /// MPIX_Comm_agree: fault-aware collective AND over EAX across the
    /// live ranks; result (with the failure bit folded in) in EAX.
    MpixAgree = 30,
    /// MPIX_Comm_shrink: rebuild the world over the survivors; the
    /// caller's new rank is returned in EAX.
    MpixShrink = 31,
    /// fl_ckpt_save: EAX=buf, ECX=bytes — copy the range into the rank's
    /// in-memory application checkpoint; bytes saved in EAX.
    CkptSave = 32,
    /// fl_ckpt_restore: EAX=buf, ECX=cap — copy the saved checkpoint back
    /// over the range; bytes restored (0 if none saved) in EAX.
    CkptRestore = 33,
}

impl Syscall {
    /// Decode a syscall number; `None` raises SIGSYS-like abnormal
    /// termination in the machine.
    pub fn from_num(n: u16) -> Option<Syscall> {
        use Syscall::*;
        Some(match n {
            0 => Exit,
            1 => PrintStr,
            2 => PrintInt,
            3 => PrintFlt,
            4 => Malloc,
            5 => Free,
            7 => AbortMsg,
            8 => FileWrite,
            9 => FileWriteFlt,
            10 => FileWriteBin,
            16 => MpiInit,
            17 => MpiCommRank,
            18 => MpiCommSize,
            19 => MpiSend,
            20 => MpiRecv,
            21 => MpiBarrier,
            22 => MpiBcast,
            23 => MpiReduce,
            24 => MpiAllreduce,
            25 => MpiFinalize,
            26 => MpiAbort,
            27 => MpiErrhandlerSet,
            28 => MpixFailureAck,
            29 => MpixFailureGetAcked,
            30 => MpixAgree,
            31 => MpixShrink,
            32 => CkptSave,
            33 => CkptRestore,
            _ => return None,
        })
    }

    /// Whether this syscall is an MPI operation (sets the in-MPI flag used
    /// for heap-chunk tagging, and traps to the rank scheduler).
    pub fn is_mpi(self) -> bool {
        (self as u16) >= Syscall::MpiInit as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for n in 0..64u16 {
            if let Some(s) = Syscall::from_num(n) {
                assert_eq!(s as u16, n);
            }
        }
    }

    #[test]
    fn mpi_classification() {
        assert!(Syscall::MpiSend.is_mpi());
        assert!(Syscall::MpiFinalize.is_mpi());
        assert!(!Syscall::Malloc.is_mpi());
        assert!(!Syscall::PrintFlt.is_mpi());
    }

    #[test]
    fn ulfm_syscalls_trap_to_the_scheduler() {
        // The MPIX extensions and the checkpoint builtins all go through
        // the rank scheduler (they need world-level failure knowledge).
        for s in [
            Syscall::MpixFailureAck,
            Syscall::MpixFailureGetAcked,
            Syscall::MpixAgree,
            Syscall::MpixShrink,
            Syscall::CkptSave,
            Syscall::CkptRestore,
        ] {
            assert!(s.is_mpi(), "{s:?}");
        }
    }

    #[test]
    fn undefined_numbers_are_none() {
        assert!(Syscall::from_num(6).is_none());
        assert!(Syscall::from_num(11).is_none());
        assert!(Syscall::from_num(999).is_none());
    }
}
