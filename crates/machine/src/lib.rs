//! # fl-machine — a deterministic 32-bit virtual machine with the Linux
//! process memory model
//!
//! This crate is the substrate substitution for the paper's Intel x86 /
//! Linux 2.4 execution environment (see DESIGN.md). One [`Machine`] models
//! one MPI process: eight general-purpose registers, EFLAGS, an x87-style
//! FPU with 80-bit stack registers and the CWD/SWD/TWD/FIP/FCS/FOO/FOS
//! special registers, and a paged address space laid out per Figure 1 of
//! the paper (text at 0x08048000, data, BSS, a growing heap, shared
//! libraries at 0x40000000, the stack below 0xBFFFF000, kernel space
//! above 0xC0000000).
//!
//! The machine exposes the two access planes a fault-injection study
//! needs:
//!
//! * **architectural execution** — protection-checked loads/stores/fetches
//!   whose failures raise SIGSEGV/SIGILL/SIGFPE, an instruction budget
//!   that converts non-termination into a detectable hang, and syscalls
//!   for I/O, malloc and MPI;
//! * **privileged access** — `ptrace`-style peeks and pokes that the
//!   fault injector uses to flip bits in memory and registers between
//!   instructions, plus malloc-chunk maps, symbol tables and an EBP
//!   stack walker for region targeting.

pub mod f80;
pub mod fpu;
pub mod image;
pub mod layout;
pub mod machine;
pub mod malloc;
pub mod mem;
mod observable;
pub mod stackwalk;

pub use f80::{F80Class, F80};
pub use fpu::Fpu;
pub use image::{ProgramImage, Symbol};
pub use layout::{
    align_up, AddressSpaceMap, Mapping, Perms, Region, DEFAULT_STACK_SIZE, KERNEL_BASE, LIB_BASE,
    PAGE_SIZE, STACK_TOP, TEXT_BASE,
};
pub use machine::{
    CodeHandle, Counters, Cpu, ExecStats, Exit, Machine, MachineConfig, MachineSnapshot, MemStall,
    SharedCode, Signal, SyscallFault, SyscallFaultKind,
};
pub use malloc::{
    AllocTag, ChunkInfo, HeapAllocator, HeapError, HEADER_SIZE, MAGIC_FREE, MAGIC_MPI, MAGIC_USER,
};
pub use mem::{AccessKind, MemFault, Memory, MemorySnapshot, Page, ReadStamps};
pub use stackwalk::{app_stack_extents, walk, Frame};
