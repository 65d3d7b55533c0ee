//! The FaultLab virtual machine: CPU state, the execution loop, syscall
//! dispatch, and the privileged access the fault injector uses.
//!
//! One `Machine` models one MPI process — a Linux IA-32 process in the
//! paper. Faults propagate mechanically: a corrupted pointer faults the
//! protection check (SIGSEGV), a corrupted opcode fails the decoder
//! (SIGILL), a corrupted divisor traps (SIGFPE), a corrupted loop counter
//! burns the instruction budget (hang), and corrupted data flows silently
//! into output (incorrect output). These are precisely the manifestation
//! classes of §5.1.

use crate::fpu::Fpu;
use crate::image::ProgramImage;
use crate::layout::{Mapping, Perms, Region, DEFAULT_STACK_SIZE, LIB_BASE, STACK_TOP, TEXT_BASE};
use crate::malloc::{AllocTag, HeapAllocator, HeapError};
use crate::mem::{Memory, MemorySnapshot, ReadStamps};
use crate::AddressSpaceMap;
use fl_isa::insn::{AluOp, FpuBinOp, FpuUnOp};
use fl_isa::syscall::SYS_ARGS;
use fl_isa::{decode_at, Cond, Gpr, Insn, RegisterName, Syscall};
use fl_isa::{EFLAGS_CF, EFLAGS_OF, EFLAGS_SF, EFLAGS_ZF};
use fl_obs::{EventKind, EventLog, SigKind};

use crate::f80::F80;

use std::sync::{Arc, OnceLock};

/// CPU register state (the paper's register fault targets).
#[derive(Debug, Clone, PartialEq)]
pub struct Cpu {
    /// The eight general-purpose registers, indexed by [`Gpr`].
    pub gpr: [u32; 8],
    /// Instruction pointer.
    pub eip: u32,
    /// Flags register.
    pub eflags: u32,
    /// x87 FPU state.
    pub fpu: Fpu,
}

impl Cpu {
    fn new(entry: u32, esp: u32) -> Self {
        let mut gpr = [0u32; 8];
        gpr[Gpr::Esp as usize] = esp;
        gpr[Gpr::Ebp as usize] = 0; // frame-chain terminator
        Cpu {
            gpr,
            eip: entry,
            eflags: 0,
            fpu: Fpu::new(),
        }
    }

    /// Read a GPR.
    pub fn get(&self, r: Gpr) -> u32 {
        self.gpr[r as usize]
    }

    /// Write a GPR.
    pub fn set(&mut self, r: Gpr, v: u32) {
        self.gpr[r as usize] = v;
    }
}

/// Fatal signals, named after their POSIX counterparts. MPICH handles all
/// of these and aborts the whole application (§5.1, "Crash").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Invalid memory reference.
    Segv { addr: u32 },
    /// Illegal instruction.
    Ill { eip: u32 },
    /// Arithmetic fault (integer divide by zero / overflow).
    Fpe { eip: u32 },
}

impl std::fmt::Display for Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Signal::Segv { addr } => write!(f, "SIGSEGV at address {addr:#010x}"),
            Signal::Ill { eip } => write!(f, "SIGILL at eip {eip:#010x}"),
            Signal::Fpe { eip } => write!(f, "SIGFPE at eip {eip:#010x}"),
        }
    }
}

/// Why the execution loop returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Exit {
    /// Clean termination with an exit status.
    Halted(i32),
    /// Abnormal termination by signal.
    Signal(Signal),
    /// The application aborted itself after a failed internal check
    /// ("Application Detected", §5.1).
    Abort(String),
    /// The allocator detected heap corruption or an invalid free —
    /// glibc-style abort, classified as a crash.
    HeapCorruption(HeapError),
    /// The process issued an MPI syscall and is parked until the MPI
    /// layer completes it (number identifies the call; arguments are in
    /// the registers).
    Mpi(Syscall),
    /// The per-call instruction quantum expired (cooperative scheduling).
    Quantum,
    /// The total instruction budget was exhausted — the deterministic
    /// analogue of the paper's "one minute past expected completion"
    /// hang rule.
    Budget,
}

/// Execution statistics, including the progress metrics §7 proposes for
/// hang detection (FLOP and message-call rates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Instructions retired.
    pub insns: u64,
    /// Basic blocks retired (control transfers) — the time axis of the
    /// paper's working-set plots.
    pub blocks: u64,
    /// Floating-point operations retired.
    pub flops: u64,
    /// `malloc` calls served.
    pub mallocs: u64,
    /// MPI syscalls issued.
    pub mpi_calls: u64,
    /// Output syscalls issued (console/file write family) — the draw
    /// denominator for fl-chaos write-failure injection.
    pub io_writes: u64,
}

/// Which syscall family a [`SyscallFault`] fails (fl-chaos' OS-level
/// failure model — the SystemTap-style "make the kernel say no").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallFaultKind {
    /// `malloc` returns NULL (allocation denied).
    Malloc,
    /// An output syscall fails: nothing reaches the console or output
    /// file and EAX reads back -1, like a full disk or a closed fd.
    Write,
}

/// An armed OS-level failure: the `at_call`-th matching syscall issued
/// after arming fails instead of being serviced. `Copy`, carried by
/// [`MachineSnapshot`]s — restoring a pre-fire checkpoint re-arms it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallFault {
    /// Which family of syscalls fails.
    pub kind: SyscallFaultKind,
    /// 1-based index (among matching calls, counted from arming) of the
    /// call that fails.
    pub at_call: u64,
    /// True: every subsequent matching call fails too (a resource gone
    /// for good). False: one-shot (a transient EINTR-style denial).
    pub persist: bool,
}

/// An armed memory-stall interference fault (fl-perturb): from
/// `at_insns` until `at_insns + window_insns` on this machine's retired
/// instruction clock, every checked data access costs `per_access`
/// extra retired instructions — contention for a shared memory bus,
/// modelled as a latency surcharge in retired-insn accounting. `Copy`,
/// carried by [`MachineSnapshot`]s like [`SyscallFault`], so restoring
/// a mid-window checkpoint resumes the stall deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemStall {
    /// Instruction clock at which the stall window opens.
    pub at_insns: u64,
    /// Window length on the (surcharge-inflated) instruction clock.
    pub window_insns: u64,
    /// Extra retired instructions charged per checked load/store.
    pub per_access: u64,
}

/// Configuration for machine construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Stack reservation in bytes.
    pub stack_size: u32,
    /// Hard cap on heap growth in bytes.
    pub heap_limit: u32,
    /// Total instruction budget; `u64::MAX` means unlimited.
    pub budget: u64,
    /// Trace mode, for working-set analysis (Tables 5–7): stamp every
    /// read with the retired-block clock + 1 (see [`ReadStamps`]), on the
    /// slow per-instruction path. Collect with
    /// [`Machine::take_read_stamps`].
    pub trace: bool,
    /// Per-rank structured-event ring capacity; 0 disables recording
    /// (the default — recording then costs one branch per hook).
    pub obs_capacity: u32,
    /// Execution fast path: software TLB + basic-block dispatch. On by
    /// default; turn off for the fully-checked per-instruction baseline
    /// (bit-identical behaviour, several times slower).
    pub fastpath: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            stack_size: DEFAULT_STACK_SIZE,
            heap_limit: 64 << 20,
            budget: u64::MAX,
            trace: false,
            obs_capacity: 0,
            fastpath: true,
        }
    }
}

/// A decoded basic block: the straight-line instruction run starting at
/// some text address, ending at the first block-ending instruction (or
/// a size cap). Instructions are stored as `(insn, words)` exactly as
/// the decoded-code store holds each word.
struct Block {
    insns: Vec<(Insn, u8)>,
}

impl Block {
    /// Text bytes the block's instructions occupy, from its entry on.
    fn bytes(&self) -> u32 {
        self.insns.iter().map(|&(_, len)| 4 * len as u32).sum()
    }
}

/// Straight-line blocks stop at the first block-ending instruction or
/// at this many instructions.
const MAX_BLOCK_INSNS: usize = 64;

/// Block-entry dispatch count after which a superblock is compiled.
const TRACE_HOT_THRESHOLD: u16 = 16;

/// Superblock size caps: architectural instructions per pass and chained
/// basic blocks. Bounds both compile time and the headroom a pass needs.
const MAX_TRACE_INSNS: u64 = 256;
const MAX_TRACE_BLOCKS: u32 = 16;

/// Decoded-code cache effectiveness counters. Telemetry only — never
/// part of snapshots, records or metrics rows, because hit/miss ratios
/// depend on fork warmth and worker scheduling while the architectural
/// results must stay byte-identical across all of that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Block dispatches that found a ready decoded block.
    pub block_hits: u64,
    /// Block dispatches that had to assemble the block first.
    pub block_misses: u64,
    /// Superblock passes entered (each retires up to a whole loop body).
    pub trace_hits: u64,
    /// Superblock passes abandoned mid-body by a mispredicted branch.
    pub trace_side_exits: u64,
    /// Text banks that took their first poke: from then on the bank
    /// bypasses the decoded words, blocks and superblocks a poke touched.
    pub demotions: u64,
    /// Scheduler quanta this machine was granted (fl-perturb
    /// effective-quantum telemetry, filled by the round scheduler).
    pub quanta_granted: u64,
    /// Instructions' worth of quantum granted across those rounds —
    /// shrinks under a hog's share steal, so `quantum_insns_granted /
    /// quanta_granted` is the effective per-round quantum.
    pub quantum_insns_granted: u64,
    /// Rounds in which a quantum tax starved this machine outright
    /// (zero quantum handed out).
    pub quanta_starved: u64,
}

impl ExecStats {
    /// Accumulate another machine's counters into this one.
    pub fn add(&mut self, o: &ExecStats) {
        self.block_hits += o.block_hits;
        self.block_misses += o.block_misses;
        self.trace_hits += o.trace_hits;
        self.trace_side_exits += o.trace_side_exits;
        self.demotions += o.demotions;
        self.quanta_granted += o.quanta_granted;
        self.quantum_insns_granted += o.quantum_insns_granted;
        self.quanta_starved += o.quanta_starved;
    }
}

/// One operation of a compiled superblock. Inline variants skip the
/// full `exec` dispatch and do not touch EIP on the non-faulting path
/// (`exec` never *reads* EIP, so it may go stale inside a trace as long
/// as every fault, exit and side exit restores it); the `Exec` variants
/// wrap the general interpreter for everything else. `CmpIJ`/`CmpJ` and
/// `LdAlu` are the macro-op fusions of the FL compiler's compare+branch
/// and load+op idioms.
#[derive(Debug, Clone)]
enum TraceOp {
    MovI {
        rd: Gpr,
        imm: u32,
    },
    Mov {
        rd: Gpr,
        rs: Gpr,
    },
    AddI {
        rd: Gpr,
        ra: Gpr,
        imm: u32,
    },
    /// Non-trapping ALU only; Div/Mod go through `Exec` for SIGFPE.
    Alu {
        op: AluOp,
        rd: Gpr,
        ra: Gpr,
        rb: Gpr,
    },
    Ld {
        rd: Gpr,
        base: Gpr,
        off: i32,
        at: u32,
    },
    St {
        rb: Gpr,
        base: Gpr,
        off: i32,
        at: u32,
    },
    LdG {
        rd: Gpr,
        addr: u32,
        at: u32,
    },
    StG {
        rs: Gpr,
        addr: u32,
        at: u32,
    },
    /// Fused load + ALU over the loaded value (two retired insns; on a
    /// load fault only the load has retired and EIP points at it).
    LdAlu {
        rd: Gpr,
        base: Gpr,
        off: i32,
        at: u32,
        op: AluOp,
        ard: Gpr,
        ara: Gpr,
        arb: Gpr,
    },
    /// Fused compare-immediate + conditional branch (two retired insns,
    /// one retired block; flags are still architecturally written).
    CmpIJ {
        ra: Gpr,
        imm: u32,
        cond: Cond,
        target: u32,
        fall: u32,
        expect_taken: bool,
    },
    /// Fused register compare + conditional branch.
    CmpJ {
        ra: Gpr,
        rb: Gpr,
        cond: Cond,
        target: u32,
        fall: u32,
        expect_taken: bool,
    },
    MulI {
        rd: Gpr,
        ra: Gpr,
        imm: u32,
    },
    /// Standalone compare (not fused with a branch): flags only.
    CmpOnly {
        ra: Gpr,
        rb: Gpr,
    },
    CmpIOnly {
        ra: Gpr,
        imm: u32,
    },
    LdB {
        rd: Gpr,
        base: Gpr,
        off: i32,
        at: u32,
    },
    StB {
        rb: Gpr,
        base: Gpr,
        off: i32,
        at: u32,
    },
    Push {
        rs: Gpr,
        at: u32,
    },
    Pop {
        rd: Gpr,
        at: u32,
    },
    Enter {
        frame: u32,
        at: u32,
    },
    Leave {
        at: u32,
    },
    /// Conditional branch with a predicted direction; always writes EIP
    /// (it is a control transfer either way), side-exits on the
    /// unpredicted one.
    Jmp {
        cond: Cond,
        target: u32,
        fall: u32,
        expect_taken: bool,
    },
    /// Unconditional direct jump: retires counters only — the trace
    /// already continues at the target.
    JmpU,
    /// Direct call chained through: push the return address and continue
    /// into the callee inline.
    CallPush {
        ret: u32,
        at: u32,
    },
    /// Return whose address is known from a `CallPush` earlier in the
    /// same trace: pop, jump, side-exit if the stack was retargeted.
    RetTo {
        expect: u32,
        at: u32,
    },
    /// Any FPU instruction, through the shared `exec_fpu` body inlined
    /// into the trace loop.
    Fpu {
        insn: Insn,
        at: u32,
    },
    /// Any other instruction, through the full interpreter.
    Exec {
        insn: Insn,
        at: u32,
        next: u32,
        end: bool,
    },
    /// A control transfer with a statically predicted continuation:
    /// execution leaves the pass when EIP lands anywhere else.
    ExecBranch {
        insn: Insn,
        at: u32,
        next: u32,
        expect: u32,
        end: bool,
    },
    /// Restore EIP at a trace tail that falls off mid-block (the
    /// preceding inline op left it stale).
    FallThrough {
        to: u32,
    },
}

/// A superblock: hot basic blocks chained across statically predicted
/// branch directions, entered only at `entry`. The dispatcher admits a
/// pass only when `insn_count` fits under both the budget and the
/// quantum, which is what lets the body run with no per-instruction
/// limit checks while staying exact to the instruction.
#[derive(Debug, Clone)]
struct Trace {
    entry: u32,
    /// Architectural instructions one full pass retires.
    insn_count: u64,
    /// The chain closes back on `entry`: loop in-trace without
    /// re-dispatching.
    closes_loop: bool,
    ops: Vec<TraceOp>,
    /// The text byte ranges `[lo, hi)` the chain was compiled from — what
    /// a pass may fetch, and so what read stamping marks as read.
    spans: Vec<(u32, u32)>,
}

/// Extend the last span when `[lo, hi)` continues it, else start one.
fn cover(spans: &mut Vec<(u32, u32)>, lo: u32, hi: u32) {
    match spans.last_mut() {
        Some(s) if s.1 == lo => s.1 = hi,
        _ => spans.push((lo, hi)),
    }
}

/// One text bank's share of the campaign-wide decoded-code store: every
/// aligned word pre-decoded at image-load time, plus lazily assembled
/// basic blocks and hot-promoted superblocks published through
/// `OnceLock` slots (first publisher wins; contents are pure functions
/// of `insns`, so a lost race publishes an identical value). The bank
/// is immutable after construction, so any number of machines — across
/// ranks, snapshot forks and worker threads — share one `Arc` and warm
/// each other's caches for free.
pub(crate) struct SharedBank {
    base: u32,
    insns: Vec<Option<(Insn, u8)>>,
    blocks: Vec<OnceLock<Block>>,
    traces: Vec<OnceLock<Trace>>,
}

impl SharedBank {
    /// Pre-decode a text section. Replicates `Memory::fetch_words`
    /// exactly: the mapping covers `bytes.len().max(4)` bytes, a word is
    /// fetchable iff it lies wholly inside the mapping, the lookahead
    /// word reads zero past the end, and unwritten mapping bytes are
    /// zero.
    fn build(base: u32, bytes: &[u8]) -> SharedBank {
        let map_len = bytes.len().max(4);
        let words = map_len.div_ceil(4);
        let word_at = |i: usize| -> u32 {
            let mut w = [0u8; 4];
            for (j, b) in w.iter_mut().enumerate() {
                *b = bytes.get(4 * i + j).copied().unwrap_or(0);
            }
            u32::from_le_bytes(w)
        };
        let mut insns = Vec::with_capacity(words);
        for i in 0..words {
            if 4 * i + 4 > map_len {
                insns.push(None);
                continue;
            }
            let w0 = word_at(i);
            let w1 = if 4 * i + 8 <= map_len {
                word_at(i + 1)
            } else {
                0
            };
            insns.push(
                decode_at(&[w0, w1], 0)
                    .ok()
                    .map(|(insn, len)| (insn, len as u8)),
            );
        }
        SharedBank {
            base,
            blocks: (0..words).map(|_| OnceLock::new()).collect(),
            traces: (0..words).map(|_| OnceLock::new()).collect(),
            insns,
        }
    }

    fn idx(&self, addr: u32) -> Option<usize> {
        if addr < self.base || !addr.is_multiple_of(4) {
            return None;
        }
        let i = ((addr - self.base) / 4) as usize;
        (i < self.insns.len()).then_some(i)
    }

    /// The shared decoded block at slot `i`, assembling and publishing
    /// it on first use anywhere in the campaign.
    fn block(&self, i: usize, stats: &mut ExecStats) -> Option<&Block> {
        if let Some(b) = self.blocks[i].get() {
            stats.block_hits += 1;
            return Some(b);
        }
        stats.block_misses += 1;
        let b = self.assemble_block(i)?;
        Some(self.blocks[i].get_or_init(|| b))
    }

    /// Assemble the straight-line block at slot `i` from the pre-decoded
    /// words: up to the first block-ending instruction, undecodable word
    /// or `MAX_BLOCK_INSNS`. The one block assembler.
    fn assemble_block(&self, i: usize) -> Option<Block> {
        let mut insns = Vec::new();
        let mut j = i;
        while let Some(Some((insn, len))) = self.insns.get(j).copied() {
            insns.push((insn, len));
            if insn.is_block_end() || insns.len() >= MAX_BLOCK_INSNS {
                break;
            }
            j += len as usize;
        }
        (!insns.is_empty()).then_some(Block { insns })
    }

    /// Compile the superblock starting at `entry`: follow the straight
    /// line, predict conditional branches (backward = taken loop edge,
    /// forward = fall through), chain through direct jumps/calls and
    /// continuing syscalls, fuse compare+branch and load+op pairs, and
    /// stop at indirect control flow, undecodable words, the size caps,
    /// or when the chain closes back on the entry.
    fn build_trace(&self, entry: u32) -> Option<Trace> {
        let mut ops: Vec<TraceOp> = Vec::new();
        let mut spans: Vec<(u32, u32)> = Vec::new();
        let mut insn_count: u64 = 0;
        let mut blocks: u32 = 0;
        let mut at = entry;
        let mut closes_loop = false;
        // Return addresses pushed by calls chained into this trace, so a
        // matching RET can chain through with a known continuation.
        let mut callstack: Vec<u32> = Vec::new();
        let peek = |a: u32| self.idx(a).and_then(|i| self.insns[i]);
        loop {
            if insn_count >= MAX_TRACE_INSNS || blocks >= MAX_TRACE_BLOCKS {
                break;
            }
            let Some((insn, len)) = peek(at) else {
                break;
            };
            let next = at.wrapping_add(4 * len as u32);

            // Macro-op fusion: compare + conditional branch.
            if let Insn::CmpI { ra, imm } = insn {
                if let Some((Insn::J { cond, target }, jlen)) = peek(next) {
                    let fall = next.wrapping_add(4 * jlen as u32);
                    let expect_taken = cond == Cond::Always || target < next;
                    cover(&mut spans, at, fall);
                    ops.push(TraceOp::CmpIJ {
                        ra,
                        imm,
                        cond,
                        target,
                        fall,
                        expect_taken,
                    });
                    insn_count += 2;
                    blocks += 1;
                    at = if expect_taken { target } else { fall };
                    if at == entry {
                        closes_loop = true;
                        break;
                    }
                    continue;
                }
            }
            if let Insn::Cmp { ra, rb } = insn {
                if let Some((Insn::J { cond, target }, jlen)) = peek(next) {
                    let fall = next.wrapping_add(4 * jlen as u32);
                    let expect_taken = cond == Cond::Always || target < next;
                    cover(&mut spans, at, fall);
                    ops.push(TraceOp::CmpJ {
                        ra,
                        rb,
                        cond,
                        target,
                        fall,
                        expect_taken,
                    });
                    insn_count += 2;
                    blocks += 1;
                    at = if expect_taken { target } else { fall };
                    if at == entry {
                        closes_loop = true;
                        break;
                    }
                    continue;
                }
            }
            // Macro-op fusion: load + non-trapping ALU.
            if let Insn::Ld { rd, base, off } = insn {
                if let Some((
                    Insn::Alu {
                        op,
                        rd: ard,
                        ra: ara,
                        rb: arb,
                    },
                    alen,
                )) = peek(next)
                {
                    if !matches!(op, AluOp::Div | AluOp::Mod) {
                        cover(&mut spans, at, next.wrapping_add(4 * alen as u32));
                        ops.push(TraceOp::LdAlu {
                            rd,
                            base,
                            off,
                            at,
                            op,
                            ard,
                            ara,
                            arb,
                        });
                        insn_count += 2;
                        at = next.wrapping_add(4 * alen as u32);
                        if at == entry {
                            closes_loop = true;
                            break;
                        }
                        continue;
                    }
                }
            }

            let mut cont = next;
            let mut stop = false;
            let op = match insn {
                Insn::MovI { rd, imm } => TraceOp::MovI { rd, imm },
                Insn::Mov { rd, rs } => TraceOp::Mov { rd, rs },
                Insn::AddI { rd, ra, imm } => TraceOp::AddI { rd, ra, imm },
                Insn::MulI { rd, ra, imm } => TraceOp::MulI { rd, ra, imm },
                Insn::Alu { op, rd, ra, rb } if !matches!(op, AluOp::Div | AluOp::Mod) => {
                    TraceOp::Alu { op, rd, ra, rb }
                }
                // Unfused compares (the branch fusion above didn't fire).
                Insn::Cmp { ra, rb } => TraceOp::CmpOnly { ra, rb },
                Insn::CmpI { ra, imm } => TraceOp::CmpIOnly { ra, imm },
                Insn::Ld { rd, base, off } => TraceOp::Ld { rd, base, off, at },
                Insn::St { rb, base, off } => TraceOp::St { rb, base, off, at },
                Insn::LdG { rd, addr } => TraceOp::LdG { rd, addr, at },
                Insn::StG { rs, addr } => TraceOp::StG { rs, addr, at },
                Insn::LdB { rd, base, off } => TraceOp::LdB { rd, base, off, at },
                Insn::StB { rb, base, off } => TraceOp::StB { rb, base, off, at },
                Insn::Push { rs } => TraceOp::Push { rs, at },
                Insn::Pop { rd } => TraceOp::Pop { rd, at },
                Insn::Enter { frame } => TraceOp::Enter { frame, at },
                Insn::Leave => TraceOp::Leave { at },
                Insn::J { cond, target } => {
                    if cond == Cond::Always {
                        cont = target;
                        TraceOp::JmpU
                    } else {
                        let expect_taken = target < at;
                        cont = if expect_taken { target } else { next };
                        TraceOp::Jmp {
                            cond,
                            target,
                            fall: next,
                            expect_taken,
                        }
                    }
                }
                Insn::Call { target } => {
                    cont = target;
                    callstack.push(next);
                    TraceOp::CallPush { ret: next, at }
                }
                // A return whose address was pushed by a call earlier in
                // this same trace chains through; any other return is an
                // indirect transfer and stops the trace.
                Insn::Ret => match callstack.pop() {
                    Some(expect) => {
                        cont = expect;
                        TraceOp::RetTo { expect, at }
                    }
                    None => {
                        stop = true;
                        TraceOp::Exec {
                            insn,
                            at,
                            next,
                            end: true,
                        }
                    }
                },
                // Print-family syscalls continue at `next`; MPI traps and
                // exits leave the pass through their Exit instead.
                Insn::Sys { .. } => TraceOp::ExecBranch {
                    insn,
                    at,
                    next,
                    expect: next,
                    end: true,
                },
                Insn::JmpR { .. } | Insn::CallR { .. } | Insn::Halt => {
                    stop = true;
                    TraceOp::Exec {
                        insn,
                        at,
                        next,
                        end: true,
                    }
                }
                other if is_fpu_insn(&other) => TraceOp::Fpu { insn: other, at },
                other => TraceOp::Exec {
                    insn: other,
                    at,
                    next,
                    end: false,
                },
            };
            cover(&mut spans, at, next);
            ops.push(op);
            insn_count += 1;
            if insn.is_block_end() {
                blocks += 1;
            }
            if stop {
                break;
            }
            at = cont;
            if at == entry {
                closes_loop = true;
                break;
            }
        }
        if ops.is_empty() {
            return None;
        }
        // A pass must leave EIP correct when it falls off the tail: ops
        // that only write EIP on faults get an explicit fall-through to
        // the chain continuation (`at` holds it at every break above).
        if let Some(
            TraceOp::MovI { .. }
            | TraceOp::Mov { .. }
            | TraceOp::AddI { .. }
            | TraceOp::MulI { .. }
            | TraceOp::Alu { .. }
            | TraceOp::CmpOnly { .. }
            | TraceOp::CmpIOnly { .. }
            | TraceOp::Ld { .. }
            | TraceOp::St { .. }
            | TraceOp::LdG { .. }
            | TraceOp::StG { .. }
            | TraceOp::LdB { .. }
            | TraceOp::StB { .. }
            | TraceOp::LdAlu { .. }
            | TraceOp::Push { .. }
            | TraceOp::Pop { .. }
            | TraceOp::Enter { .. }
            | TraceOp::Leave { .. }
            | TraceOp::JmpU
            | TraceOp::CallPush { .. }
            | TraceOp::Fpu { .. },
        ) = ops.last()
        {
            ops.push(TraceOp::FallThrough { to: at });
        }
        Some(Trace {
            entry,
            insn_count,
            closes_loop,
            ops,
            spans,
        })
    }
}

/// The campaign-wide decoded-code store: one pre-decoded `SharedBank`
/// per text bank, cheaply cloneable (two `Arc`s). Build it once per
/// image and pass it to every machine loaded from that image — all
/// ranks, forks and worker threads then share decoded blocks and
/// promoted superblocks, and snapshots carry the handles so forked
/// trials start warm.
#[derive(Clone)]
pub struct SharedCode {
    pub(crate) app: Arc<SharedBank>,
    pub(crate) lib: Arc<SharedBank>,
}

impl SharedCode {
    /// Eagerly pre-decode both text sections of an image.
    pub fn build(image: &ProgramImage) -> SharedCode {
        SharedCode {
            app: Arc::new(SharedBank::build(TEXT_BASE, &image.text)),
            lib: Arc::new(SharedBank::build(LIB_BASE, &image.lib_text)),
        }
    }
}

impl std::fmt::Debug for SharedCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCode")
            .field("app_words", &self.app.insns.len())
            .field("lib_words", &self.lib.insns.len())
            .finish()
    }
}

/// One text bank's view of the decoded-code store: the `Arc`-shared
/// pre-decoded bank, which always describes the image's pristine text,
/// and the text byte ranges privileged pokes have rewritten in this
/// machine since. A decoded unit that read a poked byte is stale here:
/// `step()` decodes such a word from memory, and dispatch skips such
/// blocks and superblocks. The store itself is never written, so a poke
/// costs other machines nothing.
#[derive(Clone)]
struct CacheBank {
    shared: Arc<SharedBank>,
    /// Poked byte ranges `[lo, hi)`: sorted, disjoint and not touching,
    /// so a held fault re-poking one byte never grows it. Empty while
    /// the bank is pristine.
    poked: Vec<(u32, u32)>,
    /// Per-machine promotion heat for shared block entries (lazily
    /// sized — most forks never run anything hot).
    hotness: Vec<u16>,
    /// Read stamping only: per entry, which (stamp, block-or-trace)
    /// dispatch last had its words stamped, so each entry is stamped
    /// once per stamp value instead of once per dispatch (lazily sized;
    /// 0 = never).
    fetch_marks: Vec<u64>,
}

impl CacheBank {
    fn new(shared: Arc<SharedBank>) -> CacheBank {
        CacheBank {
            shared,
            poked: Vec::new(),
            hotness: Vec::new(),
            fetch_marks: Vec::new(),
        }
    }

    /// The same store and poked set; heat and stamp marks start empty.
    fn fork(&self) -> CacheBank {
        CacheBank {
            poked: self.poked.clone(),
            ..CacheBank::new(self.shared.clone())
        }
    }

    fn idx(&self, addr: u32) -> Option<usize> {
        self.shared.idx(addr)
    }

    fn heat(&mut self, i: usize) -> &mut u16 {
        if self.hotness.is_empty() {
            self.hotness = vec![0; self.shared.insns.len()];
        }
        &mut self.hotness[i]
    }

    fn fetch_mark(&mut self, i: usize) -> &mut u64 {
        if self.fetch_marks.is_empty() {
            self.fetch_marks = vec![0; self.shared.insns.len()];
        }
        &mut self.fetch_marks[i]
    }

    /// Does `[lo, hi)` hold a poked byte?
    fn is_poked(&self, lo: u32, hi: u32) -> bool {
        let k = self.poked.partition_point(|r| r.1 <= lo);
        self.poked.get(k).is_some_and(|r| r.0 < hi)
    }

    /// Does any of `spans` hold a poked byte?
    fn any_poked(&self, spans: &[(u32, u32)]) -> bool {
        spans.iter().any(|&(lo, hi)| self.is_poked(lo, hi))
    }

    /// The decode `step()` may take from the store for slot `i`: the
    /// store's, unless a poke touched the word or the one after it
    /// (which holds a two-word instruction's immediate).
    fn decoded(&self, i: usize) -> Option<(Insn, u8)> {
        let at = self.shared.base + 4 * i as u32;
        if self.is_poked(at, at.saturating_add(8)) {
            return None;
        }
        self.shared.insns[i]
    }

    /// A privileged poke landed on `[lo, hi)`: add the part inside this
    /// bank to the poked set, merging every range it overlaps or
    /// touches. A bank's first poke counts as a demotion.
    fn poke(&mut self, lo: u32, hi: u32, stats: &mut ExecStats) {
        let (base, words) = (self.shared.base, self.shared.insns.len() as u32);
        let (lo, hi) = (lo.max(base), hi.min(base + 4 * words));
        if lo >= hi {
            return;
        }
        if self.poked.is_empty() {
            stats.demotions += 1;
        }
        let first = self.poked.partition_point(|r| r.1 < lo);
        let last = self.poked.partition_point(|r| r.0 <= hi);
        let merged = if first < last {
            (lo.min(self.poked[first].0), hi.max(self.poked[last - 1].1))
        } else {
            (lo, hi)
        };
        self.poked.splice(first..last, [merged]);
    }
}

/// The two text banks (app at `TEXT_BASE`, lib at `LIB_BASE`) behind
/// one probe: every use site resolves a bank by address instead of
/// repeating the app-then-lib fallback dance.
#[derive(Clone)]
struct CodeCache {
    app: CacheBank,
    lib: CacheBank,
}

impl CodeCache {
    fn bank(&self, addr: u32) -> &CacheBank {
        if addr < LIB_BASE {
            &self.app
        } else {
            &self.lib
        }
    }

    fn bank_mut(&mut self, addr: u32) -> &mut CacheBank {
        if addr < LIB_BASE {
            &mut self.app
        } else {
            &mut self.lib
        }
    }

    /// The banks a fork of this machine starts with: the same store and
    /// poked set, no heat.
    fn fork(&self) -> CodeCache {
        CodeCache {
            app: self.app.fork(),
            lib: self.lib.fork(),
        }
    }
}

/// The FPU family — exactly the variants `Machine::exec_fpu` handles, so
/// the trace builder can route them to the inline [`TraceOp::Fpu`] arm.
fn is_fpu_insn(i: &Insn) -> bool {
    matches!(
        i,
        Insn::Fld { .. }
            | Insn::FldG { .. }
            | Insn::Fst { .. }
            | Insn::Fstp { .. }
            | Insn::FstpG { .. }
            | Insn::Fild { .. }
            | Insn::Fistp { .. }
            | Insn::FildR { .. }
            | Insn::FistpR { .. }
            | Insn::Fldz
            | Insn::Fld1
            | Insn::Fbinp { .. }
            | Insn::Funop { .. }
            | Insn::Fxch { .. }
            | Insn::FldSt { .. }
            | Insn::Fcomip
            | Insn::Fpop
    )
}

/// ALU ops that cannot trap (everything but Div/Mod) — the trace path's
/// inline arms share this with nothing else; `exec` keeps its own match
/// because it must also raise SIGFPE.
#[inline]
fn alu_nontrapping(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(b & 31),
        AluOp::Shr => a.wrapping_shr(b & 31),
        AluOp::Sar => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Div | AluOp::Mod => unreachable!("trapping ALU ops never inline into traces"),
    }
}

/// One simulated MPI process.
pub struct Machine {
    /// CPU registers.
    pub cpu: Cpu,
    /// The process address space.
    pub mem: Memory,
    /// The malloc arena.
    pub heap: HeapAllocator,
    /// Console (stdout) bytes.
    pub console: Vec<u8>,
    /// Output-file bytes (rank 0 writes results here).
    pub outfile: Vec<u8>,
    /// True while servicing an MPI call — drives heap-chunk tagging
    /// (§3.2's "at entry to an MPI routine, a flag is set").
    pub in_mpi: bool,
    /// Execution statistics.
    pub counters: Counters,
    /// Structured-event ring buffer ([`fl_obs`]). Part of the
    /// architectural state: snapshots carry it, so a forked trial
    /// replays the identical event stream a cold run produces.
    pub obs: EventLog,
    /// Decoded-code cache effectiveness counters (telemetry, not
    /// architectural state: snapshots neither carry nor compare them).
    pub exec_stats: ExecStats,
    budget: u64,
    text_end: u32,
    lib_text_end: u32,
    code: CodeCache,
    /// Lowest ESP observed on a push — measures peak stack depth for the
    /// Table 1 profile ("the stack size varied between 5-10 KB").
    min_esp: u32,
    /// fl-chaos: armed OS-level syscall failure.
    syscall_fault: Option<SyscallFault>,
    /// Matching syscalls seen since the fault was armed.
    syscall_fault_seen: u64,
    /// Syscall failures applied so far (0 = armed fault never fired).
    syscall_faults_fired: u64,
    /// fl-perturb: armed memory-latency surcharge window. Cleared when
    /// the window closes.
    mem_stall: Option<MemStall>,
    /// Surcharge instructions charged by mem-stall windows so far —
    /// part of the architectural insn clock (snapshots carry it).
    stall_insns: u64,
}

impl Machine {
    /// Load a program image, pre-decoding its text sections.
    pub fn load(image: &ProgramImage, cfg: MachineConfig) -> Machine {
        Machine::load_shared(image, cfg, None)
    }

    /// Load a program image, attaching an existing [`SharedCode`] store
    /// (which must have been built from the same image) instead of
    /// pre-decoding a fresh one. Campaigns build one store per app and
    /// hand it to every world, so all ranks, snapshot forks and worker
    /// threads share decoded blocks and promoted superblocks.
    ///
    /// With `None`, a fresh store is built. Every configuration uses
    /// one: the slow path and trace mode decode through it in `step()`.
    pub fn load_shared(
        image: &ProgramImage,
        cfg: MachineConfig,
        code: Option<&SharedCode>,
    ) -> Machine {
        let mut map = AddressSpaceMap::new();
        let text_len = image.text.len() as u32;
        map.add(Mapping {
            start: TEXT_BASE,
            end: TEXT_BASE + text_len.max(4),
            region: Region::Text,
            perms: Perms::RX,
        });
        let data_base = image.data_base();
        if !image.data.is_empty() {
            map.add(Mapping {
                start: data_base,
                end: data_base + image.data.len() as u32,
                region: Region::Data,
                perms: Perms::RW,
            });
        }
        let bss_base = image.bss_base();
        if image.bss_size > 0 {
            map.add(Mapping {
                start: bss_base,
                end: bss_base + image.bss_size,
                region: Region::Bss,
                perms: Perms::RW,
            });
        }
        let heap_base = image.heap_base();
        map.add(Mapping {
            start: heap_base,
            end: heap_base + image.heap_reserve.max(4096),
            region: Region::Heap,
            perms: Perms::RW,
        });
        let lib_text_len = image.lib_text.len() as u32;
        map.add(Mapping {
            start: LIB_BASE,
            end: LIB_BASE + lib_text_len.max(4),
            region: Region::LibText,
            perms: Perms::RX,
        });
        let lib_data_base = image.lib_data_base();
        map.add(Mapping {
            start: lib_data_base,
            end: lib_data_base + (image.lib_data.len() as u32).max(4096),
            region: Region::LibData,
            perms: Perms::RW,
        });
        map.add(Mapping {
            start: STACK_TOP - cfg.stack_size,
            end: STACK_TOP,
            region: Region::Stack,
            perms: Perms::RW,
        });

        let mut mem = Memory::new(map);
        mem.set_fastpath(cfg.fastpath);
        if cfg.trace {
            mem.set_traced();
        }
        mem.poke(TEXT_BASE, &image.text);
        mem.poke(data_base, &image.data);
        mem.poke(LIB_BASE, &image.lib_text);
        mem.poke(lib_data_base, &image.lib_data);

        let heap_limit = heap_base + cfg.heap_limit.min(LIB_BASE - heap_base);
        let code = code.cloned().unwrap_or_else(|| SharedCode::build(image));
        debug_assert_eq!(
            code.app.insns.len(),
            (text_len.max(4) as usize).div_ceil(4),
            "shared store was built from a different image"
        );
        let mut m = Machine {
            cpu: Cpu::new(image.entry, STACK_TOP - 16),
            mem,
            heap: HeapAllocator::new(heap_base, heap_limit),
            console: Vec::new(),
            outfile: Vec::new(),
            in_mpi: false,
            counters: Counters::default(),
            obs: if cfg.obs_capacity > 0 {
                EventLog::bounded(cfg.obs_capacity as usize)
            } else {
                EventLog::disabled()
            },
            exec_stats: ExecStats::default(),
            budget: cfg.budget,
            text_end: TEXT_BASE + text_len,
            lib_text_end: LIB_BASE + lib_text_len,
            code: CodeCache {
                app: CacheBank::new(code.app),
                lib: CacheBank::new(code.lib),
            },
            min_esp: STACK_TOP - 16,
            syscall_fault: None,
            syscall_fault_seen: 0,
            syscall_faults_fired: 0,
            mem_stall: None,
            stall_insns: 0,
        };
        m.stamp_block_clock();
        m
    }

    /// Arm an OS-level syscall failure (fl-chaos). Replaces any armed
    /// one and restarts the matching-call count.
    pub fn set_syscall_fault(&mut self, f: SyscallFault) {
        self.syscall_fault = Some(f);
        self.syscall_fault_seen = 0;
    }

    /// Syscall failures applied so far (0 = armed fault never fired).
    pub fn syscall_faults_fired(&self) -> u64 {
        self.syscall_faults_fired
    }

    /// Arm a memory-stall interference window (fl-perturb). Replaces
    /// any armed one.
    pub fn set_mem_stall(&mut self, f: MemStall) {
        self.mem_stall = Some(f);
    }

    /// The armed (not yet closed) mem-stall window, if any.
    pub fn mem_stall(&self) -> Option<MemStall> {
        self.mem_stall
    }

    /// Whether a syscall fault is armed (yet to fire, or persistent) or a
    /// mem-stall window has yet to close.
    pub fn fault_armed(&self) -> bool {
        self.syscall_fault.is_some() || self.mem_stall.is_some()
    }

    /// Surcharge instructions charged by mem-stall windows so far.
    pub fn stall_insns(&self) -> u64 {
        self.stall_insns
    }

    /// Peak stack usage in bytes.
    pub fn peak_stack_bytes(&self) -> u32 {
        (STACK_TOP - 16).saturating_sub(self.min_esp)
    }

    /// The application text range (for the stack walker and injector).
    pub fn app_text_range(&self) -> (u32, u32) {
        (TEXT_BASE, self.text_end)
    }

    /// The library text range.
    pub fn lib_text_range(&self) -> (u32, u32) {
        (LIB_BASE, self.lib_text_end)
    }

    /// Replace the instruction budget (the hang bound). A run that stays
    /// under both budgets is the same run under either.
    pub fn set_budget(&mut self, budget: u64) {
        self.budget = budget;
    }

    /// Remaining instruction budget.
    pub fn budget_left(&self) -> u64 {
        self.budget.saturating_sub(self.counters.insns)
    }

    // --- flags -----------------------------------------------------------

    fn set_flag(&mut self, mask: u32, on: bool) {
        if on {
            self.cpu.eflags |= mask;
        } else {
            self.cpu.eflags &= !mask;
        }
    }

    fn flags_from_sub(&mut self, a: u32, b: u32) {
        let (res, carry) = a.overflowing_sub(b);
        let (_, of) = (a as i32).overflowing_sub(b as i32);
        self.set_flag(EFLAGS_ZF, res == 0);
        self.set_flag(EFLAGS_SF, (res as i32) < 0);
        self.set_flag(EFLAGS_CF, carry);
        self.set_flag(EFLAGS_OF, of);
    }

    fn cond_holds(&self, c: Cond) -> bool {
        let f = self.cpu.eflags;
        let zf = f & EFLAGS_ZF != 0;
        let sf = f & EFLAGS_SF != 0;
        let cf = f & EFLAGS_CF != 0;
        let of = f & EFLAGS_OF != 0;
        match c {
            Cond::Always => true,
            Cond::Eq => zf,
            Cond::Ne => !zf,
            Cond::Lt => sf != of,
            Cond::Le => zf || sf != of,
            Cond::Gt => !zf && sf == of,
            Cond::Ge => sf == of,
            Cond::B => cf,
            Cond::Ae => !cf,
            Cond::Be => cf || zf,
            Cond::A => !cf && !zf,
        }
    }

    // --- stack helpers ----------------------------------------------------

    fn push(&mut self, v: u32) -> Result<(), Signal> {
        let esp = self.cpu.get(Gpr::Esp).wrapping_sub(4);
        self.cpu.set(Gpr::Esp, esp);
        self.min_esp = self.min_esp.min(esp);
        self.mem
            .store_u32(esp, v)
            .map_err(|f| Signal::Segv { addr: f.addr })
    }

    fn pop(&mut self) -> Result<u32, Signal> {
        let esp = self.cpu.get(Gpr::Esp);
        let v = self
            .mem
            .load_u32(esp)
            .map_err(|f| Signal::Segv { addr: f.addr })?;
        self.cpu.set(Gpr::Esp, esp.wrapping_add(4));
        Ok(v)
    }

    // --- execution --------------------------------------------------------

    /// Run until an exit condition, retiring at most `quantum` further
    /// instructions (then returning [`Exit::Quantum`]).
    ///
    /// Dispatches to the basic-block fast path when the memory fast path
    /// is on; otherwise runs the per-instruction slow loop. Both paths
    /// retire the same instructions in the same order with identical
    /// counters, events and signal points.
    pub fn run(&mut self, quantum: u64) -> Exit {
        let stop_at = self.counters.insns.saturating_add(quantum);
        match self.mem_stall {
            Some(f) => self.run_stalled(f, stop_at),
            None => self.run_to(stop_at),
        }
    }

    fn run_to(&mut self, stop_at: u64) -> Exit {
        if self.mem.fastpath() {
            // Two copies of the dispatch loop, so the one every trial
            // runs carries no read-stamping checks at all.
            if self.mem.read_stamping() {
                self.run_fast::<true>(stop_at)
            } else {
                self.run_fast::<false>(stop_at)
            }
        } else {
            self.run_slow(stop_at)
        }
    }

    /// Run with an armed [`MemStall`]: outside the window, plain
    /// execution clipped to the window edges; inside it, execute in
    /// small chunks and charge `data-accesses × per_access` extra
    /// retired instructions after each chunk. Chunk boundaries live on
    /// the instruction clock and the access counter is identical on
    /// both exec paths, so the inflated clock is path- and
    /// snapshot-deterministic (slop within one chunk is the same slop
    /// every run).
    fn run_stalled(&mut self, f: MemStall, stop_at: u64) -> Exit {
        /// Surcharge accounting granularity in retired instructions.
        const STALL_CHUNK: u64 = 64;
        let window_end = f.at_insns.saturating_add(f.window_insns);
        loop {
            let insns = self.counters.insns;
            if insns >= self.budget {
                return Exit::Budget;
            }
            if insns >= stop_at {
                return Exit::Quantum;
            }
            if insns >= window_end {
                // Window exhausted: disarm and finish the quantum plain.
                self.mem_stall = None;
                return self.run_to(stop_at);
            }
            let in_window = insns >= f.at_insns;
            let chunk_end = if in_window {
                (insns + STALL_CHUNK).min(stop_at).min(window_end)
            } else {
                // Not yet open: run plain up to the window start.
                f.at_insns.min(stop_at)
            };
            let before = self.mem.data_accesses();
            let exit = self.run_to(chunk_end);
            if in_window {
                let tax = (self.mem.data_accesses() - before).saturating_mul(f.per_access);
                self.counters.insns = self.counters.insns.saturating_add(tax);
                self.stall_insns += tax;
            }
            if exit != Exit::Quantum {
                return exit;
            }
            // Chunk boundary (or surcharge overshoot): loop re-checks
            // budget/quantum/window on the inflated clock.
        }
    }

    fn run_slow(&mut self, stop_at: u64) -> Exit {
        loop {
            if self.counters.insns >= self.budget {
                return Exit::Budget;
            }
            if self.counters.insns >= stop_at {
                return Exit::Quantum;
            }
            if let Some(exit) = self.step() {
                return exit;
            }
        }
    }

    /// Block/superblock dispatch: look up the shared decoded block (or
    /// superblock) at EIP and execute it in a tight inner loop, paying
    /// the cache-probe and dispatch overhead once per block — or once
    /// per whole loop body when a superblock pass is admitted — instead
    /// of once per instruction.
    fn run_fast<const STAMP: bool>(&mut self, stop_at: u64) -> Exit {
        let limit = self.budget.min(stop_at);
        // Pokes land between runs, never during one, so each bank and
        // whether it holds poked text are resolved once.
        let app = (
            self.code.app.shared.clone(),
            !self.code.app.poked.is_empty(),
        );
        let lib = (
            self.code.lib.shared.clone(),
            !self.code.lib.poked.is_empty(),
        );
        loop {
            if self.counters.insns >= limit {
                return if self.counters.insns >= self.budget {
                    Exit::Budget
                } else {
                    Exit::Quantum
                };
            }
            let eip = self.cpu.eip;
            let (bank, poked) = if eip < LIB_BASE { &app } else { &lib };
            if let Some(exit) = self.dispatch::<STAMP>(bank, *poked, eip, stop_at, limit) {
                return exit;
            }
        }
    }

    /// One dispatch against the store: enter a promoted superblock if a
    /// full pass fits under the limits, otherwise heat the entry
    /// (compiling a superblock at the threshold) and run the decoded
    /// block. On a `poked` bank, a superblock or block that covers a
    /// poked byte is skipped: trace falls back to block, block to
    /// `step()`.
    fn dispatch<const STAMP: bool>(
        &mut self,
        bank: &SharedBank,
        poked: bool,
        eip: u32,
        stop_at: u64,
        limit: u64,
    ) -> Option<Exit> {
        let Some(i) = bank.idx(eip) else {
            // Unaligned or outside the bank: single-step raises whatever
            // is architecturally right.
            return self.step();
        };
        match bank.traces[i].get() {
            Some(tr)
                if limit.saturating_sub(self.counters.insns) >= tr.insn_count
                    && !(poked && self.code.bank(eip).any_poked(&tr.spans)) =>
            {
                if STAMP && self.first_dispatch_under_stamp(eip, i, true) {
                    for &(lo, hi) in &tr.spans {
                        self.mem.stamp_read(lo, hi - lo);
                    }
                }
                return self.exec_trace(tr, limit);
            }
            // Not enough headroom for a full pass (or the pass reads a
            // poked byte): the block path below finishes with
            // per-instruction exactness.
            Some(_) => {}
            None => {
                let h = self.code.bank_mut(eip).heat(i);
                *h = h.saturating_add(1);
                if *h == TRACE_HOT_THRESHOLD {
                    if let Some(tr) = bank.build_trace(eip) {
                        let _ = bank.traces[i].set(tr);
                    }
                }
            }
        }
        let Some(block) = bank.block(i, &mut self.exec_stats) else {
            // Head instruction unfetchable/undecodable: the step path
            // raises the proper SIGSEGV/SIGILL with events.
            return self.step();
        };
        let end = eip.saturating_add(block.bytes());
        if poked && self.code.bank(eip).is_poked(eip, end) {
            return self.step();
        }
        if STAMP && self.first_dispatch_under_stamp(eip, i, false) {
            self.mem.stamp_read(eip, block.bytes());
        }
        self.exec_block(block, eip, stop_at)
    }

    /// Read stamping counts every instruction word of a dispatched block
    /// or superblock as fetched — a pass may leave early, so that
    /// over-approximates what executes, which is the sound direction for
    /// "never read again" — and does so once per stamp value, not once
    /// per dispatch: is this the first dispatch of entry slot `i` (as a
    /// block, or as a trace) under the current stamp?
    #[cold]
    fn first_dispatch_under_stamp(&mut self, eip: u32, i: usize, is_trace: bool) -> bool {
        let mark = (((self.mem.read_stamp() as u64) << 1) | is_trace as u64) + 1;
        let slot = self.code.bank_mut(eip).fetch_mark(i);
        std::mem::replace(slot, mark) != mark
    }

    /// Execute one full pass (or several, for a loop-closing trace) of a
    /// compiled superblock. The dispatcher has already verified that an
    /// entire pass fits under both the budget and the quantum, so the
    /// body runs with no per-instruction limit checks; counters still
    /// advance per instruction because syscalls and events read them.
    ///
    /// EIP discipline: inline ops leave EIP stale and restore it on a
    /// fault; `Exec`-family ops set it before dispatching (so early
    /// interpreter returns see the right value); every return path
    /// below therefore leaves `cpu.eip` architecturally exact.
    fn exec_trace(&mut self, tr: &Trace, limit: u64) -> Option<Exit> {
        // Counters are batched in locals so the hot arms touch registers,
        // not memory; they are written back (`sync!`) before anything that
        // can observe them — the interpreter, `raise`'s event record, a
        // side exit — and reloaded after the interpreter returns. Safe
        // because nothing else reads the counters mid-pass (a traced run's
        // block clock never takes this path).
        let mut insns = self.counters.insns;
        let mut blocks = self.counters.blocks;
        macro_rules! sync {
            () => {{
                self.counters.insns = insns;
                self.counters.blocks = blocks;
            }};
        }
        loop {
            self.exec_stats.trace_hits += 1;
            let last = tr.ops.len() - 1;
            for (i, op) in tr.ops.iter().enumerate() {
                match *op {
                    TraceOp::MovI { rd, imm } => {
                        insns += 1;
                        self.cpu.set(rd, imm);
                    }
                    TraceOp::Mov { rd, rs } => {
                        insns += 1;
                        let v = self.cpu.get(rs);
                        self.cpu.set(rd, v);
                    }
                    TraceOp::AddI { rd, ra, imm } => {
                        insns += 1;
                        let v = self.cpu.get(ra).wrapping_add(imm);
                        self.cpu.set(rd, v);
                    }
                    TraceOp::MulI { rd, ra, imm } => {
                        insns += 1;
                        let v = self.cpu.get(ra).wrapping_mul(imm);
                        self.cpu.set(rd, v);
                    }
                    TraceOp::Alu { op, rd, ra, rb } => {
                        insns += 1;
                        let v = alu_nontrapping(op, self.cpu.get(ra), self.cpu.get(rb));
                        self.cpu.set(rd, v);
                    }
                    TraceOp::CmpOnly { ra, rb } => {
                        insns += 1;
                        let (a, b) = (self.cpu.get(ra), self.cpu.get(rb));
                        self.flags_from_sub(a, b);
                    }
                    TraceOp::CmpIOnly { ra, imm } => {
                        insns += 1;
                        let a = self.cpu.get(ra);
                        self.flags_from_sub(a, imm);
                    }
                    TraceOp::Ld { rd, base, off, at } => {
                        insns += 1;
                        let addr = self.cpu.get(base).wrapping_add(off as u32);
                        match self.mem.load_u32(addr) {
                            Ok(v) => self.cpu.set(rd, v),
                            Err(f) => {
                                sync!();
                                return Some(self.trace_fault(at, f.addr));
                            }
                        }
                    }
                    TraceOp::St { rb, base, off, at } => {
                        insns += 1;
                        let addr = self.cpu.get(base).wrapping_add(off as u32);
                        let v = self.cpu.get(rb);
                        if let Err(f) = self.mem.store_u32(addr, v) {
                            sync!();
                            return Some(self.trace_fault(at, f.addr));
                        }
                    }
                    TraceOp::LdG { rd, addr, at } => {
                        insns += 1;
                        match self.mem.load_u32(addr) {
                            Ok(v) => self.cpu.set(rd, v),
                            Err(f) => {
                                sync!();
                                return Some(self.trace_fault(at, f.addr));
                            }
                        }
                    }
                    TraceOp::StG { rs, addr, at } => {
                        insns += 1;
                        let v = self.cpu.get(rs);
                        if let Err(f) = self.mem.store_u32(addr, v) {
                            sync!();
                            return Some(self.trace_fault(at, f.addr));
                        }
                    }
                    TraceOp::LdB { rd, base, off, at } => {
                        insns += 1;
                        let addr = self.cpu.get(base).wrapping_add(off as u32);
                        match self.mem.load_u8(addr) {
                            Ok(v) => self.cpu.set(rd, v as u32),
                            Err(f) => {
                                sync!();
                                return Some(self.trace_fault(at, f.addr));
                            }
                        }
                    }
                    TraceOp::StB { rb, base, off, at } => {
                        insns += 1;
                        let addr = self.cpu.get(base).wrapping_add(off as u32);
                        let v = self.cpu.get(rb) as u8;
                        if let Err(f) = self.mem.store_u8(addr, v) {
                            sync!();
                            return Some(self.trace_fault(at, f.addr));
                        }
                    }
                    TraceOp::LdAlu {
                        rd,
                        base,
                        off,
                        at,
                        op,
                        ard,
                        ara,
                        arb,
                    } => {
                        insns += 1;
                        let addr = self.cpu.get(base).wrapping_add(off as u32);
                        match self.mem.load_u32(addr) {
                            Ok(v) => self.cpu.set(rd, v),
                            Err(f) => {
                                sync!();
                                return Some(self.trace_fault(at, f.addr));
                            }
                        }
                        insns += 1;
                        let v = alu_nontrapping(op, self.cpu.get(ara), self.cpu.get(arb));
                        self.cpu.set(ard, v);
                    }
                    TraceOp::Push { rs, at } => {
                        insns += 1;
                        let v = self.cpu.get(rs);
                        if let Err(sig) = self.push(v) {
                            sync!();
                            self.cpu.eip = at;
                            return Some(self.raise(sig));
                        }
                    }
                    TraceOp::Pop { rd, at } => {
                        insns += 1;
                        match self.pop() {
                            Ok(v) => self.cpu.set(rd, v),
                            Err(sig) => {
                                sync!();
                                self.cpu.eip = at;
                                return Some(self.raise(sig));
                            }
                        }
                    }
                    TraceOp::Enter { frame, at } => {
                        insns += 1;
                        let ebp = self.cpu.get(Gpr::Ebp);
                        if let Err(sig) = self.push(ebp) {
                            sync!();
                            self.cpu.eip = at;
                            return Some(self.raise(sig));
                        }
                        let esp = self.cpu.get(Gpr::Esp);
                        self.cpu.set(Gpr::Ebp, esp);
                        self.cpu.set(Gpr::Esp, esp.wrapping_sub(frame));
                    }
                    TraceOp::Leave { at } => {
                        insns += 1;
                        let ebp = self.cpu.get(Gpr::Ebp);
                        self.cpu.set(Gpr::Esp, ebp);
                        match self.pop() {
                            Ok(saved) => self.cpu.set(Gpr::Ebp, saved),
                            Err(sig) => {
                                sync!();
                                self.cpu.eip = at;
                                return Some(self.raise(sig));
                            }
                        }
                    }
                    TraceOp::CmpIJ {
                        ra,
                        imm,
                        cond,
                        target,
                        fall,
                        expect_taken,
                    } => {
                        let a = self.cpu.get(ra);
                        self.flags_from_sub(a, imm);
                        insns += 2;
                        blocks += 1;
                        let taken = self.cond_holds(cond);
                        self.cpu.eip = if taken { target } else { fall };
                        if taken != expect_taken {
                            if i != last {
                                self.exec_stats.trace_side_exits += 1;
                            }
                            sync!();
                            return None;
                        }
                    }
                    TraceOp::CmpJ {
                        ra,
                        rb,
                        cond,
                        target,
                        fall,
                        expect_taken,
                    } => {
                        let (a, b) = (self.cpu.get(ra), self.cpu.get(rb));
                        self.flags_from_sub(a, b);
                        insns += 2;
                        blocks += 1;
                        let taken = self.cond_holds(cond);
                        self.cpu.eip = if taken { target } else { fall };
                        if taken != expect_taken {
                            if i != last {
                                self.exec_stats.trace_side_exits += 1;
                            }
                            sync!();
                            return None;
                        }
                    }
                    TraceOp::Jmp {
                        cond,
                        target,
                        fall,
                        expect_taken,
                    } => {
                        insns += 1;
                        blocks += 1;
                        let taken = self.cond_holds(cond);
                        self.cpu.eip = if taken { target } else { fall };
                        if taken != expect_taken {
                            if i != last {
                                self.exec_stats.trace_side_exits += 1;
                            }
                            sync!();
                            return None;
                        }
                    }
                    TraceOp::JmpU => {
                        insns += 1;
                        blocks += 1;
                    }
                    TraceOp::CallPush { ret, at } => {
                        insns += 1;
                        blocks += 1;
                        if let Err(sig) = self.push(ret) {
                            sync!();
                            self.cpu.eip = at;
                            return Some(self.raise(sig));
                        }
                    }
                    TraceOp::RetTo { expect, at } => {
                        insns += 1;
                        blocks += 1;
                        match self.pop() {
                            Ok(t) => {
                                self.cpu.eip = t;
                                if t != expect {
                                    if i != last {
                                        self.exec_stats.trace_side_exits += 1;
                                    }
                                    sync!();
                                    return None;
                                }
                            }
                            Err(sig) => {
                                sync!();
                                self.cpu.eip = at;
                                return Some(self.raise(sig));
                            }
                        }
                    }
                    TraceOp::Fpu { insn, at } => {
                        insns += 1;
                        if let Err(sig) = self.exec_fpu(insn, at) {
                            sync!();
                            self.cpu.eip = at;
                            return Some(self.raise(sig));
                        }
                    }
                    TraceOp::Exec {
                        insn,
                        at,
                        next,
                        end,
                    } => {
                        insns += 1;
                        if end {
                            blocks += 1;
                        }
                        sync!();
                        self.cpu.eip = at;
                        match self.exec(insn, at, next) {
                            Ok(None) => {
                                insns = self.counters.insns;
                                blocks = self.counters.blocks;
                            }
                            Ok(Some(exit)) => return Some(exit),
                            Err(sig) => return Some(self.raise(sig)),
                        }
                    }
                    TraceOp::ExecBranch {
                        insn,
                        at,
                        next,
                        expect,
                        end,
                    } => {
                        insns += 1;
                        if end {
                            blocks += 1;
                        }
                        sync!();
                        self.cpu.eip = at;
                        match self.exec(insn, at, next) {
                            Ok(None) => {
                                insns = self.counters.insns;
                                blocks = self.counters.blocks;
                                if self.cpu.eip != expect {
                                    if i != last {
                                        self.exec_stats.trace_side_exits += 1;
                                    }
                                    return None;
                                }
                            }
                            Ok(Some(exit)) => return Some(exit),
                            Err(sig) => return Some(self.raise(sig)),
                        }
                    }
                    TraceOp::FallThrough { to } => self.cpu.eip = to,
                }
            }
            // Loop in-trace only while another full pass fits under the
            // limits; otherwise the dispatcher (or block path) resumes.
            if !(tr.closes_loop
                && self.cpu.eip == tr.entry
                && limit.saturating_sub(insns) >= tr.insn_count)
            {
                sync!();
                return None;
            }
        }
    }

    /// An inline trace op faulted: restore EIP to the faulting
    /// instruction (where the interpreter leaves it) and raise.
    fn trace_fault(&mut self, at: u32, addr: u32) -> Exit {
        self.cpu.eip = at;
        self.raise(Signal::Segv { addr })
    }

    /// Execute a decoded block starting at `eip`, replicating
    /// [`Machine::step`]'s retire order exactly: budget/quantum check,
    /// counters, then exec. Leaves the block early on any taken branch,
    /// trap or raised signal. `None` means continue at `self.cpu.eip`.
    fn exec_block(&mut self, block: &Block, eip: u32, stop_at: u64) -> Option<Exit> {
        let limit = self.budget.min(stop_at);
        let mut at = eip;
        for &(insn, len) in &block.insns {
            if self.counters.insns >= limit {
                // One folded compare per instruction; disambiguate only
                // at the boundary (budget wins, exactly as the slow
                // path's check order has it).
                return Some(if self.counters.insns >= self.budget {
                    Exit::Budget
                } else {
                    Exit::Quantum
                });
            }
            self.counters.insns += 1;
            if insn.is_block_end() {
                self.counters.blocks += 1;
            }
            let next = at.wrapping_add(4 * len as u32);
            match self.exec(insn, at, next) {
                Ok(None) => {}
                Ok(Some(exit)) => return Some(exit),
                Err(sig) => return Some(self.raise(sig)),
            }
            if self.cpu.eip != next {
                // Taken branch (or a jump landing mid-block): resume
                // dispatch at the new EIP.
                return None;
            }
            at = next;
        }
        None
    }

    /// Execute one instruction. `None` means keep going.
    pub fn step(&mut self) -> Option<Exit> {
        let eip = self.cpu.eip;

        // Decode through the store, unless a poke made the entry stale or
        // EIP is not an aligned text word: then from memory, uncached.
        let bank = self.code.bank(eip);
        let (insn, len) = match bank.idx(eip).and_then(|i| bank.decoded(i)) {
            // Store words lie inside the executable text mapping, and
            // text is immutable to the program itself.
            Some((insn, len)) => (insn, len as usize),
            None => {
                let words = match self.mem.fetch_words(eip) {
                    Ok(w) => w,
                    Err(f) => return Some(self.raise(Signal::Segv { addr: f.addr })),
                };
                match decode_at(&words, 0) {
                    Ok(d) => d,
                    Err(_) => return Some(self.raise(Signal::Ill { eip })),
                }
            }
        };

        // A cached decode skips the fetch; it is a read all the same.
        self.mem.stamp_read(eip, 4 * len as u32);

        self.counters.insns += 1;
        if insn.is_block_end() {
            self.counters.blocks += 1;
            self.stamp_block_clock();
        }
        let next = eip.wrapping_add(4 * len as u32);
        match self.exec(insn, eip, next) {
            Ok(None) => None,
            Ok(Some(exit)) => Some(exit),
            Err(sig) => Some(self.raise(sig)),
        }
    }

    /// Record and return a fatal signal.
    fn raise(&mut self, sig: Signal) -> Exit {
        let (signal, addr) = match sig {
            Signal::Segv { addr } => (SigKind::Segv, addr),
            Signal::Ill { eip } => (SigKind::Ill, eip),
            Signal::Fpe { eip } => (SigKind::Fpe, eip),
        };
        self.obs.record(
            self.counters.blocks,
            EventKind::SignalRaised { signal, addr },
        );
        Exit::Signal(sig)
    }

    fn exec(&mut self, insn: Insn, eip: u32, next: u32) -> Result<Option<Exit>, Signal> {
        use Insn::*;
        let mut jumped = false;
        match insn {
            Nop => {}
            MovI { rd, imm } => self.cpu.set(rd, imm),
            Mov { rd, rs } => {
                let v = self.cpu.get(rs);
                self.cpu.set(rd, v);
            }
            Alu { op, rd, ra, rb } => {
                let a = self.cpu.get(ra);
                let b = self.cpu.get(rb);
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Mul => a.wrapping_mul(b),
                    AluOp::Div | AluOp::Mod => {
                        let (sa, sb) = (a as i32, b as i32);
                        if sb == 0 || (sa == i32::MIN && sb == -1) {
                            return Err(Signal::Fpe { eip });
                        }
                        if op == AluOp::Div {
                            (sa / sb) as u32
                        } else {
                            (sa % sb) as u32
                        }
                    }
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                    AluOp::Xor => a ^ b,
                    AluOp::Shl => a.wrapping_shl(b & 31),
                    AluOp::Shr => a.wrapping_shr(b & 31),
                    AluOp::Sar => ((a as i32).wrapping_shr(b & 31)) as u32,
                };
                self.cpu.set(rd, v);
            }
            AddI { rd, ra, imm } => {
                let v = self.cpu.get(ra).wrapping_add(imm);
                self.cpu.set(rd, v);
            }
            MulI { rd, ra, imm } => {
                let v = self.cpu.get(ra).wrapping_mul(imm);
                self.cpu.set(rd, v);
            }
            Cmp { ra, rb } => {
                let (a, b) = (self.cpu.get(ra), self.cpu.get(rb));
                self.flags_from_sub(a, b);
            }
            CmpI { ra, imm } => {
                let a = self.cpu.get(ra);
                self.flags_from_sub(a, imm);
            }
            J { cond, target } => {
                if self.cond_holds(cond) {
                    self.cpu.eip = target;
                    jumped = true;
                }
            }
            JmpR { rs } => {
                self.cpu.eip = self.cpu.get(rs);
                jumped = true;
            }
            Ld { rd, base, off } => {
                let addr = self.cpu.get(base).wrapping_add(off as u32);
                let v = self
                    .mem
                    .load_u32(addr)
                    .map_err(|f| Signal::Segv { addr: f.addr })?;
                self.cpu.set(rd, v);
            }
            St { rb, base, off } => {
                let addr = self.cpu.get(base).wrapping_add(off as u32);
                let v = self.cpu.get(rb);
                self.mem
                    .store_u32(addr, v)
                    .map_err(|f| Signal::Segv { addr: f.addr })?;
            }
            LdG { rd, addr } => {
                let v = self
                    .mem
                    .load_u32(addr)
                    .map_err(|f| Signal::Segv { addr: f.addr })?;
                self.cpu.set(rd, v);
            }
            StG { rs, addr } => {
                let v = self.cpu.get(rs);
                self.mem
                    .store_u32(addr, v)
                    .map_err(|f| Signal::Segv { addr: f.addr })?;
            }
            LdB { rd, base, off } => {
                let addr = self.cpu.get(base).wrapping_add(off as u32);
                let v = self
                    .mem
                    .load_u8(addr)
                    .map_err(|f| Signal::Segv { addr: f.addr })?;
                self.cpu.set(rd, v as u32);
            }
            StB { rb, base, off } => {
                let addr = self.cpu.get(base).wrapping_add(off as u32);
                let v = self.cpu.get(rb) as u8;
                self.mem
                    .store_u8(addr, v)
                    .map_err(|f| Signal::Segv { addr: f.addr })?;
            }
            Push { rs } => {
                let v = self.cpu.get(rs);
                self.push(v)?;
            }
            Pop { rd } => {
                let v = self.pop()?;
                self.cpu.set(rd, v);
            }
            Call { target } => {
                self.push(next)?;
                self.cpu.eip = target;
                jumped = true;
            }
            CallR { rs } => {
                let t = self.cpu.get(rs);
                self.push(next)?;
                self.cpu.eip = t;
                jumped = true;
            }
            Ret => {
                let t = self.pop()?;
                self.cpu.eip = t;
                jumped = true;
            }
            Enter { frame } => {
                let ebp = self.cpu.get(Gpr::Ebp);
                self.push(ebp)?;
                let esp = self.cpu.get(Gpr::Esp);
                self.cpu.set(Gpr::Ebp, esp);
                self.cpu.set(Gpr::Esp, esp.wrapping_sub(frame));
            }
            Leave => {
                let ebp = self.cpu.get(Gpr::Ebp);
                self.cpu.set(Gpr::Esp, ebp);
                let saved = self.pop()?;
                self.cpu.set(Gpr::Ebp, saved);
            }
            Sys { num } => {
                // EIP must already point past the SYS so MPI traps resume
                // correctly.
                self.cpu.eip = next;
                return self.exec_sys(num, eip).map(Some).or_else(|e| match e {
                    SysOutcome::Signal(s) => Err(s),
                    SysOutcome::Continue => Ok(None),
                });
            }
            Halt => return Ok(Some(Exit::Halted(self.cpu.get(Gpr::Eax) as i32))),

            // --- FPU: dispatched through `exec_fpu`, which the
            // superblock fast path also calls directly (one source of
            // truth for the op bodies, minus this interpreter frame).
            other => self.exec_fpu(other, eip)?,
        }
        if !jumped {
            self.cpu.eip = next;
        }
        Ok(None)
    }

    /// Execute one FPU instruction. Shared verbatim between the
    /// general interpreter and the superblock fast path: `eip` is the
    /// instruction address (for `note_insn` and fault reporting), and
    /// EIP advancement is the caller's business. Inlined so the trace
    /// loop pays one dispatch, not a nested interpreter call.
    #[inline(always)]
    fn exec_fpu(&mut self, insn: Insn, eip: u32) -> Result<(), Signal> {
        use Insn::*;
        match insn {
            Fld { base, off } => {
                let addr = self.cpu.get(base).wrapping_add(off as u32);
                let v = self
                    .mem
                    .load_f64(addr)
                    .map_err(|f| Signal::Segv { addr: f.addr })?;
                self.cpu.fpu.note_insn(eip, Some(addr));
                self.cpu.fpu.push(F80::from_f64(v));
            }
            FldG { addr } => {
                let v = self
                    .mem
                    .load_f64(addr)
                    .map_err(|f| Signal::Segv { addr: f.addr })?;
                self.cpu.fpu.note_insn(eip, Some(addr));
                self.cpu.fpu.push(F80::from_f64(v));
            }
            Fst { base, off } => {
                let addr = self.cpu.get(base).wrapping_add(off as u32);
                let v = self.cpu.fpu.read_st_f64(0);
                self.cpu.fpu.note_insn(eip, Some(addr));
                self.mem
                    .store_f64(addr, v)
                    .map_err(|f| Signal::Segv { addr: f.addr })?;
            }
            Fstp { base, off } => {
                let addr = self.cpu.get(base).wrapping_add(off as u32);
                let v = self.cpu.fpu.read_st_f64(0);
                self.mem
                    .store_f64(addr, v)
                    .map_err(|f| Signal::Segv { addr: f.addr })?;
                self.cpu.fpu.note_insn(eip, Some(addr));
                self.cpu.fpu.pop();
            }
            FstpG { addr } => {
                let v = self.cpu.fpu.read_st_f64(0);
                self.mem
                    .store_f64(addr, v)
                    .map_err(|f| Signal::Segv { addr: f.addr })?;
                self.cpu.fpu.note_insn(eip, Some(addr));
                self.cpu.fpu.pop();
            }
            Fild { base, off } => {
                let addr = self.cpu.get(base).wrapping_add(off as u32);
                let v = self
                    .mem
                    .load_u32(addr)
                    .map_err(|f| Signal::Segv { addr: f.addr })?;
                self.cpu.fpu.note_insn(eip, Some(addr));
                self.cpu.fpu.push(F80::from_f64(v as i32 as f64));
            }
            Fistp { base, off } => {
                let addr = self.cpu.get(base).wrapping_add(off as u32);
                let v = self.cpu.fpu.read_st_f64(0);
                let iv = f64_to_i32_x87(v);
                self.mem
                    .store_u32(addr, iv as u32)
                    .map_err(|f| Signal::Segv { addr: f.addr })?;
                self.cpu.fpu.note_insn(eip, Some(addr));
                self.cpu.fpu.pop();
            }
            FildR { rs } => {
                let v = self.cpu.get(rs) as i32 as f64;
                self.cpu.fpu.note_insn(eip, None);
                self.cpu.fpu.push(F80::from_f64(v));
            }
            FistpR { rd } => {
                let v = self.cpu.fpu.read_st_f64(0);
                self.cpu.fpu.pop();
                self.cpu.fpu.note_insn(eip, None);
                self.cpu.set(rd, f64_to_i32_x87(v) as u32);
            }
            Fldz => {
                self.cpu.fpu.note_insn(eip, None);
                self.cpu.fpu.push(F80::ZERO);
            }
            Fld1 => {
                self.cpu.fpu.note_insn(eip, None);
                self.cpu.fpu.push(F80::ONE);
            }
            Fbinp { op } => {
                let b = self.cpu.fpu.read_st_f64(0);
                let a = self.cpu.fpu.read_st_f64(1);
                let v = match op {
                    FpuBinOp::Add => a + b,
                    FpuBinOp::Sub => a - b,
                    FpuBinOp::SubR => b - a,
                    FpuBinOp::Mul => a * b,
                    FpuBinOp::Div => a / b,
                    FpuBinOp::DivR => b / a,
                };
                self.cpu.fpu.write_st(1, F80::from_f64(v));
                self.cpu.fpu.pop();
                self.cpu.fpu.note_insn(eip, None);
                self.counters.flops += 1;
            }
            Funop { op } => {
                let a = self.cpu.fpu.read_st_f64(0);
                let v = match op {
                    FpuUnOp::Chs => -a,
                    FpuUnOp::Abs => a.abs(),
                    FpuUnOp::Sqrt => a.sqrt(),
                    FpuUnOp::Sin => a.sin(),
                    FpuUnOp::Cos => a.cos(),
                    FpuUnOp::Exp => a.exp(),
                    FpuUnOp::Ln => a.ln(),
                };
                self.cpu.fpu.write_st(0, F80::from_f64(v));
                self.cpu.fpu.note_insn(eip, None);
                self.counters.flops += 1;
            }
            Fxch { i } => {
                self.cpu.fpu.fxch(i);
                self.cpu.fpu.note_insn(eip, None);
            }
            FldSt { i } => {
                let v = self.cpu.fpu.read_st(i);
                self.cpu.fpu.note_insn(eip, None);
                self.cpu.fpu.push(v);
            }
            Fcomip => {
                let a = self.cpu.fpu.read_st_f64(0);
                let b = self.cpu.fpu.read_st_f64(1);
                // x87 FCOMI semantics: unordered sets ZF and CF.
                if a.is_nan() || b.is_nan() {
                    self.set_flag(EFLAGS_ZF, true);
                    self.set_flag(EFLAGS_CF, true);
                } else {
                    self.set_flag(EFLAGS_ZF, a == b);
                    self.set_flag(EFLAGS_CF, a < b);
                }
                self.set_flag(EFLAGS_SF, false);
                self.set_flag(EFLAGS_OF, false);
                self.cpu.fpu.pop();
                self.cpu.fpu.note_insn(eip, None);
            }
            Fpop => {
                self.cpu.fpu.pop();
                self.cpu.fpu.note_insn(eip, None);
            }
            other => unreachable!("non-FPU insn {other:?} routed to exec_fpu"),
        }
        Ok(())
    }
    fn exec_sys(&mut self, num: u16, eip: u32) -> Result<Exit, SysOutcome> {
        let call = match Syscall::from_num(num) {
            Some(c) => c,
            // Unknown syscall number (e.g. a corrupted SYS field): the
            // kernel would deliver SIGSYS; we fold it into SIGILL.
            None => return Err(SysOutcome::Signal(Signal::Ill { eip })),
        };
        let [eax, ecx, ..] = SYS_ARGS.map(|r| self.cpu.get(r));
        let now = self.counters.blocks;
        let is_write = matches!(
            call,
            Syscall::PrintStr
                | Syscall::FileWrite
                | Syscall::PrintInt
                | Syscall::PrintFlt
                | Syscall::FileWriteFlt
                | Syscall::FileWriteBin
        );
        if is_write {
            self.counters.io_writes += 1;
        }
        if let Some(f) = self.syscall_fault {
            let hit = match f.kind {
                SyscallFaultKind::Malloc => call == Syscall::Malloc,
                SyscallFaultKind::Write => is_write,
            };
            if hit {
                self.syscall_fault_seen += 1;
                if self.syscall_fault_seen >= f.at_call {
                    if !f.persist {
                        self.syscall_fault = None;
                    }
                    self.syscall_faults_fired += 1;
                    self.obs.record(
                        now,
                        EventKind::FaultFired {
                            at_insns: self.counters.insns,
                        },
                    );
                    return match f.kind {
                        SyscallFaultKind::Malloc => {
                            // Allocation denied: the call is still counted
                            // and recorded, but the arena is untouched and
                            // the program sees NULL.
                            self.counters.mallocs += 1;
                            self.obs
                                .record(now, EventKind::MallocCall { size: ecx, ptr: 0 });
                            self.cpu.set(Gpr::Eax, 0);
                            Err(SysOutcome::Continue)
                        }
                        SyscallFaultKind::Write => {
                            // The write fails after consuming its operands
                            // (the FPU pop still happens, like a kernel
                            // that read the user buffer before erroring)
                            // and nothing reaches the sink; EAX reads -1.
                            if matches!(
                                call,
                                Syscall::PrintFlt | Syscall::FileWriteFlt | Syscall::FileWriteBin
                            ) {
                                self.cpu.fpu.pop();
                            }
                            self.cpu.set(Gpr::Eax, u32::MAX);
                            Err(SysOutcome::Continue)
                        }
                    };
                }
            }
        }
        match call {
            Syscall::Exit => Ok(Exit::Halted(eax as i32)),
            Syscall::PrintStr | Syscall::FileWrite => {
                // Append straight into the sink: no per-call scratch Vec.
                let sink = if call == Syscall::PrintStr {
                    &mut self.console
                } else {
                    &mut self.outfile
                };
                self.mem
                    .load_append(eax, ecx, sink)
                    .map_err(|f| SysOutcome::Signal(Signal::Segv { addr: f.addr }))?;
                Err(SysOutcome::Continue)
            }
            Syscall::PrintInt => {
                let s = (eax as i32).to_string();
                self.console.extend_from_slice(s.as_bytes());
                Err(SysOutcome::Continue)
            }
            Syscall::PrintFlt | Syscall::FileWriteFlt => {
                let digits = (ecx as usize).min(17);
                let v = self.cpu.fpu.pop().to_f64();
                let s = format!("{v:.digits$}");
                if call == Syscall::PrintFlt {
                    self.console.extend_from_slice(s.as_bytes());
                } else {
                    self.outfile.extend_from_slice(s.as_bytes());
                }
                Err(SysOutcome::Continue)
            }
            Syscall::FileWriteBin => {
                let v = self.cpu.fpu.pop().to_f64();
                self.outfile.extend_from_slice(&v.to_bits().to_le_bytes());
                Err(SysOutcome::Continue)
            }
            Syscall::Malloc => {
                self.counters.mallocs += 1;
                let tag = if self.in_mpi || self.eip_in_lib(eip) {
                    AllocTag::Mpi
                } else {
                    AllocTag::User
                };
                let ptr = self.heap.alloc(&mut self.mem, ecx, tag).unwrap_or(0);
                self.obs
                    .record(now, EventKind::MallocCall { size: ecx, ptr });
                self.cpu.set(Gpr::Eax, ptr);
                Err(SysOutcome::Continue)
            }
            Syscall::Free => {
                self.obs.record(now, EventKind::FreeCall { ptr: eax });
                match self.heap.free(&mut self.mem, eax) {
                    Ok(()) => Err(SysOutcome::Continue),
                    Err(e) => Ok(Exit::HeapCorruption(e)),
                }
            }
            Syscall::AbortMsg => {
                // Terminal path: one bounded read into a local buffer.
                let mut bytes = Vec::new();
                self.mem
                    .load_append(eax, ecx.min(4096), &mut bytes)
                    .map_err(|f| SysOutcome::Signal(Signal::Segv { addr: f.addr }))?;
                Ok(Exit::Abort(String::from_utf8_lossy(&bytes).into_owned()))
            }
            mpi if mpi.is_mpi() => {
                self.counters.mpi_calls += 1;
                self.in_mpi = true;
                self.obs.record(now, EventKind::SyscallTrap { num });
                Ok(Exit::Mpi(mpi))
            }
            _ => unreachable!("non-MPI syscalls all handled above"),
        }
    }

    fn eip_in_lib(&self, eip: u32) -> bool {
        (LIB_BASE..self.lib_text_end).contains(&eip)
    }

    /// Complete an MPI syscall: optionally write a return value to EAX and
    /// clear the in-MPI flag. The machine continues at the instruction
    /// after the trapping `SYS` on the next `run`.
    pub fn mpi_complete(&mut self, ret: Option<u32>) {
        if let Some(v) = ret {
            self.cpu.set(Gpr::Eax, v);
        }
        self.in_mpi = false;
    }

    // --- fault-injection interface (the `ptrace` analogue, §3.1) ---------

    /// Privileged memory write; keeps decoded code coherent. A poke
    /// landing in text joins its bank's poked set, so from then on this
    /// machine bypasses exactly the decoded words, blocks and superblocks
    /// that read a poked byte. Nothing is allocated or re-decoded.
    pub fn poke_mem(&mut self, addr: u32, data: &[u8]) {
        self.mem.poke(addr, data);
        let end = addr.saturating_add(data.len() as u32);
        self.code.app.poke(addr, end, &mut self.exec_stats);
        self.code.lib.poke(addr, end, &mut self.exec_stats);
    }

    /// Flip one bit of memory (privileged).
    pub fn flip_mem_bit(&mut self, addr: u32, bit: u8) {
        let b = self.mem.peek_u8(addr) ^ (1 << (bit & 7));
        self.poke_mem(addr, &[b]);
    }

    /// Force one bit of memory to a value — the stuck-at fault model
    /// (hard errors / long-duration faults, cf. Constantinescu's ASCI Red
    /// study discussed in §8.1 of the paper). Returns true if the byte
    /// changed.
    pub fn set_mem_bit(&mut self, addr: u32, bit: u8, value: bool) -> bool {
        let old = self.mem.peek_u8(addr);
        let mask = 1 << (bit & 7);
        let new = if value { old | mask } else { old & !mask };
        if new != old {
            self.poke_mem(addr, &[new]);
        }
        new != old
    }

    /// One bit of a register, addressed as [`Machine::flip_register_bit`]
    /// addresses it.
    pub fn register_bit(&self, reg: RegisterName, bit: u32) -> bool {
        match reg {
            RegisterName::Gpr(g) => self.cpu.get(g) >> (bit & 31) & 1 == 1,
            RegisterName::Eip => self.cpu.eip >> (bit & 31) & 1 == 1,
            RegisterName::Eflags => self.cpu.eflags >> (bit & 31) & 1 == 1,
            RegisterName::St(i) => {
                let (m, se) = self.cpu.fpu.regs[(i & 7) as usize].to_bits();
                let b = bit % 80;
                if b < 64 {
                    m >> b & 1 == 1
                } else {
                    se >> (b - 64) & 1 == 1
                }
            }
            RegisterName::FpuSpecial(s) => {
                self.cpu.fpu.special(s) >> (bit % reg.width_bits()) & 1 == 1
            }
        }
    }

    /// Force one bit of a register to a value (stuck-at model): the bit
    /// is read, and flipped only when it differs.
    pub fn set_register_bit(&mut self, reg: RegisterName, bit: u32, value: bool) {
        if self.register_bit(reg, bit) != value {
            self.flip_register_bit(reg, bit);
        }
    }

    /// Flip one bit of a register — the register fault model of §3.2.
    ///
    /// FPU data registers are addressed *physically* (a particle strike
    /// hits a cell, not a stack slot) and the tag word is deliberately NOT
    /// updated: the upset changes the bits behind the FPU's back.
    pub fn flip_register_bit(&mut self, reg: RegisterName, bit: u32) {
        match reg {
            RegisterName::Gpr(g) => {
                let v = self.cpu.get(g) ^ (1 << (bit & 31));
                self.cpu.set(g, v);
            }
            RegisterName::Eip => self.cpu.eip ^= 1 << (bit & 31),
            RegisterName::Eflags => self.cpu.eflags ^= 1 << (bit & 31),
            RegisterName::St(i) => {
                let p = (i & 7) as usize;
                self.cpu.fpu.regs[p] = self.cpu.fpu.regs[p].flip_bit(bit % 80);
            }
            RegisterName::FpuSpecial(s) => {
                use crate::fpu::Fpu;
                let f: &mut Fpu = &mut self.cpu.fpu;
                match s {
                    fl_isa::FpuSpecial::Cwd => f.cwd ^= 1 << (bit & 15),
                    fl_isa::FpuSpecial::Swd => f.swd ^= 1 << (bit & 15),
                    fl_isa::FpuSpecial::Twd => f.twd ^= 1 << (bit & 15),
                    fl_isa::FpuSpecial::Fip => f.fip ^= 1 << (bit & 31),
                    fl_isa::FpuSpecial::Fcs => f.fcs ^= 1 << (bit & 15),
                    fl_isa::FpuSpecial::Foo => f.foo ^= 1 << (bit & 31),
                    fl_isa::FpuSpecial::Fos => f.fos ^= 1 << (bit & 15),
                }
            }
        }
    }

    /// Console contents as UTF-8 (lossy).
    pub fn console_text(&self) -> String {
        String::from_utf8_lossy(&self.console).into_owned()
    }

    // --- read stamping / convergence ------------------------------------

    /// Turn read stamping on (if it is not already) and make `stamp` the
    /// value every subsequent read — guest load, instruction fetch,
    /// host-side [`Memory::guest_read`] — writes into the
    /// [`ReadStamps`] entry of each granule it touches. The caller
    /// advances it at whatever boundary it wants to tell reads apart by;
    /// a campaign's golden pass uses the index of the epoch interval
    /// being executed.
    pub fn set_read_stamp(&mut self, stamp: u32) {
        self.mem.set_read_stamp(stamp);
    }

    /// Trace mode: reads from here on carry the block clock + 1, so 0
    /// still means "never read". `trace_app` keeps budgets, and so
    /// blocks, under 2^32.
    fn stamp_block_clock(&mut self) {
        if self.mem.traced() {
            let clock = u32::try_from(self.counters.blocks + 1).unwrap_or(u32::MAX);
            self.mem.set_read_stamp(clock);
        }
    }

    /// Turn read stamping off and hand back what was collected (`None`
    /// if it was never on).
    pub fn take_read_stamps(&mut self) -> Option<ReadStamps> {
        // The once-per-stamp-value dispatch marks belong to this pass.
        self.code.app.fetch_marks = Vec::new();
        self.code.lib.fetch_marks = Vec::new();
        self.mem.take_read_stamps()
    }

    /// Is this process the golden run's process at epoch boundary `k`
    /// again? Every piece of architectural state must equal `snap`
    /// exactly, except CPU bits no instruction can read
    /// ([`Cpu::observably_eq`]) and memory granules the golden run never
    /// reads after the boundary (see [`Memory::converged_on`]); returns
    /// how many of those granules were excused. Decoded-code caches and
    /// telemetry are not state and are not compared.
    pub fn converged_on(&self, snap: &MachineSnapshot, stamps: &ReadStamps, k: u32) -> Option<u64> {
        // Destructured so a new field cannot be left out silently.
        let Machine {
            cpu,
            mem,
            heap,
            console,
            outfile,
            in_mpi,
            counters,
            obs,
            exec_stats: _,
            budget,
            text_end,
            lib_text_end,
            code: _,
            min_esp,
            syscall_fault,
            syscall_fault_seen,
            syscall_faults_fired,
            mem_stall,
            stall_insns,
        } = self;
        let same = *counters == snap.counters
            && cpu.observably_eq(&snap.cpu)
            && *in_mpi == snap.in_mpi
            && *budget == snap.budget
            && *text_end == snap.text_end
            && *lib_text_end == snap.lib_text_end
            && *min_esp == snap.min_esp
            && *syscall_fault == snap.syscall_fault
            && *syscall_fault_seen == snap.syscall_fault_seen
            && *syscall_faults_fired == snap.syscall_faults_fired
            && *mem_stall == snap.mem_stall
            && *stall_insns == snap.stall_insns
            && *heap == snap.heap
            && *console == snap.console
            && *outfile == snap.outfile
            && *obs == snap.obs;
        if !same {
            return None;
        }
        mem.converged_on(&snap.mem, stamps, k)
    }

    // --- snapshots --------------------------------------------------------

    /// Capture the complete architectural state of the process: CPU
    /// (GPRs, EFLAGS, EIP, full FPU), memory (COW page table + region
    /// map), malloc-runtime records, console/output buffers, counters
    /// and budget. Decoded code is *not* architectural state — the
    /// snapshot carries the store handles, so forks start warm, and each
    /// bank's poked set, so forks bypass what their origin bypassed.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            cpu: self.cpu.clone(),
            mem: self.mem.snapshot(),
            heap: self.heap.clone(),
            console: self.console.clone(),
            outfile: self.outfile.clone(),
            in_mpi: self.in_mpi,
            counters: self.counters,
            obs: self.obs.clone(),
            budget: self.budget,
            text_end: self.text_end,
            lib_text_end: self.lib_text_end,
            code: CodeHandle(self.code.fork()),
            min_esp: self.min_esp,
            syscall_fault: self.syscall_fault,
            syscall_fault_seen: self.syscall_fault_seen,
            syscall_faults_fired: self.syscall_faults_fired,
            mem_stall: self.mem_stall,
            stall_insns: self.stall_insns,
        }
    }
}

/// The decoded code a [`MachineSnapshot`] carries: the store handles,
/// so forked machines start warm, and each bank's poked set. A pure
/// performance artifact: `PartialEq` ignores it entirely — the poked
/// bytes themselves are in the snapshot's memory — mirroring how
/// `MemorySnapshot` equality ignores the fastpath flag.
#[derive(Clone)]
pub struct CodeHandle(CodeCache);

impl PartialEq for CodeHandle {
    fn eq(&self, _: &CodeHandle) -> bool {
        true
    }
}

impl std::fmt::Debug for CodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodeHandle")
            .field("app_poked", &self.0.app.poked)
            .field("lib_poked", &self.0.lib.poked)
            .finish()
    }
}

/// A captured [`Machine`] state. Equality is *architectural*: two
/// snapshots compare equal iff every register, every mapped byte, the
/// allocator records, the I/O buffers and the counters agree — which is
/// the invariant the snapshot property tests enforce between forked and
/// cold runs.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSnapshot {
    pub cpu: Cpu,
    pub mem: MemorySnapshot,
    pub heap: HeapAllocator,
    pub console: Vec<u8>,
    pub outfile: Vec<u8>,
    pub in_mpi: bool,
    pub counters: Counters,
    pub obs: EventLog,
    pub budget: u64,
    pub text_end: u32,
    pub lib_text_end: u32,
    /// Shared decoded-code handles (warm-cache fork); compares equal
    /// regardless of warmth.
    pub code: CodeHandle,
    pub min_esp: u32,
    pub syscall_fault: Option<SyscallFault>,
    pub syscall_fault_seen: u64,
    pub syscall_faults_fired: u64,
    pub mem_stall: Option<MemStall>,
    pub stall_insns: u64,
}

impl MachineSnapshot {
    /// Materialise a runnable [`Machine`] from this snapshot. Memory
    /// pages are shared copy-on-write with the snapshot (and with every
    /// other machine forked from it); decoded code reattaches warm to
    /// the store, with the snapshot's poked sets.
    pub fn to_machine(&self) -> Machine {
        let mut m = Machine {
            cpu: self.cpu.clone(),
            mem: self.mem.to_memory(),
            heap: self.heap.clone(),
            console: self.console.clone(),
            outfile: self.outfile.clone(),
            in_mpi: self.in_mpi,
            counters: self.counters,
            obs: self.obs.clone(),
            exec_stats: ExecStats::default(),
            budget: self.budget,
            text_end: self.text_end,
            lib_text_end: self.lib_text_end,
            code: self.code.0.fork(),
            min_esp: self.min_esp,
            syscall_fault: self.syscall_fault,
            syscall_fault_seen: self.syscall_fault_seen,
            syscall_faults_fired: self.syscall_faults_fired,
            mem_stall: self.mem_stall,
            stall_insns: self.stall_insns,
        };
        m.stamp_block_clock();
        m
    }
}

enum SysOutcome {
    Signal(Signal),
    Continue,
}

/// x87 FIST conversion: round to nearest even; out-of-range and NaN yield
/// the "integer indefinite" value 0x80000000.
fn f64_to_i32_x87(v: f64) -> i32 {
    if v.is_nan() || !(-2147483648.0..=2147483647.0).contains(&v) {
        return i32::MIN;
    }
    let r = v.round_ties_even();
    if !(-2147483648.0..=2147483647.0).contains(&r) {
        i32::MIN
    } else {
        r as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::KERNEL_BASE;
    use fl_isa::encode;

    /// Assemble a program image from instructions placed at TEXT_BASE.
    fn image(insns: &[Insn]) -> ProgramImage {
        let mut text = Vec::new();
        for i in insns {
            text.extend(encode(i).to_bytes());
        }
        ProgramImage {
            text,
            data: vec![0u8; 64],
            bss_size: 64,
            lib_text: encode(&Insn::Ret).to_bytes(),
            lib_data: Vec::new(),
            entry: TEXT_BASE,
            symbols: Vec::new(),
            heap_reserve: 4096,
        }
    }

    fn run_insns(insns: &[Insn]) -> (Machine, Exit) {
        let img = image(insns);
        let mut m = Machine::load(&img, MachineConfig::default());
        let e = m.run(100_000);
        (m, e)
    }

    #[test]
    fn arithmetic_and_halt() {
        use Gpr::*;
        let (m, e) = run_insns(&[
            Insn::MovI { rd: Eax, imm: 20 },
            Insn::MovI { rd: Ebx, imm: 22 },
            Insn::Alu {
                op: AluOp::Add,
                rd: Eax,
                ra: Eax,
                rb: Ebx,
            },
            Insn::Halt,
        ]);
        assert_eq!(e, Exit::Halted(42));
        assert_eq!(m.counters.insns, 4);
        assert_eq!(m.counters.blocks, 1); // only Halt ends a block
    }

    #[test]
    fn division_by_zero_sigfpe() {
        use Gpr::*;
        let (_, e) = run_insns(&[
            Insn::MovI { rd: Eax, imm: 7 },
            Insn::MovI { rd: Ebx, imm: 0 },
            Insn::Alu {
                op: AluOp::Div,
                rd: Eax,
                ra: Eax,
                rb: Ebx,
            },
            Insn::Halt,
        ]);
        assert!(matches!(e, Exit::Signal(Signal::Fpe { .. })));
    }

    #[test]
    fn int_min_div_minus_one_sigfpe() {
        use Gpr::*;
        let (_, e) = run_insns(&[
            Insn::MovI {
                rd: Eax,
                imm: 0x8000_0000,
            },
            Insn::MovI {
                rd: Ebx,
                imm: (-1i32) as u32,
            },
            Insn::Alu {
                op: AluOp::Div,
                rd: Eax,
                ra: Eax,
                rb: Ebx,
            },
            Insn::Halt,
        ]);
        assert!(matches!(e, Exit::Signal(Signal::Fpe { .. })));
    }

    #[test]
    fn wild_load_sigsegv() {
        use Gpr::*;
        let (_, e) = run_insns(&[
            Insn::MovI {
                rd: Eax,
                imm: 0x1234,
            },
            Insn::Ld {
                rd: Ebx,
                base: Eax,
                off: 0,
            },
            Insn::Halt,
        ]);
        assert_eq!(e, Exit::Signal(Signal::Segv { addr: 0x1234 }));
    }

    #[test]
    fn kernel_space_access_sigsegv() {
        use Gpr::*;
        let (_, e) = run_insns(&[
            Insn::MovI {
                rd: Eax,
                imm: KERNEL_BASE,
            },
            Insn::Ld {
                rd: Ebx,
                base: Eax,
                off: 16,
            },
            Insn::Halt,
        ]);
        assert!(matches!(e, Exit::Signal(Signal::Segv { .. })));
    }

    #[test]
    fn illegal_opcode_sigill() {
        let img = {
            let mut i = image(&[Insn::Nop]);
            i.text = vec![0u8; 8]; // opcode 0 is undefined
            i
        };
        let mut m = Machine::load(&img, MachineConfig::default());
        assert!(matches!(m.run(10), Exit::Signal(Signal::Ill { .. })));
    }

    #[test]
    fn loops_and_branches() {
        use Gpr::*;
        // sum 1..=10 in EBX
        let loop_start = TEXT_BASE + 8 + 8; // after two MovI (2 words each)
        let (m, e) = run_insns(&[
            Insn::MovI { rd: Ecx, imm: 1 },
            Insn::MovI { rd: Ebx, imm: 0 },
            // loop:
            Insn::Alu {
                op: AluOp::Add,
                rd: Ebx,
                ra: Ebx,
                rb: Ecx,
            },
            Insn::AddI {
                rd: Ecx,
                ra: Ecx,
                imm: 1,
            },
            Insn::CmpI { ra: Ecx, imm: 10 },
            Insn::J {
                cond: Cond::Le,
                target: loop_start,
            },
            Insn::Mov { rd: Eax, rs: Ebx },
            Insn::Halt,
        ]);
        assert_eq!(e, Exit::Halted(55));
        assert!(m.counters.blocks >= 10);
    }

    #[test]
    fn call_ret_and_frames() {
        use Gpr::*;
        // main: call f; halt.  f: enter 8; mov eax, 99; leave; ret
        // Layout: call (2w) halt (1w) -> f at TEXT_BASE+12
        let f_addr = TEXT_BASE + 12;
        let (m, e) = run_insns(&[
            Insn::Call { target: f_addr },
            Insn::Halt,
            Insn::Enter { frame: 8 },
            Insn::MovI { rd: Eax, imm: 99 },
            Insn::Leave,
            Insn::Ret,
        ]);
        assert_eq!(e, Exit::Halted(99));
        assert_eq!(m.cpu.get(Esp), STACK_TOP - 16); // balanced
    }

    #[test]
    fn fpu_computation() {
        use Gpr::*;
        // Compute sqrt(2.0 * 8.0) = 4.0 and print it.
        let data_base = image(&[Insn::Nop; 12]).data_base();
        let img = {
            let mut i = image(&[
                Insn::FldG { addr: data_base },
                Insn::FldG {
                    addr: data_base + 8,
                },
                Insn::Fbinp { op: FpuBinOp::Mul },
                Insn::Funop { op: FpuUnOp::Sqrt },
                Insn::MovI { rd: Ecx, imm: 3 },
                Insn::Sys {
                    num: Syscall::PrintFlt as u16,
                },
                Insn::MovI { rd: Eax, imm: 0 },
                Insn::Sys {
                    num: Syscall::Exit as u16,
                },
            ]);
            i.data[..8].copy_from_slice(&2.0f64.to_le_bytes());
            i.data[8..16].copy_from_slice(&8.0f64.to_le_bytes());
            i
        };
        let mut m = Machine::load(&img, MachineConfig::default());
        let e = m.run(1000);
        assert_eq!(e, Exit::Halted(0));
        assert_eq!(m.console_text(), "4.000");
        assert_eq!(m.counters.flops, 2);
    }

    #[test]
    fn malloc_free_via_syscalls() {
        use Gpr::*;
        let (m, e) = run_insns(&[
            Insn::MovI { rd: Ecx, imm: 128 },
            Insn::Sys {
                num: Syscall::Malloc as u16,
            },
            Insn::Mov { rd: Esi, rs: Eax },
            // store through the pointer
            Insn::MovI { rd: Ebx, imm: 7 },
            Insn::St {
                rb: Ebx,
                base: Esi,
                off: 0,
            },
            Insn::Mov { rd: Eax, rs: Esi },
            Insn::Sys {
                num: Syscall::Free as u16,
            },
            Insn::Ld {
                rd: Eax,
                base: Esi,
                off: 0,
            }, // use-after-free reads ok (no poison)
            Insn::Halt,
        ]);
        assert!(matches!(e, Exit::Halted(_)));
        assert_eq!(m.counters.mallocs, 1);
        assert_eq!(m.heap.live_chunks().len(), 0);
    }

    #[test]
    fn syscall_fault_denies_malloc() {
        use Gpr::*;
        let img = image(&[
            Insn::MovI { rd: Ecx, imm: 128 },
            Insn::Sys {
                num: Syscall::Malloc as u16,
            },
            Insn::Halt,
        ]);
        let mut m = Machine::load(&img, MachineConfig::default());
        m.set_syscall_fault(SyscallFault {
            kind: SyscallFaultKind::Malloc,
            at_call: 1,
            persist: false,
        });
        assert!(matches!(m.run(100), Exit::Halted(_)));
        assert_eq!(m.cpu.get(Eax), 0, "denied malloc returns NULL");
        assert_eq!(m.counters.mallocs, 1, "the call is still counted");
        assert_eq!(m.syscall_faults_fired(), 1);
        assert!(m.heap.live_chunks().is_empty(), "nothing was allocated");
    }

    #[test]
    fn syscall_fault_fails_the_drawn_write_only() {
        use Gpr::*;
        let img = image(&[
            Insn::MovI { rd: Eax, imm: 42 },
            Insn::Sys {
                num: Syscall::PrintInt as u16,
            },
            Insn::MovI { rd: Eax, imm: 43 },
            Insn::Sys {
                num: Syscall::PrintInt as u16,
            },
            Insn::Halt,
        ]);
        let mut m = Machine::load(&img, MachineConfig::default());
        m.set_syscall_fault(SyscallFault {
            kind: SyscallFaultKind::Write,
            at_call: 1,
            persist: false,
        });
        assert!(matches!(m.run(100), Exit::Halted(_)));
        assert_eq!(m.console_text(), "43", "only the drawn write fails");
        assert_eq!(m.counters.io_writes, 2, "both calls are counted");
        assert_eq!(m.syscall_faults_fired(), 1);
    }

    #[test]
    fn persistent_write_fault_suppresses_everything_after() {
        use Gpr::*;
        let img = image(&[
            Insn::MovI { rd: Eax, imm: 1 },
            Insn::Sys {
                num: Syscall::PrintInt as u16,
            },
            Insn::MovI { rd: Eax, imm: 2 },
            Insn::Sys {
                num: Syscall::PrintInt as u16,
            },
            Insn::MovI { rd: Eax, imm: 3 },
            Insn::Sys {
                num: Syscall::PrintInt as u16,
            },
            Insn::Halt,
        ]);
        let mut m = Machine::load(&img, MachineConfig::default());
        m.set_syscall_fault(SyscallFault {
            kind: SyscallFaultKind::Write,
            at_call: 2,
            persist: true,
        });
        assert!(matches!(m.run(100), Exit::Halted(_)));
        assert_eq!(m.console_text(), "1", "writes 2 and 3 both fail");
        assert_eq!(m.syscall_faults_fired(), 2);
    }

    #[test]
    fn failed_float_write_still_pops_the_fpu() {
        use Gpr::*;
        // Push 2.0 then 3.0; the first (failed) print must consume 3.0
        // so the second prints 2.0 — a fault may deny the write, never
        // desynchronize the FPU stack.
        let data_base = image(&[Insn::Nop; 8]).data_base();
        let img = {
            let mut i = image(&[
                Insn::FldG { addr: data_base },
                Insn::FldG {
                    addr: data_base + 8,
                },
                Insn::MovI { rd: Ecx, imm: 1 },
                Insn::Sys {
                    num: Syscall::PrintFlt as u16,
                },
                Insn::MovI { rd: Ecx, imm: 1 },
                Insn::Sys {
                    num: Syscall::PrintFlt as u16,
                },
                Insn::Halt,
            ]);
            i.data[..8].copy_from_slice(&2.0f64.to_le_bytes());
            i.data[8..16].copy_from_slice(&3.0f64.to_le_bytes());
            i
        };
        let mut m = Machine::load(&img, MachineConfig::default());
        m.set_syscall_fault(SyscallFault {
            kind: SyscallFaultKind::Write,
            at_call: 1,
            persist: false,
        });
        assert!(matches!(m.run(100), Exit::Halted(_)));
        assert_eq!(m.console_text(), "2.0");
    }

    #[test]
    fn syscall_fault_rides_snapshots() {
        use Gpr::*;
        let img = image(&[
            Insn::MovI { rd: Ecx, imm: 64 },
            Insn::Sys {
                num: Syscall::Malloc as u16,
            },
            Insn::Halt,
        ]);
        let mut m = Machine::load(&img, MachineConfig::default());
        m.set_syscall_fault(SyscallFault {
            kind: SyscallFaultKind::Malloc,
            at_call: 1,
            persist: false,
        });
        let snap = m.snapshot();
        let mut r = snap.to_machine();
        assert!(matches!(r.run(100), Exit::Halted(_)));
        assert_eq!(r.cpu.get(Eax), 0, "the restored machine replays the denial");
        assert_eq!(r.syscall_faults_fired(), 1);
    }

    #[test]
    fn corrupted_free_crashes_like_glibc() {
        use Gpr::*;
        let (_, e) = run_insns(&[
            Insn::MovI {
                rd: Eax,
                imm: 0x0b00_0000,
            },
            Insn::Sys {
                num: Syscall::Free as u16,
            },
            Insn::Halt,
        ]);
        assert!(matches!(e, Exit::HeapCorruption(_)));
    }

    #[test]
    fn abort_msg_is_app_detected() {
        use Gpr::*;
        let data_base = image(&[Insn::Nop]).data_base();
        let img = {
            let mut i = image(&[
                Insn::MovI {
                    rd: Eax,
                    imm: data_base,
                },
                Insn::MovI { rd: Ecx, imm: 9 },
                Insn::Sys {
                    num: Syscall::AbortMsg as u16,
                },
                Insn::Halt,
            ]);
            i.data[..9].copy_from_slice(b"NaN check");
            i
        };
        let mut m = Machine::load(&img, MachineConfig::default());
        assert_eq!(m.run(100), Exit::Abort("NaN check".into()));
    }

    #[test]
    fn mpi_syscall_traps_and_resumes() {
        use Gpr::*;
        let (mut m, e) = {
            let img = image(&[
                Insn::Sys {
                    num: Syscall::MpiCommRank as u16,
                },
                Insn::Mov { rd: Ebx, rs: Eax },
                Insn::Halt,
            ]);
            let mut m = Machine::load(&img, MachineConfig::default());
            let e = m.run(100);
            (m, e)
        };
        assert_eq!(e, Exit::Mpi(Syscall::MpiCommRank));
        assert!(m.in_mpi);
        m.mpi_complete(Some(3));
        assert!(!m.in_mpi);
        assert_eq!(m.run(100), Exit::Halted(3));
        assert_eq!(m.cpu.get(Ebx), 3);
    }

    #[test]
    fn budget_exhaustion_reports_hang() {
        // Infinite loop.
        let img = image(&[Insn::J {
            cond: Cond::Always,
            target: TEXT_BASE,
        }]);
        let mut m = Machine::load(
            &img,
            MachineConfig {
                budget: 5000,
                ..Default::default()
            },
        );
        assert_eq!(m.run(u64::MAX), Exit::Budget);
        assert_eq!(m.counters.insns, 5000);
    }

    #[test]
    fn quantum_preemption_preserves_state() {
        use Gpr::*;
        let loop_start = TEXT_BASE + 8;
        let img = image(&[
            Insn::MovI { rd: Ecx, imm: 0 },
            Insn::AddI {
                rd: Ecx,
                ra: Ecx,
                imm: 1,
            },
            Insn::CmpI { ra: Ecx, imm: 100 },
            Insn::J {
                cond: Cond::Lt,
                target: loop_start,
            },
            Insn::Mov { rd: Eax, rs: Ecx },
            Insn::Halt,
        ]);
        let mut m = Machine::load(&img, MachineConfig::default());
        let mut quanta = 0;
        loop {
            match m.run(7) {
                Exit::Quantum => quanta += 1,
                Exit::Halted(v) => {
                    assert_eq!(v, 100);
                    break;
                }
                other => panic!("unexpected exit {other:?}"),
            }
        }
        assert!(quanta > 10);
    }

    #[test]
    fn text_bit_flip_through_poke_changes_execution() {
        use Gpr::*;
        let img = image(&[Insn::MovI { rd: Eax, imm: 5 }, Insn::Halt]);
        let mut m = Machine::load(&img, MachineConfig::default());
        // Run once to warm the store's blocks, then rewind.
        assert!(matches!(m.run(100), Exit::Halted(5)));

        let mut m = Machine::load(&img, MachineConfig::default());
        // Flip a bit in the immediate word of MovI (word 1, bit 1): 5 -> 7.
        m.flip_mem_bit(TEXT_BASE + 4, 1);
        assert!(matches!(m.run(100), Exit::Halted(7)));
    }

    #[test]
    fn icache_invalidation_after_poke() {
        use Gpr::*;
        let img = image(&[
            Insn::MovI { rd: Eax, imm: 5 },
            Insn::J {
                cond: Cond::Always,
                target: TEXT_BASE + 12,
            },
            Insn::Halt,
        ]);
        let mut m = Machine::load(&img, MachineConfig::default());
        // Execute the MovI once (warming the cache) via single steps.
        assert!(m.step().is_none());
        // Now corrupt the MovI opcode to an illegal value and jump back.
        m.poke_mem(TEXT_BASE, &[0x00]);
        m.cpu.eip = TEXT_BASE;
        assert!(matches!(m.run(10), Exit::Signal(Signal::Ill { .. })));
    }

    #[test]
    fn block_cache_invalidation_after_poke() {
        use Gpr::*;
        let img = image(&[
            Insn::MovI { rd: Eax, imm: 5 },
            Insn::J {
                cond: Cond::Always,
                target: TEXT_BASE,
            },
        ]);
        let mut m = Machine::load(&img, MachineConfig::default());
        // Warm the block cache through the fast path (one quantum spins
        // the MovI+J loop several times).
        assert_eq!(m.run(10), Exit::Quantum);
        // Corrupt the MovI opcode; the next dispatch of the cached block
        // must see the poke and raise SIGILL at the corrupted address.
        m.poke_mem(TEXT_BASE, &[0x00]);
        m.cpu.eip = TEXT_BASE;
        assert!(matches!(
            m.run(10),
            Exit::Signal(Signal::Ill { eip }) if eip == TEXT_BASE
        ));
    }

    /// The one decode rule, for every word of both text banks of every
    /// app, tiny and paper size: a pristine store entry is the decode of
    /// `fetch_words` at that word, and after multi-byte pokes — a bank's
    /// last word, the immediate word of two-word instructions, random
    /// runs — the decode `step()` takes from the store is either bypassed
    /// or still that fresh decode.
    #[test]
    fn store_entries_decode_like_memory_before_and_after_pokes() {
        use fl_apps::{App, AppKind, AppParams};
        let fresh = |m: &mut Machine, addr: u32| {
            let words = m.mem.fetch_words(addr).ok()?;
            decode_at(&words, 0)
                .ok()
                .map(|(insn, len)| (insn, len as u8))
        };
        // Every word of both banks; with `poked`, what `step()` takes.
        let check = |m: &mut Machine, poked: bool, what: &str| {
            for base in [TEXT_BASE, LIB_BASE] {
                for i in 0..m.code.bank(base).shared.insns.len() {
                    let addr = base + 4 * i as u32;
                    let want = fresh(m, addr);
                    let bank = m.code.bank(base);
                    let got = match poked {
                        false => bank.shared.insns[i],
                        true => bank.decoded(i).or(want),
                    };
                    assert_eq!(got, want, "{what}: word {addr:#x}");
                }
            }
        };
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u32| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 32) as u32 % n
        };
        for kind in AppKind::ALL {
            for params in [AppParams::tiny(kind), AppParams::default_for(kind)] {
                // fl-apps links the crate, not this test build: restate
                // the image on this build's type.
                let app = App::build(kind, params).image;
                let img = ProgramImage {
                    text: app.text.clone(),
                    data: app.data.clone(),
                    bss_size: app.bss_size,
                    lib_text: app.lib_text.clone(),
                    lib_data: app.lib_data.clone(),
                    entry: app.entry,
                    symbols: Vec::new(),
                    heap_reserve: app.heap_reserve,
                };
                let what = format!("{kind:?} text {}", img.text.len());
                let mut m = Machine::load(&img, MachineConfig::default());
                check(&mut m, false, &what);
                for base in [TEXT_BASE, LIB_BASE] {
                    let bank = &m.code.bank(base).shared;
                    let words = bank.insns.len() as u32;
                    let two_word: Vec<u32> = (0..words)
                        .filter(|&i| matches!(bank.insns[i as usize], Some((_, 2))))
                        .collect();
                    let mut pokes = vec![(base + 4 * (words - 1), 4)];
                    for _ in 0..8 {
                        let i = two_word[next(two_word.len() as u32) as usize];
                        pokes.push((base + 4 * (i + 1) + next(4), 1 + next(4)));
                        pokes.push((base + 4 * next(words), 1 + next(12)));
                    }
                    for (addr, len) in pokes {
                        let bytes: Vec<u8> = (0..len).map(|_| next(256) as u8).collect();
                        m.poke_mem(
                            addr,
                            &bytes[..bytes.len().min((base + 4 * words - addr) as usize)],
                        );
                    }
                }
                assert_eq!(m.exec_stats.demotions, 2);
                check(&mut m, true, &what);
                // A held fault re-poking one byte never grows the set.
                let ranges = m.code.app.poked.len();
                for _ in 0..1000 {
                    m.flip_mem_bit(TEXT_BASE + 4, 3);
                }
                assert!(m.code.app.poked.len() <= ranges + 1);
                check(&mut m, true, &what);
            }
        }
    }

    #[test]
    fn fastpath_and_slowpath_agree_on_final_state() {
        use Gpr::*;
        let loop_start = TEXT_BASE + 8;
        let img = image(&[
            Insn::MovI { rd: Ecx, imm: 0 },
            Insn::AddI {
                rd: Ecx,
                ra: Ecx,
                imm: 1,
            },
            Insn::CmpI { ra: Ecx, imm: 250 },
            Insn::J {
                cond: Cond::Lt,
                target: loop_start,
            },
            Insn::Mov { rd: Eax, rs: Ecx },
            Insn::Halt,
        ]);
        let mut fast = Machine::load(&img, MachineConfig::default());
        let mut slow = Machine::load(
            &img,
            MachineConfig {
                fastpath: false,
                ..Default::default()
            },
        );
        // Drive both in identical awkward quanta so block boundaries and
        // quantum stops interleave.
        loop {
            let (a, b) = (fast.run(7), slow.run(7));
            assert_eq!(a, b);
            assert_eq!(fast.counters, slow.counters);
            if a != Exit::Quantum {
                break;
            }
        }
        assert_eq!(fast.snapshot(), slow.snapshot());
    }

    #[test]
    fn register_flip_gpr() {
        use Gpr::*;
        let img = image(&[Insn::Halt]);
        let mut m = Machine::load(&img, MachineConfig::default());
        m.cpu.set(Eax, 0b100);
        m.flip_register_bit(RegisterName::Gpr(Eax), 0);
        assert_eq!(m.cpu.get(Eax), 0b101);
        m.flip_register_bit(RegisterName::Eip, 31);
        assert_eq!(m.cpu.eip, TEXT_BASE ^ (1 << 31));
    }

    #[test]
    fn register_flip_fpu_does_not_update_tag() {
        let img = image(&[Insn::Halt]);
        let mut m = Machine::load(&img, MachineConfig::default());
        m.cpu.fpu.push(F80::from_f64(1.0));
        let p = m.cpu.fpu.phys(0) as u8;
        let tag_before = m.cpu.fpu.tag(p as usize);
        // Flip the integer bit: value becomes an unnormal, but the tag
        // still says "valid" — the upset happened behind the FPU's back.
        m.flip_register_bit(RegisterName::St(p), 63);
        assert_eq!(m.cpu.fpu.tag(p as usize), tag_before);
        assert!(m.cpu.fpu.read_st(0).classify() == crate::f80::F80Class::Special);
    }

    #[test]
    fn fist_conversion_edge_cases() {
        assert_eq!(f64_to_i32_x87(1.5), 2); // ties to even
        assert_eq!(f64_to_i32_x87(2.5), 2);
        assert_eq!(f64_to_i32_x87(-1.5), -2);
        assert_eq!(f64_to_i32_x87(f64::NAN), i32::MIN);
        assert_eq!(f64_to_i32_x87(1e300), i32::MIN);
        assert_eq!(f64_to_i32_x87(-1e300), i32::MIN);
    }

    #[test]
    fn eip_flip_usually_crashes() {
        // The classic register-injection outcome: a flipped EIP lands
        // outside any mapping and faults.
        let img = image(&[Insn::Nop, Insn::Nop, Insn::Halt]);
        let mut m = Machine::load(&img, MachineConfig::default());
        m.flip_register_bit(RegisterName::Eip, 30);
        assert!(matches!(m.run(10), Exit::Signal(Signal::Segv { .. })));
    }

    // --- read stamping / convergence ------------------------------------

    /// A counted loop hot enough to be promoted to a superblock, with a
    /// never-executed tail after the exit.
    fn hot_loop() -> ProgramImage {
        use Gpr::*;
        let loop_start = TEXT_BASE + 8;
        image(&[
            Insn::MovI { rd: Ecx, imm: 0 },
            Insn::AddI {
                rd: Ecx,
                ra: Ecx,
                imm: 1,
            },
            Insn::CmpI { ra: Ecx, imm: 400 },
            Insn::J {
                cond: Cond::Lt,
                target: loop_start,
            },
            Insn::Mov { rd: Eax, rs: Ecx },
            Insn::Halt,
            Insn::MovI { rd: Eax, imm: 9 }, // dead code
            Insn::Halt,
        ])
    }

    fn fetch_stamps(fastpath: bool) -> std::collections::BTreeMap<u32, u32> {
        let mut m = Machine::load(
            &hot_loop(),
            MachineConfig {
                fastpath,
                ..Default::default()
            },
        );
        m.set_read_stamp(1);
        assert_eq!(m.run(300), Exit::Quantum);
        m.set_read_stamp(2);
        assert!(matches!(m.run(u64::MAX), Exit::Halted(400)));
        if fastpath {
            assert!(m.exec_stats.trace_hits > 0, "the loop ran as a superblock");
        }
        m.take_read_stamps().unwrap().iter().collect()
    }

    #[test]
    fn every_tier_stamps_the_instruction_words_it_executes() {
        let slow = fetch_stamps(false);
        let fast = fetch_stamps(true);
        // Per-instruction truth: the prologue ran in interval 1 only, the
        // loop and the exit in interval 2, the dead tail never.
        assert_eq!(slow[&TEXT_BASE], 1);
        assert_eq!(slow[&(TEXT_BASE + 4)], 1, "immediate word");
        for w in 2..10 {
            assert_eq!(slow[&(TEXT_BASE + 4 * w)], 2, "word {w}");
        }
        assert!(!slow.contains_key(&(TEXT_BASE + 40)));
        // Blocks and superblocks stamp whole dispatches: never less, and
        // never anything beyond what a dispatched block or trace covers.
        for (addr, s) in &slow {
            assert!(fast.get(addr) >= Some(s), "{addr:#x} under-stamped");
        }
        assert!(!fast.contains_key(&(TEXT_BASE + 40)), "dead code stamped");
    }

    #[test]
    fn machine_convergence_is_exact_outside_memory() {
        let img = hot_loop();
        let mut golden = Machine::load(&img, MachineConfig::default());
        golden.set_read_stamp(1);
        assert_eq!(golden.run(100), Exit::Quantum);
        let snap = golden.snapshot();
        golden.set_read_stamp(2);
        assert!(matches!(golden.run(u64::MAX), Exit::Halted(400)));
        let stamps = golden.take_read_stamps().unwrap();

        let fork = snap.to_machine();
        assert_eq!(fork.converged_on(&snap, &stamps, 1), Some(0));
        // A register difference is never excused.
        let mut t = snap.to_machine();
        t.flip_register_bit(RegisterName::Gpr(Gpr::Ecx), 0);
        assert_eq!(t.converged_on(&snap, &stamps, 1), None);
        // Text the golden run still executes is live; dead code and the
        // finished prologue are not. The poked set is ignored.
        let mut t = snap.to_machine();
        t.flip_mem_bit(TEXT_BASE + 40, 0);
        t.flip_mem_bit(TEXT_BASE, 0);
        assert_eq!(t.exec_stats.demotions, 1);
        assert_eq!(t.converged_on(&snap, &stamps, 1), Some(2));
        t.flip_mem_bit(TEXT_BASE + 8, 0);
        assert_eq!(t.converged_on(&snap, &stamps, 1), None);
        // Counters are state.
        let mut t = snap.to_machine();
        assert_eq!(t.run(1), Exit::Quantum);
        assert_eq!(t.converged_on(&snap, &stamps, 1), None);
    }

    /// A traced fork of a loaded machine (what a world's ranks are) whose
    /// program ends its first block with a one-word jump over a dead word.
    fn traced_jump_over_dead_word() -> Machine {
        use Gpr::*;
        let img = image(&[
            Insn::MovI {
                rd: Eax,
                imm: TEXT_BASE + 16,
            },
            Insn::JmpR { rs: Eax },
            Insn::Nop, // dead: only ever the jump's lookahead word
            Insn::Halt,
        ]);
        let cfg = MachineConfig {
            trace: true,
            ..Default::default()
        };
        Machine::load(&img, cfg).snapshot().to_machine()
    }

    #[test]
    fn traced_runs_stamp_consumed_words_with_the_block_clock() {
        let mut m = traced_jump_over_dead_word();
        assert!(matches!(m.run(u64::MAX), Exit::Halted(_)));
        assert_eq!(m.counters.blocks, 2);
        let s: std::collections::BTreeMap<u32, u32> =
            m.take_read_stamps().unwrap().iter().collect();
        // Block 0 (clock 1) is the MovI and its immediate plus the jump;
        // block 1 (clock 2) is the Halt.
        let text: Vec<_> = s.into_iter().filter(|&(a, _)| a < TEXT_BASE + 20).collect();
        assert_eq!(
            text,
            [
                (TEXT_BASE, 1),
                (TEXT_BASE + 4, 1),
                (TEXT_BASE + 8, 1),
                (TEXT_BASE + 16, 2)
            ],
            "the dead word at +12 keeps stamp 0"
        );
    }

    #[test]
    fn traced_guest_reads_stamp_the_current_block_clock() {
        let mut m = traced_jump_over_dead_word();
        let data = TEXT_BASE + 0x1000;
        let mut buf = [0u8; 4];
        m.mem.guest_read(data, &mut buf); // before the first block ends
        assert_eq!(m.run(2), Exit::Quantum);
        assert_eq!(m.counters.blocks, 1);
        m.mem.guest_read(data + 8, &mut buf);
        let s = m.take_read_stamps().unwrap();
        assert_eq!((s.get(data), s.get(data + 4), s.get(data + 8)), (1, 0, 2));
    }
}
