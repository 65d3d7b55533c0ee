//! # fl-mpi — a simulated MPI-1.1 message layer
//!
//! The substrate substitution for MPICH (see DESIGN.md). The layering
//! follows Figure 2 of the paper:
//!
//! ```text
//!   User App          FL application code (crates/apps)
//!   ------- API       MPI_* wrapper functions at 0x40000000 (fl-lang link)
//!   ------- ADI       match/queue/collectives semantics   (world.rs)
//!   ------- Channel   raw byte transport + traffic accounting; the
//!                     message fault injector flips bits HERE (§3.3)
//! ```
//!
//! Point-to-point sends are eager below a threshold and RTS/CTS
//! rendezvous above it; barriers are dissemination rounds of header-only
//! control messages; broadcast/reduce/allreduce are flat root-based
//! exchanges. Headers are parsed from raw bytes on arrival, so injected
//! bit flips corrupt real fields with the paper's three outcomes:
//! malformed packets abort the job, mismatched envelopes hang it, and
//! payload corruption silently reaches user buffers.
//!
//! ## Faults
//!
//! Every fault the world can suffer is one [`Fault`]: a trigger rank, a
//! value `at` of one of that rank's deterministic clocks, and an
//! [`Effect`]. [`MpiWorld::arm`] is the one way to plant one:
//!
//! | effect | clock | held |
//! |---|---|---|
//! | [`Effect::Action`] — register/memory action (§3.1, §3.2) | retired insns | beside the plan; no snapshot carries it |
//! | [`Effect::Syscall`], [`Effect::Stall`] | syscalls issued / retired insns | the victim machine's own slot |
//! | [`WorldEffect::Wire`] — §3.3 bit flip, drop, duplicate, reorder, corrupt | received bytes | [`FaultPlan`] |
//! | [`WorldEffect::Kill`], [`WorldEffect::Cut`], [`WorldEffect::Tax`], [`WorldEffect::Hog`] | retired blocks | [`FaultPlan`], then its window |
//!
//! The [`FaultPlan`] ([`MpiWorld::plan`]) is plain data inside the state
//! a [`WorldSnapshot`] holds by value, so armed faults and open windows
//! ride checkpoints, and [`MpiWorld::disarm`] removes the ones a
//! recovery path means to survive. DESIGN.md §13 has the full table.

pub mod message;
pub mod profile;
pub mod world;

pub use message::{
    crc32, CtlOp, Header, HeaderError, MsgKind, WireMsg, CRC_COVERED_HEADER, CRC_OFFSET,
    HEADER_SIZE, MAX_PAYLOAD,
};
pub use profile::TrafficProfile;
pub use world::{
    Action, ChannelGuard, Clock, Effect, FailureDetector, Fault, FaultPlan, Health, Launch,
    MessageFaultHit, MpiWorld, NetFaultKind, WorldConfig, WorldEffect, WorldExit, WorldSnapshot,
    ANY_SOURCE, MAX_USER_TAG, MPIX_ERR_PROC_FAILED,
};
