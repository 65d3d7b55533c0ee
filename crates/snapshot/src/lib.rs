//! # fl-snap — deterministic world checkpointing and snapshot-forked runs
//!
//! The paper's experimental procedure tears the cluster down to a clean
//! state between injections and replays the fault-free prefix of every
//! trial from scratch (§4.3). Because the FaultLab substrate is fully
//! deterministic, that prefix is *redundant work*: every trial of a
//! deterministic application executes bit-identical state up to its
//! injection point. This crate removes the redundancy.
//!
//! And because most injected faults are benign, so is most of what
//! *follows* the injection point: a trial that has provably become the
//! golden run again need not execute its suffix either.
//!
//! Three layers:
//!
//! * **Snapshots** — [`MachineSnapshot`] (registers, EFLAGS, EIP, the
//!   full x87 state, copy-on-write memory pages, malloc-runtime state)
//!   and [`WorldSnapshot`] (per-rank machines plus scheduler status,
//!   in-flight channel messages, sequence counters and the scheduling
//!   RNG). Both live in their home crates — `fl-machine` and `fl-mpi` —
//!   because they need private-field access; this crate re-exports them
//!   and builds policy on top.
//! * **[`EpochCache`]** — run the golden (fault-free) world once
//!   ([`EpochCache::run_golden`]), checkpointing every K scheduler
//!   rounds. A trial that injects at rank-local instruction `t` then
//!   *forks* from the latest epoch whose target rank had retired fewer
//!   than `t` instructions, skipping the shared prefix entirely
//!   ([`EpochCache::best_for`] states that rule once, for every fault
//!   clock). Page-granular copy-on-write means N concurrent forks share
//!   every page none of them has written. The finished golden world is
//!   handed back, so the caller takes the reference output and counters
//!   from the same pass. A world configuration other than the golden
//!   run's gets its own cache from its own clean run
//!   ([`EpochCache::run_clean`]: a few checkpoints, no read stamps), so
//!   a matrix column forks from checkpoints that are exact by
//!   construction. A runner that keeps state beside its world (a
//!   guard's rollback checkpoint and watchdog, a respawn's buddy line, a
//!   replica vote's digest record) steps that run as its own pass — a
//!   [`Rider`] — and the run holds the runner's state at each
//!   checkpoint too, so the runner resumes there as well. The golden pass, a clean run and an interval sweep
//!   (below) are one stepping loop under three checkpoint rules — every
//!   K rounds; at most eight, evenly spaced; every K rounds up to a stop
//!   round — with read stamping and page sharing as its only options,
//!   and [`EpochCache::boundary_at`] is the one round-to-checkpoint rule
//!   all three caches answer by.
//! * **Convergence-aware termination** — the same pass stamps, per rank
//!   and 4-byte granule, the index of the last epoch interval in which
//!   the golden run *read* it ([`fl_machine::ReadStamps`]; a read is a
//!   guest load, an instruction fetch, or a host-side read on the
//!   guest's behalf). [`EpochCache::converged`] then compares a live
//!   trial world, standing at the round of epoch `k` with its fault
//!   spent, against that epoch's snapshot: everything outside memory
//!   must be equal exactly, and memory may differ only in granules whose
//!   stamp is `<= k`. If so the golden run never reads a differing
//!   granule again; by induction over execution steps the trial reads
//!   the values the golden run read, does what it did and ends as it
//!   ended — the caller records `correct` with the golden instruction
//!   counts and stops. The argument needs round boundaries to line up,
//!   which is why `fl-mpi` fires an injection *inside* the victim's
//!   quantum instead of clipping the quantum at the fire point. Trials
//!   that record events are never ended early.
//! * **Interval sweeps** — when several trials fork from one epoch,
//!   [`EpochCache::sweep`] steps the golden run through the interval it
//!   opens once, keeping up to [`SWEEP_CHECKPOINTS`] round checkpoints
//!   ([`Interval`], itself a cache of the stepping loop). Each of those
//!   trials then forks from the latest
//!   checkpoint before its fire point instead of from the epoch, and is
//!   compared at every checkpoint round
//!   ([`EpochCache::converged_between`]), where only granules the golden
//!   run last read before the opening epoch may differ.
//!
//! Forking is valid whenever trial and golden run share their prefix.
//! Deterministic applications always do; moldyn's arrival-order shuffle
//! (§4.2.2) is drawn from the world RNG, which a [`WorldSnapshot`]
//! carries and `converged_on` compares, so it does too as long as the
//! caller builds trial worlds and the golden world from one schedule
//! seed — the campaign layer seeds it per campaign.

pub mod epoch;

pub use epoch::{Epoch, EpochCache, Interval, Rider, SWEEP_CHECKPOINTS};
pub use fl_machine::{MachineSnapshot, MemorySnapshot};
pub use fl_mpi::WorldSnapshot;
