//! # fl-guard — guarded execution for FaultLab trials
//!
//! The paper's closing argument (§6–7) is that MPI error handlers catch
//! only argument-level faults; real resilience needs message-level
//! detection plus checkpoint/recovery. This crate is that machinery,
//! built from parts the lab already has:
//!
//! * **Channel integrity** — every wire message carries a CRC32 over its
//!   live header fields and payload (`fl-mpi`); with
//!   [`fl_mpi::ChannelGuard`] enabled the receiving ADI verifies it,
//!   NACKs failures back to the sender's retransmit queue, and redelivers
//!   with exponential backoff. A §3.3 message flip becomes a retried
//!   delivery instead of a silent corruption or an "MPICH internal
//!   error" crash.
//! * **Progress watchdog** ([`Watchdog`]) — samples per-rank counters on
//!   the retired-block clock every few scheduler rounds and trips when
//!   no rank has done useful work (FLOPs or MPI calls, the §7 progress
//!   metrics) for a configured number of consecutive windows — turning
//!   multi-minute hangs into timely detections, long before the
//!   instruction budget expires.
//! * **Checkpoint-restart** ([`run_guarded`]) — periodic COW world
//!   checkpoints during the run; on any detected failure (CRC
//!   exhaustion, watchdog trip, MPI error, fatal signal, crash) roll
//!   back to the last checkpoint and re-execute, up to a bounded restart
//!   budget. Detection and recovery are timestamped on the fl-obs event
//!   clock (`crc_reject`, `retransmit`, `watchdog_trip`,
//!   `guard_restart`), so recovery latency is measurable per trial.
//!
//! Whether a rollback *recovers* depends on where the fault landed
//! relative to the last checkpoint: a transient fault that fired after
//! the checkpoint is erased by the rollback (clean re-run), while one
//! captured inside the checkpoint re-manifests deterministically until
//! the restart budget is exhausted. `fl-inject` classifies the first as
//! `Recovered` and the second as `DetectedByGuard`.

pub mod runner;
pub mod watchdog;

pub use runner::{resume_guarded, run_guarded, GuardPolicy, GuardReport, GuardState};
pub use watchdog::{Watchdog, WatchdogTrip};
