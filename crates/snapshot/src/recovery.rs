//! Checkpoint/restart recovery: the classic defence the paper's §8
//! discussion motivates. Kill a rank mid-run, roll the whole world back
//! to the latest checkpoint, re-execute, and measure what the rollback
//! recovered versus what was lost.
//!
//! The fault model here is a *transient* node loss: the restored world is
//! re-run without re-arming the fault, so a successful recovery ends with
//! output bit-identical to the fault-free run.

use crate::epoch::Epoch;
use fl_machine::KERNEL_BASE;
use fl_mpi::{Launch, MpiWorld, WorldConfig, WorldExit};

/// Parameters of one recovery experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Scheduler rounds between checkpoints.
    pub checkpoint_every: u32,
    /// Rank whose process is killed.
    pub kill_rank: u16,
    /// Scheduler round after which the kill is applied.
    pub kill_round: u64,
}

/// What one recovery experiment observed.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Rounds the fault-free run took.
    pub golden_rounds: u64,
    /// How the faulty run ended (a crash when the kill landed in time).
    pub crash_exit: WorldExit,
    /// Round of the checkpoint the world was restored from.
    pub checkpoint_round: u64,
    /// Checkpoints taken before the kill.
    pub checkpoints_taken: usize,
    /// Rounds of work between the restored checkpoint and the kill —
    /// re-executed after rollback, i.e. lost to the fault.
    pub lost_rounds: u64,
    /// How the restored re-run ended.
    pub recovered_exit: WorldExit,
    /// True when the re-run completed cleanly with output bit-identical
    /// to the fault-free run.
    pub recovered: bool,
}

/// Rank-0 output streams: what a correct recovery must reproduce.
fn outputs(w: &MpiWorld) -> (Vec<u8>, Vec<u8>) {
    let m = w.machine(0);
    (m.outfile.clone(), m.console.clone())
}

/// Run a world to completion, counting scheduler rounds.
fn run_counting(w: &mut MpiWorld) -> (WorldExit, u64) {
    let mut rounds = 0u64;
    loop {
        if let Some(e) = w.run_round() {
            return (e, rounds);
        }
        rounds += 1;
    }
}

/// Execute one checkpoint/restart experiment.
///
/// Three phases: (1) a fault-free reference run; (2) a checkpointed run
/// in which `kill_rank`'s instruction pointer is thrown into kernel
/// space after `kill_round` rounds — the deterministic stand-in for a
/// node loss, guaranteed to SIGSEGV and abort the job; (3) restore from
/// the latest checkpoint and re-run to completion.
///
/// # Panics
///
/// Panics if `checkpoint_every` is zero or `kill_rank` is out of range.
pub fn run_recovery(launch: &Launch, cfg: WorldConfig, rcfg: RecoveryConfig) -> RecoveryReport {
    assert!(
        rcfg.checkpoint_every > 0,
        "checkpoint_every must be nonzero"
    );
    assert!(rcfg.kill_rank < cfg.nranks, "kill_rank out of range");

    let mut golden_world = launch.world(cfg);
    let (_, golden_rounds) = run_counting(&mut golden_world);
    let golden_out = outputs(&golden_world);

    // Checkpointed faulty run.
    let mut world = launch.world(cfg);
    let mut latest = Epoch {
        snap: world.snapshot(),
        round: 0,
    };
    let mut checkpoints_taken = 1usize;
    let mut rounds = 0u64;
    let mut killed_at = None;
    let crash_exit = loop {
        if let Some(e) = world.run_round() {
            break e;
        }
        rounds += 1;
        if killed_at.is_none() && rounds.is_multiple_of(rcfg.checkpoint_every as u64) {
            latest = Epoch {
                snap: world.snapshot(),
                round: rounds,
            };
            checkpoints_taken += 1;
        }
        if killed_at.is_none() && rounds >= rcfg.kill_round {
            // Node loss: the next fetch on this rank faults in kernel
            // space and MPICH-style crash containment kills the job.
            world.machine_mut(rcfg.kill_rank).cpu.eip = KERNEL_BASE + 4;
            killed_at = Some(rounds);
        }
    };

    // Rollback and transient re-run.
    let mut restored = latest.snap.restore();
    let (recovered_exit, _) = run_counting(&mut restored);
    let recovered = recovered_exit == WorldExit::Clean && outputs(&restored) == golden_out;

    RecoveryReport {
        golden_rounds,
        crash_exit,
        checkpoint_round: latest.round,
        checkpoints_taken,
        lost_rounds: killed_at
            .unwrap_or(latest.round)
            .saturating_sub(latest.round),
        recovered_exit,
        recovered,
    }
}
