//! # fl-ft — process-level fault tolerance
//!
//! The paper's §5.1 taxonomy stops at *detecting* an error; this crate
//! models what a fault-tolerant MPI runtime does *next* when the error is
//! the loss of a whole process. Three recovery disciplines are provided,
//! all built on the fl-mpi substrate primitives (heartbeat failure
//! detection, world snapshots, outbound-traffic digests):
//!
//! - **Shrink** ([`run_shrink`]) — ULFM `MPI_Comm_shrink` style: when the
//!   detector raises [`WorldExit::RankFailed`], rebuild the world over the
//!   survivors and rerun the (now smaller) job. Communication is
//!   restored; the lost rank's state is not — the apps are weak-scaled
//!   (per-rank problem size), so the shrunken run solves the smaller
//!   problem and is checked against a fresh survivor-count golden.
//! - **Respawn** ([`run_respawn`]) — buddy checkpointing: every
//!   `buddy_rounds` scheduler rounds each rank streams its state to a
//!   ring partner ([`buddy_of`]), forming a coordinated checkpoint line.
//!   On failure a spare is booted from the failed rank's line and the
//!   whole world resumes from it, reproducing the original-size answer.
//! - **Replication** ([`run_replicated`]) — N full replicas of the world
//!   run in lockstep with per-rank rolling CRC32 digests over outbound
//!   traffic. A replica whose digests diverge from the strict majority is
//!   voted out mid-run; the final (exit, output) pair is voted the same
//!   way, so a single bad replica is masked and a no-majority split is
//!   *detected* rather than silently trusted.
//!
//! The fault these paths recover from is [`WorldEffect::Kill`] — a process
//! dies (or wedges: stays resident but silent) at a drawn retired-block
//! clock, the process-level analogue of the paper's bit flips.

use fl_machine::ProgramImage;
use fl_mpi::{FailureDetector, MpiWorld, WorldConfig, WorldEffect, WorldExit, WorldSnapshot};

pub use fl_mpi::Health;

/// Knobs for the recovery paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FtPolicy {
    /// Heartbeat detector settings. `enabled` is forced on by the
    /// runners; the probe/suspect thresholds are what matter here.
    pub detector: FailureDetector,
    /// Scheduler rounds between buddy checkpoint lines (respawn only).
    /// A line is captured only when every rank is alive — a coordinated
    /// checkpoint needs all participants to contribute their piece.
    pub buddy_rounds: u64,
    /// Respawn attempts before the failure is surfaced as fatal.
    pub max_respawns: u32,
    /// Replica count for [`run_replicated`] (clamped to at least 2).
    pub replicas: u16,
}

impl Default for FtPolicy {
    fn default() -> Self {
        FtPolicy {
            detector: FailureDetector {
                enabled: true,
                ..FailureDetector::default()
            },
            buddy_rounds: 64,
            max_respawns: 3,
            replicas: 3,
        }
    }
}

/// Which fault-tolerance discipline a run used (campaign axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtMode {
    /// No detector, no recovery: a killed rank strands its peers.
    Baseline,
    /// Detect, then rebuild the world over the survivors.
    Shrink,
    /// Detect, then boot a spare from the buddy checkpoint line.
    Respawn,
    /// N lockstep replicas with digest/output voting.
    Replicated,
    /// ULFM mode: failures surface *inside* the application as
    /// `MPIX_ERR_PROC_FAILED` returns and fault-aware collectives; the
    /// app recovers itself (ack / agree / shrink / checkpoint rollback)
    /// with no harness intervention at all.
    App,
}

impl FtMode {
    /// Every mode, baseline first (campaign sweep order).
    pub const ALL: [FtMode; 5] = [
        FtMode::Baseline,
        FtMode::Shrink,
        FtMode::Respawn,
        FtMode::Replicated,
        FtMode::App,
    ];

    /// Display label — also the canonical parse name.
    pub fn label(self) -> &'static str {
        match self {
            FtMode::Baseline => "baseline",
            FtMode::Shrink => "shrink",
            FtMode::Respawn => "respawn",
            FtMode::Replicated => "replicated",
            FtMode::App => "app",
        }
    }
}

impl std::fmt::Display for FtMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for FtMode {
    type Err = String;

    fn from_str(s: &str) -> Result<FtMode, String> {
        Ok(match s {
            "baseline" => FtMode::Baseline,
            "shrink" => FtMode::Shrink,
            "respawn" => FtMode::Respawn,
            "replicated" => FtMode::Replicated,
            "app" => FtMode::App,
            other => return Err(format!("unknown ft mode `{other}`")),
        })
    }
}

/// What a recovery run did and how it ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtReport {
    /// Final exit of the (possibly recovered) run.
    pub exit: WorldExit,
    /// Failures the heartbeat detector raised.
    pub failures_detected: u32,
    /// Worlds rebuilt over survivors.
    pub shrinks: u32,
    /// Spares booted from a buddy line.
    pub respawns: u32,
    /// Replicas voted out (digest or final-output divergence).
    pub votes: u32,
    /// Rank count of the world that produced `exit`.
    pub final_nranks: u16,
}

impl FtReport {
    fn fresh(exit: WorldExit, nranks: u16) -> FtReport {
        FtReport {
            exit,
            failures_detected: 0,
            shrinks: 0,
            respawns: 0,
            votes: 0,
            final_nranks: nranks,
        }
    }

    /// Did any recovery machinery actually engage?
    pub fn intervened(&self) -> bool {
        self.shrinks > 0 || self.respawns > 0 || self.votes > 0
    }
}

/// Ring buddy: the partner that holds `rank`'s checkpoint line and
/// receives its suspicion/probe events.
pub fn buddy_of(rank: u16, nranks: u16) -> u16 {
    (rank + 1) % nranks.max(1)
}

/// `cfg` with the policy's failure detector switched on.
///
/// Harness-owned recovery: the app-visible ulfm surface is forced *off*
/// so a matured failure terminates the world (`RankFailed`) for the
/// runner to handle — even for an app whose own config asks for ulfm.
pub fn ft_config(cfg: WorldConfig, policy: &FtPolicy) -> WorldConfig {
    let mut out = cfg;
    out.ft = FailureDetector {
        enabled: true,
        ..policy.detector
    };
    out.ulfm = false;
    out
}

/// ULFM-style shrink: a fresh world over one fewer rank.
///
/// `MPI_Comm_size` is resolved at run time in the simulated apps, so the
/// same program image runs at any rank count; the survivors restart the
/// (per-rank-scaled) problem from the beginning. Shrink restores
/// *communication*, not the lost rank's state — that is respawn's job.
/// The returned world is deterministic given `cfg`: no detector residue
/// and no carried fault, so its event stream is bit-identical to a cold
/// run at `nranks - 1` (pinned by the fl-ft property tests).
pub fn shrink(image: &ProgramImage, cfg: WorldConfig) -> MpiWorld {
    assert!(cfg.nranks >= 2, "cannot shrink a single-rank world");
    let mut scfg = cfg;
    scfg.nranks = cfg.nranks - 1;
    MpiWorld::new(image, scfg)
}

/// Run with the detector on; on [`WorldExit::RankFailed`], shrink to the
/// survivors and rerun. `arm` plants the fault (if any) in the initial
/// world.
pub fn run_shrink(
    image: &ProgramImage,
    cfg: WorldConfig,
    policy: &FtPolicy,
    arm: impl FnOnce(&mut MpiWorld),
) -> (MpiWorld, FtReport) {
    let mut world = MpiWorld::new(image, ft_config(cfg, policy));
    arm(&mut world);
    let exit = world.run();
    let mut report = FtReport::fresh(exit.clone(), world.nranks());
    if let WorldExit::RankFailed { rank, .. } = exit {
        report.failures_detected = 1;
        let mut survivor = shrink(image, ft_config(cfg, policy));
        // The shrunken world itself is pristine; the marker event is the
        // recovery runner's doing, not shrink()'s, so the survivor stream
        // minus this prefix stays comparable to a cold shrunken run.
        survivor.note_world_shrunk(rank, survivor.nranks());
        report.shrinks = 1;
        report.exit = survivor.run();
        report.final_nranks = survivor.nranks();
        return (survivor, report);
    }
    (world, report)
}

/// `cfg` with the detector on *and* app-visible ULFM mode on.
pub fn ulfm_config(cfg: WorldConfig, policy: &FtPolicy) -> WorldConfig {
    let mut out = ft_config(cfg, policy);
    out.ulfm = true;
    out
}

/// Run in app-visible ULFM mode: failures become `MPIX_ERR_PROC_FAILED`
/// completions and fault-aware collectives *inside* the program, and the
/// application is expected to recover itself (ack / agree / shrink /
/// checkpoint rollback). The harness never intervenes — the report only
/// records what the app-visible machinery did: failures surfaced and
/// worlds the *application* rebuilt via `mpix_comm_shrink`.
pub fn run_app(
    image: &ProgramImage,
    cfg: WorldConfig,
    policy: &FtPolicy,
    arm: impl FnOnce(&mut MpiWorld),
) -> (MpiWorld, FtReport) {
    let mut world = MpiWorld::new(image, ulfm_config(cfg, policy));
    arm(&mut world);
    let exit = world.run();
    let mut report = FtReport::fresh(exit, world.nranks());
    // Ranks the app shrank away, plus failures known but not (yet)
    // recovered from.
    report.failures_detected =
        (cfg.nranks - world.nranks()) as u32 + world.ulfm_failed_mask().count_ones();
    report.shrinks = world.app_shrinks();
    (world, report)
}

/// One coordinated buddy checkpoint line: the assembled per-rank pieces
/// (modelled as a world snapshot) plus the round they were cut at.
struct BuddyLine {
    snap: WorldSnapshot,
    round: u64,
}

/// Run with the detector on, cutting a buddy checkpoint line every
/// `policy.buddy_rounds`; on failure, boot a spare from the last line
/// and resume. Every armed kill the line carries is disarmed on restore —
/// the spare must not re-execute the fault — so a detected kill costs
/// one respawn and the run completes at full size.
pub fn run_respawn(
    image: &ProgramImage,
    cfg: WorldConfig,
    policy: &FtPolicy,
    arm: impl FnOnce(&mut MpiWorld),
) -> (MpiWorld, FtReport) {
    let mut world = MpiWorld::new(image, ft_config(cfg, policy));
    arm(&mut world);
    let mut line = BuddyLine {
        snap: world.snapshot(),
        round: 0,
    };
    let mut report = FtReport::fresh(WorldExit::Clean, world.nranks());
    let exit = loop {
        match world.run_round() {
            Some(WorldExit::RankFailed { rank, round }) => {
                report.failures_detected += 1;
                if report.respawns >= policy.max_respawns {
                    break WorldExit::RankFailed { rank, round };
                }
                let mut restored = line.snap.restore();
                // A pre-fire line carries the armed kills (the plan rides
                // snapshots); the spare must not die the same death.
                restored.disarm(|f| matches!(f.effect, WorldEffect::Kill { .. }));
                restored.note_rank_respawned(rank, line.round);
                report.respawns += 1;
                world = restored;
            }
            Some(exit) => break exit,
            None => {
                let r = world.round();
                if policy.buddy_rounds > 0
                    && r.is_multiple_of(policy.buddy_rounds)
                    && (0..world.nranks()).all(|k| matches!(world.health(k), Health::Alive))
                {
                    // A line completes only when every rank contributed
                    // its piece; a world with a dead rank in it is not a
                    // valid restart point.
                    world.note_snapshot_captured(r);
                    line = BuddyLine {
                        snap: world.snapshot(),
                        round: r,
                    };
                }
            }
        }
    };
    report.exit = exit;
    report.final_nranks = world.nranks();
    (world, report)
}

/// Per-rank outbound digests of a world (the replica comparison key).
fn digests_of(w: &MpiWorld, nranks: u16) -> Vec<u32> {
    (0..nranks).map(|r| w.out_digest(r)).collect()
}

/// Vote replica `idx` out: drop its world, count the vote, and record
/// the event on every surviving replica.
fn vote_out(worlds: &mut [Option<MpiWorld>], idx: usize, votes: &mut u32) {
    worlds[idx] = None;
    *votes += 1;
    let live = worlds.iter().filter(|w| w.is_some()).count() as u16;
    for w in worlds.iter_mut().flatten() {
        w.note_replica_vote(idx as u16, live);
    }
}

/// Run `policy.replicas` full copies of the world in lockstep and vote.
///
/// All replicas share `cfg` (same seed: identical scheduling, so a fault
/// is the *only* source of divergence). `arm` is called once per replica
/// with its index to plant per-replica faults; `output` extracts the
/// comparable output of a finished world (app-specific, hence a closure).
///
/// Two voting layers:
/// - every lockstep round, the per-rank digest vectors of the replicas
///   still running are compared; a strict-majority value wins and
///   disagreeing replicas are voted out. No strict majority ⇒ the run
///   aborts as [`WorldExit::GuardDetected`] — divergence *detected*, not
///   masked.
/// - at the end, the (exit, output) pairs of surviving replicas are
///   voted the same way, catching corruption that never touched a wire
///   message.
///
/// The returned world is the vote winner; `report.votes` counts excluded
/// replicas, so `votes > 0` with a clean matching exit means the fault
/// was *masked by replication*.
pub fn run_replicated(
    image: &ProgramImage,
    cfg: WorldConfig,
    policy: &FtPolicy,
    arm: impl Fn(u16, &mut MpiWorld),
    output: impl Fn(&MpiWorld) -> Vec<u8>,
) -> (MpiWorld, FtReport) {
    let nrep = policy.replicas.max(2) as usize;
    let mut rcfg = cfg;
    rcfg.track_digests = true;
    let mut worlds: Vec<Option<MpiWorld>> = (0..nrep)
        .map(|i| {
            let mut w = MpiWorld::new(image, rcfg);
            arm(i as u16, &mut w);
            Some(w)
        })
        .collect();
    let mut finished: Vec<Option<WorldExit>> = (0..nrep).map(|_| None).collect();
    let mut report = FtReport::fresh(WorldExit::Clean, cfg.nranks);

    loop {
        // Lockstep: one scheduler round on every live replica still
        // running. Same seed ⇒ identical rounds unless a fault diverged.
        let mut stepped = false;
        for i in 0..nrep {
            if finished[i].is_some() {
                continue;
            }
            if let Some(w) = worlds[i].as_mut() {
                stepped = true;
                if let Some(e) = w.run_round() {
                    finished[i] = Some(e);
                }
            }
        }
        if !stepped {
            break;
        }

        // Digest vote among replicas still running (a finished replica's
        // digest is final and no longer comparable round-for-round; it
        // faces the exit/output vote instead).
        let running: Vec<usize> = (0..nrep)
            .filter(|&i| worlds[i].is_some() && finished[i].is_none())
            .collect();
        if running.len() >= 2 {
            let digs: Vec<Vec<u32>> = running
                .iter()
                .map(|&i| digests_of(worlds[i].as_ref().unwrap(), cfg.nranks))
                .collect();
            if digs.iter().any(|d| d != &digs[0]) {
                let majority = digs
                    .iter()
                    .find(|a| digs.iter().filter(|b| b == a).count() * 2 > digs.len())
                    .cloned();
                match majority {
                    Some(maj) => {
                        for (k, &i) in running.iter().enumerate() {
                            if digs[k] != maj {
                                vote_out(&mut worlds, i, &mut report.votes);
                            }
                        }
                    }
                    None => {
                        report.exit = WorldExit::GuardDetected {
                            rank: 0,
                            what: format!(
                                "replica vote: no digest majority among {} replicas",
                                digs.len()
                            ),
                        };
                        let first = running[0];
                        return (worlds[first].take().unwrap(), report);
                    }
                }
            }
        }
    }

    // Final vote on (exit, output) among surviving replicas.
    let live: Vec<usize> = (0..nrep).filter(|&i| worlds[i].is_some()).collect();
    let keys: Vec<(WorldExit, Vec<u8>)> = live
        .iter()
        .map(|&i| {
            (
                finished[i].clone().expect("live replica finished"),
                output(worlds[i].as_ref().unwrap()),
            )
        })
        .collect();
    let mut winner = 0usize;
    let mut winner_count = 0usize;
    for (a, ka) in keys.iter().enumerate() {
        let c = keys.iter().filter(|kb| *kb == ka).count();
        if c > winner_count {
            winner = a;
            winner_count = c;
        }
    }
    if winner_count * 2 <= live.len() {
        report.exit = WorldExit::GuardDetected {
            rank: 0,
            what: format!(
                "replica vote: no exit/output majority among {} replicas",
                live.len()
            ),
        };
        let first = live[0];
        return (worlds[first].take().unwrap(), report);
    }
    let winning_key = keys[winner].clone();
    for (a, ka) in keys.iter().enumerate() {
        if *ka != winning_key {
            vote_out(&mut worlds, live[a], &mut report.votes);
        }
    }
    report.exit = winning_key.0;
    (worlds[live[winner]].take().unwrap(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_apps::{App, AppKind, AppParams};
    use fl_mpi::Fault;

    const BUDGET: u64 = 2_000_000_000;

    fn tiny(kind: AppKind) -> App {
        App::build(kind, AppParams::tiny(kind))
    }

    #[test]
    fn failure_free_ft_runs_are_clean_and_intervention_free() {
        // Where no rank fails the detector suspects nobody and the buddy
        // line is never restored: the run is the bare run.
        for kind in [AppKind::Wavetoy, AppKind::Moldyn, AppKind::Climsim] {
            let app = tiny(kind);
            let golden = app.golden(BUDGET);
            let (cfg, policy) = (app.world_config(BUDGET), FtPolicy::default());

            let mut detecting = MpiWorld::new(&app.image, ft_config(cfg, &policy));
            assert_eq!(detecting.run(), WorldExit::Clean, "{kind:?}");
            assert_eq!(app.comparable_output(&detecting), golden.output, "{kind:?}");

            let (world, report) = run_respawn(&app.image, cfg, &policy, |_| {});
            assert_eq!(report.exit, WorldExit::Clean, "{kind:?}");
            assert!(!report.intervened(), "{kind:?}: {report:?}");
            assert_eq!(report.failures_detected, 0, "{kind:?}");
            assert_eq!(app.comparable_output(&world), golden.output, "{kind:?}");
        }
    }

    #[test]
    fn shrink_recovers_to_survivor_golden() {
        let app = tiny(AppKind::Wavetoy);
        let golden = app.golden(BUDGET);
        let budget = golden.insns.iter().max().unwrap() * 3 + 2_000_000;
        let cfg = app.world_config(budget);
        let kill = Fault::kill(1, golden.blocks[1] / 2, false);
        let (survivor, report) = run_shrink(&app.image, cfg, &FtPolicy::default(), |w| w.arm(kill));
        assert_eq!(report.exit, WorldExit::Clean);
        assert_eq!(report.failures_detected, 1);
        assert_eq!(report.shrinks, 1);
        assert_eq!(report.final_nranks, cfg.nranks - 1);
        // The survivors solve the (n-1)-rank problem: compare against a
        // cold golden at the shrunken size.
        let mut scfg = cfg;
        scfg.nranks = cfg.nranks - 1;
        let mut cold = MpiWorld::new(&app.image, scfg);
        assert_eq!(cold.run(), WorldExit::Clean);
        assert_eq!(
            app.comparable_output(&survivor),
            app.comparable_output(&cold)
        );
    }

    #[test]
    fn respawn_recovers_original_answer() {
        let app = tiny(AppKind::Wavetoy);
        let golden = app.golden(BUDGET);
        let budget = golden.insns.iter().max().unwrap() * 3 + 2_000_000;
        let cfg = app.world_config(budget);
        for wedge in [false, true] {
            let kill = Fault::kill(2, golden.blocks[2] / 2, wedge);
            let (world, report) =
                run_respawn(&app.image, cfg, &FtPolicy::default(), |w| w.arm(kill));
            assert_eq!(report.exit, WorldExit::Clean, "wedge={wedge}");
            assert_eq!(report.failures_detected, 1);
            assert_eq!(report.respawns, 1);
            assert_eq!(report.final_nranks, cfg.nranks);
            assert_eq!(
                app.comparable_output(&world),
                golden.output,
                "respawned run must reproduce the original-size answer (wedge={wedge})"
            );
        }
    }

    #[test]
    fn baseline_kill_without_detector_hangs() {
        let app = tiny(AppKind::Wavetoy);
        let golden = app.golden(BUDGET);
        let budget = golden.insns.iter().max().unwrap() * 3 + 2_000_000;
        let cfg = app.world_config(budget);
        let mut world = MpiWorld::new(&app.image, cfg);
        world.arm(Fault::kill(0, golden.blocks[0] / 2, false));
        assert!(
            matches!(world.run(), WorldExit::Hung { .. }),
            "without the detector a killed rank strands its peers"
        );
    }

    #[test]
    fn replication_masks_single_corrupt_replica() {
        let app = tiny(AppKind::Wavetoy);
        let golden = app.golden(BUDGET);
        let budget = golden.insns.iter().max().unwrap() * 3 + 2_000_000;
        let cfg = app.world_config(budget);
        // Find a message fault that actually manifests in a solo run
        // (not every flipped bit survives to the output), then check the
        // replica set masks exactly that fault.
        let fault = (1..12u64)
            .map(|k| Fault::flip(1, golden.recv_bytes[1] * k / 12, (k % 8) as u8))
            .find(|&f| {
                let mut solo = MpiWorld::new(&app.image, cfg);
                solo.arm(f);
                let exit = solo.run();
                exit != WorldExit::Clean || app.comparable_output(&solo) != golden.output
            })
            .expect("some payload flip must manifest");
        let (winner, report) = run_replicated(
            &app.image,
            cfg,
            &FtPolicy::default(),
            |replica, w| {
                if replica == 0 {
                    w.arm(fault);
                }
            },
            |w| app.comparable_output(w),
        );
        assert_eq!(report.exit, WorldExit::Clean);
        assert!(
            report.votes >= 1,
            "the corrupt replica must be voted out, got {report:?}"
        );
        assert_eq!(app.comparable_output(&winner), golden.output);
    }

    #[test]
    fn replication_clean_run_votes_nobody_out() {
        let app = tiny(AppKind::Climsim);
        let golden = app.golden(BUDGET);
        let budget = golden.insns.iter().max().unwrap() * 3 + 2_000_000;
        let cfg = app.world_config(budget);
        let (winner, report) = run_replicated(
            &app.image,
            cfg,
            &FtPolicy::default(),
            |_, _| {},
            |w| app.comparable_output(w),
        );
        assert_eq!(report.exit, WorldExit::Clean);
        assert_eq!(report.votes, 0);
        assert_eq!(app.comparable_output(&winner), golden.output);
    }

    #[test]
    fn ft_mode_labels_roundtrip() {
        for mode in FtMode::ALL {
            assert_eq!(mode.label().parse::<FtMode>(), Ok(mode));
        }
        assert!("nope".parse::<FtMode>().is_err());
    }

    #[test]
    fn buddy_ring_wraps() {
        assert_eq!(buddy_of(0, 3), 1);
        assert_eq!(buddy_of(2, 3), 0);
    }
}
