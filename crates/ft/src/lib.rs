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

use fl_mpi::{
    FailureDetector, Fault, Launch, MpiWorld, WorldConfig, WorldEffect, WorldExit, WorldSnapshot,
};

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
    /// Buddy checkpoint lines cut (respawn only), re-cut lines after a
    /// restore included — the fault-free path's checkpoint cost.
    pub checkpoints: u32,
    /// Rounds re-executed after the restores: per respawn, the detection
    /// round minus the round of the line restored (respawn only).
    pub lost_rounds: u64,
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
            checkpoints: 0,
            lost_rounds: 0,
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

/// `cfg` with replica voting's comparison key on: every outbound wire
/// message folds into its rank's rolling digest.
pub fn replica_config(cfg: WorldConfig) -> WorldConfig {
    WorldConfig {
        track_digests: true,
        ..cfg
    }
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
pub fn shrink(launch: &Launch, cfg: WorldConfig) -> MpiWorld {
    assert!(cfg.nranks >= 2, "cannot shrink a single-rank world");
    let mut scfg = cfg;
    scfg.nranks = cfg.nranks - 1;
    launch.world(scfg)
}

/// The survivors' rerun after rank `failed` of a `cfg` world was lost:
/// the [`shrink`]ed world, marked as such, run to its end. It carries no
/// fault, so it is the same run whichever rank failed, bar the marker
/// event — a caller that records no events may run it once and hand
/// [`run_shrink`] that one run for every failure.
pub fn run_survivors(launch: &Launch, cfg: WorldConfig, failed: u16) -> (MpiWorld, WorldExit) {
    let mut survivor = shrink(launch, cfg);
    // The shrunken world itself is pristine; the marker event is the
    // recovery runner's doing, not shrink()'s, so the survivor stream
    // minus this prefix stays comparable to a cold shrunken run.
    survivor.note_world_shrunk(failed, survivor.nranks());
    let exit = survivor.run();
    (survivor, exit)
}

/// Run `world` — armed, under [`ft_config`] — to its end; on
/// [`WorldExit::RankFailed`], shrink to the survivors: `survivors` is
/// handed the failed rank and returns their finished run
/// ([`run_survivors`]) and its exit.
pub fn run_shrink(
    mut world: MpiWorld,
    survivors: impl FnOnce(u16) -> (MpiWorld, WorldExit),
) -> (MpiWorld, FtReport) {
    let exit = world.run();
    let mut report = FtReport::fresh(exit.clone(), world.nranks());
    if let WorldExit::RankFailed { rank, .. } = exit {
        report.failures_detected = 1;
        let (survivor, exit) = survivors(rank);
        report.shrinks = 1;
        report.exit = exit;
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

/// Run `world` — armed, under [`ulfm_config`] — to its end in
/// app-visible ULFM mode: failures become `MPIX_ERR_PROC_FAILED`
/// completions and fault-aware collectives *inside* the program, and the
/// application is expected to recover itself (ack / agree / shrink /
/// checkpoint rollback). The harness never intervenes — the report only
/// records what the app-visible machinery did: failures surfaced and
/// worlds the *application* rebuilt via `mpix_comm_shrink`.
pub fn run_app(mut world: MpiWorld) -> (MpiWorld, FtReport) {
    let nranks = world.nranks();
    let exit = world.run();
    let mut report = FtReport::fresh(exit, world.nranks());
    // Ranks the app shrank away, plus failures known but not (yet)
    // recovered from.
    report.failures_detected =
        (nranks - world.nranks()) as u32 + world.ulfm_failed_mask().count_ones();
    report.shrinks = world.app_shrinks();
    (world, report)
}

/// One coordinated buddy checkpoint line: the assembled per-rank pieces
/// (modelled as a world snapshot) plus the round they were cut at.
struct BuddyLine {
    snap: WorldSnapshot,
    round: u64,
}

/// Run `world` — armed, under [`ft_config`], at round 0, where the
/// first line is cut — cutting a buddy checkpoint line every
/// `policy.buddy_rounds`; on failure, boot a spare from the last line
/// and resume. Every armed kill the line carries is disarmed on restore —
/// the spare must not re-execute the fault — so a detected kill costs
/// one respawn and the run completes at full size. The report counts
/// the lines cut and the rounds each restore threw away.
pub fn run_respawn(mut world: MpiWorld, policy: &FtPolicy) -> (MpiWorld, FtReport) {
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
                report.lost_rounds += round - line.round;
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
                    report.checkpoints += 1;
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

/// The executed worlds of a replica set. Replicas armed with nothing are
/// the same deterministic run, so one world executes for all of them;
/// `home[i]` is the world replica `i` lives in, `None` once voted out. A
/// world counts in a vote once per replica living in it.
struct Replicas {
    worlds: Vec<Option<MpiWorld>>,
    home: Vec<Option<usize>>,
}

impl Replicas {
    /// Index of the world a live replica lives in.
    fn slot(&self, replica: usize) -> usize {
        self.home[replica].expect("a live replica")
    }

    fn world(&self, replica: usize) -> &MpiWorld {
        let w = self.worlds[self.slot(replica)].as_ref();
        w.expect("a live replica's world")
    }

    fn take(&mut self, replica: usize) -> MpiWorld {
        let slot = self.slot(replica);
        self.worlds[slot].take().expect("a live replica's world")
    }

    /// Vote replica `idx` out: count the vote, drop its world with its
    /// last replica, and record the event on every surviving replica.
    fn vote_out(&mut self, idx: usize, votes: &mut u32) {
        let w = self.home[idx].take().expect("a live replica");
        if !self.home.contains(&Some(w)) {
            self.worlds[w] = None;
        }
        *votes += 1;
        let live = self.home.iter().flatten().count() as u16;
        for w in self.worlds.iter_mut().flatten() {
            w.note_replica_vote(idx as u16, live);
        }
    }
}

/// Run `policy.replicas` full copies of the world in lockstep and vote.
///
/// Every replica starts as `start` restored — a world under
/// [`replica_config`], at round 0 or at a checkpoint before any of the
/// armed faults fires — so all share one configuration and seed:
/// identical scheduling, and a fault is the *only* source of divergence.
/// `armed[i]` is what replica `i` is armed with — nothing, for a replica
/// past the end of the list; `output` extracts the comparable output of
/// a finished world (app-specific, hence a closure).
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
    start: &WorldSnapshot,
    policy: &FtPolicy,
    armed: Vec<Vec<Fault>>,
    output: impl Fn(&MpiWorld) -> Vec<u8>,
) -> (MpiWorld, FtReport) {
    let nrep = policy.replicas.max(2) as usize;
    assert!(armed.len() <= nrep, "more fault lists than replicas");
    let nranks = start.nranks();
    let mut reps = Replicas {
        worlds: Vec::new(),
        home: Vec::new(),
    };
    let mut clean = None;
    let mut armed = armed.into_iter();
    for _ in 0..nrep {
        let faults = armed.next().unwrap_or_default();
        let home = match clean {
            Some(shared) if faults.is_empty() => shared,
            _ => {
                if faults.is_empty() {
                    clean = Some(reps.worlds.len());
                }
                let mut w = start.restore();
                faults.into_iter().for_each(|f| w.arm(f));
                reps.worlds.push(Some(w));
                reps.worlds.len() - 1
            }
        };
        reps.home.push(Some(home));
    }
    let mut finished: Vec<Option<WorldExit>> = reps.worlds.iter().map(|_| None).collect();
    let mut report = FtReport::fresh(WorldExit::Clean, nranks);

    loop {
        // Lockstep: one scheduler round on every live world still
        // running. Same seed ⇒ identical rounds unless a fault diverged.
        let mut stepped = false;
        for (w, done) in reps.worlds.iter_mut().zip(&mut finished) {
            if let (Some(w), None) = (w, &done) {
                stepped = true;
                *done = w.run_round();
            }
        }
        if !stepped {
            break;
        }

        // Digest vote among replicas still running (a finished replica's
        // digest is final and no longer comparable round-for-round; it
        // faces the exit/output vote instead).
        let running: Vec<usize> = (0..nrep)
            .filter(|&i| reps.home[i].is_some_and(|w| finished[w].is_none()))
            .collect();
        if running.len() >= 2 {
            let digs: Vec<Vec<u32>> = running
                .iter()
                .map(|&i| digests_of(reps.world(i), nranks))
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
                                reps.vote_out(i, &mut report.votes);
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
                        return (reps.take(running[0]), report);
                    }
                }
            }
        }
    }

    // Final vote on (exit, output) among surviving replicas.
    let live: Vec<usize> = (0..nrep).filter(|&i| reps.home[i].is_some()).collect();
    let keys: Vec<(WorldExit, Vec<u8>)> = live
        .iter()
        .map(|&i| {
            let exit = finished[reps.slot(i)].clone();
            (exit.expect("live replica finished"), output(reps.world(i)))
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
        return (reps.take(live[0]), report);
    }
    let winning_key = keys[winner].clone();
    for (a, ka) in keys.iter().enumerate() {
        if *ka != winning_key {
            reps.vote_out(live[a], &mut report.votes);
        }
    }
    report.exit = winning_key.0;
    (reps.take(live[winner]), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_apps::{App, AppKind, AppParams};
    use fl_machine::SyscallFaultKind;
    use fl_mpi::{Effect, NetFaultKind};

    const BUDGET: u64 = 2_000_000_000;

    fn tiny(kind: AppKind) -> App {
        App::build(kind, AppParams::tiny(kind))
    }

    fn launch(app: &App, cfg: WorldConfig) -> Launch {
        Launch::new(&app.image, cfg.machine, None)
    }

    /// A fresh `cfg` world of `app`, `arm`ed.
    fn armed(app: &App, cfg: WorldConfig, arm: impl FnOnce(&mut MpiWorld)) -> MpiWorld {
        let mut world = launch(app, cfg).world(cfg);
        arm(&mut world);
        world
    }

    /// The pristine replica of `cfg`.
    fn replica(launch: &Launch, cfg: WorldConfig) -> WorldSnapshot {
        launch.world(replica_config(cfg)).snapshot()
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

            let (world, report) =
                run_respawn(armed(&app, ft_config(cfg, &policy), |_| {}), &policy);
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
        let fcfg = ft_config(cfg, &FtPolicy::default());
        let launch = launch(&app, fcfg);
        let (survivor, report) = run_shrink(armed(&app, fcfg, |w| w.arm(kill)), |rank| {
            run_survivors(&launch, fcfg, rank)
        });
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
            let policy = FtPolicy::default();
            let world = armed(&app, ft_config(cfg, &policy), |w| w.arm(kill));
            let (world, report) = run_respawn(world, &policy);
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
            &replica(&launch(&app, cfg), cfg),
            &FtPolicy::default(),
            vec![vec![fault.into()]],
            |w| app.comparable_output(w),
        );
        assert_eq!(report.exit, WorldExit::Clean);
        assert!(
            report.votes >= 1,
            "the corrupt replica must be voted out, got {report:?}"
        );
        assert_eq!(app.comparable_output(&winner), golden.output);
    }

    /// The replica set as it was before clean replicas shared a world:
    /// one real world per replica, one vote per world. The reference
    /// [`run_replicated`] is held to.
    fn run_replicated_reference(
        start: &WorldSnapshot,
        policy: &FtPolicy,
        armed: Vec<Vec<Fault>>,
        output: impl Fn(&MpiWorld) -> Vec<u8>,
    ) -> (MpiWorld, FtReport) {
        fn vote_out(worlds: &mut [Option<MpiWorld>], idx: usize, votes: &mut u32) {
            worlds[idx] = None;
            *votes += 1;
            let live = worlds.iter().filter(|w| w.is_some()).count() as u16;
            for w in worlds.iter_mut().flatten() {
                w.note_replica_vote(idx as u16, live);
            }
        }
        let nrep = policy.replicas.max(2) as usize;
        let nranks = start.nranks();
        let mut armed = armed.into_iter();
        let mut worlds: Vec<Option<MpiWorld>> = (0..nrep)
            .map(|_| {
                let mut w = start.restore();
                for f in armed.next().unwrap_or_default() {
                    w.arm(f);
                }
                Some(w)
            })
            .collect();
        let mut finished: Vec<Option<WorldExit>> = (0..nrep).map(|_| None).collect();
        let mut report = FtReport::fresh(WorldExit::Clean, nranks);
        let no_majority = |layer: &str, n: usize| WorldExit::GuardDetected {
            rank: 0,
            what: format!("replica vote: no {layer} majority among {n} replicas"),
        };

        loop {
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
            let running: Vec<usize> = (0..nrep)
                .filter(|&i| worlds[i].is_some() && finished[i].is_none())
                .collect();
            if running.len() >= 2 {
                let digs: Vec<Vec<u32>> = running
                    .iter()
                    .map(|&i| digests_of(worlds[i].as_ref().unwrap(), nranks))
                    .collect();
                if digs.iter().any(|d| d != &digs[0]) {
                    let majority = digs
                        .iter()
                        .find(|a| digs.iter().filter(|b| b == a).count() * 2 > digs.len())
                        .cloned();
                    let Some(maj) = majority else {
                        report.exit = no_majority("digest", digs.len());
                        return (worlds[running[0]].take().unwrap(), report);
                    };
                    for (k, &i) in running.iter().enumerate() {
                        if digs[k] != maj {
                            vote_out(&mut worlds, i, &mut report.votes);
                        }
                    }
                }
            }
        }

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
            report.exit = no_majority("exit/output", live.len());
            return (worlds[live[0]].take().unwrap(), report);
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

    #[test]
    fn weighted_replicas_equal_three_real_worlds() {
        // One world executes for every replica armed with nothing and
        // votes with their weight: report, winner output, per-rank
        // instruction counts and — recording on — the survivors' event
        // streams, `ReplicaVote { excluded, live }` included, are those of
        // three real worlds.
        let policy = FtPolicy::default();
        let mut masked = 0;
        let mut split = 0;
        for kind in [AppKind::Wavetoy, AppKind::Jacobi3d] {
            let app = tiny(kind);
            let golden = app.golden(BUDGET);
            let budget = golden.insns.iter().max().unwrap() * 3 + 2_000_000;
            let flip = |bit: u32| -> Fault {
                Fault::once(1, golden.insns[1] / 2, move |m| m.cpu.eip ^= 1 << bit)
            };
            let corrupt = || {
                let wire = WorldEffect::Wire(NetFaultKind::Corrupt);
                Fault::new(1, golden.recv_bytes[1] / 2, wire).into()
            };
            let malloc = || {
                let (kind, persist) = (SyscallFaultKind::Malloc, false);
                Fault::new(1, 1, Effect::Syscall { kind, persist })
            };
            let kill = || Fault::kill(1, golden.blocks[1] / 2, false).into();
            type Armed = Vec<Vec<Fault>>;
            let cases: [(&str, &dyn Fn() -> Armed); 7] = [
                ("no fault", &Vec::new),
                ("flip on 0", &|| vec![vec![flip(30)]]),
                ("corrupt on 0", &|| vec![vec![corrupt()]]),
                ("kill on 0", &|| vec![vec![kill()]]),
                ("malloc on 0", &|| vec![vec![malloc()]]),
                ("flips on 0 and 1", &|| vec![vec![flip(30)], vec![flip(3)]]),
                ("one flip on all", &|| {
                    (0..3).map(|_| vec![flip(30)]).collect()
                }),
            ];
            for ring in [0, 64] {
                let mut cfg = app.world_config(budget);
                cfg.machine.obs_capacity = ring;
                let launch = launch(&app, cfg);
                for (name, armed) in cases {
                    let what = format!("{kind:?}, ring {ring}, {name}");
                    let output = |w: &MpiWorld| app.comparable_output(w);
                    let start = replica(&launch, cfg);
                    let (w, got) = run_replicated(&start, &policy, armed(), output);
                    let (r, want) = run_replicated_reference(&start, &policy, armed(), output);
                    assert_eq!(got, want, "{what}");
                    assert_eq!(output(&w), output(&r), "{what}");
                    let insns = |w: &MpiWorld| -> Vec<u64> {
                        (0..w.nranks())
                            .map(|r| w.machine(r).counters.insns)
                            .collect()
                    };
                    assert_eq!(insns(&w), insns(&r), "{what}");
                    assert_eq!(w.event_streams(), r.event_streams(), "{what}");
                    masked += u32::from(got.votes == 1 && got.exit == WorldExit::Clean);
                    split += u32::from(matches!(got.exit, WorldExit::GuardDetected { .. }));
                }
            }
        }
        // A fault on one replica of three is outvoted; two different
        // faults leave no majority.
        assert_eq!((masked, split), (16, 4));
    }

    #[test]
    fn replication_clean_run_votes_nobody_out() {
        let app = tiny(AppKind::Climsim);
        let golden = app.golden(BUDGET);
        let budget = golden.insns.iter().max().unwrap() * 3 + 2_000_000;
        let cfg = app.world_config(budget);
        let (winner, report) = run_replicated(
            &replica(&launch(&app, cfg), cfg),
            &FtPolicy::default(),
            Vec::new(),
            |w| app.comparable_output(w),
        );
        assert_eq!(report.exit, WorldExit::Clean);
        assert_eq!(report.votes, 0);
        assert_eq!(app.comparable_output(&winner), golden.output);
    }

    #[test]
    fn buddy_ring_wraps() {
        assert_eq!(buddy_of(0, 3), 1);
        assert_eq!(buddy_of(2, 3), 0);
    }
}
