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
//!   *detected* rather than silently trusted. Replicas armed with nothing
//!   are one deterministic run, recorded once ([`CleanReplica`]) and read
//!   by every vote instead of stepped.
//!
//! Respawn's buddy line and the replica record are state a runner keeps
//! beside its world; each is an [`fl_snap::Rider`], so a configuration's
//! clean run can carry it and a world forked from one of that run's
//! checkpoints resumes the runner where a round-0 run stands
//! ([`resume_respawn`]).
//!
//! The fault these paths recover from is [`WorldEffect::Kill`] — a process
//! dies (or wedges: stays resident but silent) at a drawn retired-block
//! clock, the process-level analogue of the paper's bit flips.

use fl_mpi::{
    FailureDetector, Fault, Launch, MpiWorld, WorldConfig, WorldEffect, WorldExit, WorldSnapshot,
};
use fl_snap::{Epoch, Rider};

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

/// Where a respawn run stands beside its world between rounds: its last
/// buddy line — the world at the last multiple of `buddy_rounds` at which
/// every rank was alive, or the start before the first — and the lines
/// it has cut. Until a run's faults fire, both are what a fault-free run
/// holds at the same round, so a checkpoint of a fault-free respawn pass,
/// with the state the pass held there, is where a run armed at its start
/// stands ([`Rider`]).
#[derive(Clone)]
pub struct RespawnState {
    policy: FtPolicy,
    /// The last coordinated buddy checkpoint line: the assembled
    /// per-rank pieces (modelled as one world checkpoint) and the round
    /// they were cut at.
    line: Epoch,
    lines: u32,
}

impl RespawnState {
    /// The state of a run that starts at `world`, which is its first line.
    pub fn new(world: &MpiWorld, policy: &FtPolicy) -> RespawnState {
        RespawnState {
            policy: *policy,
            line: Epoch::of(world),
            lines: 0,
        }
    }

    /// This state, taken from a fault-free pass, for a world that resumes
    /// from the pass armed with faults that have not fired yet: the line
    /// is [`Epoch::armed`].
    pub fn armed(&self, arm: impl FnOnce(&mut MpiWorld)) -> RespawnState {
        RespawnState {
            line: self.line.armed(arm),
            ..*self
        }
    }

    /// After a round that did not end `world`: cut a line on the cadence.
    fn between_rounds(&mut self, world: &mut MpiWorld) {
        let (r, every) = (world.round(), self.policy.buddy_rounds);
        if every > 0
            && r.is_multiple_of(every)
            && (0..world.nranks()).all(|k| matches!(world.health(k), Health::Alive))
        {
            // A line completes only when every rank contributed its
            // piece; a world with a dead rank in it is not a valid
            // restart point.
            world.note_snapshot_captured(r);
            self.lines += 1;
            self.line = Epoch::of(world);
        }
    }
}

/// The respawn pass: a run whose faults have not fired only cuts lines.
impl Rider for RespawnState {
    type State = RespawnState;

    fn after_round(&mut self, world: &mut MpiWorld) -> bool {
        self.between_rounds(world);
        true
    }

    fn state(&self) -> RespawnState {
        self.clone()
    }
}

/// Run `world` — armed, under [`ft_config`] — cutting a buddy checkpoint
/// line every `policy.buddy_rounds`, the first being `world` itself; on
/// failure, boot a spare from the last line and resume. Every armed kill
/// the line carries is disarmed on restore — the spare must not
/// re-execute the fault — so a detected kill costs one respawn and the
/// run completes at full size. The report counts the lines cut and the
/// rounds each restore threw away.
pub fn run_respawn(world: MpiWorld, policy: &FtPolicy) -> (MpiWorld, FtReport) {
    let state = RespawnState::new(&world, policy);
    resume_respawn(world, state)
}

/// [`run_respawn`] from a later round: `world` stands where a run
/// started at round 0 would, and `state` is what that run holds there
/// (a fault-free pass's [`RespawnState`], [`RespawnState::armed`] with
/// the faults `world` carries). No rank has failed before it, so the
/// report counts only the lines already cut.
pub fn resume_respawn(mut world: MpiWorld, mut state: RespawnState) -> (MpiWorld, FtReport) {
    let mut report = FtReport::fresh(WorldExit::Clean, world.nranks());
    let exit = loop {
        match world.run_round() {
            Some(WorldExit::RankFailed { rank, round }) => {
                report.failures_detected += 1;
                if report.respawns >= state.policy.max_respawns {
                    break WorldExit::RankFailed { rank, round };
                }
                let line = &state.line;
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
            None => state.between_rounds(&mut world),
        }
    };
    report.exit = exit;
    report.checkpoints = state.lines;
    report.final_nranks = world.nranks();
    (world, report)
}

/// Per-rank outbound digests of a world (the replica comparison key).
fn digests_of(w: &MpiWorld) -> impl Iterator<Item = u32> + '_ {
    (0..w.nranks()).map(|r| w.out_digest(r))
}

/// The digest record of a replica configuration's clean run in the
/// making: the rider the run is stepped with ([`CleanReplica::new`]).
pub struct DigestLog {
    digests: Vec<u32>,
}

impl DigestLog {
    /// The record of a run that starts at `world`, just launched.
    pub fn new(world: &MpiWorld) -> DigestLog {
        DigestLog {
            digests: digests_of(world).collect(),
        }
    }
}

impl Rider for DigestLog {
    type State = ();

    fn after_round(&mut self, world: &mut MpiWorld) -> bool {
        self.digests.extend(digests_of(world));
        true
    }

    fn state(&self) {}
}

/// A replica configuration's clean run as [`run_replicated`] reads it:
/// the per-rank outbound digests after every round, how the run ended,
/// its output and its last world. Every replica armed with nothing is
/// that run, so none is stepped: the vote reads it.
pub struct CleanReplica {
    /// After `r` rounds, rank `k`'s digest is `digests[r * nranks + k]`.
    digests: Vec<u32>,
    nranks: usize,
    exit: WorldExit,
    output: Vec<u8>,
    end: WorldSnapshot,
}

impl CleanReplica {
    /// The record of a clean run stepped with `log` from round 0 to its
    /// end: `end`, which ended with `exit` and whose comparable output
    /// (what the vote's `output` reads off a world) is `output`.
    pub fn new(log: DigestLog, end: &MpiWorld, exit: WorldExit, output: Vec<u8>) -> CleanReplica {
        CleanReplica {
            digests: log.digests,
            nranks: end.nranks().into(),
            exit,
            output,
            end: end.snapshot(),
        }
    }

    /// The rounds the run completed, the exit's round not counted.
    fn rounds(&self) -> u64 {
        (self.digests.len() / self.nranks - 1) as u64
    }

    /// The per-rank digests after `round` rounds.
    fn digests(&self, round: u64) -> &[u32] {
        let from = round as usize * self.nranks;
        &self.digests[from..from + self.nranks]
    }
}

/// Where a replica of a set lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    /// In the armed world of this index.
    Armed(usize),
    /// In the clean run.
    Clean,
}

/// Vote out replica `idx`: count the vote, drop its world, and record the
/// event on every armed world still in the set.
fn vote_out(
    home: &mut [Option<Home>],
    worlds: &mut [Option<MpiWorld>],
    idx: usize,
    votes: &mut u32,
) {
    if let Some(Home::Armed(w)) = home[idx].take() {
        worlds[w] = None;
    }
    *votes += 1;
    let live = home.iter().flatten().count() as u16;
    for w in worlds.iter_mut().flatten() {
        w.note_replica_vote(idx as u16, live);
    }
}

/// Run `policy.replicas` full copies of the world in lockstep and vote.
///
/// Every replica starts as `start` restored — a world of `clean`'s run,
/// at round 0 or at one of its checkpoints before any of the armed faults
/// fires — so all share one configuration and seed: identical
/// scheduling, and a fault is the *only* source of divergence. `armed[i]`
/// is what replica `i` is armed with — nothing, for a replica past the
/// end of the list — and only armed replicas are stepped: a replica
/// armed with nothing is the clean run, whose digests, exit, output and
/// last world `clean` recorded. `output` extracts the comparable output
/// of a finished armed world (app-specific, hence a closure).
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
/// was *masked by replication*. A vote is recorded as a `ReplicaVote`
/// event on the armed worlds only. A winner armed with nothing is the
/// clean run's world, so with recording on it comes back without vote
/// events, where a replica set stepped in lockstep would have recorded
/// them on it too.
pub fn run_replicated(
    start: &WorldSnapshot,
    clean: &CleanReplica,
    policy: &FtPolicy,
    armed: Vec<Vec<Fault>>,
    output: impl Fn(&MpiWorld) -> Vec<u8>,
) -> (MpiWorld, FtReport) {
    let nrep = policy.replicas.max(2) as usize;
    assert!(armed.len() <= nrep, "more fault lists than replicas");
    let mut worlds = Vec::new();
    let mut armed = armed.into_iter();
    let mut home: Vec<Option<Home>> = (0..nrep)
        .map(|_| {
            let faults = armed.next().unwrap_or_default();
            if faults.is_empty() {
                return Some(Home::Clean);
            }
            let mut w = start.restore();
            faults.into_iter().for_each(|f| w.arm(f));
            worlds.push(Some(w));
            Some(Home::Armed(worlds.len() - 1))
        })
        .collect();
    let mut finished: Vec<Option<WorldExit>> = worlds.iter().map(|_| None).collect();
    let mut report = FtReport::fresh(WorldExit::Clean, start.nranks());
    // Replica `i`'s world, taken out of the set at `round`: its own, or
    // the clean run's — its last world once it ended, else that run
    // stepped again from `start` (a digest split that names a clean
    // replica first).
    let take = |home: Home, worlds: &mut [Option<MpiWorld>], round: u64| match home {
        Home::Armed(w) => worlds[w].take().expect("a live replica's world"),
        Home::Clean if round > clean.rounds() => clean.end.restore(),
        Home::Clean => {
            let mut w = start.restore();
            (start.round()..round).for_each(|_| _ = w.run_round());
            w
        }
    };

    let mut round = start.round();
    loop {
        // Lockstep: one scheduler round on every live armed world still
        // running. Same seed ⇒ identical rounds unless a fault diverged;
        // the clean run took this round when it was recorded.
        round += 1;
        let mut stepped = home.contains(&Some(Home::Clean)) && round <= clean.rounds() + 1;
        for (w, done) in worlds.iter_mut().zip(&mut finished) {
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
            .filter(|&i| match home[i] {
                Some(Home::Armed(w)) => finished[w].is_none(),
                Some(Home::Clean) => round <= clean.rounds(),
                None => false,
            })
            .collect();
        if running.len() >= 2 {
            let digs: Vec<Vec<u32>> = running
                .iter()
                .map(|&i| match home[i].expect("a running replica") {
                    Home::Armed(w) => {
                        digests_of(worlds[w].as_ref().expect("a live world")).collect()
                    }
                    Home::Clean => clean.digests(round).to_vec(),
                })
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
                                vote_out(&mut home, &mut worlds, i, &mut report.votes);
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
                        let first = home[running[0]].expect("a running replica");
                        return (take(first, &mut worlds, round), report);
                    }
                }
            }
        }
    }

    // Final vote on (exit, output) among surviving replicas.
    let live: Vec<(usize, Home)> = (0..nrep).filter_map(|i| Some((i, home[i]?))).collect();
    let keys: Vec<(WorldExit, Vec<u8>)> = live
        .iter()
        .map(|&(_, h)| match h {
            Home::Armed(w) => {
                let exit = finished[w].clone().expect("live replica finished");
                (exit, output(worlds[w].as_ref().expect("a live world")))
            }
            Home::Clean => (clean.exit.clone(), clean.output.clone()),
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
        return (take(live[0].1, &mut worlds, round), report);
    }
    let winning_key = keys[winner].clone();
    for (a, ka) in keys.iter().enumerate() {
        if *ka != winning_key {
            vote_out(&mut home, &mut worlds, live[a].0, &mut report.votes);
        }
    }
    report.exit = winning_key.0;
    (take(live[winner].1, &mut worlds, round), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_apps::{App, AppKind, AppParams};
    use fl_machine::SyscallFaultKind;
    use fl_mpi::{Effect, NetFaultKind};
    use fl_obs::EventKind;
    use fl_snap::EpochCache;

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

    /// The clean run of `cfg`'s replica configuration, recorded for the
    /// vote, and its checkpoints: the worlds a replica set may start from.
    fn recorded(app: &App, launch: &Launch, cfg: WorldConfig) -> (EpochCache, CleanReplica) {
        let world = launch.world(replica_config(cfg));
        let mut log = DigestLog::new(&world);
        let (epochs, _, end) = EpochCache::run_clean(world, true, &[], &mut log);
        let output = app.comparable_output(&end);
        let clean = CleanReplica::new(log, &end, epochs.golden_exit().clone(), output);
        (epochs, clean)
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
        let (epochs, clean) = recorded(&app, &launch(&app, cfg), cfg);
        let (winner, report) = run_replicated(
            &epochs.epochs()[0].snap,
            &clean,
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

    /// The replica set stepped in lockstep, one real world per replica and
    /// one vote per world — the reference [`run_replicated`], which steps
    /// only the armed replicas and reads the others off a recorded clean
    /// run, is held to. Also returns the index of the replica whose world
    /// it returns.
    fn run_replicated_reference(
        start: &WorldSnapshot,
        policy: &FtPolicy,
        armed: Vec<Vec<Fault>>,
        output: impl Fn(&MpiWorld) -> Vec<u8>,
    ) -> (MpiWorld, FtReport, usize) {
        fn vote_out(worlds: &mut [Option<MpiWorld>], idx: usize, votes: &mut u32) {
            worlds[idx] = None;
            *votes += 1;
            let live = worlds.iter().filter(|w| w.is_some()).count() as u16;
            for w in worlds.iter_mut().flatten() {
                w.note_replica_vote(idx as u16, live);
            }
        }
        let nrep = policy.replicas.max(2) as usize;
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
        let mut report = FtReport::fresh(WorldExit::Clean, start.nranks());
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
                    .map(|&i| digests_of(worlds[i].as_ref().unwrap()).collect())
                    .collect();
                if digs.iter().any(|d| d != &digs[0]) {
                    let majority = digs
                        .iter()
                        .find(|a| digs.iter().filter(|b| b == a).count() * 2 > digs.len())
                        .cloned();
                    let Some(maj) = majority else {
                        report.exit = no_majority("digest", digs.len());
                        return (worlds[running[0]].take().unwrap(), report, running[0]);
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
            return (worlds[live[0]].take().unwrap(), report, live[0]);
        }
        let winning_key = keys[winner].clone();
        for (a, ka) in keys.iter().enumerate() {
            if *ka != winning_key {
                vote_out(&mut worlds, live[a], &mut report.votes);
            }
        }
        report.exit = winning_key.0;
        (worlds[live[winner]].take().unwrap(), report, live[winner])
    }

    #[test]
    fn recorded_clean_replicas_equal_real_worlds() {
        // Clean replicas read off the recorded clean run vote as the real
        // worlds of the lockstep reference do: report, winner output and
        // per-rank instruction counts, from round 0 and from the clean
        // run's latest checkpoint before the faults fire — for flip, kill
        // and partition draws, wire and syscall faults, faults on two
        // replicas, one fault on every replica, an armed majority against
        // a clean replica, and a clean replica 0 of a two-replica set
        // whose split returns the clean world mid-run. With recording on,
        // an armed winner is the reference's world, its `ReplicaVote`
        // events included; a clean winner is the clean run's world at the
        // winner's round, with no vote events.
        let mut masked = 0;
        let mut split = 0;
        let mut forked = 0;
        let mut voted_armed = 0;
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
            let partition = || {
                let cut = WorldEffect::Cut {
                    mask: 0b01,
                    rounds: 40,
                };
                Fault::new(0, golden.blocks[0] / 3, cut).into()
            };
            type Armed = Vec<Vec<Fault>>;
            let cases: [(&str, u16, &dyn Fn() -> Armed); 11] = [
                ("no fault", 3, &Vec::new),
                ("flip on 0", 3, &|| vec![vec![flip(30)]]),
                ("corrupt on 0", 3, &|| vec![vec![corrupt()]]),
                ("kill on 0", 3, &|| vec![vec![kill()]]),
                ("partition on 0", 3, &|| vec![vec![partition()]]),
                ("malloc on 0", 3, &|| vec![vec![malloc()]]),
                ("flips on 0 and 1", 3, &|| {
                    vec![vec![flip(30)], vec![flip(3)]]
                }),
                ("one flip on all", 3, &|| {
                    (0..3).map(|_| vec![flip(30)]).collect()
                }),
                ("one corrupt on 1 and 2", 3, &|| {
                    vec![vec![], vec![corrupt()], vec![corrupt()]]
                }),
                ("flip on 1 of 2", 2, &|| vec![vec![], vec![flip(30)]]),
                ("corrupt on 1 of 2", 2, &|| vec![vec![], vec![corrupt()]]),
            ];
            for ring in [0, 64] {
                let mut cfg = app.world_config(budget);
                cfg.machine.obs_capacity = ring;
                let (epochs, clean) = recorded(&app, &launch(&app, cfg), cfg);
                // The clean run from `start`, stepped to `round` or its end.
                let clean_at = |start: &WorldSnapshot, round: u64| {
                    let mut w = start.restore();
                    while w.round() < round && w.run_round().is_none() {}
                    w
                };
                let first = &epochs.epochs()[0].snap;
                let end = clean_at(first, u64::MAX);
                assert!(end.snapshot() == clean.end, "{kind:?}, ring {ring}");
                for (name, replicas, armed) in cases {
                    let policy = FtPolicy {
                        replicas,
                        ..FtPolicy::default()
                    };
                    let points: Vec<_> = armed()
                        .iter()
                        .flatten()
                        .map(|f| (f.rank, f.effect.clock(), f.at))
                        .collect();
                    for start in [&epochs.epochs()[0], epochs.best_for(&points)] {
                        let what = format!("{kind:?}, ring {ring}, {name}, from {}", start.round);
                        let output = |w: &MpiWorld| app.comparable_output(w);
                        let start = &start.snap;
                        let (w, got) = run_replicated(start, &clean, &policy, armed(), output);
                        let (r, want, winner) =
                            run_replicated_reference(start, &policy, armed(), output);
                        assert_eq!(got, want, "{what}");
                        assert_eq!(output(&w), output(&r), "{what}");
                        let insns = |w: &MpiWorld| -> Vec<u64> {
                            (0..w.nranks())
                                .map(|r| w.machine(r).counters.insns)
                                .collect()
                        };
                        assert_eq!(insns(&w), insns(&r), "{what}");
                        let winner_armed = armed().get(winner).is_some_and(|f| !f.is_empty());
                        let votes = |w: &MpiWorld| {
                            let events = w.event_streams().into_iter().flatten();
                            events
                                .filter(|e| matches!(e.kind, EventKind::ReplicaVote { .. }))
                                .count()
                        };
                        let expected = match winner_armed {
                            true => {
                                voted_armed += u32::from(votes(&r) > 0);
                                r
                            }
                            false => clean_at(start, r.round()),
                        };
                        assert!(
                            w.snapshot() == expected.snapshot(),
                            "{what}: winners differ"
                        );
                        assert_eq!(w.event_streams(), expected.event_streams(), "{what}");
                        assert!(winner_armed || votes(&w) == 0, "{what}");
                        masked += u32::from(got.votes == 1 && got.exit == WorldExit::Clean);
                        split += u32::from(matches!(got.exit, WorldExit::GuardDetected { .. }));
                        forked += u32::from(start.round() > 0);
                    }
                }
            }
        }
        // A fault on one replica of three is outvoted, and so is a clean
        // replica against two armed alike; two different faults, or one
        // against one clean replica, leave no majority. Recording on, six
        // armed winners carry the vote events the reference records.
        assert_eq!((masked, split, forked, voted_armed), (48, 24, 40, 6));
    }

    #[test]
    fn replication_clean_run_votes_nobody_out() {
        let app = tiny(AppKind::Climsim);
        let golden = app.golden(BUDGET);
        let budget = golden.insns.iter().max().unwrap() * 3 + 2_000_000;
        let cfg = app.world_config(budget);
        let (epochs, clean) = recorded(&app, &launch(&app, cfg), cfg);
        let (winner, report) = run_replicated(
            &epochs.epochs()[0].snap,
            &clean,
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
