//! Guarded execution: run a world under periodic checkpoints, roll back
//! and re-execute on any detected failure, within a bounded restart
//! budget.

use crate::watchdog::{Watchdog, WatchdogTrip};
use fl_mpi::{ChannelGuard, MpiWorld, WorldExit};
use fl_snap::{Epoch, Rider};

/// Knobs of one guarded execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardPolicy {
    /// Scheduler rounds between COW world checkpoints.
    pub checkpoint_rounds: u32,
    /// Rollback-and-re-execute attempts before giving up (the failure is
    /// then surfaced as detected-but-unrecovered).
    pub max_restarts: u32,
    /// Scheduler rounds per watchdog sampling window.
    pub window_rounds: u32,
    /// Consecutive no-progress windows before the watchdog trips.
    pub stall_windows: u32,
    /// Channel-level redelivery budget per message sequence number.
    pub max_retransmits: u8,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            checkpoint_rounds: 64,
            max_restarts: 3,
            window_rounds: 8,
            stall_windows: 24,
            max_retransmits: 3,
        }
    }
}

impl GuardPolicy {
    /// The [`ChannelGuard`] this policy arms on the world.
    pub fn channel_guard(&self) -> ChannelGuard {
        ChannelGuard {
            enabled: true,
            max_retransmits: self.max_retransmits,
        }
    }
}

/// What one guarded execution observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardReport {
    /// Final exit of the last (re-)execution.
    pub exit: WorldExit,
    /// Failures the guard caught (terminal exits + watchdog trips),
    /// including the final one if the budget ran out.
    pub detections: u32,
    /// Rollback-and-re-execute cycles performed.
    pub restarts: u32,
    /// Watchdog trips among the detections.
    pub watchdog_trips: u32,
    /// Channel-level redeliveries the CRC guard performed (counted on
    /// the final world — interventions the checkpoint already contained
    /// are part of its state).
    pub retransmits: u32,
    /// True when the restart budget was exhausted without a clean finish.
    pub exhausted: bool,
    /// Round of the checkpoint the last rollback restored (0 = the
    /// armed initial state).
    pub last_checkpoint_round: u64,
}

impl GuardReport {
    /// Whether the guard did anything at all: a run that is clean *and*
    /// intervention-free is indistinguishable from an unguarded one.
    pub fn intervened(&self) -> bool {
        self.detections > 0 || self.restarts > 0 || self.retransmits > 0
    }
}

/// Where a guarded run stands beside its world between two rounds: the
/// checkpoint a rollback restores — the world at the last multiple of
/// `checkpoint_rounds`, the start before the first — and the progress
/// watchdog, which samples at multiples of `window_rounds`. Until a
/// run's faults fire, both are what a fault-free run holds at the same
/// round, so a checkpoint of a fault-free guarded pass, with the state
/// the pass held there, is where a run armed at its start stands
/// ([`Rider`]).
#[derive(Clone)]
pub struct GuardState {
    policy: GuardPolicy,
    checkpoint: Epoch,
    watchdog: Watchdog,
}

impl GuardState {
    /// The state of a run that starts at `world`: `world` is its first
    /// rollback checkpoint, and the watchdog's first sample.
    pub fn new(world: &MpiWorld, policy: &GuardPolicy) -> GuardState {
        let mut watchdog = Watchdog::new(policy.stall_windows);
        watchdog.prime(world);
        GuardState {
            policy: *policy,
            checkpoint: Epoch::of(world),
            watchdog,
        }
    }

    /// This state, taken from a fault-free pass, for a world that resumes
    /// from the pass armed with faults that have not fired yet: the
    /// rollback checkpoint is [`Epoch::armed`].
    pub fn armed(&self, arm: impl FnOnce(&mut MpiWorld)) -> GuardState {
        GuardState {
            policy: self.policy,
            checkpoint: self.checkpoint.armed(arm),
            watchdog: self.watchdog.clone(),
        }
    }

    /// After a round that did not end `world`: sample the watchdog on its
    /// cadence, and on a healthy round checkpoint on its cadence. The
    /// capture marker is recorded first, so the event is part of the
    /// checkpoint. Returns a watchdog trip.
    fn between_rounds(&mut self, world: &mut MpiWorld) -> Option<WatchdogTrip> {
        let round = world.round();
        let window_rounds = self.policy.window_rounds.max(1) as u64;
        if round.is_multiple_of(window_rounds) {
            if let Some(trip) = self.watchdog.observe(world) {
                return Some(trip);
            }
        }
        if round.is_multiple_of(self.policy.checkpoint_rounds.max(1) as u64) {
            world.note_snapshot_captured(round);
            self.checkpoint = Epoch::of(world);
        }
        None
    }
}

/// The guarded pass: a watchdog trip is the one intervention a run whose
/// faults have not fired makes before its end.
impl Rider for GuardState {
    type State = GuardState;

    fn after_round(&mut self, world: &mut MpiWorld) -> bool {
        self.between_rounds(world).is_none()
    }

    fn state(&self) -> GuardState {
        self.clone()
    }
}

/// Run `world` — at round 0, armed with the trial's fault (or with
/// nothing, for a fault-free guarded run), under
/// [`GuardPolicy::channel_guard`] — under full guarding: CRC+retransmit
/// channel, progress watchdog, periodic checkpoints, rollback with a
/// bounded restart budget.
///
/// A not-yet-fired register/memory injection is carried across rollbacks
/// by [`MpiWorld::take_injection`] and [`MpiWorld::arm`] (snapshots cannot
/// capture the boxed action); every other armed fault rides inside the
/// snapshot itself.
/// A fault that already fired is *not* re-armed — that is the recovery
/// bet: if the last checkpoint predates the corruption, the re-run is
/// clean; if the corruption is inside the checkpoint, the failure
/// re-manifests deterministically until the budget is spent.
///
/// Returns the final world (for output comparison) and the report.
pub fn run_guarded(world: MpiWorld, policy: &GuardPolicy) -> (MpiWorld, GuardReport) {
    let state = GuardState::new(&world, policy);
    resume_guarded(world, state)
}

/// [`run_guarded`] from a later round: `world` stands where a run
/// started at round 0 would, and `state` is what that run holds there
/// (a fault-free pass's [`GuardState`], [`GuardState::armed`] with the
/// faults `world` carries). Nothing has intervened before it, so the
/// report counts from zero.
pub fn resume_guarded(mut world: MpiWorld, mut state: GuardState) -> (MpiWorld, GuardReport) {
    let mut report = GuardReport {
        exit: WorldExit::Clean,
        detections: 0,
        restarts: 0,
        watchdog_trips: 0,
        retransmits: 0,
        exhausted: false,
        last_checkpoint_round: 0,
    };
    let exit = loop {
        // A detected failure: terminal world exit, or a watchdog trip
        // promoted to one.
        let failure = match world.run_round() {
            Some(WorldExit::Clean) => break WorldExit::Clean,
            Some(exit) => exit,
            None => {
                let Some(trip) = state.between_rounds(&mut world) else {
                    continue;
                };
                report.watchdog_trips += 1;
                world.note_watchdog_trip(trip.victim, trip.windows);
                WorldExit::GuardDetected {
                    rank: trip.victim,
                    what: format!(
                        "watchdog: no useful progress for {} windows \
                         (block clock {})",
                        trip.windows, trip.blocks
                    ),
                }
            }
        };

        report.detections += 1;
        if report.restarts >= state.policy.max_restarts {
            report.exhausted = true;
            break failure;
        }
        // Roll back: restore the checkpoint, carry any unfired injection
        // over from the failed world, re-baseline the watchdog.
        let carried = world.take_injection();
        let checkpoint = &state.checkpoint;
        let mut restored = checkpoint.snap.restore();
        report.restarts += 1;
        report.last_checkpoint_round = checkpoint.round;
        restored.note_guard_restart(report.restarts, checkpoint.round);
        if let Some(inj) = carried {
            restored.arm(inj);
        }
        world = restored;
        state.watchdog.reset();
        state.watchdog.prime(&world);
    };

    report.exit = exit;
    report.retransmits = world.retransmits();
    (world, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_apps::{App, AppKind, AppParams};
    use fl_machine::KERNEL_BASE;
    use fl_mpi::{Fault, Launch, WorldConfig};

    fn tiny(kind: AppKind) -> App {
        App::build(kind, AppParams::tiny(kind))
    }

    /// A fresh `cfg` world of `app` under `policy`'s channel, `arm`ed.
    fn armed(
        app: &App,
        mut cfg: WorldConfig,
        policy: &GuardPolicy,
        arm: impl FnOnce(&mut MpiWorld),
    ) -> MpiWorld {
        cfg.guard = policy.channel_guard();
        let mut world = Launch::new(&app.image, cfg.machine, None).world(cfg);
        arm(&mut world);
        world
    }

    fn outputs(w: &MpiWorld) -> (Vec<u8>, Vec<u8>) {
        let m = w.machine(0);
        (m.outfile.clone(), m.console.clone())
    }

    #[test]
    fn fault_free_guarded_runs_are_clean_and_intervention_free() {
        for kind in [AppKind::Wavetoy, AppKind::Moldyn, AppKind::Climsim] {
            let app = tiny(kind);
            let cfg = app.world_config(2_000_000_000);
            let mut golden = MpiWorld::new(&app.image, cfg);
            assert_eq!(golden.run(), WorldExit::Clean);

            let policy = GuardPolicy::default();
            let (world, report) = run_guarded(armed(&app, cfg, &policy, |_| {}), &policy);
            assert_eq!(report.exit, WorldExit::Clean, "{kind:?}");
            assert!(!report.intervened(), "{kind:?}: {report:?}");
            assert_eq!(outputs(&world), outputs(&golden), "{kind:?}");
        }
    }

    #[test]
    fn payload_flip_is_retransmitted_and_run_stays_correct() {
        let app = tiny(AppKind::Wavetoy);
        let cfg = app.world_config(2_000_000_000);
        let mut golden = MpiWorld::new(&app.image, cfg);
        assert_eq!(golden.run(), WorldExit::Clean);

        // Unguarded, this flip lands somewhere in a live message; with
        // the guard on, the CRC catches it and the sender redelivers.
        let fault = Fault::flip(1, 100, 3);
        let policy = GuardPolicy::default();
        let (world, report) = run_guarded(armed(&app, cfg, &policy, |w| w.arm(fault)), &policy);
        assert_eq!(report.exit, WorldExit::Clean);
        assert!(report.retransmits > 0, "CRC must have caught the flip");
        assert_eq!(report.restarts, 0, "retransmit suffices, no rollback");
        assert!(report.intervened());
        assert_eq!(outputs(&world), outputs(&golden));
    }

    #[test]
    fn zero_retransmit_budget_turns_flip_into_guard_detection() {
        let app = tiny(AppKind::Wavetoy);
        let cfg = app.world_config(2_000_000_000);
        let policy = GuardPolicy {
            max_retransmits: 0,
            max_restarts: 0,
            ..GuardPolicy::default()
        };
        let world = armed(&app, cfg, &policy, |w| w.arm(Fault::flip(1, 100, 3)));
        let (_, report) = run_guarded(world, &policy);
        assert!(
            matches!(report.exit, WorldExit::GuardDetected { .. }),
            "exhausted budget must surface as GuardDetected, got {:?}",
            report.exit
        );
        assert!(report.exhausted);
    }

    #[test]
    fn crash_after_checkpoint_rolls_back_and_recovers() {
        // The fl-snap recovery experiment, now inside the guarded
        // runner: throw a rank's EIP into kernel space mid-run. The
        // injection fires after the first checkpoint, so rollback erases
        // it and the re-run completes bit-identically to golden.
        let app = tiny(AppKind::Wavetoy);
        let cfg = app.world_config(2_000_000_000);
        let mut golden = MpiWorld::new(&app.image, cfg);
        assert_eq!(golden.run(), WorldExit::Clean);
        let kill_at = golden.machine(1).counters.insns / 2;

        let policy = GuardPolicy {
            checkpoint_rounds: 16,
            ..GuardPolicy::default()
        };
        let world = armed(&app, cfg, &policy, |w| {
            w.arm(Fault::once(1, kill_at, |m| {
                m.cpu.eip = KERNEL_BASE + 4;
            }))
        });
        let (world, report) = run_guarded(world, &policy);
        assert_eq!(report.exit, WorldExit::Clean, "{report:?}");
        assert_eq!(report.restarts, 1);
        assert_eq!(report.detections, 1);
        assert!(
            report.last_checkpoint_round > 0,
            "must restore a mid-run checkpoint"
        );
        assert_eq!(outputs(&world), outputs(&golden));
    }

    #[test]
    fn restart_budget_bounds_deterministic_refailure() {
        // An injection carried across rollbacks re-fires every re-run
        // (take_injection + arm), so the same crash recurs until the
        // budget is spent and the final exit surfaces.
        let app = tiny(AppKind::Wavetoy);
        let cfg = app.world_config(2_000_000_000);
        let policy = GuardPolicy {
            checkpoint_rounds: 1_000_000, // never checkpoints mid-run
            max_restarts: 2,
            ..GuardPolicy::default()
        };
        // Persistent injection: re-asserts forever, so even though the
        // rollback target is the armed initial state, every re-run fails.
        let world = armed(&app, cfg, &policy, |w| {
            w.arm(Fault::persistent(0, 500, 200, |m| {
                m.cpu.eip = KERNEL_BASE + 4;
            }))
        });
        let (_, report) = run_guarded(world, &policy);
        assert!(
            matches!(report.exit, WorldExit::Crashed { .. }),
            "{report:?}"
        );
        assert_eq!(report.restarts, 2);
        assert_eq!(report.detections, 3);
        assert!(report.exhausted);
    }

    #[test]
    fn guard_events_carry_the_recovery_timeline() {
        // With event recording on, a recovered run's streams contain the
        // capture and restart markers with block-clock timestamps.
        let app = tiny(AppKind::Wavetoy);
        let mut cfg = app.world_config(2_000_000_000);
        cfg.machine.obs_capacity = 4096;
        let mut golden = MpiWorld::new(&app.image, cfg);
        assert_eq!(golden.run(), WorldExit::Clean);
        let kill_at = golden.machine(0).counters.insns / 2;

        let policy = GuardPolicy {
            checkpoint_rounds: 16,
            ..GuardPolicy::default()
        };
        let world = armed(&app, cfg, &policy, |w| {
            w.arm(Fault::once(0, kill_at, |m| {
                m.cpu.eip = KERNEL_BASE + 4;
            }))
        });
        let (world, report) = run_guarded(world, &policy);
        assert_eq!(report.exit, WorldExit::Clean);
        let streams = world.event_streams();
        let kinds: Vec<&'static str> = streams
            .iter()
            .flat_map(|s| s.iter().map(|e| e.kind.name()))
            .collect();
        assert!(kinds.contains(&"snapshot_captured"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"guard_restart"));
    }
}
