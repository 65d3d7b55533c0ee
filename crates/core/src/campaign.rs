//! Campaign execution: thousands of independent injection experiments,
//! sampled per §4.3 and run in parallel across host threads.
//!
//! One *trial* = one application execution with exactly one injected
//! fault: a (target, bit, rank, time) point drawn uniformly from the
//! fault space, exactly the three-axis sampling of §4.3. The trial's
//! world is torn down afterwards — the paper rebooted to a clean state
//! between injections; we get the same isolation by constructing fresh
//! machines.

use crate::faultmodel::Duration;
use crate::obs::{CampaignMetrics, TrialTrace};
use crate::outcome::{classify, Manifestation, Tally};
use crate::target::{
    fp_registers, regular_registers, resolve_heap_target, resolve_stack_target, FaultDictionary,
    TargetClass,
};
use fl_apps::{App, AppKind, AppParams, Golden};
use fl_isa::RegisterName;
use fl_machine::{Cpu, ExecStats};
use fl_mpi::{Action, Clock, Effect, Fault, Launch, MpiWorld, WorldConfig, WorldExit};
use fl_snap::{EpochCache, Interval};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Instruction budget of the golden run itself (the trial budget is
/// derived from its result).
pub(crate) const GOLDEN_BUDGET: u64 = 2_000_000_000;

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Injections per target class (the paper used 400–500 for most
    /// regions, up to 2000 for messages).
    pub injections: u32,
    /// Master seed; trial k uses `seed + k` so campaigns are reproducible
    /// and trials independent. It also fixes the campaign's arrival-order
    /// schedule (§4.2.2): every run of a nondeterministic app in one
    /// campaign shuffles alike, and another seed is another schedule.
    pub seed: u64,
    /// Hang bound: per-rank instruction budget = `budget_factor` × the
    /// longest golden rank (the paper's wait-past-expected-completion).
    pub budget_factor: f64,
    /// Worker threads (0 = all available).
    pub threads: usize,
    /// Checkpoint the golden world every this many scheduler rounds and
    /// start each trial by forking from the latest checkpoint before its
    /// injection point instead of re-executing the fault-free prefix
    /// (0 = run every trial cold). Every application forks: a
    /// nondeterministic one runs its whole campaign on one arrival-order
    /// schedule ([`CampaignConfig::seed`]) and the shuffle RNG rides the
    /// snapshots, so its trials share the golden prefix like any other's.
    pub epoch_rounds: u32,
    /// Per-rank `fl-obs` event-ring capacity. 0 (the default) disables
    /// recording entirely; nonzero makes every trial record structured
    /// events and the campaign aggregate [`CampaignMetrics`]. The same
    /// capacity is applied to the golden prefix the epoch cache
    /// replays, so forked and cold trials emit bit-identical streams.
    pub obs_capacity: u32,
    /// Run trial machines with the execution fast path (software TLB +
    /// basic-block dispatch) enabled. On by default; turning it off
    /// forces every machine onto the slow per-instruction path, which
    /// is observably identical but much slower — useful only for
    /// benchmarking the fast path and for divergence hunting.
    pub fastpath: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            injections: 500,
            seed: 0xFA_17,
            budget_factor: 3.0,
            threads: 0,
            epoch_rounds: 16,
            obs_capacity: 0,
            fastpath: true,
        }
    }
}

/// One trial's record: what was hit and what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialRecord {
    /// Target class.
    pub class: TargetClass,
    /// Human-readable description of the fault point (register + bit,
    /// address, or message offset).
    pub detail: String,
    /// The observed outcome.
    pub outcome: Manifestation,
}

/// Results for one class (one row of Tables 2–4).
#[derive(Debug, Clone)]
pub struct ClassResult {
    /// The injected class.
    pub class: TargetClass,
    /// Aggregate counts.
    pub tally: Tally,
    /// Per-trial records (register analysis, §6.1.1).
    pub trials: Vec<TrialRecord>,
}

/// A full campaign's results for one application.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Which application.
    pub app: AppKind,
    /// One entry per requested class, in request order.
    pub classes: Vec<ClassResult>,
    /// The fault-free reference run.
    pub golden: Golden,
    /// Event-stream aggregates, present iff the campaign ran with
    /// `obs_capacity > 0`.
    pub metrics: Option<CampaignMetrics>,
    /// Guest instructions retired across every trial (the sum of each
    /// rank's final instruction counter). Forked trials report the same
    /// count as their cold equivalents — restored counters include the
    /// replayed prefix — so the figure is a property of the campaign,
    /// not of the execution strategy. 0 for model campaigns, which do
    /// not collect counters.
    pub insns_total: u64,
    /// Wall-clock duration of the trial-execution phase, in
    /// nanoseconds (excludes the golden run and dictionary builds).
    pub wall_nanos: u64,
    /// Decoded-code cache effectiveness summed over every trial's
    /// machines. Telemetry, like `wall_nanos`: hit/miss ratios depend
    /// on fork warmth and worker scheduling, so they are reported in
    /// the throughput footer and telemetry rows but never enter
    /// records, metrics rows or any byte-identity contract. Zero for
    /// model campaigns.
    pub exec_stats: ExecStats,
    /// What convergence-aware termination skipped. Unlike `exec_stats`
    /// these are deterministic in the spec, but like it they are
    /// campaign telemetry: footer and telemetry rows only, never
    /// per-trial records. Zero when no trial could end early (no epochs,
    /// or event recording on).
    pub converge: ConvergeStats,
}

/// Counters of convergence-aware early termination: how many trials were
/// ended at an epoch boundary or between two epochs because they had
/// provably become the golden run again, what proving it took, how many
/// never had to start because their flip lands where nothing reads, and
/// how many forked from a round checkpoint of a swept interval. Sums over
/// the trials this process executed — resume-adopted slots contribute
/// zero, like [`ExecStats`]. Every app forks and converges, the
/// nondeterministic one included, so all-zero counters on a fresh
/// campaign with epochs and no event recording mean its trials ran cold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvergeStats {
    /// Trials ended early as `correct`, at an epoch boundary or between
    /// two epochs.
    pub trials_converged: u64,
    /// Live-world-against-golden comparisons made, at epoch boundaries
    /// and at the round checkpoints of swept intervals (those of trials
    /// that never converged included).
    pub epoch_compares: u64,
    /// Memory granules that differed from the golden run's at the
    /// deciding comparison and were excused because the golden run never
    /// reads them again.
    pub granules_excused: u64,
    /// Trials recorded `correct` when they were drawn, before any guest
    /// instruction ran: the flip lands in a register bit no instruction
    /// can read or a static granule the golden run has read for the last
    /// time. Disjoint from `trials_converged`.
    pub decided_at_draw: u64,
    /// Trials forked from a round checkpoint of a swept interval, later
    /// than the epoch that opens it ([`EpochCache::sweep`]).
    pub forked_at_round: u64,
    /// Trials ended at a round checkpoint between two epochs. A subset of
    /// `trials_converged`.
    pub ended_between_epochs: u64,
}

impl ConvergeStats {
    /// Accumulate another trial's (or campaign's) counters.
    pub fn add(&mut self, o: &ConvergeStats) {
        self.trials_converged += o.trials_converged;
        self.epoch_compares += o.epoch_compares;
        self.granules_excused += o.granules_excused;
        self.decided_at_draw += o.decided_at_draw;
        self.forked_at_round += o.forked_at_round;
        self.ended_between_epochs += o.ended_between_epochs;
    }

    /// How the one trial these counters belong to ended, in words;
    /// `round` is the scheduler round its world stood at when it ended.
    pub fn ended(&self, round: u64) -> String {
        let excused = self.granules_excused;
        match (self.decided_at_draw, self.trials_converged) {
            (0, 0) => "ran to its end".to_string(),
            _ if self.ended_between_epochs > 0 => {
                format!("between epochs at round {round}, {excused} granules excused")
            }
            (0, _) => format!("at epoch boundary, {excused} granules excused"),
            _ => "decided at draw".to_string(),
        }
    }
}

impl CampaignResult {
    /// The result row for a class, if it was part of the campaign.
    pub fn class(&self, c: TargetClass) -> Option<&ClassResult> {
        self.classes.iter().find(|r| r.class == c)
    }

    /// Trials executed across all classes.
    pub fn trials_total(&self) -> u64 {
        self.classes.iter().map(|c| c.trials.len() as u64).sum()
    }

    /// Campaign instruction throughput in millions of guest
    /// instructions per wall-clock second (0 if nothing was timed).
    pub fn mips(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.insns_total as f64 * 1e3 / self.wall_nanos as f64
    }

    /// Campaign trial throughput in trials per wall-clock second
    /// (0 if nothing was timed).
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.trials_total() as f64 * 1e9 / self.wall_nanos as f64
    }
}

/// The hang bound derived from a golden run (`budget_factor` × the
/// longest rank, plus slack for fault-lengthened paths).
pub(crate) fn trial_budget(golden: &Golden, cfg: &CampaignConfig) -> u64 {
    (*golden.insns.iter().max().unwrap() as f64 * cfg.budget_factor) as u64 + 2_000_000
}

/// The seed of trial `k` of class position `ci` — recomputable, so any
/// recorded trial can be replayed bit-exactly from its campaign
/// coordinates.
pub fn trial_seed(campaign_seed: u64, ci: usize, k: u32) -> u64 {
    campaign_seed
        .wrapping_add((ci as u64) << 32)
        .wrapping_add(k as u64)
}

/// The world configuration every run of a campaign is made under — the
/// golden pass, each trial, each matrix column and reference run: the
/// app's own configuration with the campaign's event recording and
/// execution tier threaded through, on the campaign's arrival-order
/// schedule. Forked and cold trials must use the same recording capacity
/// or their streams could not be bit-identical.
///
/// The schedule is a function of the app and the campaign seed, not of
/// the trial: §4.2.2 needs arrival order to vary across runs and the
/// oracle to tolerate that, which campaign seeds provide, while one
/// schedule per campaign gives every trial the golden run's prefix and
/// pairs every matrix column with its reference run. Deterministic apps
/// never draw from the schedule RNG, so their worlds keep the app's own
/// seed: their configuration, and with it their golden pass, is the same
/// for every campaign seed.
pub(crate) fn trial_world_config(
    kind: AppKind,
    params: &AppParams,
    cfg: &CampaignConfig,
    budget: u64,
) -> WorldConfig {
    let mut wcfg = kind.world_config(params, budget);
    if wcfg.nondet {
        wcfg.seed = params.seed ^ cfg.seed;
    }
    wcfg.machine.obs_capacity = cfg.obs_capacity;
    wcfg.machine.fastpath = cfg.fastpath;
    wcfg
}

/// What a [`TrialContext`] is a function of: the app, the golden pass's
/// world configuration — which carries the recording capacity, the
/// execution tier and, for a nondeterministic app only, the campaign's
/// schedule seed — the epoch interval and the hang-bound factor. Two
/// campaigns with equal keys build equal contexts, whatever their seeds,
/// regions, injection counts and worker counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ContextKey {
    kind: AppKind,
    params: AppParams,
    world: WorldConfig,
    epoch_rounds: u32,
    budget_factor: f64,
}

impl ContextKey {
    /// The key of the context a campaign of `kind` at `params` under
    /// `cfg` runs on.
    pub(crate) fn new(kind: AppKind, params: AppParams, cfg: &CampaignConfig) -> ContextKey {
        ContextKey {
            kind,
            params,
            world: trial_world_config(kind, &params, cfg, GOLDEN_BUDGET),
            epoch_rounds: cfg.epoch_rounds,
            budget_factor: cfg.budget_factor,
        }
    }
}

/// Everything the trials of a campaign share, built once by
/// [`TrialContext::build`]: the app, its golden run, the fault
/// dictionaries, the hang budget, the epoch snapshots with their read
/// stamps, the launch every world starts from, and the recording and
/// execution-tier settings. [`TrialContext::plan`] lays a campaign's
/// trials out and [`TrialContext::run_planned`] is the one place a trial
/// is executed. It holds nothing of the campaign that is not in its
/// [`ContextKey`] — no seed, region list, injection count or worker
/// count — so campaigns with equal keys can share one.
pub(crate) struct TrialContext {
    pub(crate) app: App,
    pub(crate) golden: Golden,
    pub(crate) dicts: Dictionaries,
    /// Present iff trials fork (`epoch_rounds > 0`).
    epochs: Option<EpochCache>,
    /// The image loaded and pre-decoded once: the golden pass and every
    /// world that cannot fork from a later epoch start from it.
    pub(crate) launch: Launch,
    /// What every trial world is configured from: the golden pass's
    /// configuration under the trial's per-rank instruction budget (the
    /// hang bound).
    pub(crate) world: WorldConfig,
    /// End a forked trial at the first epoch boundary where it is
    /// provably the golden run again, or before it runs when its flip is
    /// dead as drawn. Implied by the configuration, not
    /// configured: on whenever trials fork and record no events (an event
    /// timeline is the product, so those trials run on). Tests turn it
    /// off to compare against full execution.
    converge: bool,
    /// Which epoch intervals [`TrialContext::plan`] has swept. Only
    /// tests choose anything but [`Sweeps::Shared`].
    sweeps: Sweeps,
    /// The GPRs some instruction of the image reads
    /// ([`crate::regpressure::gprs_read`]): a flip of any other is read
    /// by nothing.
    gprs_read: u8,
}

/// Which epoch intervals a campaign that ends trials early sweeps
/// ([`EpochCache::sweep`]) before running the trials that fork in them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sweeps {
    /// Those at least two executing trials fork in: a sweep costs about
    /// one interval of execution, and each trial it serves skips about
    /// half of one.
    Shared,
    /// Every interval an executing trial forks in, one trial or more.
    #[cfg(test)]
    Always,
    /// None: every trial forks from its epoch and is compared only at
    /// epoch boundaries.
    #[cfg(test)]
    Never,
}

/// One slot of a campaign in execution order: everything its trial is a
/// function of — its coordinates `(ci, k)`, its class, seed and flip
/// duration — the epoch it forks from and whether that epoch's interval
/// is swept before it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Planned {
    pub(crate) ci: usize,
    pub(crate) k: u32,
    pub(crate) class: TargetClass,
    pub(crate) seed: u64,
    pub(crate) duration: Duration,
    /// Index of the fork epoch (0 without epochs).
    pub(crate) epoch: usize,
    pub(crate) swept: bool,
}

/// A trial's fault as drawn, with everything decided before any world
/// exists: the fork epoch and whether the flip is dead on arrival.
struct Drawn {
    fault: Fault,
    detail: String,
    point: (u16, Clock, u64),
    /// Index of the epoch [`EpochCache::best_for`] forks from.
    epoch: Option<usize>,
    dead: bool,
}

impl TrialContext {
    /// Run the golden pass and build everything trials need. When trials
    /// fork, one execution yields the golden record, the epoch snapshots
    /// and the read stamps; otherwise it is a plain golden run.
    pub(crate) fn build(app: App, cfg: &CampaignConfig) -> TrialContext {
        let wcfg = trial_world_config(app.kind, &app.params, cfg, GOLDEN_BUDGET);
        let launch = Launch::new(&app.image, wcfg.machine, None);
        let (golden, mut epochs) = if cfg.epoch_rounds > 0 {
            let (epochs, world) = EpochCache::run_golden(&launch, wcfg, cfg.epoch_rounds);
            (app.golden_of(&world, epochs.golden_exit()), Some(epochs))
        } else {
            let mut world = launch.world(wcfg);
            let exit = world.run();
            (app.golden_of(&world, &exit), None)
        };
        let budget = trial_budget(&golden, cfg);
        if let Some(e) = &mut epochs {
            e.set_budget(budget);
        }
        let mut world = wcfg;
        world.machine.budget = budget;
        TrialContext {
            dicts: Dictionaries::build(&app),
            gprs_read: crate::regpressure::gprs_read(&app.image),
            app,
            golden,
            converge: epochs.is_some() && cfg.obs_capacity == 0,
            sweeps: Sweeps::Shared,
            epochs,
            launch,
            world,
        }
    }

    /// The same context with early termination off: every trial runs to
    /// its own end. Test-only — the reference that terminated campaigns
    /// must match byte for byte.
    #[cfg(test)]
    pub(crate) fn run_to_completion(mut self) -> TrialContext {
        self.converge = false;
        self
    }

    /// The same context sweeping the intervals `sweeps` names. Test-only,
    /// like [`TrialContext::run_to_completion`]: which intervals are swept
    /// must change no record byte, so tests hold every choice to the
    /// run-to-completion reference.
    #[cfg(test)]
    pub(crate) fn sweeping(mut self, sweeps: Sweeps) -> TrialContext {
        self.sweeps = sweeps;
        self
    }

    /// Draw a trial's fault and settle what the draw alone settles.
    fn draw(&self, class: TargetClass, duration: Duration, trial_seed: u64) -> Drawn {
        let nranks = self.app.params.nranks;
        let (fault, detail, struck) = draw_fault(
            &self.golden,
            &self.dicts,
            class,
            duration,
            trial_seed,
            nranks,
        );
        let point = (fault.rank, fault.effect.clock(), fault.at);
        let epoch = self.epochs.as_ref().map(|e| e.best_index(&[point]));
        let dead = self.dead_when_drawn(struck, fault.rank, epoch);
        Drawn {
            fault,
            detail,
            point,
            epoch,
            dead,
        }
    }

    /// The draw-first plan of the campaign `classes` × `cfg`, its flips
    /// lasting `duration`: every slot, its fault drawn (draws are pure in
    /// `(seed, ci, k)`), grouped by the epoch its trial forks from, with
    /// the intervals to sweep marked ([`Sweeps`]); the `adopted` slots
    /// first, then those decided at their draw. Adopted slots are drawn
    /// and counted like the others, so a resumed campaign sweeps the
    /// intervals the fresh one swept: adoption decides only where a slot
    /// stands. Trials only run in another order — their records still
    /// land in their `(ci, k)` slots — and the plan is a function of the
    /// campaign and the adopted set alone, never of the worker count.
    pub(crate) fn plan(
        &self,
        classes: &[TargetClass],
        cfg: &CampaignConfig,
        duration: Duration,
        adopted: &dyn Fn(usize, u32) -> bool,
    ) -> Vec<Planned> {
        let mut executing = vec![0u32; self.epochs.as_ref().map_or(1, EpochCache::len)];
        let mut drawn = Vec::new();
        for (ci, &class) in classes.iter().enumerate() {
            for k in 0..cfg.injections {
                let seed = trial_seed(cfg.seed, ci, k);
                let d = self.draw(class, duration, seed);
                let epoch = d.epoch.unwrap_or(0);
                executing[epoch] += u32::from(!d.dead);
                let p = Planned {
                    ci,
                    k,
                    class,
                    seed,
                    duration,
                    epoch,
                    swept: false,
                };
                drawn.push((adopted(ci, k), d.dead, p));
            }
        }
        // Adopted slots and trials decided at their draw first: they finish
        // at once. Within an interval, trial index before region: the
        // first trial also waits for the interval's sweep, and the regions
        // take turns.
        drawn.sort_by_key(|&(adopted, dead, p)| (!adopted, !dead, p.epoch, p.k, p.ci));
        let least = match self.sweeps {
            Sweeps::Shared => 2,
            #[cfg(test)]
            Sweeps::Always => 1,
            #[cfg(test)]
            Sweeps::Never => u32::MAX,
        };
        let sweep = self.converge && self.epochs.is_some();
        let swept = |dead: bool, p: &Planned| sweep && !dead && executing[p.epoch] >= least;
        let planned = drawn.into_iter().map(|(_, dead, p)| Planned {
            swept: swept(dead, &p),
            ..p
        });
        planned.collect()
    }

    /// Run planned slot `p` as a worker does: the one place a trial is
    /// executed. `held` is the one interval sweep the worker holds: it is
    /// let go when `p` forks in another interval, and made when `p`'s
    /// interval is swept and not held. Returns the run and the guest
    /// execution of a sweep made for it, which the campaign paid for too.
    ///
    /// The trial forks from the latest checkpoint its injection point
    /// permits: of its interval's sweep when the plan swept it, else its
    /// epoch. Swept, it is compared with the golden run at every
    /// checkpoint round after its fault is spent, not only at epoch
    /// boundaries. Cold and forked trials consume the identical random
    /// sequence — the complete fault specification is drawn before any
    /// world exists — so a campaign produces the same records either way;
    /// forking only skips the redundant fault-free prefix, and
    /// convergence only the redundant fault-free suffix.
    pub(crate) fn run_planned(
        &self,
        p: &Planned,
        held: &mut Option<Interval>,
    ) -> (TrialRun, ExecStats) {
        if held.as_ref().is_some_and(|h| h.open() != p.epoch) {
            *held = None;
        }
        let mut swept = ExecStats::default();
        if let (true, None, Some(epochs)) = (p.swept, &held, &self.epochs) {
            let interval = epochs.sweep(p.epoch);
            swept = interval.exec_stats();
            *held = Some(interval);
        }
        let interval = held.as_ref().filter(|_| p.swept);
        let app = &self.app;
        let drawn = self.draw(p.class, p.duration, p.seed);
        let (rank, detail) = (drawn.fault.rank, drawn.detail);
        debug_assert!(interval.is_none_or(|i| Some(i.open()) == drawn.epoch));

        // Fork from the latest checkpoint the injection point permits.
        let epoch = self.epochs.as_ref().zip(drawn.epoch);
        let epoch = epoch.map(|(epochs, k)| &epochs.epochs()[k]);
        let from = interval.map_or(epoch, |i| Some(i.best_for(&[drawn.point])));
        let mut world = match from {
            Some(e) => e.snap.restore(),
            None => self.launch.world(self.world),
        };
        world.arm(drawn.fault);

        let mut converge = ConvergeStats::default();
        let later = from.zip(epoch).is_some_and(|(f, e)| f.round > e.round);
        converge.forked_at_round = u64::from(later);

        let ran = if drawn.dead {
            converge.decided_at_draw = 1;
            None
        } else {
            self.run_until_converged(&mut world, &mut converge, interval)
        };
        let (outcome, insns) = match ran {
            // Decided at the draw or at a boundary, the trial is the
            // golden run from there on: it ends clean with the golden
            // output, and since its counters equal the golden run's at
            // that point, with the golden instruction counts.
            None => (Manifestation::Correct, self.golden.insns.iter().sum()),
            Some(exit) => {
                let output = app.comparable_output(&world);
                let insns = (0..app.params.nranks)
                    .map(|r| world.machine(r).counters.insns)
                    .sum();
                (classify(&exit, &output, &self.golden.output), insns)
            }
        };
        let run = TrialRun {
            record: TrialRecord {
                class: p.class,
                detail,
                outcome,
            },
            rank,
            insns,
            world,
            converge,
        };
        (run, swept)
    }

    /// Does the drawn flip land where nothing reads again, so that the
    /// trial is the golden run without executing an instruction? Under
    /// the same condition as ending at a boundary (`converge`), for a
    /// register bit no instruction can read ([`Cpu::can_read`]) or a
    /// general-purpose register no instruction of the image reads, and
    /// for a static byte in a granule the golden run last read before
    /// `epoch`, the checkpoint the trial forks from: flipped there
    /// instead of at its fire point, the forked world would pass
    /// [`EpochCache::converged`] on that very epoch with this one
    /// granule excused, and the golden run may write the granule before
    /// the fire point but never reads it after the fork.
    fn dead_when_drawn(&self, struck: Struck, rank: u16, epoch: Option<usize>) -> bool {
        let forked = self.epochs.as_ref().zip(epoch).filter(|_| self.converge);
        forked.is_some_and(|(epochs, j)| match struck {
            Struck::Register(reg, bit) => {
                let unread = match reg {
                    RegisterName::Gpr(g) => self.gprs_read >> g.index() & 1 == 0,
                    _ => false,
                };
                unread || !Cpu::can_read(reg, bit)
            }
            Struck::Static(addr) => epochs.stamps(rank).get(addr) as usize <= j,
            Struck::AtFire => false,
        })
    }

    /// Run an armed trial world to its exit — or, when early termination
    /// applies, only until the first epoch boundary, or round checkpoint
    /// of its swept `interval`, at which its fault is spent and it has
    /// provably become the golden run again (`None`).
    fn run_until_converged(
        &self,
        world: &mut MpiWorld,
        stats: &mut ConvergeStats,
        interval: Option<&Interval>,
    ) -> Option<WorldExit> {
        let Some(epochs) = self.epochs.as_ref().filter(|_| self.converge) else {
            return Some(world.run());
        };
        loop {
            if let Some(exit) = world.run_round() {
                return Some(exit);
            }
            let round = world.round();
            let at_epoch = epochs.boundary_at(round);
            let between = interval.filter(|i| at_epoch.is_none() && i.at(round).is_some());
            if (at_epoch.is_none() && between.is_none()) || world.fault_pending() {
                continue;
            }
            stats.epoch_compares += 1;
            let excused = match (at_epoch, between) {
                (Some(k), _) => epochs.converged(k, world),
                (None, Some(i)) => epochs.converged_between(i, world),
                (None, None) => unreachable!("compared only at a checkpoint"),
            };
            if let Some(excused) = excused {
                stats.trials_converged = 1;
                stats.ended_between_epochs = u64::from(at_epoch.is_none());
                stats.granules_excused = excused;
                return None;
            }
        }
    }
}

/// Re-run one trial from its campaign coordinates: class position `ci`
/// in `classes`, trial index `k`. Returns the full trace; event streams
/// are empty unless `cfg.obs_capacity > 0`.
pub fn replay_trial(
    app: &App,
    classes: &[TargetClass],
    cfg: &CampaignConfig,
    ci: usize,
    k: u32,
) -> TrialTrace {
    assert!(ci < classes.len(), "class index {ci} out of range");
    assert!(k < cfg.injections, "trial index {k} out of range");
    let ctx = TrialContext::build(app.clone(), cfg);
    // Run it as the campaign did: on the sweep of its interval if the
    // campaign's plan swept it — whether this process ran the trial or a
    // resumed one did, since the plan counts adopted slots alike.
    let plan = ctx.plan(classes, cfg, Duration::Transient, &|_, _| false);
    let slot = plan.iter().find(|p| (p.ci, p.k) == (ci, k));
    let slot = slot.expect("the plan holds every slot");
    let (run, _) = ctx.run_planned(slot, &mut None);
    TrialTrace {
        record: run.record,
        rank: run.rank,
        insns: run.insns,
        converge: run.converge,
        round: run.world.round(),
        streams: run.world.event_streams(),
    }
}

/// Pre-built fault dictionaries for the static regions.
pub struct Dictionaries {
    text: FaultDictionary,
    data: FaultDictionary,
    bss: FaultDictionary,
}

impl Dictionaries {
    /// Build all three static-region dictionaries for an app.
    pub fn build(app: &App) -> Dictionaries {
        Dictionaries {
            text: FaultDictionary::build(&app.image, fl_machine::Region::Text),
            data: FaultDictionary::build(&app.image, fl_machine::Region::Data),
            bss: FaultDictionary::build(&app.image, fl_machine::Region::Bss),
        }
    }
}

/// Draw a trial's complete fault specification from its seed — §4.3's
/// three-axis sampling. Baseline and guarded runs of the same trial seed
/// draw the *identical* fault (the RNG is consumed before any world
/// exists), which is what makes per-trial guard-off/guard-on coverage
/// comparison meaningful. A register or static-memory flip lasts
/// `duration` (§8.1); heap and stack targets are resolved when the fault
/// fires and a message flip strikes the wire, so those flip once.
/// Returns the armable fault (a machine fault's action is a boxed
/// closure, so every world wants its own draw), its human-readable
/// record detail, and what the flip strikes.
pub(crate) fn draw_fault(
    golden: &Golden,
    dicts: &Dictionaries,
    class: TargetClass,
    duration: Duration,
    trial_seed: u64,
    nranks: u16,
) -> (Fault, String, Struck) {
    let mut rng = StdRng::seed_from_u64(trial_seed);
    let rank = rng.gen_range(0..nranks);
    let at_insns = |rng: &mut StdRng| rng.gen_range(1..golden.insns[rank as usize].max(2));
    let fault = |at, (action, period): (Action, Option<u64>), what: String, struck| {
        let effect = Effect::Action { action, period };
        let detail = format!("rank {rank} t={at}: {what}");
        (Fault::new(rank, at, effect), detail, struck)
    };
    // A text, data or bss byte from the region's dictionary.
    let mut static_flip = |dict: &FaultDictionary| {
        let at = at_insns(&mut rng);
        let addr = dict
            .pick(&mut rng)
            .expect("static region must have symbols");
        let bit = rng.gen_range(0..8u8);
        let lasting = duration.action(
            move |m| m.mem.peek_u8(addr) >> (bit & 7) & 1 == 1,
            move |m, v| {
                m.set_mem_bit(addr, bit, v);
            },
        );
        let what = format!("{} {addr:#010x} bit {bit}", class.label());
        fault(at, lasting, what, Struck::Static(addr))
    };
    match class {
        TargetClass::Message => {
            let volume = golden.recv_bytes[rank as usize].max(1);
            let off = rng.gen_range(0..volume);
            let bit = rng.gen_range(0..8u8);
            (
                Fault::flip(rank, off, bit).into(),
                format!("rank {rank} recv byte {off} bit {bit}"),
                Struck::AtFire,
            )
        }
        TargetClass::RegularReg | TargetClass::FpReg => {
            let at = at_insns(&mut rng);
            let regs = if class == TargetClass::RegularReg {
                regular_registers()
            } else {
                fp_registers()
            };
            let reg = regs[rng.gen_range(0..regs.len())];
            let bit = rng.gen_range(0..reg.width_bits());
            let lasting = duration.action(
                move |m| m.register_bit(reg, bit),
                move |m, v| m.set_register_bit(reg, bit, v),
            );
            fault(
                at,
                lasting,
                format!("{reg} bit {bit}"),
                Struck::Register(reg, bit),
            )
        }
        TargetClass::Text => static_flip(&dicts.text),
        TargetClass::Data => static_flip(&dicts.data),
        TargetClass::Bss => static_flip(&dicts.bss),
        TargetClass::Heap => {
            let at = at_insns(&mut rng);
            let (r1, r2) = (rng.gen::<u64>(), rng.gen::<u64>());
            let bit = rng.gen_range(0..8u8);
            let action: Action = Box::new(move |m| {
                if let Some(addr) = resolve_heap_target(m, r1, r2) {
                    m.flip_mem_bit(addr, bit);
                }
            });
            let what = format!("heap draw {r1:#x} bit {bit}");
            fault(at, (action, None), what, Struck::AtFire)
        }
        TargetClass::Stack => {
            let at = at_insns(&mut rng);
            let r = rng.gen::<u64>();
            let bit = rng.gen_range(0..8u8);
            let action: Action = Box::new(move |m| {
                if let Some(addr) = resolve_stack_target(m, r) {
                    m.flip_mem_bit(addr, bit);
                }
            });
            let what = format!("stack draw {r:#x} bit {bit}");
            fault(at, (action, None), what, Struck::AtFire)
        }
        // Region lists admit only the eight §4.3 regions; these classes
        // are what matrix rows record (`faultmodel::Draw::class`).
        TargetClass::Network | TargetClass::Syscall | TargetClass::Process | TargetClass::Sched => {
            panic!("`{class}` is not a §4.3 injection region")
        }
    }
}

/// What a drawn bit flip strikes, as far as the draw alone says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Struck {
    /// This bit of this register.
    Register(RegisterName, u32),
    /// The text, data or bss byte at this address.
    Static(u32),
    /// Settled only when the fault fires: the heap chunk or stack frame
    /// live then, or the message on the wire.
    AtFire,
}

/// A finished trial before teardown: the record, the victim rank, the
/// guest instructions retired across all ranks, the world as the trial
/// left it (still holding every rank's event log) and what early
/// termination did.
pub(crate) struct TrialRun {
    pub(crate) record: TrialRecord,
    pub(crate) rank: u16,
    pub(crate) insns: u64,
    pub(crate) world: MpiWorld,
    pub(crate) converge: ConvergeStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_apps::AppParams;

    use crate::engine::run_campaign as run;

    fn mini_campaign(kind: AppKind, classes: &[TargetClass], n: u32) -> CampaignResult {
        let app = App::build(kind, AppParams::tiny(kind));
        run(
            &app,
            classes,
            &CampaignConfig {
                injections: n,
                seed: 42,
                ..Default::default()
            },
        )
    }

    #[test]
    fn campaign_is_reproducible() {
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let cfg = CampaignConfig {
            injections: 12,
            seed: 7,
            threads: 2,
            ..Default::default()
        };
        let a = run(&app, &[TargetClass::RegularReg], &cfg);
        let b = run(&app, &[TargetClass::RegularReg], &cfg);
        assert_eq!(a.classes[0].tally, b.classes[0].tally);
    }

    #[test]
    fn register_faults_manifest_often() {
        // §6.1.1: integer registers are the most vulnerable (38-63 %).
        let r = mini_campaign(AppKind::Wavetoy, &[TargetClass::RegularReg], 60);
        let rate = r.classes[0].tally.error_rate_percent();
        assert!(
            rate > 20.0,
            "regular-register error rate {rate:.1}% too low"
        );
    }

    #[test]
    fn fp_faults_manifest_rarely() {
        let r = mini_campaign(
            AppKind::Wavetoy,
            &[TargetClass::RegularReg, TargetClass::FpReg],
            60,
        );
        let regular = r.classes[0].tally.error_rate_percent();
        let fp = r.classes[1].tally.error_rate_percent();
        assert!(
            fp < regular,
            "FP rate ({fp:.1}%) must be below regular-register rate ({regular:.1}%)"
        );
    }

    #[test]
    fn trials_complete_for_every_class() {
        let r = mini_campaign(AppKind::Climsim, &TargetClass::ALL, 6);
        assert_eq!(r.classes.len(), 8);
        for c in &r.classes {
            assert_eq!(c.tally.executions, 6, "{:?}", c.class);
            assert_eq!(c.trials.len(), 6);
        }
    }

    #[test]
    fn snapshot_and_cold_paths_produce_identical_records() {
        // The tentpole invariant at campaign level: forking trials from
        // epoch checkpoints must change nothing observable — same
        // details, same manifestations, same tallies — on the
        // nondeterministic app too, whose shuffle RNG rides the snapshots.
        for kind in [AppKind::Wavetoy, AppKind::Moldyn] {
            let app = App::build(kind, AppParams::tiny(kind));
            let classes = [
                TargetClass::RegularReg,
                TargetClass::Stack,
                TargetClass::Message,
            ];
            let cold = CampaignConfig {
                injections: 10,
                seed: 0xF0,
                epoch_rounds: 0,
                ..Default::default()
            };
            let snap = CampaignConfig {
                epoch_rounds: 8,
                ..cold
            };
            let a = run(&app, &classes, &cold);
            let b = run(&app, &classes, &snap);
            assert_eq!(a.insns_total, b.insns_total, "{kind}");
            for (ca, cb) in a.classes.iter().zip(&b.classes) {
                assert_eq!(
                    ca.trials, cb.trials,
                    "{kind} {:?}: fork path diverged from cold path",
                    ca.class
                );
                assert_eq!(ca.tally, cb.tally);
            }
        }
    }

    #[test]
    fn trial_order_is_deterministic_across_thread_counts() {
        let app = App::build(AppKind::Climsim, AppParams::tiny(AppKind::Climsim));
        let one = CampaignConfig {
            injections: 8,
            seed: 5,
            threads: 1,
            ..Default::default()
        };
        let four = CampaignConfig {
            injections: 8,
            seed: 5,
            threads: 4,
            ..Default::default()
        };
        let a = run(&app, &[TargetClass::RegularReg], &one);
        let b = run(&app, &[TargetClass::RegularReg], &four);
        // Not just the same multiset: record k must sit in slot k.
        assert_eq!(a.classes[0].trials, b.classes[0].trials);
    }

    #[test]
    fn replay_reproduces_recorded_trials() {
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let classes = [TargetClass::RegularReg, TargetClass::Message];
        let cfg = CampaignConfig {
            injections: 6,
            seed: 0xBEEF,
            ..Default::default()
        };
        let result = run(&app, &classes, &cfg);
        for (ci, class_result) in result.classes.iter().enumerate() {
            for k in [0u32, 3, 5] {
                let replayed = replay_trial(&app, &classes, &cfg, ci, k);
                assert_eq!(
                    replayed.record, class_result.trials[k as usize],
                    "replay of class {ci} trial {k} diverged"
                );
            }
        }
    }

    #[test]
    fn replay_ends_trials_as_the_campaign_did() {
        // Replay plans the campaign it reproduces, so a trial the campaign
        // ran on its interval's sweep is replayed on it too: summed over
        // every trial, replay's counters are the campaign's — and summed
        // over the trials a resumed campaign executed, the resumed run's.
        use crate::engine::{parse_record_line, run_campaign_engine};
        use crate::engine::{CompletedSlots, EngineControl, NullSink, VecSink};
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let classes = [TargetClass::Stack, TargetClass::Heap];
        let cfg = CampaignConfig {
            injections: 8,
            seed: 77,
            threads: 1,
            ..Default::default()
        };
        let control = EngineControl::new();
        let sink = VecSink::new(app.kind);
        let result = run_campaign_engine(&app, &classes, &cfg, &sink, &control, None);
        let (result, lines) = (result.result.unwrap(), sink.into_lines());
        let replay = |p: &Planned| replay_trial(&app, &classes, &cfg, p.ci, p.k).converge;
        let ctx = TrialContext::build(app.clone(), &cfg);
        let plan = ctx.plan(&classes, &cfg, Duration::Transient, &|_, _| false);
        let replays: Vec<ConvergeStats> = plan.iter().map(replay).collect();
        let mut replayed = ConvergeStats::default();
        replays.iter().for_each(|c| replayed.add(c));
        assert_eq!(replayed, result.converge);
        assert!(replayed.ended_between_epochs > 0, "{replayed:?}");

        // One worker completes the slots in plan order. Kill it at a cut
        // that leaves one trial of a swept interval to the resumed run
        // alone, a trial the sweep forked at a round checkpoint or ended
        // between epochs.
        for (line, p) in lines.iter().zip(&plan) {
            let t = parse_record_line(line).unwrap();
            assert_eq!((t.ci, t.k), (p.ci, p.k));
        }
        let swept_in = |slots: &[Planned], epoch| {
            let swept = slots.iter().filter(|q| q.swept && q.epoch == epoch);
            swept.count()
        };
        let splits = |cut: usize| {
            let (p, c) = (&plan[cut], replays[cut]);
            let lone = swept_in(&plan[cut..], p.epoch) == 1 && swept_in(&plan[..cut], p.epoch) > 0;
            p.swept && lone && c.forked_at_round + c.ended_between_epochs > 0
        };
        let cut = (1..plan.len()).find(|&cut| splits(cut));
        let cut = cut.expect("a cut that splits a swept interval");
        let (adopted, _) = CompletedSlots::from_jsonl(&lines[..cut].join("\n"), &classes, 8);
        let resumed = run_campaign_engine(&app, &classes, &cfg, &NullSink, &control, Some(adopted));
        let mut executed = ConvergeStats::default();
        replays[cut..].iter().for_each(|c| executed.add(c));
        assert_eq!(
            resumed.result.unwrap().converge,
            executed,
            "resumed at {cut}"
        );
    }

    #[test]
    fn message_faults_hit_headers_and_payloads() {
        let r = mini_campaign(AppKind::Moldyn, &[TargetClass::Message], 40);
        let t = &r.classes[0].tally;
        assert_eq!(t.executions, 40);
        // Some message faults must manifest for a data-heavy app with
        // checksums; and not all of them (padding bytes, dead payloads).
        assert!(t.errors() > 0, "no message fault manifested");
        assert!(t.errors() < 40, "every message fault manifested");
    }

    #[test]
    fn a_campaign_seed_is_an_arrival_order_schedule() {
        // §4.2.2 at campaign level: every run of one campaign shuffles
        // alike, another campaign seed shuffles differently, and the
        // oracle tolerates the difference.
        let app = App::build(AppKind::Moldyn, AppParams::tiny(AppKind::Moldyn));
        let clean_run = |seed| {
            let cfg = CampaignConfig {
                seed,
                obs_capacity: 1 << 16,
                ..Default::default()
            };
            let mut w = MpiWorld::new(
                &app.image,
                trial_world_config(app.kind, &app.params, &cfg, GOLDEN_BUDGET),
            );
            assert_eq!(w.run(), WorldExit::Clean);
            (w.event_streams(), app.comparable_output(&w))
        };
        let (order_a, output_a) = clean_run(1);
        let (order_b, output_b) = clean_run(2);
        assert_eq!(order_a, clean_run(1).0, "one seed, one schedule");
        assert_ne!(order_a, order_b, "two seeds, two arrival orders");
        assert_eq!(output_a, output_b);
    }

    /// Per class: trials ended without running to their end (at a
    /// boundary, between epochs or at the draw), those of them decided at
    /// the draw and those ended between epochs, trials forked from a
    /// round checkpoint, and trials that ended `correct` either way.
    #[derive(Debug, Clone, Copy, Default)]
    struct Ends {
        early: u32,
        at_draw: u32,
        between: u32,
        forked_at_round: u32,
        correct: u32,
    }

    /// The verify property: take every trial of an eight-class campaign
    /// that the rule ends early — at an epoch boundary, between epochs
    /// or before it ran at all — run as the campaign runs it (on its
    /// interval's sweep when the plan sweeps it), and run it on anyway.
    /// It must finish clean, with the golden output and the golden
    /// per-rank counters — which is what its record already claimed.
    /// Returns the per-class counts and how many trials ended at the
    /// first checkpoint they were compared at.
    fn verify_early_ends(app: &App, cfg: &CampaignConfig) -> ([Ends; 8], u32) {
        let ctx = TrialContext::build(app.clone(), cfg);
        let golden_total: u64 = ctx.golden.insns.iter().sum();
        let mut per_class = [Ends::default(); 8];
        let mut at_first = 0;
        let mut held = None;
        for p in ctx.plan(&TargetClass::ALL, cfg, Duration::Transient, &|_, _| false) {
            let (ci, k, class) = (p.ci, p.k, p.class);
            let ends = &mut per_class[ci];
            let (run, _) = ctx.run_planned(&p, &mut held);
            ends.correct += (run.record.outcome == Manifestation::Correct) as u32;
            let c = run.converge;
            ends.forked_at_round += c.forked_at_round as u32;
            if c.trials_converged + c.decided_at_draw == 0 {
                continue;
            }
            ends.early += 1;
            ends.at_draw += c.decided_at_draw as u32;
            ends.between += c.ended_between_epochs as u32;
            at_first += (c.epoch_compares == 1) as u32;
            assert_eq!(run.record.outcome, Manifestation::Correct);
            assert_eq!(run.insns, golden_total);
            let what = format!("{} {class} trial {k}: {}", app.kind, run.record.detail);
            assert_eq!(c.decided_at_draw == 1, c.epoch_compares == 0, "{what}");
            let mut w = run.world;
            assert_eq!(w.fault_pending(), c.decided_at_draw == 1, "{what}");
            assert_eq!(w.run(), WorldExit::Clean, "{what}");
            assert_eq!(app.comparable_output(&w), ctx.golden.output, "{what}");
            for r in 0..app.params.nranks {
                let c = w.machine(r).counters;
                assert_eq!(c.insns, ctx.golden.insns[r as usize], "{what}");
                assert_eq!(c.blocks, ctx.golden.blocks[r as usize], "{what}");
            }
        }
        (per_class, at_first)
    }

    /// Text, data and bss: the classes whose flips can be decided by the
    /// read stamps when they are drawn.
    fn static_classes() -> impl Iterator<Item = usize> {
        let is_static =
            |c: &TargetClass| matches!(c, TargetClass::Text | TargetClass::Data | TargetClass::Bss);
        (0..8).filter(move |&i| is_static(&TargetClass::ALL[i]))
    }

    #[test]
    fn early_ended_trials_are_the_golden_run() {
        let mut between = 0;
        for (kind, fastpath) in [
            (AppKind::Wavetoy, true),
            (AppKind::Wavetoy, false),
            (AppKind::Climsim, true),
            (AppKind::Jacobi3d, true),
            (AppKind::Moldyn, true),
            (AppKind::Moldyn, false),
        ] {
            let app = App::build(kind, AppParams::tiny(kind));
            let cfg = CampaignConfig {
                injections: 10,
                seed: 0xC0_47E6,
                epoch_rounds: 4,
                fastpath,
                ..Default::default()
            };
            let (per_class, _) = verify_early_ends(&app, &cfg);
            let ended: u32 = per_class.iter().map(|c| c.early).sum();
            assert!(ended >= 30, "{kind}: only {ended} of 80 trials ended early");
            for i in static_classes() {
                let (class, ends) = (TargetClass::ALL[i], per_class[i]);
                assert!(ends.at_draw >= 1, "{kind} {class}: {ends:?}");
            }
            between += per_class.iter().map(|c| c.between).sum::<u32>();
        }
        assert!(between >= 10, "only {between} trials ended between epochs");
    }

    /// The same property on the paper-size apps and seeds the benchmark
    /// draws from (2,304 trials; about a minute in release mode):
    /// `cargo test --release -p fl-inject --lib paper_size -- --ignored --nocapture`
    #[test]
    #[ignore = "paper-size sweep, run on demand"]
    fn early_ended_trials_are_the_golden_run_at_paper_size() {
        let mut total = [Ends::default(); 8];
        for base in [20_040_611u64, 19_970_523, 20_041_611, 20_042_611] {
            // Spec order and sizes of `tables_det`, then of `tables_nondet`.
            for (kind, i, injections) in [
                (AppKind::Wavetoy, 0, 20),
                (AppKind::Climsim, 1, 20),
                (AppKind::Jacobi3d, 2, 20),
                (AppKind::Moldyn, 0, 12),
            ] {
                let app = App::build(kind, AppParams::default_for(kind));
                let cfg = CampaignConfig {
                    injections,
                    seed: base + i,
                    ..Default::default()
                };
                let (per_class, at_first) = verify_early_ends(&app, &cfg);
                let sum = |f: fn(&Ends) -> u32| per_class.iter().map(f).sum::<u32>();
                println!(
                    "{kind} seed {}: {} of {} correct trials ({} run) ended early \
                     ({} at the draw, {} between epochs, {at_first} at the first \
                     checkpoint), {} forked at a round checkpoint, all verified",
                    cfg.seed,
                    sum(|e| e.early),
                    sum(|e| e.correct),
                    8 * injections,
                    sum(|e| e.at_draw),
                    sum(|e| e.between),
                    sum(|e| e.forked_at_round),
                );
                for (t, c) in total.iter_mut().zip(per_class) {
                    t.early += c.early;
                    t.at_draw += c.at_draw;
                    t.between += c.between;
                    t.forked_at_round += c.forked_at_round;
                    t.correct += c.correct;
                }
            }
        }
        for (class, t) in TargetClass::ALL.iter().zip(total) {
            println!(
                "{class}: {} of {} correct trials ended early, {} of them at the draw \
                 and {} between epochs; {} forked at a round checkpoint",
                t.early, t.correct, t.at_draw, t.between, t.forked_at_round
            );
        }
        let between: u32 = total.iter().map(|t| t.between).sum();
        assert!(between >= 100, "only {between} trials ended between epochs");
        for i in static_classes() {
            assert!(
                total[i].at_draw >= 1,
                "{}: {:?}",
                TargetClass::ALL[i],
                total[i]
            );
        }
    }

    #[test]
    fn context_keys_differ_exactly_where_contexts_do() {
        let key = |kind, tiny, set: &dyn Fn(&mut CampaignConfig)| {
            let params = if tiny {
                AppParams::tiny(kind)
            } else {
                AppParams::default_for(kind)
            };
            let mut cfg = CampaignConfig::default();
            set(&mut cfg);
            ContextKey::new(kind, params, &cfg)
        };
        let wavetoy = key(AppKind::Wavetoy, true, &|_| {});
        // Seed, injections and workers are the campaign's, not the
        // context's: a deterministic app's golden pass ignores them.
        let campaign = |c: &mut CampaignConfig| {
            c.seed = 99;
            c.injections = 3;
            c.threads = 2;
        };
        assert_eq!(wavetoy, key(AppKind::Wavetoy, true, &campaign));
        let others = [
            key(AppKind::Wavetoy, false, &|_| {}),
            key(AppKind::Climsim, true, &|_| {}),
            key(AppKind::Wavetoy, true, &|c| c.epoch_rounds = 4),
            key(AppKind::Wavetoy, true, &|c| c.obs_capacity = 64),
            key(AppKind::Wavetoy, true, &|c| c.fastpath = false),
            key(AppKind::Wavetoy, true, &|c| c.budget_factor = 4.0),
        ];
        for other in others {
            assert_ne!(wavetoy, other, "{other:?}");
        }
        // A nondeterministic app's seed is its schedule.
        let moldyn = key(AppKind::Moldyn, true, &|_| {});
        assert_ne!(moldyn, key(AppKind::Moldyn, true, &campaign));
        assert_eq!(moldyn, key(AppKind::Moldyn, true, &|c| c.threads = 2));
    }

    #[test]
    fn recording_and_cold_campaigns_never_end_trials_early() {
        // Six bss trials of seed 3 on a context built for `cfg`, run as a
        // one-worker campaign runs them.
        let bss_trials = |app: &App, cfg: CampaignConfig| {
            let ctx = TrialContext::build(app.clone(), &cfg);
            let cfg = CampaignConfig {
                injections: 6,
                seed: 3,
                ..cfg
            };
            let mut held = None;
            let plan = ctx.plan(&[TargetClass::Bss], &cfg, Duration::Transient, &|_, _| {
                false
            });
            let run = |p: &Planned| ctx.run_planned(p, &mut held).0.converge;
            plan.iter().map(run).collect::<Vec<_>>()
        };
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let quiet = |cfg: CampaignConfig| {
            let trials = bss_trials(&app, cfg);
            trials.iter().all(|c| *c == ConvergeStats::default())
        };
        // An event timeline is the product: those trials run on.
        assert!(quiet(CampaignConfig {
            obs_capacity: 64,
            ..Default::default()
        }));
        // No epochs, nothing to converge on.
        assert!(quiet(CampaignConfig {
            epoch_rounds: 0,
            ..Default::default()
        }));
        assert!(!quiet(CampaignConfig::default()));
        // Nondeterministic apps fork and converge like the others.
        let moldyn = App::build(AppKind::Moldyn, AppParams::tiny(AppKind::Moldyn));
        let ended = bss_trials(&moldyn, CampaignConfig::default())
            .iter()
            .filter(|c| c.trials_converged + c.decided_at_draw == 1)
            .count();
        assert!(ended > 0, "no moldyn bss trial ended early");
    }
}
