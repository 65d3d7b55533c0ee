//! Epoch snapshot cache: periodic checkpoints of a clean run that
//! injection trials fork from instead of re-executing the fault-free
//! prefix — and, through the read stamps the golden pass collects, stop
//! at instead of re-executing the fault-free *suffix* (see
//! [`EpochCache::converged`] and the crate documentation).

use fl_machine::{ExecStats, ProgramImage, ReadStamps, SharedCode};
use fl_mpi::{Clock, Launch, MpiWorld, WorldConfig, WorldExit, WorldSnapshot};

/// One checkpoint of a clean world, taken at a scheduler-round boundary.
#[derive(Clone)]
pub struct Epoch {
    /// The captured world.
    pub snap: WorldSnapshot,
    /// Scheduler rounds completed when the capture was taken.
    pub round: u64,
}

impl Epoch {
    /// A checkpoint of `world` as it stands.
    pub fn of(world: &MpiWorld) -> Epoch {
        Epoch {
            snap: world.snapshot(),
            round: world.round(),
        }
    }

    /// This checkpoint, taken before any fault fired, for a run armed at
    /// its start: such a run carried its faults in the checkpoint too,
    /// so the world is restored, `arm`ed and captured again at the same
    /// round.
    pub fn armed(&self, arm: impl FnOnce(&mut MpiWorld)) -> Epoch {
        let mut world = self.snap.restore();
        arm(&mut world);
        Epoch {
            snap: world.snapshot(),
            round: self.round,
        }
    }

    /// Rank-local instructions retired at capture time.
    pub fn rank_insns(&self, rank: u16) -> u64 {
        self.snap.rank_insns(rank)
    }

    /// Cumulative channel bytes received by `rank` at capture time.
    pub fn rank_received_bytes(&self, rank: u16) -> u64 {
        self.snap.rank_received_bytes(rank)
    }

    /// Does a world restored from this epoch and armed with a fault on
    /// `rank`'s `clock` at `at` fire it where a world armed at round 0
    /// does? The per-clock fire rules of [`MpiWorld`], restated on the
    /// captured counters: an instruction-clock fault fires inside the
    /// quantum that reaches `at`, so it is unfired only while fewer
    /// instructions are retired; a wire fault strikes the message holding
    /// received byte `at`, which has not arrived while at most `at` bytes
    /// have; a block-clock fault fires between rounds once the block
    /// clock is `>= at`, so it is unfired only while the clock is below
    /// it. A syscall fault counts matching calls from its arming, so only
    /// the pristine epoch serves it.
    fn serves(&self, rank: u16, clock: Clock, at: u64) -> bool {
        match clock {
            Clock::Insns => self.rank_insns(rank) < at,
            Clock::RecvBytes => self.rank_received_bytes(rank) <= at,
            Clock::Blocks => self.snap.machine(rank).counters.blocks < at,
            Clock::Calls => self.round == 0,
        }
    }
}

/// The most checkpoints [`EpochCache::run_clean`] holds: with at least
/// five spread evenly over the run, a fault drawn uniformly over it
/// forks on average within an eighth of the run of its fire point; with at
/// most eight, a campaign can hold one set per world configuration.
const CLEAN_EPOCHS: usize = 8;

/// The most round checkpoints an [`Interval`] holds, its opening epoch
/// included, whatever the epoch cadence: every round at the default
/// cadence of 16, evenly spaced at a coarser one.
pub const SWEEP_CHECKPOINTS: u64 = 16;

/// Which rounds a stepping pass checkpoints, after the round it starts
/// at, and where it stops.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Every this many rounds, up to the world's exit.
    Every(u64),
    /// At most this many checkpoints, evenly spaced, up to the world's
    /// exit ([`EpochCache::run_clean`]).
    AtMost(usize),
    /// Every `every` rounds up to the checkpoint at round `stop`, where
    /// the pass ends.
    Until { every: u64, stop: u64 },
}

/// What a runner keeps beside the world it steps, between rounds — a
/// guard's rollback checkpoint and watchdog, a respawn's buddy line, a
/// replica vote's digest record. A clean run made with a rider
/// ([`EpochCache::run_clean`]) is that runner's own pass with nothing
/// armed, and holds the runner's state at each of its checkpoints: a
/// world forked from one, armed with faults that have not fired there,
/// resumes the runner exactly where a run started at round 0 stands.
/// `()` is the plain world's rider, which keeps nothing.
pub trait Rider {
    /// What the runner holds beside the world at a round boundary.
    type State: Clone;

    /// Do what the runner does after a round that did not end `world`.
    /// `false` when it intervened — did what a run whose faults have not
    /// fired would not — so that its state at this and every later
    /// checkpoint is no fork point; the world runs on as a plain one, and
    /// the rider is not called again.
    fn after_round(&mut self, world: &mut MpiWorld) -> bool;

    /// The runner's state now.
    fn state(&self) -> Self::State;
}

impl Rider for () {
    type State = ();

    fn after_round(&mut self, _: &mut MpiWorld) -> bool {
        true
    }

    fn state(&self) {}
}

/// The one stepping loop: run `world`, which stands where `first` was
/// taken, round by round, checkpointing it at the rounds `rule` names.
/// After each round that does not end it, `rider` does what its runner
/// does between rounds, and each checkpoint holds the rider's state, or
/// `None` from its first intervention on. With `stamp`, every granule
/// each rank reads is stamped with the index of the checkpoint interval
/// the read falls in (interval `k` is the rounds between checkpoints
/// `k - 1` and `k`). A checkpoint holds the copy of each memory page that
/// a checkpoint of `like` at the same round holds, where their bytes are
/// equal ([`WorldSnapshot::share_pages`]). Returns the checkpoints, the
/// rider's states at them and the world as the pass left it.
fn step<R: Rider>(
    mut world: MpiWorld,
    first: Epoch,
    rule: Rule,
    stamp: bool,
    like: &[&EpochCache],
    rider: &mut R,
) -> (EpochCache, Vec<Option<R::State>>, MpiWorld) {
    let (mut every, most, stop) = match rule {
        Rule::Every(every) => (every, usize::MAX, None),
        Rule::AtMost(most) => (1, most, None),
        Rule::Until { every, stop } => (every, usize::MAX, Some(stop)),
    };
    let (origin, mut round) = (first.round, first.round);
    let due = |every: u64, round: u64| (round - origin).is_multiple_of(every);
    let mut held = vec![(first, Some(rider.state()))];
    let mut exact = true;
    // Reads between two checkpoints belong to the interval the later one
    // closes. One stamp value per held snapshot, so a u32 cannot wrap
    // before memory runs out.
    let open_interval = |world: &mut MpiWorld, index: usize| {
        let stamp = u32::try_from(index).expect("epoch count fits a u32 stamp");
        for r in 0..world.nranks() {
            world.machine_mut(r).set_read_stamp(stamp);
        }
    };
    if stamp {
        open_interval(&mut world, 1);
    }
    let exit = loop {
        if stop == Some(round) {
            break None;
        }
        if let Some(e) = world.run_round() {
            break Some(e);
        }
        round += 1;
        exact = exact && rider.after_round(&mut world);
        if !due(every, round) {
            continue;
        }
        if held.len() == most {
            every *= 2;
            held.retain(|(e, _)| due(every, e.round));
            if !due(every, round) {
                continue;
            }
        }
        let mut snap = world.snapshot();
        let same_round = like
            .iter()
            .flat_map(|c| &c.epochs)
            .find(|e| e.round == round);
        if let Some(e) = same_round {
            snap.share_pages(&e.snap);
        }
        held.push((Epoch { snap, round }, exact.then(|| rider.state())));
        if stamp {
            open_interval(&mut world, held.len());
        }
    };
    let stamps = (0..world.nranks()).filter(|_| stamp).map(|r| {
        let taken = world.machine_mut(r).take_read_stamps();
        taken.expect("stamping was on for the whole pass")
    });
    let (epochs, states) = held.into_iter().unzip();
    let cache = EpochCache {
        stamps: stamps.collect(),
        epochs,
        exit,
        rounds: round,
        every,
    };
    (cache, states, world)
}

/// Checkpoints of one run, ordered by round.
///
/// Epoch 0 of a clean run is always the pristine just-launched world
/// (zero instructions retired anywhere), so every trial has at least one
/// usable epoch: a world that cannot fork from a later one starts from
/// epoch 0, which is the campaign's [`Launch`].
pub struct EpochCache {
    epochs: Vec<Epoch>,
    /// How the run ended; `None` for an [`Interval`], whose sweep stops
    /// at its last checkpoint.
    exit: Option<WorldExit>,
    /// The rounds the run completed, the exit's round not counted.
    rounds: u64,
    /// The checkpoints were taken every this many rounds from the
    /// first's.
    every: u64,
    /// Per rank: for every 4-byte granule, the index of the last epoch
    /// interval in which the golden run read it (interval `k` is the
    /// rounds between epoch `k - 1` and epoch `k`; 0 = never read). Empty
    /// for a cache built by [`EpochCache::run_clean`], which no trial
    /// converges on.
    stamps: Vec<ReadStamps>,
}

impl EpochCache {
    /// Run the golden world to completion against an existing
    /// [`SharedCode`] store, capturing a checkpoint every `every_rounds`
    /// scheduler rounds (and one before the first round), so every epoch
    /// snapshot hands its forks warm decoded caches (and superblocks
    /// promoted during the golden run carry straight into the trials).
    ///
    /// # Panics
    ///
    /// Panics if `every_rounds` is zero.
    pub fn build_with_code(
        image: &ProgramImage,
        cfg: WorldConfig,
        every_rounds: u32,
        code: Option<&SharedCode>,
    ) -> EpochCache {
        EpochCache::run_golden(&Launch::new(image, cfg.machine, code), cfg, every_rounds).0
    }

    /// The golden pass itself: run the fault-free world to completion
    /// once, checkpointing every `every_rounds` rounds and stamping every
    /// granule each rank reads with the index of the epoch interval the
    /// read falls in. Returns the cache and the finished world, so the
    /// caller takes the reference output and counters from the same
    /// execution instead of running it again.
    ///
    /// # Panics
    ///
    /// Panics if `every_rounds` is zero.
    pub fn run_golden(
        launch: &Launch,
        cfg: WorldConfig,
        every_rounds: u32,
    ) -> (EpochCache, MpiWorld) {
        assert!(every_rounds > 0, "every_rounds must be nonzero");
        let world = launch.world(cfg);
        let first = Epoch::of(&world);
        let rule = Rule::Every(every_rounds.into());
        let (cache, _, world) = step(world, first, rule, true, &[], &mut ());
        (cache, world)
    }

    /// Run one world configuration's clean run to its end, however it
    /// ends: `world`, just launched, stepped with `rider` — the pass of
    /// the runner whose state it carries, `()` for a plain world. When
    /// worlds will fork from it (`forked`), hold at most eight
    /// checkpoints spaced evenly over its rounds: the spacing is not
    /// known before the run ends, so the pass checkpoints every round
    /// and, each time the set overflows, keeps every other checkpoint and
    /// doubles the spacing. Otherwise hold epoch 0 alone. No read stamps:
    /// a world forked from these checkpoints runs to its end.
    ///
    /// A checkpoint holds the copy of each memory page that a checkpoint
    /// of `like` at the same round holds, where their bytes are equal
    /// ([`WorldSnapshot::share_pages`]): configurations that differ only
    /// in what the world does around the guest (the channel, the
    /// detector, digests) compute alike, and keep one copy of it. Returns
    /// the cache, the rider's state at each checkpoint (`None` from its
    /// first intervention on, see [`Rider::after_round`]) and the
    /// finished world.
    pub fn run_clean<R: Rider>(
        world: MpiWorld,
        forked: bool,
        like: &[&EpochCache],
        rider: &mut R,
    ) -> (EpochCache, Vec<Option<R::State>>, MpiWorld) {
        let most = if forked { CLEAN_EPOCHS } else { 1 };
        let first = Epoch::of(&world);
        step(world, first, Rule::AtMost(most), false, like, rider)
    }

    /// Replace the per-rank instruction budget carried by every
    /// checkpoint (see [`WorldSnapshot::set_budget`]): a campaign derives
    /// its hang bound from the golden instruction counts, which only
    /// exist once this cache has been built.
    pub fn set_budget(&mut self, budget: u64) {
        for e in &mut self.epochs {
            e.snap.set_budget(budget);
        }
    }

    /// Rank `rank`'s read stamps from the golden pass.
    pub fn stamps(&self, rank: u16) -> &ReadStamps {
        &self.stamps[rank as usize]
    }

    /// The epoch taken after exactly `round` scheduler rounds, if any:
    /// the one round-to-checkpoint rule, an origin (the first
    /// checkpoint's round) plus a cadence.
    pub fn boundary_at(&self, round: u64) -> Option<usize> {
        let from = round.checked_sub(self.epochs[0].round)?;
        let k = usize::try_from(from / self.every).ok()?;
        (from.is_multiple_of(self.every) && k < self.epochs.len()).then_some(k)
    }

    /// Is `world` — a trial whose fault has fired, standing at the round
    /// of epoch `k` — provably the golden run again? True iff it equals
    /// that checkpoint in everything but memory granules the golden run
    /// never reads after the boundary ([`MpiWorld::converged_on`]); the
    /// rest of its execution then reads what the golden run read and
    /// must end as the golden run ended. Returns the excused granule
    /// count.
    pub fn converged(&self, k: usize, world: &MpiWorld) -> Option<u64> {
        // `k` indexes a held epoch, and their count was checked to fit.
        world.converged_on(&self.epochs[k].snap, &self.stamps, k as u32)
    }

    /// How the golden run ended (clean for a healthy application).
    pub fn golden_exit(&self) -> &WorldExit {
        self.exit.as_ref().expect("a run to its exit")
    }

    /// Total scheduler rounds the golden run took.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Number of checkpoints held.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// Whether the cache holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// All checkpoints, oldest first.
    pub fn epochs(&self) -> &[Epoch] {
        &self.epochs
    }

    /// The one fork-point rule: the latest epoch at which none of
    /// `faults` — each `(rank, clock, at)`, the trigger rank, clock and
    /// fire point of one armed fault — has fired. A world restored from
    /// it and armed with them then fires each exactly where a world armed
    /// at round 0 would. A burst of faults takes the earliest epoch any
    /// of them demands. Epoch 0, the pristine world, serves every fault
    /// — a [`Clock::Calls`] fault always, since its count starts at
    /// arming — and is where nothing has run, so it is the answer when no
    /// later epoch is.
    pub fn best_for(&self, faults: &[(u16, Clock, u64)]) -> &Epoch {
        &self.epochs[self.best_index(faults)]
    }

    /// The index of the epoch [`EpochCache::best_for`] picks: the interval
    /// a trial armed with `faults` opens, and the one [`EpochCache::sweep`]
    /// would step for it.
    pub fn best_index(&self, faults: &[(u16, Clock, u64)]) -> usize {
        let serves = |e: &Epoch| faults.iter().all(|&(r, c, at)| e.serves(r, c, at));
        let epochs = &self.epochs;
        (1..epochs.len())
            .rev()
            .find(|&i| serves(&epochs[i]))
            .unwrap_or(0)
    }

    /// Step the golden run through the interval epoch `open` opens — up
    /// to the next epoch, or for the last one up to the golden exit —
    /// checkpointing it at most [`SWEEP_CHECKPOINTS`] times, evenly
    /// spaced. One sweep costs about one interval of execution; every
    /// trial that forks from `open` can then fork from the latest
    /// checkpoint before its fire point instead, and be compared with the
    /// golden run at every checkpoint round after it
    /// ([`EpochCache::converged_between`]).
    pub fn sweep(&self, open: usize) -> Interval {
        let start = &self.epochs[open];
        // The last round a checkpoint may be taken at: the round
        // before the closing epoch's, or the golden run's last full one.
        let last = match self.epochs.get(open + 1) {
            Some(close) => close.round - 1,
            None => self.rounds,
        };
        let span = last + 1 - start.round;
        let every = span.div_ceil(SWEEP_CHECKPOINTS).max(1);
        let stop = start.round + (last - start.round) / every * every;
        let rule = Rule::Until { every, stop };
        let (sweep, _, world) = step(
            start.snap.restore(),
            start.clone(),
            rule,
            false,
            &[],
            &mut (),
        );
        assert!(
            sweep.exit.is_none(),
            "the golden run ended inside an interval"
        );
        let exec = world.exec_stats();
        Interval { open, sweep, exec }
    }

    /// Is `world` — a trial whose fault has fired, standing at the round
    /// of one of `interval`'s checkpoints other than its opening epoch —
    /// provably the golden run again? As [`EpochCache::converged`], but
    /// between two epochs: a granule may differ only if the golden run
    /// last read it in an interval no later than the one the opening
    /// epoch closes. A granule stamped with the interval that is open at
    /// this round may still be read before the next epoch, so it is
    /// never excused here. `None` also when `interval` holds no
    /// checkpoint at the world's round.
    pub fn converged_between(&self, interval: &Interval, world: &MpiWorld) -> Option<u64> {
        let cp = interval.at(world.round())?;
        // `open` indexes a held epoch, and their count was checked to fit.
        world.converged_on(&cp.snap, &self.stamps, interval.open as u32)
    }
}

/// One epoch interval of the golden run, stepped round by round by
/// [`EpochCache::sweep`]: checkpoints evenly spaced from the opening
/// epoch up to the closing one (or the golden exit). Held by a worker
/// only while it runs the trials that fork from the opening epoch.
pub struct Interval {
    open: usize,
    /// The sweep's checkpoints, oldest first; the first is the opening
    /// epoch itself.
    sweep: EpochCache,
    exec: ExecStats,
}

impl Interval {
    /// Index of the epoch that opens the interval.
    pub fn open(&self) -> usize {
        self.open
    }

    /// All checkpoints, oldest first; the first is the opening epoch.
    pub fn checkpoints(&self) -> &[Epoch] {
        self.sweep.epochs()
    }

    /// [`EpochCache::best_for`] over this interval's checkpoints: the
    /// latest at which none of `faults` has fired. For faults whose best
    /// epoch opens this interval the opening epoch always serves, so
    /// this is never earlier than it.
    pub fn best_for(&self, faults: &[(u16, Clock, u64)]) -> &Epoch {
        self.sweep.best_for(faults)
    }

    /// The checkpoint taken after exactly `round` rounds, the opening
    /// epoch excepted ([`EpochCache::boundary_at`]).
    pub fn at(&self, round: u64) -> Option<&Epoch> {
        let i = self.sweep.boundary_at(round).filter(|&i| i > 0)?;
        Some(&self.sweep.epochs[i])
    }

    /// The guest execution the sweep did, which is execution the
    /// campaign paid for like any trial's.
    pub fn exec_stats(&self) -> ExecStats {
        self.exec
    }
}
