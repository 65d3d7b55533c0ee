//! Epoch snapshot cache: periodic checkpoints of the golden run that
//! injection trials fork from instead of re-executing the fault-free
//! prefix — and, through the read stamps collected by the same pass,
//! stop at instead of re-executing the fault-free *suffix* (see
//! [`EpochCache::converged`] and the crate documentation).

use fl_machine::{ProgramImage, ReadStamps, SharedCode};
use fl_mpi::{Launch, MpiWorld, WorldConfig, WorldExit, WorldSnapshot};

/// One checkpoint of the golden world, taken at a scheduler-round
/// boundary.
#[derive(Clone)]
pub struct Epoch {
    /// The captured world.
    pub snap: WorldSnapshot,
    /// Scheduler rounds completed when the capture was taken.
    pub round: u64,
}

impl Epoch {
    /// Rank-local instructions retired at capture time.
    pub fn rank_insns(&self, rank: u16) -> u64 {
        self.snap.rank_insns(rank)
    }

    /// Cumulative channel bytes received by `rank` at capture time.
    pub fn rank_received_bytes(&self, rank: u16) -> u64 {
        self.snap.rank_received_bytes(rank)
    }
}

/// Checkpoints of one application's golden run, ordered by round.
///
/// Epoch 0 is always the pristine just-launched world (zero instructions
/// retired anywhere), so every trial has at least one usable epoch. A
/// world that cannot fork from a later one starts from the same state:
/// the campaign's [`Launch`].
pub struct EpochCache {
    epochs: Vec<Epoch>,
    exit: WorldExit,
    rounds: u64,
    every_rounds: u32,
    /// Per rank: for every 4-byte granule, the index of the last epoch
    /// interval in which the golden run read it (interval `k` is the
    /// rounds between epoch `k - 1` and epoch `k`; 0 = never read).
    stamps: Vec<ReadStamps>,
}

impl EpochCache {
    /// Run the golden world to completion, capturing a checkpoint every
    /// `every_rounds` scheduler rounds (and one before the first round).
    ///
    /// # Panics
    ///
    /// Panics if `every_rounds` is zero.
    pub fn build(image: &ProgramImage, cfg: WorldConfig, every_rounds: u32) -> EpochCache {
        EpochCache::build_with_code(image, cfg, every_rounds, None)
    }

    /// Like [`EpochCache::build`], but run the golden world against an
    /// existing [`SharedCode`] store so every epoch snapshot hands its
    /// forks warm decoded caches (and superblocks promoted during the
    /// golden run carry straight into the trials).
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
        let mut world = launch.world(cfg);
        let mut epochs = vec![Epoch {
            snap: world.snapshot(),
            round: 0,
        }];
        // Reads between two checkpoints belong to the interval the later
        // one closes: interval k ends at epoch k. One stamp value per
        // held snapshot, so a u32 cannot wrap before memory runs out.
        let open_interval = |world: &mut MpiWorld, index: usize| {
            let stamp = u32::try_from(index).expect("epoch count fits a u32 stamp");
            for r in 0..world.nranks() {
                world.machine_mut(r).set_read_stamp(stamp);
            }
        };
        open_interval(&mut world, 1);
        let mut rounds: u64 = 0;
        let exit = loop {
            if let Some(e) = world.run_round() {
                break e;
            }
            rounds += 1;
            if rounds.is_multiple_of(every_rounds as u64) {
                epochs.push(Epoch {
                    snap: world.snapshot(),
                    round: rounds,
                });
                open_interval(&mut world, epochs.len());
            }
        };
        let stamps = (0..world.nranks())
            .map(|r| {
                let taken = world.machine_mut(r).take_read_stamps();
                taken.expect("stamping was on for the whole pass")
            })
            .collect();
        let cache = EpochCache {
            epochs,
            exit,
            rounds,
            every_rounds,
            stamps,
        };
        (cache, world)
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

    /// The epoch taken after exactly `round` scheduler rounds, if any.
    pub fn boundary_at(&self, round: u64) -> Option<usize> {
        let every = self.every_rounds as u64;
        let k = usize::try_from(round / every).ok()?;
        (round.is_multiple_of(every) && k < self.epochs.len()).then_some(k)
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
        &self.exit
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

    /// Latest epoch usable for a register/memory trial that fires at
    /// rank-local instruction `at_insns` on `rank`: the target rank must
    /// not yet have reached the fire point (strictly fewer instructions
    /// retired), so the injection still fires at exactly `at_insns` after
    /// the fork.
    pub fn best_for_insns(&self, rank: u16, at_insns: u64) -> Option<&Epoch> {
        self.epochs
            .iter()
            .rev()
            .find(|e| e.rank_insns(rank) < at_insns)
    }

    /// Latest epoch usable for a message trial that strikes cumulative
    /// received-byte offset `at_recv_byte` on `rank`: the struck byte
    /// must not have been ingested yet (`<=` — the fault fires on the
    /// message *containing* the offset, which arrives after the capture).
    pub fn best_for_recv(&self, rank: u16, at_recv_byte: u64) -> Option<&Epoch> {
        self.epochs
            .iter()
            .rev()
            .find(|e| e.rank_received_bytes(rank) <= at_recv_byte)
    }
}
