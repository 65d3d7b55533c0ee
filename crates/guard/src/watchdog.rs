//! The progress watchdog: no-progress detection on the retired-block
//! clock (§7's progress metrics, promoted from offline analysis to a
//! live tripwire).
//!
//! Instructions and blocks keep retiring in a spin-loop hang, so raw
//! activity is not progress. The watchdog counts *useful* work — FLOPs
//! and MPI calls, the two §7 metrics every lab application exercises —
//! summed across ranks, and trips after a configured number of
//! consecutive sampling windows in which neither advanced anywhere in
//! the world. Global quiescence (deadlock) is caught by the scheduler
//! itself; the watchdog's value is the spinning rank that would
//! otherwise burn its whole instruction budget.

use fl_mpi::MpiWorld;

/// A watchdog detection: which rank to blame and how long the stall ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogTrip {
    /// The still-running rank with the *least* block-clock advance over
    /// the stalled interval — in a spin hang every other rank is blocked
    /// on the spinner, so the quietest live rank is the best suspect.
    pub victim: u16,
    /// Consecutive no-progress windows observed.
    pub windows: u32,
    /// Cluster-wide retired blocks at trip time (event-clock locating).
    pub blocks: u64,
}

/// Per-rank counters the watchdog tracks between windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RankSample {
    flops: u64,
    mpi_calls: u64,
    blocks: u64,
}

/// Sliding no-progress detector over whole-world samples.
#[derive(Debug, Clone)]
pub struct Watchdog {
    /// Trip after this many consecutive windows without useful progress.
    pub stall_windows: u32,
    /// Accrual mode (fl-perturb): instead of the fixed `stall_windows`
    /// deadline, trip at `max(8 * stall_windows, 4 * max_streak)` where
    /// `max_streak` is the longest no-progress streak the world has
    /// ever *recovered* from. A world that is merely slow — a taxed
    /// rank progressing once per starvation cycle — keeps ending its
    /// streaks and keeps the deadline above them; a true wedge never
    /// ends one and is still caught. Default off: the trip arithmetic
    /// is bit-identical to the fixed watchdog.
    pub accrual: bool,
    last: Option<Vec<RankSample>>,
    baseline: Option<Vec<RankSample>>,
    stalled: u32,
    /// Longest stall streak that ended in recovered progress (the
    /// accrual deadline's learned patience).
    max_streak: u32,
}

impl Watchdog {
    /// A watchdog that trips after `stall_windows` consecutive windows
    /// with no FLOP or MPI progress anywhere in the world.
    pub fn new(stall_windows: u32) -> Watchdog {
        Watchdog {
            stall_windows: stall_windows.max(1),
            accrual: false,
            last: None,
            baseline: None,
            stalled: 0,
            max_streak: 0,
        }
    }

    /// Like [`Watchdog::new`], with the accrual deadline enabled.
    pub fn accrual(stall_windows: u32) -> Watchdog {
        Watchdog {
            accrual: true,
            ..Watchdog::new(stall_windows)
        }
    }

    /// Forget all history (called after a rollback: the restored world's
    /// counters jumped backwards and must re-baseline). Learned accrual
    /// patience survives: the restored world's progress rate is the same
    /// world's.
    pub fn reset(&mut self) {
        self.last = None;
        self.baseline = None;
        self.stalled = 0;
    }

    /// Take the arm-time sample so the *first* sampling boundary already
    /// compares against it. Without priming, a hang already in effect at
    /// the first block-clock boundary is burned as the baseline sample
    /// and the trip fires one whole window late.
    pub fn prime(&mut self, world: &MpiWorld) {
        let now = Self::sample(world);
        self.baseline = Some(now.clone());
        self.last = Some(now);
        self.stalled = 0;
    }

    fn sample(world: &MpiWorld) -> Vec<RankSample> {
        (0..world.nranks())
            .map(|r| {
                let c = &world.machine(r).counters;
                RankSample {
                    flops: c.flops,
                    mpi_calls: c.mpi_calls,
                    blocks: c.blocks,
                }
            })
            .collect()
    }

    /// The trip deadline in windows: the fixed threshold, or — in
    /// accrual mode — at least 8x it, extended to 4x the longest stall
    /// streak this world has ever recovered from.
    fn deadline(&self) -> u32 {
        if self.accrual {
            (self.stall_windows.saturating_mul(8)).max(self.max_streak.saturating_mul(4))
        } else {
            self.stall_windows
        }
    }

    /// Feed one sampling window. Returns a trip when the stall deadline
    /// is reached (the caller decides what to do about it; the counter
    /// keeps running, so a caller that ignores trips sees one per window
    /// from then on).
    ///
    /// Boundary contract (the exact-deadline case): the caller samples
    /// *after* the boundary round has fully executed, so a rank retiring
    /// its block — and its FLOPs or MPI call — precisely at the
    /// threshold clock is inside `now`, compares greater than the
    /// previous window, and counts as progress, never as the final
    /// stalled window. Pinned by
    /// `progress_landing_exactly_at_the_trip_clock_resets_the_stall`.
    pub fn observe(&mut self, world: &MpiWorld) -> Option<WatchdogTrip> {
        let now = Self::sample(world);
        let verdict = match &self.last {
            None => {
                self.baseline = Some(now.clone());
                None
            }
            Some(prev) => {
                let useful = now
                    .iter()
                    .zip(prev)
                    .any(|(n, p)| n.flops > p.flops || n.mpi_calls > p.mpi_calls);
                if useful {
                    if self.stalled > self.max_streak {
                        // A streak that ends in progress is the world's
                        // demonstrated worst-case gap: learn it.
                        self.max_streak = self.stalled;
                    }
                    self.stalled = 0;
                    self.baseline = Some(now.clone());
                    None
                } else {
                    self.stalled += 1;
                    (self.stalled >= self.deadline()).then(|| {
                        let base = self.baseline.as_deref().unwrap_or(prev);
                        let victim = (0..world.nranks())
                            .filter(|&r| !world.rank_exited(r))
                            .min_by_key(|&r| {
                                let i = r as usize;
                                now[i].blocks - base[i].blocks.min(now[i].blocks)
                            })
                            .unwrap_or(0);
                        WatchdogTrip {
                            victim,
                            windows: self.stalled,
                            blocks: now.iter().map(|s| s.blocks).sum(),
                        }
                    })
                }
            }
        };
        self.last = Some(now);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_apps::{App, AppKind, AppParams};
    use fl_mpi::MpiWorld;

    #[test]
    fn fault_free_run_never_trips() {
        // The false-positive contract: a healthy run of each application
        // must finish without a single trip at the default threshold.
        for kind in [AppKind::Wavetoy, AppKind::Moldyn, AppKind::Climsim] {
            let app = App::build(kind, AppParams::tiny(kind));
            let mut world = MpiWorld::new(&app.image, app.world_config(2_000_000_000));
            let mut dog = Watchdog::new(GuardPolicy::default().stall_windows);
            let window = GuardPolicy::default().window_rounds as u64;
            let mut round = 0u64;
            loop {
                if world.run_round().is_some() {
                    break;
                }
                round += 1;
                if round.is_multiple_of(window) {
                    assert!(
                        dog.observe(&world).is_none(),
                        "{kind:?}: watchdog tripped on a fault-free run at round {round}"
                    );
                }
            }
        }
    }

    use crate::GuardPolicy;

    #[test]
    fn frozen_world_trips_after_threshold() {
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let world = MpiWorld::new(&app.image, app.world_config(1_000_000));
        let mut dog = Watchdog::new(3);
        dog.prime(&world);
        // Never stepping the world: counters frozen, no useful progress.
        assert!(dog.observe(&world).is_none()); // stall 1
        assert!(dog.observe(&world).is_none()); // stall 2
        let trip = dog.observe(&world).expect("stall 3 must trip");
        assert_eq!(trip.windows, 3);
        dog.reset();
        assert!(dog.observe(&world).is_none(), "reset must re-baseline");
    }

    #[test]
    fn spin_loop_detected_despite_retiring_instructions() {
        // The key §7 case: instructions and blocks keep retiring on every
        // rank, FLOPs and MPI calls do not — a spin loop, caught at
        // exactly `stall_windows`.
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let mut world = MpiWorld::new(&app.image, app.world_config(1_000_000));
        let mut dog = Watchdog::new(3);
        dog.prime(&world);
        for window in 1..=3 {
            for r in 0..world.nranks() {
                let c = &mut world.machine_mut(r).counters;
                c.insns += 10_000;
                c.blocks += 2_000;
            }
            match dog.observe(&world) {
                None => assert!(window < 3, "spinning must trip at window 3"),
                Some(trip) => assert_eq!((window, trip.windows), (3, 3)),
            }
        }
    }

    #[test]
    fn boundary_hang_trips_at_exact_clock() {
        // Regression: a hang already in effect at the first sampling
        // boundary must trip after exactly `stall_windows` windows. The
        // un-primed watchdog burned the first stalled window as its
        // baseline sample and fired one whole window late.
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let world = MpiWorld::new(&app.image, app.world_config(1_000_000));
        let window_rounds = 8u64;
        let mut dog = Watchdog::new(3);
        dog.prime(&world); // arm time = round 0
        let mut tripped = None;
        for round in 1..=64u64 {
            // The world is never stepped: wedged from round 0 on.
            if round.is_multiple_of(window_rounds) {
                if let Some(trip) = dog.observe(&world) {
                    tripped = Some((round, trip.windows));
                    break;
                }
            }
        }
        assert_eq!(
            tripped,
            Some((24, 3)),
            "three 8-round windows of stall must trip at round 24 exactly"
        );
    }

    #[test]
    fn progress_landing_exactly_at_the_trip_clock_resets_the_stall() {
        // The exact-deadline boundary: with the stall counter one short
        // of the threshold, useful work retired precisely at the clock
        // of the would-be trip window must count as progress (the
        // caller samples after the boundary round completes, so the
        // work is inside `now`) — not as the final stalled window.
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let mut world = MpiWorld::new(&app.image, app.world_config(2_000_000_000));
        let mut dog = Watchdog::new(3);
        dog.prime(&world);
        assert!(dog.observe(&world).is_none()); // stall 1
        assert!(dog.observe(&world).is_none()); // stall 2 = threshold - 1
                                                // The boundary round of the threshold window executes and
                                                // retires useful work; only then is the window sampled.
        assert!(world.run_round().is_none());
        assert!(
            dog.observe(&world).is_none(),
            "progress at the exact trip clock must reset, not trip"
        );
        // With the stall truly continuing, the trip needs a full fresh
        // threshold of windows — not threshold minus the reset one.
        assert!(dog.observe(&world).is_none()); // stall 1
        assert!(dog.observe(&world).is_none()); // stall 2
        assert!(
            dog.observe(&world).is_some(),
            "a full fresh stall run must still trip"
        );
    }

    #[test]
    fn accrual_deadline_outlasts_every_recovered_streak() {
        // Interference cadence: the world stalls for 5 windows, then
        // progresses, repeatedly. The fixed watchdog at 3 windows trips
        // on the first streak; the accrual watchdog learns the cadence
        // and never trips, while a permanent freeze still does.
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let mut world = MpiWorld::new(&app.image, app.world_config(2_000_000_000));
        let mut fixed = Watchdog::new(3);
        let mut accrual = Watchdog::accrual(3);
        fixed.prime(&world);
        accrual.prime(&world);
        let mut fixed_trips = 0u32;
        for _cycle in 0..4 {
            for _stall in 0..5 {
                if fixed.observe(&world).is_some() {
                    fixed_trips += 1;
                }
                assert!(
                    accrual.observe(&world).is_none(),
                    "accrual must outlast a 5-window streak (floor 8x3)"
                );
            }
            assert!(world.run_round().is_none());
        }
        assert!(fixed_trips > 0, "the fixed threshold must have tripped");
        // Now wedge the world for good: the accrual deadline is
        // max(8 * 3, 4 * 5) = 24 windows, and the trip still comes.
        let mut windows = 0u32;
        let trip = loop {
            windows += 1;
            if let Some(t) = accrual.observe(&world) {
                break t;
            }
            assert!(windows < 100, "accrual watchdog never tripped on a wedge");
        };
        assert_eq!(trip.windows, 24, "deadline = max(8*3, 4*max_streak=20)");
    }
}
