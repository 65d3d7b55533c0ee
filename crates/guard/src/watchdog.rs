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
    last: Option<Vec<RankSample>>,
    baseline: Option<Vec<RankSample>>,
    stalled: u32,
}

impl Watchdog {
    /// A watchdog that trips after `stall_windows` consecutive windows
    /// with no FLOP or MPI progress anywhere in the world.
    pub fn new(stall_windows: u32) -> Watchdog {
        Watchdog {
            stall_windows: stall_windows.max(1),
            last: None,
            baseline: None,
            stalled: 0,
        }
    }

    /// Forget all history (called after a rollback: the restored world's
    /// counters jumped backwards and must re-baseline).
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
                    self.stalled = 0;
                    self.baseline = Some(now.clone());
                    None
                } else {
                    self.stalled += 1;
                    (self.stalled >= self.stall_windows).then(|| {
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
}
