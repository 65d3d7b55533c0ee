//! The fused golden pass and the convergence rule built on it: read
//! stamps are execution-tier independent, wide enough for any cadence,
//! and a world is declared the golden run again exactly when it differs
//! from an epoch in nothing but memory the golden run never reads again.

use fl_apps::{App, AppKind, AppParams};
use fl_isa::{Gpr, RegisterName};
use fl_machine::Region;
use fl_mpi::WorldExit;
use fl_snap::EpochCache;
use std::collections::BTreeMap;

const BUDGET: u64 = 200_000_000;

fn tiny(kind: AppKind) -> App {
    App::build(kind, AppParams::tiny(kind))
}

fn golden(app: &App, every_rounds: u32, fastpath: bool) -> EpochCache {
    golden_with_quantum(app, every_rounds, fastpath, 10_000)
}

fn golden_with_quantum(app: &App, every_rounds: u32, fastpath: bool, quantum: u64) -> EpochCache {
    let mut cfg = app.world_config(BUDGET);
    cfg.machine.fastpath = fastpath;
    cfg.quantum = quantum;
    let launch = fl_mpi::Launch::new(&app.image, cfg.machine, None);
    let (cache, world) = EpochCache::run_golden(&launch, cfg, every_rounds);
    assert_eq!(cache.golden_exit(), &WorldExit::Clean);
    assert_eq!(world.round(), cache.rounds() + 1, "the finished world");
    cache
}

#[test]
fn fast_path_stamps_equal_slow_path_stamps_on_every_app() {
    for kind in AppKind::ALL {
        let app = tiny(kind);
        let fast = golden(&app, 16, true);
        let slow = golden(&app, 16, false);
        assert_eq!(fast.len(), slow.len(), "{kind}");
        let probe = app.world(BUDGET);
        let is_text = |addr: u32| {
            let r = probe.machine(0).mem.map().lookup(addr).unwrap().region;
            matches!(r, Region::Text | Region::LibText)
        };
        for rank in 0..app.params.nranks {
            let f: BTreeMap<u32, u32> = fast.stamps(rank).iter().collect();
            let s: BTreeMap<u32, u32> = slow.stamps(rank).iter().collect();
            // Data, BSS, heap, library data and stack: loads are stamped
            // where they happen, TLB hit or not — granule for granule.
            let data = |m: &BTreeMap<u32, u32>| -> Vec<(u32, u32)> {
                let it = m.iter().filter(|(a, _)| !is_text(**a));
                it.map(|(a, s)| (*a, *s)).collect()
            };
            assert!(data(&f).len() > 500, "{kind}: loads were stamped");
            assert_eq!(data(&f), data(&s), "{kind} rank {rank}: data stamps");
            // Text: the slow path stamps exactly the words it executes;
            // blocks and superblocks stamp whole dispatches, so the fast
            // path may over-approximate but never under-stamps.
            let mut fetched = 0;
            for (addr, stamp) in s.iter().filter(|(a, _)| is_text(**a)) {
                assert!(
                    f.get(addr) >= Some(stamp),
                    "{kind} rank {rank}: {addr:#x} under-stamped"
                );
                fetched += 1;
            }
            assert!(fetched > 200, "{kind}: fetches were stamped");
        }
    }
}

#[test]
fn stamps_do_not_wrap_at_one_epoch_per_round() {
    let app = tiny(AppKind::Wavetoy);
    // A short quantum makes for thousands of rounds, one epoch each. (The
    // stamp type itself is exercised past u16::MAX in fl-machine.)
    let cache = golden_with_quantum(&app, 1, true, 400);
    assert!(cache.len() > 1000, "{} epochs", cache.len());
    assert_eq!(cache.len() as u64, cache.rounds() + 1);
    // The last reads of the run (the final instructions before exit)
    // carry the index of the last interval anything executed in: the
    // one closed by the last epoch (the final `run_round` call only
    // notices that every rank has exited).
    let last = cache.stamps(0).iter().map(|(_, s)| s).max().unwrap();
    assert_eq!(last as usize, cache.len() - 1);
    // Stamps never run ahead of the interval they were taken in.
    for rank in 0..app.params.nranks {
        assert!(cache
            .stamps(rank)
            .iter()
            .all(|(_, s)| s as usize <= cache.len()));
    }
}

#[test]
fn an_unfaulted_fork_converges_at_every_later_boundary() {
    for kind in [AppKind::Wavetoy, AppKind::Climsim, AppKind::Jacobi3d] {
        let app = tiny(kind);
        let cache = golden(&app, 8, true);
        let mut w = cache.epochs()[1].snap.restore();
        let mut boundaries = 0;
        while w.run_round().is_none() {
            if let Some(k) = cache.boundary_at(w.round()) {
                assert_eq!(cache.converged(k, &w), Some(0), "{kind} epoch {k}");
                boundaries += 1;
            }
        }
        assert_eq!(boundaries, cache.len() - 2, "{kind}");
    }
}

#[test]
fn convergence_excuses_dead_memory_and_nothing_else() {
    let app = tiny(AppKind::Wavetoy);
    let cache = golden(&app, 8, true);
    let k = cache.len() / 2;
    let at_k = || cache.epochs()[k].snap.restore();
    assert_eq!(cache.converged(k, &at_k()), Some(0));

    // A register bit: never excused.
    let mut w = at_k();
    w.machine_mut(1)
        .flip_register_bit(RegisterName::Gpr(Gpr::Ebx), 3);
    assert_eq!(cache.converged(k, &w), None);

    // The wrong boundary: never excused, even for identical state.
    assert_eq!(cache.converged(k - 1, &at_k()), None);

    // Memory: a granule the golden run still reads is live, one it is
    // done with is dead. Take both from rank 2's stamps.
    let stamps = cache.stamps(2);
    let (live, _) = stamps.iter().find(|&(_, s)| s as usize > k).unwrap();
    let (dead, _) = stamps.iter().find(|&(_, s)| (s as usize) < k).unwrap();
    let mut w = at_k();
    w.machine_mut(2).flip_mem_bit(dead, 0);
    assert_eq!(cache.converged(k, &w), Some(1));
    w.machine_mut(2).flip_mem_bit(dead + 1, 7);
    assert_eq!(cache.converged(k, &w), Some(1), "same granule");
    w.machine_mut(2).flip_mem_bit(live, 0);
    assert_eq!(cache.converged(k, &w), None);

    // And the excuse is sound: run the dead-granule world on.
    let mut w = at_k();
    w.machine_mut(2).flip_mem_bit(dead, 0);
    assert_eq!(w.run(), WorldExit::Clean);
    let reference = {
        let mut g = at_k();
        assert_eq!(g.run(), WorldExit::Clean);
        g
    };
    assert_eq!(app.comparable_output(&w), app.comparable_output(&reference));
    for r in 0..app.params.nranks {
        assert_eq!(w.machine(r).counters, reference.machine(r).counters);
    }
}

#[test]
fn the_budget_is_patched_into_every_checkpoint() {
    let app = tiny(AppKind::Climsim);
    let mut cache = golden(&app, 16, true);
    cache.set_budget(12_345_678);
    for e in cache.epochs() {
        let w = e.snap.restore();
        for r in 0..app.params.nranks {
            let left = w.machine(r).budget_left() + w.machine(r).counters.insns;
            assert_eq!(left, 12_345_678);
        }
    }
    // Patched checkpoints still converge with their own forks.
    let mut w = cache.epochs()[1].snap.restore();
    while cache.boundary_at(w.round()) != Some(2) {
        assert!(w.run_round().is_none());
    }
    assert_eq!(cache.converged(2, &w), Some(0));
}

#[test]
fn round_checkpoints_are_the_golden_run_at_their_rounds() {
    for (kind, every_rounds) in [(AppKind::Wavetoy, 16), (AppKind::Jacobi3d, 64)] {
        let app = tiny(kind);
        let mut cfg = app.world_config(BUDGET);
        cfg.quantum = 10_000;
        let launch = fl_mpi::Launch::new(&app.image, cfg.machine, None);
        let (cache, _) = EpochCache::run_golden(&launch, cfg, every_rounds);
        // The first interval, one in the middle, and the last, which
        // ends at the golden exit instead of at an epoch.
        for open in [0, cache.len() / 2, cache.len() - 1] {
            let interval = cache.sweep(open);
            let cps = interval.checkpoints();
            assert!(cps.len() as u64 <= fl_snap::SWEEP_CHECKPOINTS, "{kind}");
            let opening = &cache.epochs()[open];
            assert!(cps[0].round == opening.round && cps[0].snap == opening.snap);
            // A cold world stepped to each checkpoint's round is that
            // checkpoint.
            let mut cold = launch.world(cfg);
            for cp in cps {
                while cold.round() < cp.round {
                    assert!(cold.run_round().is_none());
                }
                assert!(cold.snapshot() == cp.snap, "{kind} round {}", cp.round);
                assert_eq!(interval.at(cp.round).is_some(), cp.round > cps[0].round);
            }
            // Stepped on from the last checkpoint, the sweep reaches the
            // closing epoch — or, for the last interval, the golden exit.
            let mut w = cps.last().unwrap().snap.restore();
            match cache.epochs().get(open + 1) {
                Some(close) => {
                    let every = cps.get(1).map_or(close.round, |c| c.round) - cps[0].round;
                    assert_eq!(close.round - cps.last().unwrap().round, every);
                    while w.round() < close.round {
                        assert!(w.run_round().is_none());
                    }
                    assert!(
                        w.snapshot() == close.snap,
                        "{kind} closing epoch {}",
                        open + 1
                    );
                }
                None => assert_eq!(w.run(), WorldExit::Clean),
            }
        }
    }
}

#[test]
fn between_epochs_only_granules_stamped_by_the_opening_epoch_are_excused() {
    let app = tiny(AppKind::Wavetoy);
    let cache = golden(&app, 16, true);
    let open = cache.len() / 2;
    let interval = cache.sweep(open);
    // An unfaulted fork is the golden run at every checkpoint round.
    let mut w = cache.epochs()[open].snap.restore();
    let mut compared = 0;
    while w.round() < interval.checkpoints().last().unwrap().round {
        assert!(w.run_round().is_none());
        assert_eq!(cache.converged_between(&interval, &w), Some(0));
        compared += 1;
    }
    assert_eq!(compared, interval.checkpoints().len() - 1);
    // No checkpoint at the opening epoch's own round: that compare is
    // the epoch's.
    let at_open = cache.epochs()[open].snap.restore();
    assert_eq!(cache.converged_between(&interval, &at_open), None);

    // A granule last read before the opening epoch is dead at every
    // round of the interval; one stamped with the interval the opening
    // epoch starts may still be read before the closing one, so it is
    // not excused even where a boundary compare at the closing epoch
    // would excuse it.
    let mid = &interval.checkpoints()[interval.checkpoints().len() / 2];
    let stamps = cache.stamps(1);
    let (dead, _) = stamps.iter().find(|&(_, s)| s as usize == open).unwrap();
    let (open_next, _) = stamps
        .iter()
        .find(|&(_, s)| s as usize == open + 1)
        .unwrap();
    let mut w = mid.snap.restore();
    w.machine_mut(1).flip_mem_bit(dead, 0);
    assert_eq!(cache.converged_between(&interval, &w), Some(1));
    w.machine_mut(1).flip_mem_bit(open_next, 0);
    assert_eq!(cache.converged_between(&interval, &w), None);
}
