//! The crate's load-bearing invariant: a world forked from a snapshot is
//! bit-identical to a world that executed the same prefix cold. Every
//! fast-path result in the campaign layer rests on this.

use fl_apps::{App, AppKind, AppParams};
use fl_mpi::{Clock, Fault, Launch, MpiWorld, WorldExit};
use fl_snap::{Epoch, EpochCache};

const BUDGET: u64 = 200_000_000;

fn tiny(kind: AppKind) -> App {
    App::build(kind, AppParams::tiny(kind))
}

/// Run `n` scheduler rounds (stopping early if the world finishes).
fn run_rounds(w: &mut MpiWorld, n: u64) -> Option<WorldExit> {
    for _ in 0..n {
        if let Some(e) = w.run_round() {
            return Some(e);
        }
    }
    None
}

#[test]
fn restore_is_bit_identical_immediately() {
    for kind in [AppKind::Wavetoy, AppKind::Climsim] {
        let app = tiny(kind);
        let mut w = app.world(BUDGET);
        assert!(
            run_rounds(&mut w, 40).is_none(),
            "{}: finished too early",
            kind.name()
        );
        let snap = w.snapshot();
        let restored = snap.restore();
        assert!(
            restored.snapshot() == snap,
            "{}: restore() changed world state",
            kind.name()
        );
    }
}

#[test]
fn forked_world_stays_bit_identical_while_stepping() {
    let app = tiny(AppKind::Wavetoy);
    let mut cold = app.world(BUDGET);
    run_rounds(&mut cold, 25);
    let snap = cold.snapshot();
    let mut forked = snap.restore();
    // Step both worlds in lockstep and compare complete state at several
    // depths past the fork point.
    for leg in [1u64, 3, 10, 30] {
        let a = run_rounds(&mut cold, leg);
        let b = run_rounds(&mut forked, leg);
        assert_eq!(a, b, "exit divergence {leg} rounds past fork");
        assert!(
            cold.snapshot() == forked.snapshot(),
            "state divergence {leg} rounds past fork"
        );
        if a.is_some() {
            break;
        }
    }
}

#[test]
fn forked_run_completes_like_cold_run() {
    for kind in [AppKind::Wavetoy, AppKind::Climsim] {
        let app = tiny(kind);
        let golden = app.golden(BUDGET);

        let mut w = app.world(BUDGET);
        run_rounds(&mut w, 60);
        let mut forked = w.snapshot().restore();
        let exit = forked.run();
        assert_eq!(exit, WorldExit::Clean, "{}", kind.name());
        assert_eq!(
            app.comparable_output(&forked),
            golden.output,
            "{}: forked run output differs from golden",
            kind.name()
        );
    }
}

#[test]
fn sibling_forks_are_isolated() {
    // Two forks of one snapshot must not see each other's writes: run one
    // to completion, then verify the other still matches the capture and
    // still produces the golden output.
    let app = tiny(AppKind::Wavetoy);
    let golden = app.golden(BUDGET);
    let mut w = app.world(BUDGET);
    run_rounds(&mut w, 30);
    let snap = w.snapshot();

    let mut first = snap.restore();
    let second = snap.restore();
    assert_eq!(first.run(), WorldExit::Clean);
    assert!(
        second.snapshot() == snap,
        "sibling fork was mutated by the other fork"
    );

    let mut second = second;
    assert_eq!(second.run(), WorldExit::Clean);
    assert_eq!(app.comparable_output(&second), golden.output);
}

#[test]
fn cow_pages_are_shared_until_written() {
    let app = tiny(AppKind::Wavetoy);
    let mut w = app.world(BUDGET);
    run_rounds(&mut w, 20);
    let a = w.snapshot();
    let b = a.clone();
    for r in 0..a.nranks() {
        let ma = &a.machine(r).mem;
        let mb = &b.machine(r).mem;
        let resident = ma.resident_pages();
        assert!(resident > 0);
        assert_eq!(
            ma.pages_shared_with(mb),
            resident,
            "rank {r}: clone must share every resident page"
        );
    }
    // Running a fork un-shares only the pages it writes.
    let mut forked = a.restore();
    run_rounds(&mut forked, 5);
    let after = forked.snapshot();
    for r in 0..a.nranks() {
        let shared = after.machine(r).mem.pages_shared_with(&a.machine(r).mem);
        let resident = a.machine(r).mem.resident_pages();
        assert!(
            shared < resident,
            "rank {r}: five rounds of execution wrote no page at all?"
        );
        assert!(
            shared > 0,
            "rank {r}: text/data pages should still be shared"
        );
    }
}

#[test]
fn epoch_cache_covers_golden_run() {
    let app = tiny(AppKind::Wavetoy);
    let cache = EpochCache::build_with_code(&app.image, app.world_config(BUDGET), 8, None);
    assert_eq!(*cache.golden_exit(), WorldExit::Clean);
    assert!(
        cache.rounds() > 8,
        "tiny wavetoy should take more than one epoch interval"
    );
    assert_eq!(cache.len(), 1 + (cache.rounds() / 8) as usize);

    // Epoch 0 is pristine, and where a fire point no later epoch serves
    // forks.
    let e0 = &cache.epochs()[0];
    assert_eq!(e0.round, 0);
    assert_eq!(e0.rank_insns(0), 0);
    assert_eq!(cache.best_for(&[(0, Clock::Insns, 1)]).round, 0);
    assert_eq!(cache.best_for(&[(0, Clock::Insns, 0)]).round, 0);

    // Eligibility is strict: an epoch is returned only if the target rank
    // is strictly before the fire point.
    let golden = app.golden(BUDGET);
    let late = golden.insns[1] - 1;
    let best = cache.best_for(&[(1, Clock::Insns, late)]);
    assert!(best.round > 0 && best.rank_insns(1) < late);
    // And it is the *latest* such epoch.
    for e in cache.epochs() {
        if e.rank_insns(1) < late {
            assert!(e.rank_insns(1) <= best.rank_insns(1));
        }
    }

    // Message eligibility uses <= (fault strikes a message that arrives
    // after the capture).
    let vol = golden.recv_bytes[2];
    assert!(cache.best_for(&[(2, Clock::RecvBytes, vol - 1)]).round > 0);
    let b0 = cache.best_for(&[(2, Clock::RecvBytes, 0)]);
    assert_eq!(b0.rank_received_bytes(2), 0);
    let e = &cache.epochs()[3];
    let at = e.rank_received_bytes(2);
    let best = cache.best_for(&[(2, Clock::RecvBytes, at)]);
    assert!(best.round >= e.round && best.rank_received_bytes(2) == at);

    // Block clocks are strict like instructions; a syscall fault counts
    // from its arming, so only the pristine epoch serves it; and a burst
    // forks where its earliest fault demands.
    let blocks = |e: &Epoch, r: u16| e.snap.machine(r).counters.blocks;
    let k = (1..cache.len() - 1)
        .find(|&k| blocks(&cache.epochs()[k], 1) < blocks(&cache.epochs()[k + 1], 1))
        .expect("rank 1 retires blocks between some two epochs");
    let e = &cache.epochs()[k];
    let at = blocks(e, 1);
    assert!(cache.best_for(&[(1, Clock::Blocks, at)]).round < e.round);
    assert_eq!(cache.best_for(&[(1, Clock::Blocks, at + 1)]).round, e.round);
    assert_eq!(cache.best_for(&[(1, Clock::Calls, 1)]).round, 0);
    let burst = [(1, Clock::Blocks, at + 1), (0, Clock::Insns, late)];
    assert_eq!(cache.best_for(&burst).round, e.round);
    let burst = [(0, Clock::Insns, late), (3, Clock::Calls, 5)];
    assert_eq!(cache.best_for(&burst).round, 0);
}

#[test]
fn clean_run_checkpoints_are_sparse_and_exact() {
    // A configuration's own clean run (detector on here, so a kill ends
    // the world with the round it was detected in): at most eight evenly
    // spaced checkpoints from the pristine world on, and its end is a
    // cold run's end.
    for kind in [AppKind::Wavetoy, AppKind::Jacobi3d] {
        let app = tiny(kind);
        let mut cfg = app.world_config(BUDGET);
        (cfg.ft.enabled, cfg.ulfm) = (true, false);
        let launch = Launch::new(&app.image, cfg.machine, None);
        let (cache, _, end) = EpochCache::run_clean(launch.world(cfg), true, &[], &mut ());
        assert!((5..=8).contains(&cache.len()), "{kind}: {}", cache.len());
        let every = cache.epochs()[1].round;
        for (k, e) in cache.epochs().iter().enumerate() {
            assert_eq!(e.round, k as u64 * every, "{kind}");
        }
        assert!(cache.rounds() >= (cache.len() as u64 - 1) * every);
        assert!(cache.rounds() < cache.len() as u64 * every);
        let mut cold = launch.world(cfg);
        assert_eq!(cold.run(), *cache.golden_exit(), "{kind}");
        assert!(cold.snapshot() == end.snapshot(), "{kind}");
    }
}

#[test]
fn kills_at_a_checkpoints_block_clock_fork_exactly() {
    // The block-clock edge of the fork-point rule. A kill fires between
    // rounds once its rank's block clock is >= the fire point. A rank
    // that sat blocked through the round a checkpoint closes reached the
    // checkpoint's clock a round earlier, so a kill at exactly that clock
    // fired before the checkpoint was taken: forking from it would fire
    // a round late, and where the detector probed the rank that round it
    // would name another round. Every (checkpoint, rank) pair where the
    // rank sat out the round, with one checkpoint per round.
    let app = tiny(AppKind::Wavetoy);
    let mut cfg = app.world_config(BUDGET);
    (cfg.ft.enabled, cfg.ulfm) = (true, false);
    let launch = Launch::new(&app.image, cfg.machine, None);
    let cache = EpochCache::run_golden(&launch, cfg, 1).0;
    let blocks = |e: &Epoch, r: u16| e.snap.machine(r).counters.blocks;
    let idle: Vec<(u16, u64, &Epoch)> = cache
        .epochs()
        .windows(2)
        .flat_map(|pair| (0..cfg.nranks).map(move |r| (r, blocks(&pair[0], r), &pair[1])))
        .filter(|&(r, before, after)| before > 0 && blocks(after, r) == before)
        .collect();
    let mut late_differs = 0;
    for &(r, at, after) in &idle {
        let kill = Fault::kill(r, at, false);
        let mut forked = cache.best_for(&[(r, Clock::Blocks, at)]).snap.restore();
        forked.arm(kill);
        let mut cold = launch.world(cfg);
        cold.arm(kill);
        let what = format!("rank {r} killed at block {at}");
        let exit = cold.run();
        assert_eq!(forked.run(), exit, "{what}");
        assert!(forked.snapshot() == cold.snapshot(), "{what}");
        // Not vacuous: forking from the checkpoint the clock equals
        // fires late (where a probe found the rank alive that round).
        let mut late = after.snap.restore();
        late.arm(kill);
        late_differs += u32::from(late.run() != exit || late.snapshot() != cold.snapshot());
    }
    assert!(late_differs > 0, "no tested kill tells the rules apart");
}

#[test]
fn injection_on_forked_world_fires() {
    // Arm a register fault on a forked world and check it still
    // manifests — the campaign fast path in one line.
    let app = tiny(AppKind::Wavetoy);
    let golden = app.golden(BUDGET);
    let cache = EpochCache::build_with_code(&app.image, app.world_config(BUDGET), 8, None);
    let rank = 0u16;
    let at = golden.insns[0] / 2;
    let epoch = cache.best_for(&[(rank, Clock::Insns, at)]);
    assert!(epoch.round > 0);
    let mut w = epoch.snap.restore();
    w.arm(Fault::once(rank, at, |m: &mut fl_machine::Machine| {
        // Clobber EIP: guaranteed wild transfer.
        m.cpu.eip ^= 0x4000_0000;
    }));
    let exit = w.run();
    assert_ne!(exit, WorldExit::Clean, "EIP clobber must manifest");
}
