//! Property tests of the fl-ft recovery contracts.
//!
//! Satellite invariants of the ft tentpole:
//!
//! 1. **Shrink purity** — a kill at *any* block clock, detected and
//!    recovered via `shrink()`, yields a survivor world whose event
//!    stream is bit-identical to a cold run of the shrunken world, on
//!    the fast and slow execution paths alike. Shrink must not leak
//!    detector residue, carried faults, or scheduler state into the
//!    rebuilt world.
//! 2. **Vote soundness** — a single corrupted replica is always
//!    outvoted (the job finishes clean with the golden answer), and two
//!    distinctly-corrupted replicas of three are *reported*, never
//!    silently masked: a clean final exit always carries the golden
//!    output.

use fl_apps::{App, AppKind, AppParams, Golden};
use fl_ft::{replica_config, run_replicated, shrink, CleanReplica, DigestLog, FtPolicy};
use fl_mpi::{FailureDetector, Fault, Launch, MpiWorld, WorldEffect, WorldExit, WorldSnapshot};
use fl_snap::EpochCache;
use proptest::prelude::*;
use std::sync::OnceLock;

fn fixture() -> &'static (App, Golden, u64) {
    static FIX: OnceLock<(App, Golden, u64)> = OnceLock::new();
    FIX.get_or_init(|| {
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let golden = app.golden(2_000_000_000);
        let budget = golden.insns.iter().max().unwrap() * 3 + 2_000_000;
        (app, golden, budget)
    })
}

/// Detect one drawn kill and return the post-shrink survivor world plus
/// the matching cold world, both run to completion.
fn shrink_pair(
    rank: u16,
    at_blocks: u64,
    wedge: bool,
    fastpath: bool,
) -> Result<(MpiWorld, MpiWorld), proptest::test_runner::TestCaseError> {
    let (app, _, budget) = fixture();
    let mut cfg = app.world_config(*budget);
    cfg.machine.obs_capacity = 1024;
    cfg.machine.fastpath = fastpath;
    cfg.ft = FailureDetector {
        enabled: true,
        ..Default::default()
    };
    let mut w = MpiWorld::new(&app.image, cfg);
    w.arm(Fault::kill(rank, at_blocks, wedge));
    let exit = w.run();
    prop_assert!(
        matches!(exit, WorldExit::RankFailed { rank: r, .. } if r == rank),
        "kill of rank {rank} @ {at_blocks} must be detected, got {exit:?}"
    );
    let mut survivor = shrink(&Launch::new(&app.image, cfg.machine, None), cfg);
    prop_assert_eq!(survivor.run(), WorldExit::Clean);
    let mut scfg = cfg;
    scfg.nranks -= 1;
    let mut cold = MpiWorld::new(&app.image, scfg);
    prop_assert_eq!(cold.run(), WorldExit::Clean);
    Ok((survivor, cold))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A kill at any block clock, on either execution path: the shrink
    /// survivor's event stream and output are bit-identical to a cold
    /// run of the shrunken world.
    #[test]
    fn shrink_survivor_matches_cold_shrunken_run(
        rank_pick in any::<u64>(),
        clock_pick in any::<u64>(),
        wedge in any::<bool>(),
        fastpath in any::<bool>(),
    ) {
        let (app, golden, _) = fixture();
        let rank = (rank_pick % app.params.nranks as u64) as u16;
        let blocks = golden.blocks[rank as usize].max(2);
        let at_blocks = 1 + clock_pick % (blocks - 1);
        let (survivor, cold) = shrink_pair(rank, at_blocks, wedge, fastpath)?;
        prop_assert_eq!(
            survivor.event_streams(),
            cold.event_streams(),
            "survivor stream diverged from cold shrunken run (fastpath={fastpath})"
        );
        prop_assert_eq!(app.comparable_output(&survivor), app.comparable_output(&cold));
    }

    /// The survivor stream is also invariant across the fast/slow
    /// execution paths — shrinking at the snapshotless cold boundary
    /// must not expose TLB or dispatch state.
    #[test]
    fn shrink_survivor_is_fastpath_invariant(
        rank_pick in any::<u64>(),
        clock_pick in any::<u64>(),
        wedge in any::<bool>(),
    ) {
        let (app, golden, _) = fixture();
        let rank = (rank_pick % app.params.nranks as u64) as u16;
        let blocks = golden.blocks[rank as usize].max(2);
        let at_blocks = 1 + clock_pick % (blocks - 1);
        let (fast, _) = shrink_pair(rank, at_blocks, wedge, true)?;
        let (slow, _) = shrink_pair(rank, at_blocks, wedge, false)?;
        prop_assert_eq!(fast.event_streams(), slow.event_streams());
        prop_assert_eq!(app.comparable_output(&fast), app.comparable_output(&slow));
    }
}

/// Per-rank output digests of a clean tracked run, for telling an
/// effect-free fault apart from one that only perturbs wire traffic.
fn clean_digests() -> &'static Vec<u32> {
    static D: OnceLock<Vec<u32>> = OnceLock::new();
    D.get_or_init(|| {
        let (app, _, budget) = fixture();
        let mut cfg = app.world_config(*budget);
        cfg.track_digests = true;
        let mut w = MpiWorld::new(&app.image, cfg);
        assert_eq!(w.run(), WorldExit::Clean);
        (0..cfg.nranks).map(|r| w.out_digest(r)).collect()
    })
}

/// Run one fault in a lone tracked world: (exit, output, digests).
fn solo(app: &App, budget: u64, fault: Fault<WorldEffect>) -> (WorldExit, Vec<u8>, Vec<u32>) {
    let mut cfg = app.world_config(budget);
    cfg.track_digests = true;
    let mut w = MpiWorld::new(&app.image, cfg);
    w.arm(fault);
    let exit = w.run();
    let digs = (0..cfg.nranks).map(|r| w.out_digest(r)).collect();
    (exit, app.comparable_output(&w), digs)
}

/// The pristine replica every member of the fixture's replica set starts
/// as, and the set's clean run recorded for the vote.
fn replica() -> &'static (WorldSnapshot, CleanReplica) {
    static R: OnceLock<(WorldSnapshot, CleanReplica)> = OnceLock::new();
    R.get_or_init(|| {
        let (app, _, budget) = fixture();
        let cfg = replica_config(app.world_config(*budget));
        let world = Launch::new(&app.image, cfg.machine, None).world(cfg);
        let start = world.snapshot();
        let mut log = DigestLog::new(&world);
        let (epochs, _, end) = EpochCache::run_clean(world, false, &[], &mut log);
        let output = app.comparable_output(&end);
        let clean = CleanReplica::new(log, &end, epochs.golden_exit().clone(), output);
        (start, clean)
    })
}

/// Does this fault manifest at all when run in a lone world?
fn manifests_solo(app: &App, golden: &Golden, budget: u64, fault: Fault<WorldEffect>) -> bool {
    let (exit, out, _) = solo(app, budget, fault);
    exit != WorldExit::Clean || out != golden.output
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One corrupted replica of three, wherever the corruption lands and
    /// whichever replica carries it: the two clean replicas always form
    /// the majority, the job finishes clean with the golden answer, and
    /// a fault that manifests solo costs the corrupt replica its seat.
    #[test]
    fn single_corrupt_replica_is_always_outvoted(
        rank_pick in any::<u64>(),
        byte_pick in any::<u64>(),
        bit in 0u8..8,
        replica_pick in any::<u64>(),
    ) {
        let (app, golden, budget) = fixture();
        let budget = *budget;
        let rank = (rank_pick % app.params.nranks as u64) as u16;
        let fault = Fault::flip(rank, byte_pick % golden.recv_bytes[rank as usize].max(1), bit);
        let corrupt = (replica_pick % 3) as u16;
        let (start, clean) = replica();
        let (winner, report) = run_replicated(
            start,
            clean,
            &FtPolicy::default(),
            (0..3).map(|r| Vec::from_iter((r == corrupt).then(|| fault.into()))).collect(),
            |w| app.comparable_output(w),
        );
        prop_assert_eq!(&report.exit, &WorldExit::Clean, "{fault:?} on replica {corrupt}");
        prop_assert_eq!(app.comparable_output(&winner), golden.output.clone());
        if manifests_solo(app, golden, budget, fault) {
            prop_assert!(
                report.votes >= 1,
                "{fault:?} manifests solo but nobody was voted out"
            );
        }
    }

    /// Two of three replicas corrupted, each differently: the vote may
    /// never silently bless a wrong answer. A clean verdict always
    /// carries the golden output; two faults that each manifest solo
    /// with distinct effects are always *reported* (no-majority
    /// detection or the faults' own crash/hang), never a clean exit;
    /// and two fully effect-free faults leave the run clean with
    /// nobody voted out.
    #[test]
    fn two_of_three_corruption_is_reported_never_masked(
        rank_a in any::<u64>(), byte_a in any::<u64>(), bit_a in 0u8..8,
        rank_b in any::<u64>(), byte_b in any::<u64>(), bit_b in 0u8..8,
    ) {
        let (app, golden, budget) = fixture();
        let budget = *budget;
        let draw = |rp: u64, bp: u64, bit: u8| {
            let rank = (rp % app.params.nranks as u64) as u16;
            Fault::flip(rank, bp % golden.recv_bytes[rank as usize].max(1), bit)
        };
        let fa = draw(rank_a, byte_a, bit_a);
        let fb = draw(rank_b, byte_b, bit_b);
        if fa == fb {
            // Identical draws are the single-corruption case in disguise
            // (two replicas failing identically IS a majority — the known
            // limit of duplicate-fault replication).
            return Ok(());
        }
        let (ea, oa, da) = solo(app, budget, fa);
        let (eb, ob, db) = solo(app, budget, fb);
        let man_a = ea != WorldExit::Clean || oa != golden.output;
        let man_b = eb != WorldExit::Clean || ob != golden.output;
        if man_a && (ea.clone(), oa.clone()) == (eb.clone(), ob.clone()) {
            // Distinct draws, identical wrong effect: the two corrupt
            // replicas genuinely outvote the clean one. Same known
            // duplicate-effect limit as identical draws.
            return Ok(());
        }
        let (start, clean) = replica();
        let (winner, report) = run_replicated(
            start,
            clean,
            &FtPolicy::default(),
            vec![vec![fa.into()], vec![fb.into()]],
            |w| app.comparable_output(w),
        );
        // The overarching invariant: a clean verdict is never wrong.
        if report.exit == WorldExit::Clean {
            prop_assert_eq!(
                app.comparable_output(&winner),
                golden.output.clone(),
                "clean exit with corrupted output: silent mask ({fa:?}, {fb:?})"
            );
        }
        if man_a && man_b {
            // Round votes can exclude at most one of three replicas;
            // the two distinct manifesting effects then tie or
            // three-way-split every later vote.
            prop_assert!(
                report.exit != WorldExit::Clean,
                "two manifesting corruptions ended clean: {report:?} ({fa:?}, {fb:?})"
            );
        } else if !man_a && !man_b && &da == clean_digests() && &db == clean_digests() {
            // Neither fault has any observable effect, on the wire or
            // off: the replicas never disagree.
            prop_assert_eq!(&report.exit, &WorldExit::Clean, "({fa:?}, {fb:?}) -> {report:?}");
            prop_assert_eq!(app.comparable_output(&winner), golden.output.clone());
            prop_assert_eq!(report.votes, 0);
        }
    }
}
