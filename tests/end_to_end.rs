//! End-to-end integration: source generation → compilation → simulated
//! cluster → fault injection → classification, across every crate.

use fl_apps::{App, AppKind, AppParams, AppVariant};
use fl_inject::{run_campaign, CampaignConfig, Manifestation, TargetClass};
use fl_mpi::WorldExit;

#[test]
fn every_app_full_pipeline() {
    for kind in AppKind::ALL {
        let app = App::build(kind, AppParams::tiny(kind));
        // Symbol table covers both worlds.
        assert!(app.image.symbols.iter().any(|s| s.library));
        assert!(app.image.symbols.iter().any(|s| !s.library));
        // Golden run.
        let golden = app.golden(2_000_000_000);
        assert!(!golden.output.is_empty(), "{}", kind.name());
        // One injection in every class completes and classifies.
        let cfg = CampaignConfig {
            injections: 3,
            seed: 99,
            ..Default::default()
        };
        let result = run_campaign(&app, &TargetClass::ALL, &cfg);
        assert_eq!(result.classes.len(), 8);
        for c in &result.classes {
            assert_eq!(c.tally.executions, 3, "{}: {:?}", kind.name(), c.class);
        }
    }
}

#[test]
fn golden_runs_are_reproducible_across_worlds() {
    for kind in AppKind::ALL {
        let app = App::build(kind, AppParams::tiny(kind));
        let a = app.golden(2_000_000_000);
        let b = app.golden(2_000_000_000);
        assert_eq!(a.output, b.output, "{}", kind.name());
        assert_eq!(a.insns, b.insns, "{}", kind.name());
        assert_eq!(a.recv_bytes, b.recv_bytes, "{}", kind.name());
    }
}

#[test]
fn variants_build_and_run_clean() {
    let w = App::build_variant(
        AppKind::Wavetoy,
        AppParams::tiny(AppKind::Wavetoy),
        AppVariant::BinaryOutput,
    );
    let g = w.golden(2_000_000_000);
    // Binary output: raw f64 records.
    assert_eq!(g.output.len() % 8, 0);
    assert!(!g.output.is_empty());

    let m = App::build_variant(
        AppKind::Moldyn,
        AppParams::tiny(AppKind::Moldyn),
        AppVariant::NoChecksums,
    );
    let g = m.golden(2_000_000_000);
    assert!(!g.output.is_empty());
}

#[test]
fn checksum_variant_costs_more_instructions() {
    let params = AppParams::tiny(AppKind::Moldyn);
    let with = App::build(AppKind::Moldyn, params).golden(2_000_000_000);
    let without =
        App::build_variant(AppKind::Moldyn, params, AppVariant::NoChecksums).golden(2_000_000_000);
    let i_with: u64 = with.insns.iter().sum();
    let i_without: u64 = without.insns.iter().sum();
    assert!(
        i_with > i_without,
        "checksums must cost instructions: {i_with} vs {i_without}"
    );
    // And the overhead must be modest (the paper measured ~3%).
    let overhead = (i_with - i_without) as f64 / i_without as f64;
    assert!(
        overhead < 0.25,
        "overhead {:.1}% is implausibly high",
        overhead * 100.0
    );
}

#[test]
fn injected_hang_is_caught_by_budget() {
    // Corrupt a loop counter via EIP-adjacent register to provoke hangs;
    // a guaranteed-hang construction: flip the tag byte of a message.
    let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
    let golden = app.golden(2_000_000_000);
    let budget = golden.insns.iter().max().unwrap() * 3 + 2_000_000;
    let mut w = app.world(budget);
    w.arm(fl_mpi::Fault::flip(1, 12, 7));
    let exit = w.run();
    assert!(matches!(exit, WorldExit::Hung { .. }), "{exit:?}");
    let outcome = fl_inject::classify(&exit, &app.comparable_output(&w), &golden.output);
    assert_eq!(outcome, Manifestation::Hang);
}

#[test]
fn trace_and_campaign_share_one_app() {
    let app = App::build(AppKind::Climsim, AppParams::tiny(AppKind::Climsim));
    let report = fl_trace::trace_app(&app, 2_000_000_000, 20);
    assert!(report.text.at_start() > 0.0);
    let cfg = CampaignConfig {
        injections: 5,
        seed: 1,
        ..Default::default()
    };
    let result = run_campaign(&app, &[TargetClass::Text], &cfg);
    assert_eq!(result.classes[0].tally.executions, 5);
    // The small text working set explains the (mostly) correct outcomes:
    // at least some text faults must land in cold code and do nothing.
    // (5 trials is not a statistical claim; just sanity.)
    let correct = result.classes[0].tally.count(Manifestation::Correct);
    assert!(
        correct > 0,
        "all five text faults manifested, which is wildly unlikely"
    );
}
