//! Cold vs snapshot-forked trial throughput.
//!
//! Measures the campaign fast path's payoff: identical trials (same
//! seeds, same faults, same records) run once with full prefix
//! re-execution and once forked from the epoch cache — which also lets
//! a benign trial end at the first epoch boundary where it is provably
//! the golden run again. Each measured iteration is one single-worker
//! campaign on the engine, setup (golden run, epoch build)
//! included. Writes the trials/sec for both paths and the speedup to
//! `BENCH_snapshot.json` at the workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use fl_apps::{App, AppKind, AppParams};
use fl_inject::{run_campaign, CampaignConfig, TargetClass};
use fl_snap::EpochCache;

/// Trials per measured campaign; both paths run the same population.
const TRIALS: u32 = 64;
const EPOCH_ROUNDS: u32 = 8;

fn bench_snapshot_fork(c: &mut Criterion) {
    let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
    let campaign = |epoch_rounds: u32| {
        let cfg = CampaignConfig {
            injections: TRIALS,
            seed: 0xBE7C,
            threads: 1,
            epoch_rounds,
            ..Default::default()
        };
        run_campaign(&app, &[TargetClass::RegularReg], &cfg)
    };
    let reference = campaign(0);
    let forked = campaign(EPOCH_ROUNDS);
    assert_eq!(
        reference.classes[0].trials, forked.classes[0].trials,
        "forked records must equal cold records"
    );
    // Reported for context: how many checkpoints the forked path holds.
    let epochs = EpochCache::build(&app.image, app.world_config(u64::MAX), EPOCH_ROUNDS).len();

    c.bench_function("snapshot_fork/cold", |b| b.iter(|| campaign(0).insns_total));
    let cold_ns = c.last_ns_per_iter.expect("cold bench must have run") / TRIALS as f64;

    c.bench_function("snapshot_fork/forked", |b| {
        b.iter(|| campaign(EPOCH_ROUNDS).insns_total)
    });
    let forked_ns = c.last_ns_per_iter.expect("forked bench must have run") / TRIALS as f64;

    let cold_tps = 1e9 / cold_ns;
    let forked_tps = 1e9 / forked_ns;
    let speedup = forked_tps / cold_tps;
    println!(
        "snapshot_fork: cold {cold_tps:.2} trials/s, forked {forked_tps:.2} trials/s, \
         speedup {speedup:.2}x ({epochs} epochs)"
    );

    let json = format!(
        "{{\n  \"bench\": \"snapshot_fork\",\n  \"app\": \"wavetoy-tiny\",\n  \
         \"class\": \"regular-reg\",\n  \"epoch_rounds\": {EPOCH_ROUNDS},\n  \"epochs\": {epochs},\n  \
         \"cold_trials_per_sec\": {cold_tps:.3},\n  \
         \"forked_trials_per_sec\": {forked_tps:.3},\n  \"speedup\": {speedup:.3},\n  \
         \"threshold_speedup\": 1.25\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_snapshot.json");
    std::fs::write(path, json).expect("write BENCH_snapshot.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_snapshot_fork);
criterion_main!(benches);
