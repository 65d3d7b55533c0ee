//! Campaign throughput with event recording off vs on.
//!
//! The observability layer's cost contract: a disabled `EventLog` is a
//! single branch per would-be event (~zero overhead), and a bounded
//! ring must cost well under 10 % of campaign throughput. Measures the
//! same trial population three ways — recording off, a small ring and a
//! large ring — and writes the trials/sec plus the relative overhead to
//! `BENCH_obs.json` at the workspace root.
//!
//! Every arm runs the same single-worker campaign cold (`epoch_rounds`
//! 0): forked trials that record nothing may end early at an epoch
//! boundary while recording ones never do, and that difference is not
//! the recording cost this bench is about.

use criterion::{criterion_group, criterion_main, Criterion};
use fl_apps::{App, AppKind, AppParams};
use fl_inject::{run_campaign, CampaignConfig, TargetClass};

/// Trials per measured campaign; every arm runs the same population.
const TRIALS: u32 = 64;

fn bench_obs_overhead(c: &mut Criterion) {
    let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));

    // ns per trial, campaign setup (golden run, dictionaries) included
    // identically in every arm.
    let run_at = |name: &str, c: &mut Criterion, capacity: u32| -> f64 {
        c.bench_function(name, |b| {
            b.iter(|| {
                let cfg = CampaignConfig {
                    injections: TRIALS,
                    seed: 0x0B5E,
                    threads: 1,
                    epoch_rounds: 0,
                    obs_capacity: capacity,
                    ..Default::default()
                };
                run_campaign(&app, &[TargetClass::RegularReg], &cfg).insns_total
            })
        });
        c.last_ns_per_iter.expect("bench must have run") / TRIALS as f64
    };

    let off_ns = run_at("obs_overhead/off", c, 0);
    let ring_ns = run_at("obs_overhead/ring_512", c, 512);
    let big_ns = run_at("obs_overhead/ring_8192", c, 8192);

    let off_tps = 1e9 / off_ns;
    let ring_tps = 1e9 / ring_ns;
    let big_tps = 1e9 / big_ns;
    let ring_overhead = (ring_ns - off_ns) / off_ns;
    let big_overhead = (big_ns - off_ns) / off_ns;
    println!(
        "obs_overhead: off {off_tps:.2} trials/s, ring(512) {ring_tps:.2} trials/s \
         ({:+.1}%), ring(8192) {big_tps:.2} trials/s ({:+.1}%)",
        ring_overhead * 100.0,
        big_overhead * 100.0
    );

    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"app\": \"wavetoy-tiny\",\n  \
         \"class\": \"regular-reg\",\n  \
         \"off_trials_per_sec\": {off_tps:.3},\n  \
         \"ring512_trials_per_sec\": {ring_tps:.3},\n  \
         \"ring8192_trials_per_sec\": {big_tps:.3},\n  \
         \"ring512_overhead_frac\": {ring_overhead:.4},\n  \
         \"ring8192_overhead_frac\": {big_overhead:.4},\n  \
         \"threshold_frac\": 0.10\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(path, json).expect("write BENCH_obs.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
