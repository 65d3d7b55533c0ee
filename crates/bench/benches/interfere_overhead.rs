//! Fault-free cost of the interference machinery.
//!
//! The perturb price contract: with every interference fault class
//! compiled in and armed — a quantum tax, a hog and a memory stall all
//! scheduled past the end of the run, so the full per-round credit /
//! mask / per-access accounting path executes but nothing ever fires —
//! a clean run must cost at most 15 % of wall time versus the same
//! world with no perturb state armed. Writes the runs/sec plus relative
//! overhead to `BENCH_interfere.json` at the workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use fl_apps::{App, AppKind, AppParams};
use fl_mpi::{Effect, Fault, MpiWorld, WorldEffect, WorldExit};

fn bench_interfere_overhead(c: &mut Criterion) {
    let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
    let cfg = app.world_config(2_000_000_000);

    c.bench_function("interfere_overhead/off", |b| {
        b.iter(|| {
            let mut w = MpiWorld::new(&app.image, cfg);
            assert_eq!(w.run(), WorldExit::Clean);
        })
    });
    let off_ns = c.last_ns_per_iter.expect("bench must have run");

    c.bench_function("interfere_overhead/armed_never_firing", |b| {
        b.iter(|| {
            let mut w = MpiWorld::new(&app.image, cfg);
            let never = u64::MAX;
            let (permille, rounds) = (990, 256);
            w.arm(Fault::new(0, never, WorldEffect::Tax { permille, rounds }));
            let (mask, permille) = (0b01, 500);
            w.arm(Fault::new(
                0,
                never,
                WorldEffect::Hog {
                    mask,
                    permille,
                    rounds,
                },
            ));
            let (window_insns, per_access) = (1024, 4);
            w.arm(Fault::new(
                0,
                never,
                Effect::Stall {
                    window_insns,
                    per_access,
                },
            ));
            assert_eq!(w.run(), WorldExit::Clean);
            assert_eq!(w.plan().starved, 0, "nothing may actually fire");
        })
    });
    let armed_ns = c.last_ns_per_iter.expect("bench must have run");

    let off_rps = 1e9 / off_ns;
    let armed_rps = 1e9 / armed_ns;
    let armed_overhead = (armed_ns - off_ns) / off_ns;
    println!(
        "interfere_overhead: off {off_rps:.2} runs/s, armed-never-firing {armed_rps:.2} runs/s \
         ({:+.1}%)",
        armed_overhead * 100.0
    );

    let json = format!(
        "{{\n  \"bench\": \"interfere_overhead\",\n  \"app\": \"wavetoy-tiny\",\n  \
         \"off_runs_per_sec\": {off_rps:.3},\n  \
         \"armed_runs_per_sec\": {armed_rps:.3},\n  \
         \"armed_overhead_frac\": {armed_overhead:.4},\n  \
         \"threshold_frac\": 0.15\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_interfere.json");
    std::fs::write(path, json).expect("write BENCH_interfere.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_interfere_overhead);
criterion_main!(benches);
