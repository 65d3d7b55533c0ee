//! Fault-free cost of the chaos machinery.
//!
//! The chaos price contract: with every chaos fault class compiled in
//! and armed — a network fault, a partition, a node kill and a syscall
//! fault all scheduled past the end of the run, so the full per-byte /
//! per-round / per-call check path executes but nothing ever fires —
//! a clean run must cost at most 15 % of wall time versus the same
//! world with no chaos state armed. Writes the runs/sec plus relative
//! overhead to `BENCH_chaos.json` at the workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use fl_apps::{App, AppKind, AppParams};
use fl_machine::SyscallFaultKind;
use fl_mpi::{Effect, Fault, MpiWorld, NetFaultKind, WorldEffect, WorldExit};

fn bench_chaos_overhead(c: &mut Criterion) {
    let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
    let cfg = app.world_config(2_000_000_000);

    c.bench_function("chaos_overhead/off", |b| {
        b.iter(|| {
            let mut w = MpiWorld::new(&app.image, cfg);
            assert_eq!(w.run(), WorldExit::Clean);
        })
    });
    let off_ns = c.last_ns_per_iter.expect("bench must have run");

    c.bench_function("chaos_overhead/armed_never_firing", |b| {
        b.iter(|| {
            let mut w = MpiWorld::new(&app.image, cfg);
            let never = u64::MAX;
            w.arm(Fault::new(
                0,
                never,
                WorldEffect::Wire(NetFaultKind::Corrupt),
            ));
            let (mask, rounds) = (0b01, 8);
            w.arm(Fault::new(0, never, WorldEffect::Cut { mask, rounds }));
            let (mates, wedge) = (0b01, false);
            w.arm(Fault::new(0, never, WorldEffect::Kill { mates, wedge }));
            let (kind, persist) = (SyscallFaultKind::Malloc, false);
            w.arm(Fault::new(0, never, Effect::Syscall { kind, persist }));
            assert_eq!(w.run(), WorldExit::Clean);
            assert_eq!(w.plan().hit, None, "nothing may actually fire");
        })
    });
    let armed_ns = c.last_ns_per_iter.expect("bench must have run");

    let off_rps = 1e9 / off_ns;
    let armed_rps = 1e9 / armed_ns;
    let armed_overhead = (armed_ns - off_ns) / off_ns;
    println!(
        "chaos_overhead: off {off_rps:.2} runs/s, armed-never-firing {armed_rps:.2} runs/s \
         ({:+.1}%)",
        armed_overhead * 100.0
    );

    let json = format!(
        "{{\n  \"bench\": \"chaos_overhead\",\n  \"app\": \"wavetoy-tiny\",\n  \
         \"off_runs_per_sec\": {off_rps:.3},\n  \
         \"armed_runs_per_sec\": {armed_rps:.3},\n  \
         \"armed_overhead_frac\": {armed_overhead:.4},\n  \
         \"threshold_frac\": 0.15\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
    std::fs::write(path, json).expect("write BENCH_chaos.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_chaos_overhead);
criterion_main!(benches);
