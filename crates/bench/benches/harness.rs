//! Criterion benchmarks: substrate performance (the interpreter and
//! compiler the whole study stands on) and experiment throughput (trials
//! per second, which bounds campaign sizes — the paper spent two months
//! of cluster time on its campaigns).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use fl_apps::{App, AppKind, AppParams};
use fl_inject::{run_campaign, CampaignConfig, TargetClass};
use fl_lang::compile;
use fl_machine::{Exit, Machine, MachineConfig, F80};

/// A compute-heavy FL kernel for interpreter throughput.
const KERNEL: &str = "
fn main() {
    var int i;
    var float acc;
    acc = 0.0;
    for (i = 0; i < 20000; i = i + 1) {
        acc = acc + sqrt(float(i)) * 1.0001;
        if (acc > 1000000.0) { acc = acc * 0.5; }
    }
    print_flt(acc, 2);
}";

fn bench_interpreter(c: &mut Criterion) {
    let img = compile(KERNEL).unwrap();
    // Measure retired instructions per iteration once.
    let mut probe = Machine::load(&img, MachineConfig::default());
    assert!(matches!(probe.run(u64::MAX), Exit::Halted(0)));
    let insns = probe.counters.insns;

    let mut g = c.benchmark_group("interpreter");
    g.throughput(Throughput::Elements(insns));
    g.bench_function("kernel_insns", |b| {
        b.iter_batched(
            || Machine::load(&img, MachineConfig::default()),
            |mut m| {
                assert!(matches!(m.run(u64::MAX), Exit::Halted(0)));
                m.counters.insns
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_compiler(c: &mut Criterion) {
    let app_src = fl_apps::wavetoy::source(&AppParams::tiny(AppKind::Wavetoy));
    let mut g = c.benchmark_group("compiler");
    g.throughput(Throughput::Bytes(app_src.len() as u64));
    g.bench_function("compile_wavetoy", |b| {
        b.iter(|| compile(&app_src).unwrap().text.len())
    });
    g.finish();
}

fn bench_f80(c: &mut Criterion) {
    let values: Vec<f64> = (0..1024).map(|i| (i as f64) * 0.37 - 200.0).collect();
    c.bench_function("f80_roundtrip_1k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &v in &values {
                acc ^= F80::from_f64(v).to_f64().to_bits();
            }
            acc
        })
    });
}

fn bench_golden_runs(c: &mut Criterion) {
    let mut g = c.benchmark_group("golden_run");
    g.sample_size(10);
    for kind in AppKind::ALL {
        let app = App::build(kind, AppParams::tiny(kind));
        g.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut w = app.world(2_000_000_000);
                assert_eq!(w.run(), fl_mpi::WorldExit::Clean);
                w.machine(0).counters.insns
            })
        });
    }
    g.finish();
}

fn bench_trial_throughput(c: &mut Criterion) {
    // The unit of campaign cost: injection experiments end to end, cold
    // (no epoch forks), a small single-worker campaign per iteration.
    const TRIALS: u32 = 8;
    let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
    let mut g = c.benchmark_group("trial");
    g.sample_size(20);
    g.throughput(Throughput::Elements(TRIALS as u64));
    for class in [
        TargetClass::RegularReg,
        TargetClass::Text,
        TargetClass::Message,
    ] {
        let mut seed = 0u64;
        g.bench_function(class.label().replace(' ', "_").replace('.', ""), |b| {
            b.iter(|| {
                seed += 1;
                let cfg = CampaignConfig {
                    injections: TRIALS,
                    seed,
                    threads: 1,
                    epoch_rounds: 0,
                    ..Default::default()
                };
                run_campaign(&app, &[class], &cfg).insns_total
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_interpreter,
    bench_compiler,
    bench_f80,
    bench_golden_runs,
    bench_trial_throughput
);
criterion_main!(benches);
