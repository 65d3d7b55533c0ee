//! Regenerate the **ulfm coverage report**: the same seeded rank-kill
//! fault set run under *harness-side* recovery (fl-ft's detector-driven
//! shrink and buddy-checkpoint respawn) and under *app-side* recovery
//! (fl-ulfm: the application observes `MPIX_ERR_PROC_FAILED`, agrees,
//! shrinks, and restores its own control-point checkpoint) — on all four
//! applications, with the recovery cost (retired instructions) of each
//! discipline on each app. Wall time goes to stderr only: the committed
//! artifacts hold nothing but deterministic counts, so CI can diff them.
//!
//! ```sh
//! cargo run --release -p fl-bench --bin ulfm_coverage -- 25
//! ```
//!
//! Only jacobi3d carries fl-ulfm recovery code, so the app column is the
//! experiment: the paper's three apps recover 0 % of kills by themselves,
//! jacobi3d must recover at least 90 % (the exit-status contract). The
//! harness disciplines recover every app, but pay for it in either a
//! full restart (shrink) or checkpoint traffic on the fault-free path
//! (respawn); jacobi3d's app-side recovery pays only its own
//! control-point gathers.

use fl_apps::{App, AppKind, AppParams};
use fl_bench::{emit, injections_from_args};
use fl_inject::faultmodel::Draw;
use fl_inject::{classify, run_app, run_respawn, run_shrink, FtPolicy, Manifestation};
use fl_mpi::{Launch, MpiWorld, WorldExit};
use std::fmt::Write as _;
use std::time::Instant;

/// Per-mode accumulators: outcome counts, recovered count, and cost.
#[derive(Default)]
struct ModeStats {
    trials: u32,
    recovered: u32,
    insns: u64,
    wall_nanos: u64,
}

impl ModeStats {
    fn note(&mut self, recovered: bool, insns: u64, wall_nanos: u64) {
        self.trials += 1;
        self.recovered += recovered as u32;
        self.insns += insns;
        self.wall_nanos += wall_nanos;
    }

    fn pct(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        100.0 * self.recovered as f64 / self.trials as f64
    }

    fn mean_insns(&self) -> u64 {
        self.insns / self.trials.max(1) as u64
    }

    fn mean_micros(&self) -> f64 {
        self.wall_nanos as f64 / 1000.0 / self.trials.max(1) as f64
    }
}

/// Total retired instructions across the (possibly shrunken) world — the
/// recovery-cost numerator: a restart re-executes, a checkpoint line
/// spends cycles before the fault, an app-side rollback repeats only the
/// iterations since the last control point.
fn world_insns(w: &MpiWorld) -> u64 {
    (0..w.nranks()).map(|r| w.machine(r).counters.insns).sum()
}

fn main() {
    let trials = injections_from_args(25);
    let policy = FtPolicy::default();
    let mut out = String::from(
        "ULFM coverage: harness-side vs app-side recovery of rank kills\n\
         (identical seeded kills per app; cost = mean retired insns of\n\
         the whole trial, fault to finish)\n\n",
    );
    let mut tsv = String::from("app\tmode\ttrials\trecovered\trecovered_pct\tmean_insns\n");
    let mut jsonl = String::new();
    let mut broken = Vec::new();

    for kind in AppKind::ALL {
        eprintln!("ulfm_coverage: {} x {trials} rank kills ...", kind.name());
        let app = App::build(kind, AppParams::tiny(kind));
        let golden = app.golden(2_000_000_000);
        let budget = golden.insns.iter().max().unwrap() * 4 + 4_000_000;
        let launch = Launch::new(&app.image, app.world_config(budget).machine, None);
        let mut shrink_s = ModeStats::default();
        let mut respawn_s = ModeStats::default();
        let mut app_s = ModeStats::default();

        for k in 0..trials {
            let seed = 0x01F3 + k as u64 * 7919;
            // A drawn fault is spent by arming it: every run draws again.
            let draw =
                || Draw::Kill { wedge: None }.draw(&golden, None, None, seed, app.params.nranks);
            let arm = |w: &mut MpiWorld| draw().0.into_iter().for_each(|f| w.arm(f));
            let detail = draw().1;
            let mut wcfg = app.world_config(budget);
            wcfg.seed = seed;
            wcfg.ulfm = false;
            wcfg.ft.enabled = false;

            // Harness shrink: detector fires, fresh world at n-1 ranks.
            let t0 = Instant::now();
            let (sw, sr) = run_shrink(&launch, wcfg, &policy, arm);
            let s_wall = t0.elapsed().as_nanos() as u64;
            let s_ok = sr.intervened() && sr.exit == WorldExit::Clean;
            shrink_s.note(s_ok, world_insns(&sw), s_wall);

            // Harness respawn: buddy checkpoints, restore, re-execute.
            let t0 = Instant::now();
            let (rw, rr) = run_respawn(&launch, wcfg, &policy, arm);
            let r_wall = t0.elapsed().as_nanos() as u64;
            let r_ok = rr.intervened()
                && rr.exit == WorldExit::Clean
                && app.comparable_output(&rw) == golden.output;
            respawn_s.note(r_ok, world_insns(&rw), r_wall);

            // App-side: the world only *reports* the failure; recovery is
            // the application's problem.
            let t0 = Instant::now();
            let (aw, ar) = run_app(&launch, wcfg, &policy, arm);
            let a_wall = t0.elapsed().as_nanos() as u64;
            let a_m = if ar.exit == WorldExit::Clean && ar.shrinks > 0 {
                if app.comparable_output(&aw) == golden.output {
                    Manifestation::RecoveredByApp
                } else {
                    Manifestation::Incorrect
                }
            } else {
                classify(&ar.exit, &app.comparable_output(&aw), &golden.output)
            };
            let a_ok = a_m == Manifestation::RecoveredByApp;
            app_s.note(a_ok, world_insns(&aw), a_wall);

            let _ = writeln!(
                jsonl,
                "{{\"app\":\"{}\",\"trial\":{k},\"detail\":\"{detail}\",\"shrink_ok\":{s_ok},\"respawn_ok\":{r_ok},\"app_mode\":\"{}\",\"app_shrinks\":{},\"shrink_insns\":{},\"respawn_insns\":{},\"app_insns\":{}}}",
                kind.name(),
                a_m.slug(),
                ar.shrinks,
                world_insns(&sw),
                world_insns(&rw),
                world_insns(&aw),
            );
        }

        let _ = writeln!(
            out,
            "{} ({} analogue), n = {trials} kills:",
            kind.name(),
            kind.paper_name()
        );
        let _ = writeln!(
            out,
            "  {:<14} {:>9} {:>13}",
            "mode", "recov(%)", "mean insns"
        );
        for (mode, s) in [
            ("harness-shrink", &shrink_s),
            ("harness-respawn", &respawn_s),
            ("app-ulfm", &app_s),
        ] {
            let _ = writeln!(
                out,
                "  {:<14} {:>9.1} {:>13}",
                mode,
                s.pct(),
                s.mean_insns()
            );
            let _ = writeln!(
                tsv,
                "{}\t{}\t{}\t{}\t{:.2}\t{}",
                kind.name(),
                mode,
                s.trials,
                s.recovered,
                s.pct(),
                s.mean_insns()
            );
            eprintln!(
                "ulfm_coverage: {} {mode}: mean wall {:.0} us",
                kind.name(),
                s.mean_micros()
            );
        }
        out.push('\n');

        // Contracts: harness recovery works everywhere; app recovery is
        // jacobi3d's alone — and must cover at least 90 % of its kills.
        for (what, pct) in [
            ("harness shrink", shrink_s.pct()),
            ("harness respawn", respawn_s.pct()),
        ] {
            if pct < 90.0 {
                broken.push(format!("{}: {what} {pct:.1}% < 90%", kind.name()));
            }
        }
        match kind {
            AppKind::Jacobi3d => {
                if app_s.pct() < 90.0 {
                    broken.push(format!(
                        "jacobi3d: app-side recovery {:.1}% < 90%",
                        app_s.pct()
                    ));
                }
            }
            _ => {
                if app_s.recovered != 0 {
                    broken.push(format!(
                        "{}: recovered {} kills by itself with no ulfm code",
                        kind.name(),
                        app_s.recovered
                    ));
                }
            }
        }
    }

    emit("ulfm_coverage.txt", &out);
    emit("ulfm_coverage.tsv", &tsv);
    emit("ulfm_coverage.jsonl", &jsonl);
    if !broken.is_empty() {
        for b in &broken {
            eprintln!("ulfm_coverage: CONTRACT BROKEN: {b}");
        }
        std::process::exit(1);
    }
}
