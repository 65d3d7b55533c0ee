//! Detection-coverage campaigns: the same fault, with and without the
//! guard.
//!
//! The paper's §6 verdict is that MPI-level error handlers catch almost
//! nothing that matters; its closing argument is that message-level
//! detection plus checkpoint/recovery would. This mode measures that
//! claim inside the lab: one row per region, each draw from the §4.3
//! space run **twice from the identical seed** — once bare, on the plain
//! campaign's own trial path, once under [`fl_guard::run_guarded`]. The
//! per-row [`crate::matrix::TransitionMatrix`] then shows exactly which
//! baseline manifestations (Crash, Hang, Incorrect, …) the guard
//! converted into `Recovered` or `DetectedByGuard`, and which slipped
//! through.
//!
//! Both runs consume the same RNG draw before any world exists, so the
//! comparison is paired at the trial level, not just distributional.

use crate::faultmodel::Draw;
use crate::matrix::{
    slug_header, tally_fields, Column, Isolate, Layout, MatrixMode, MatrixResult, Row, Runner, Slot,
};
use crate::outcome::Manifestation;
use crate::target::TargetClass;
use fl_guard::GuardPolicy;
use std::fmt::Write as _;

/// The guarded column (column 0 is the bare baseline).
const GUARDED: usize = 1;

/// The guard-coverage mode: a row per class, bare against guarded.
/// Baseline runs are the plain campaign's trials, planned and run as it
/// runs them — forked from epoch or round checkpoints (observably
/// identical, per the campaign invariant). Guarded runs fork from a
/// checkpoint of the guarded configuration's clean run, a fault-free
/// guarded pass, and resume with the rollback checkpoint and watchdog
/// that pass held there. A slot holds both runs of one draw.
pub fn mode(classes: &[TargetClass], policy: GuardPolicy) -> MatrixMode {
    let columns = vec![
        Column {
            name: "baseline",
            isolate: Isolate::Nothing,
            runner: Runner::Trial,
            covers: |_| false,
        },
        Column {
            name: "guarded",
            isolate: Isolate::Nothing,
            runner: Runner::Guarded(policy),
            covers: |m| matches!(m, Manifestation::Recovered | Manifestation::DetectedByGuard),
        },
    ];
    let row = |&class: &TargetClass| Row::new(Draw::Bit(class), columns.clone());
    MatrixMode {
        rows: classes.iter().map(row).collect(),
        slot: Slot::Row,
        budget_scale: 1,
        contracts: Vec::new(),
        layout: Layout {
            banner: format!(
                "guard: {} retransmits, {} restarts, checkpoint every {} rounds",
                policy.max_retransmits, policy.max_restarts, policy.checkpoint_rounds
            ),
            table,
            tsv,
            jsonl,
            column_key: "",
            column_noun: "",
            summary: &[],
            focus_note: |_, _, _| None,
        },
    }
}

/// Baseline error breakdown against guarded outcomes, one row per
/// class, plus the non-empty outcome transitions.
fn table(r: &MatrixResult, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{}", r.mode.layout.banner);
    let _ = writeln!(
        out,
        "{:<14} {:>6} | {:>8} {:>5} {:>4} {:>5} | {:>7} {:>5} {:>5} | {:>9}",
        "Region",
        "Trials",
        "BaseErr",
        "Crash",
        "Hang",
        "Incor",
        "Recov",
        "GDet",
        "Incor",
        "Cover(%)"
    );
    let _ = writeln!(out, "{}", "-".repeat(92));
    let (mut converted, mut errors) = (0, 0);
    for (ri, row) in r.mode.rows.iter().enumerate() {
        let (base, guarded) = (&r.cell(ri, 0).tally, &r.cell(ri, GUARDED).tally);
        let _ = writeln!(
            out,
            "{:<14} {:>6} | {:>8} {:>5} {:>4} {:>5} | {:>7} {:>5} {:>5} | {:>9.1}",
            row.label,
            base.executions,
            base.errors(),
            base.count(Manifestation::Crash),
            base.count(Manifestation::Hang),
            base.count(Manifestation::Incorrect),
            guarded.count(Manifestation::Recovered),
            guarded.count(Manifestation::DetectedByGuard),
            guarded.count(Manifestation::Incorrect),
            r.coverage_percent(ri, GUARDED),
        );
        converted += r.covered(ri, GUARDED);
        errors += base.errors();
    }
    let _ = writeln!(out, "{}", "-".repeat(92));
    let _ = writeln!(
        out,
        "overall: {converted} of {errors} baseline errors converted to Recovered/Guard Detected"
    );
    out.push('\n');
    let _ = writeln!(out, "Outcome transitions (baseline -> guarded):");
    for (ri, row) in r.mode.rows.iter().enumerate() {
        for (from, to, n) in r.transitions(ri, GUARDED).entries() {
            let _ = writeln!(out, "  {:<14} {from} -> {to}: {n}", row.label);
        }
    }
    out
}

/// One row per class with full baseline and guarded outcome counts.
fn tsv(r: &MatrixResult) -> String {
    let mut out = String::from("region\ttrials");
    slug_header(&mut out, "base_");
    slug_header(&mut out, "guard_");
    out.push_str("\tconverted\tcoverage_pct\n");
    for (ri, row) in r.mode.rows.iter().enumerate() {
        let base = &r.cell(ri, 0).tally;
        let _ = write!(out, "{}\t{}", row.label, base.executions);
        tally_fields(&mut out, base);
        tally_fields(&mut out, &r.cell(ri, GUARDED).tally);
        let _ = writeln!(
            out,
            "\t{}\t{:.2}",
            r.covered(ri, GUARDED),
            r.coverage_percent(ri, GUARDED)
        );
    }
    out
}

/// One object per draw, in campaign order, carrying the paired outcomes
/// and the guard's intervention counters.
fn jsonl(r: &MatrixResult) -> String {
    let mut out = String::new();
    for (ri, row) in r.mode.rows.iter().enumerate() {
        let pairs = r.cell(ri, 0).trials.iter().zip(&r.cell(ri, GUARDED).trials);
        for (k, (base, guarded)) in pairs.enumerate() {
            let [detections, restarts, retransmits] = guarded.aux;
            let _ = writeln!(
                out,
                "{{\"app\":\"{}\",\"class\":\"{}\",\"trial\":{k},\"detail\":\"{}\",\"baseline\":\"{}\",\"guarded\":\"{}\",\"detections\":{detections},\"restarts\":{restarts},\"retransmits\":{retransmits},\"converted\":{}}}",
                r.app.name(),
                row.draw.class().name(),
                base.detail,
                base.outcome.slug(),
                guarded.outcome.slug(),
                r.converted(ri, GUARDED, k),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::TrialContext;
    use crate::engine::{run_campaign_engine, EngineControl, NullSink};
    use crate::faultmodel::Duration;
    use crate::matrix::run_matrix;
    use crate::report::Report;
    use crate::CampaignConfig;
    use fl_apps::{App, AppKind, AppParams};

    fn coverage(
        classes: &[TargetClass],
        n: u32,
        seed: u64,
        policy: GuardPolicy,
        fastpath: bool,
    ) -> MatrixResult {
        let kind = AppKind::Wavetoy;
        let app = App::build(kind, AppParams::tiny(kind));
        let cfg = CampaignConfig {
            injections: n,
            seed,
            fastpath,
            ..Default::default()
        };
        let (sink, control) = (NullSink, EngineControl::new());
        run_matrix(&app, &mode(classes, policy), &cfg, &sink, &control, None)
            .expect("uncontrolled runs complete")
    }

    fn rollback_every_16() -> GuardPolicy {
        GuardPolicy {
            checkpoint_rounds: 16,
            ..GuardPolicy::default()
        }
    }

    #[test]
    fn message_faults_are_covered_by_the_crc_guard() {
        // The acceptance bar: on wavetoy message faults, a nonzero
        // fraction of baseline Crash/Hang/Incorrect must convert to
        // Detected/Recovered under the guard.
        let r = coverage(
            &[TargetClass::Message],
            24,
            0xC0FE,
            rollback_every_16(),
            true,
        );
        assert!(
            r.baseline_errors(0) > 0,
            "no baseline message fault manifested"
        );
        assert!(
            r.covered(0, GUARDED) > 0,
            "guard converted nothing: {:?}",
            r.transitions(0, GUARDED).entries()
        );
        assert!(r.coverage_percent(0, GUARDED) > 0.0);
        // And converted trials actually show guard work.
        let guarded = &r.cell(0, GUARDED).trials;
        assert!((0..guarded.len())
            .filter(|&k| r.converted(0, GUARDED, k))
            .all(|k| guarded[k].aux[0] > 0 || guarded[k].aux[2] > 0));
    }

    #[test]
    fn register_crashes_are_recovered_by_rollback() {
        let r = coverage(
            &[TargetClass::RegularReg],
            20,
            0xD1E,
            rollback_every_16(),
            true,
        );
        let t = r.transitions(0, GUARDED);
        let crash_to_recovered = t.count(Manifestation::Crash, Manifestation::Recovered);
        let crash_to_detected = t.count(Manifestation::Crash, Manifestation::DetectedByGuard);
        assert!(
            crash_to_recovered + crash_to_detected > 0,
            "no baseline crash was caught: {:?}",
            t.entries()
        );
    }

    #[test]
    fn guarded_trials_are_fastpath_invariant() {
        // Guard restarts roll the world back to a checkpoint and
        // re-execute — exactly the snapshot-restore boundary where a
        // stale TLB entry would diverge. Every paired outcome and every
        // intervention counter must match with the fast path off.
        let classes = [TargetClass::Message, TargetClass::RegularReg];
        let fast = coverage(&classes, 4, 0x60AD, rollback_every_16(), true);
        let slow = coverage(&classes, 4, 0x60AD, rollback_every_16(), false);
        for (ri, class) in classes.iter().enumerate() {
            for c in [0, GUARDED] {
                assert_eq!(
                    fast.cell(ri, c).trials,
                    slow.cell(ri, c).trials,
                    "{class:?} column {c} diverged"
                );
            }
        }
    }

    #[test]
    fn coverage_campaigns_are_reproducible() {
        let run = || coverage(&[TargetClass::Message], 8, 7, GuardPolicy::default(), true);
        let (a, b) = (run(), run());
        assert_eq!(a.cell(0, 0).trials, b.cell(0, 0).trials);
        assert_eq!(a.cell(0, GUARDED).trials, b.cell(0, GUARDED).trials);
    }

    #[test]
    fn baseline_half_matches_unguarded_campaign() {
        // The paired baseline must be the exact campaign the unguarded
        // path runs — same seeds, same draws, same outcomes, the same
        // instructions — at any worker count, on a plan that sweeps.
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let cfg = CampaignConfig {
            injections: 12,
            seed: 31,
            ..Default::default()
        };
        let classes = [TargetClass::Message, TargetClass::Stack];
        let ctx = TrialContext::build(app.clone(), &cfg);
        let plan = ctx.plan(&classes, &cfg, Duration::Transient, &|_, _| false);
        assert!(plan.iter().any(|p| p.swept), "the plan sweeps no interval");
        let control = EngineControl::new();
        let plain = run_campaign_engine(&app, &classes, &cfg, &NullSink, &control, None)
            .result
            .unwrap();
        let mode = mode(&classes, GuardPolicy::default());
        for threads in [1, 2] {
            let cfg = CampaignConfig { threads, ..cfg };
            let paired = run_matrix(&app, &mode, &cfg, &NullSink, &control, None).unwrap();
            let mut insns = 0;
            for (ci, class) in plain.classes.iter().enumerate() {
                let baseline = &paired.cell(ci, 0).trials;
                assert_eq!(class.trials.len(), baseline.len(), "{threads} workers");
                for (p, g) in class.trials.iter().zip(baseline) {
                    assert_eq!(p.detail, g.detail);
                    assert_eq!(p.outcome, g.outcome);
                    insns += g.insns;
                }
            }
            assert_eq!(insns, plain.insns_total, "{threads} workers");
        }
    }

    #[test]
    fn renderers_cover_every_class_row() {
        let r = coverage(
            &[TargetClass::Message, TargetClass::RegularReg],
            6,
            3,
            GuardPolicy::default(),
            true,
        );
        let table = r.table("coverage demo");
        assert!(table.contains("Message"));
        assert!(table.contains("Regular Reg."));
        assert!(table.contains("overall:"));
        let tsv = r.tsv();
        assert_eq!(tsv.lines().count(), 3);
        assert!(tsv.starts_with("region\ttrials\tbase_correct"));
        let jsonl = r.jsonl();
        assert_eq!(jsonl.lines().count(), 12);
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
