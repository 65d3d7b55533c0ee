//! Detection-coverage campaigns: the same fault, with and without the
//! guard.
//!
//! The paper's §6 verdict is that MPI-level error handlers catch almost
//! nothing that matters; its closing argument is that message-level
//! detection plus checkpoint/recovery would. This module measures that
//! claim inside the lab: every trial draws one fault from the §4.3
//! space, runs it **twice from the identical seed** — once bare, once
//! under [`fl_guard::run_guarded`] — and records the outcome pair. The
//! per-class [`TransitionMatrix`] then shows exactly which baseline
//! manifestations (Crash, Hang, Incorrect, …) the guard converted into
//! `Recovered` or `DetectedByGuard`, and which slipped through.
//!
//! Both runs consume the same RNG draw before any world exists
//! (`campaign::draw_fault`), so the comparison is paired at the
//! trial level, not just distributional.

use crate::campaign::{draw_fault, trial_seed, trial_world_config, CampaignConfig, TrialContext};
use crate::engine::{run_pool, EngineControl, EngineSink, NullSink};
use crate::outcome::Manifestation;
use crate::outcome::Tally;
use crate::progress::EngineProgress;
use crate::target::TargetClass;
use fl_apps::{App, AppKind, Golden};
use fl_guard::{run_guarded, GuardPolicy, GuardReport};
use fl_mpi::WorldExit;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// One paired trial: the identical fault, bare and guarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardedTrialRecord {
    /// Target class.
    pub class: TargetClass,
    /// Human-readable fault point (same draw in both runs).
    pub detail: String,
    /// Outcome of the unguarded run.
    pub baseline: Manifestation,
    /// Outcome of the guarded run.
    pub guarded: Manifestation,
    /// Failures the guard caught during the guarded run.
    pub detections: u32,
    /// Rollback-and-re-execute cycles the guarded run performed.
    pub restarts: u32,
    /// CRC-triggered redeliveries in the final guarded world.
    pub retransmits: u32,
}

impl GuardedTrialRecord {
    /// True when the guard turned a baseline error into a detection or a
    /// recovery — the coverage numerator.
    pub fn converted(&self) -> bool {
        self.baseline.is_error()
            && matches!(
                self.guarded,
                Manifestation::Recovered | Manifestation::DetectedByGuard
            )
    }
}

/// Baseline-outcome × guarded-outcome counts for one class, indexed as
/// [`Manifestation::ALL`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransitionMatrix {
    counts: [[u32; 12]; 12],
}

impl TransitionMatrix {
    fn idx(m: Manifestation) -> usize {
        Manifestation::ALL.iter().position(|&x| x == m).unwrap()
    }

    /// Record one paired outcome.
    pub fn record(&mut self, baseline: Manifestation, guarded: Manifestation) {
        self.counts[Self::idx(baseline)][Self::idx(guarded)] += 1;
    }

    /// Trials with this exact baseline → guarded pair.
    pub fn count(&self, baseline: Manifestation, guarded: Manifestation) -> u32 {
        self.counts[Self::idx(baseline)][Self::idx(guarded)]
    }

    /// Non-empty rows as `(baseline, guarded, count)` triples, in
    /// [`Manifestation::ALL`] order.
    pub fn entries(&self) -> Vec<(Manifestation, Manifestation, u32)> {
        let mut out = Vec::new();
        for (i, row) in self.counts.iter().enumerate() {
            for (j, &n) in row.iter().enumerate() {
                if n > 0 {
                    out.push((Manifestation::ALL[i], Manifestation::ALL[j], n));
                }
            }
        }
        out
    }
}

/// One class's paired results.
#[derive(Debug, Clone)]
pub struct CoverageClassResult {
    /// The injected class.
    pub class: TargetClass,
    /// Outcome counts of the unguarded runs.
    pub baseline: Tally,
    /// Outcome counts of the guarded runs.
    pub guarded: Tally,
    /// The full baseline → guarded outcome matrix.
    pub transitions: TransitionMatrix,
    /// Per-trial pairs, in trial order.
    pub trials: Vec<GuardedTrialRecord>,
}

impl CoverageClassResult {
    /// Baseline errors the guard converted to detection or recovery.
    pub fn converted(&self) -> u32 {
        self.trials.iter().filter(|t| t.converted()).count() as u32
    }

    /// Detection coverage: converted / baseline errors, in percent.
    pub fn coverage_percent(&self) -> f64 {
        let e = self.baseline.errors();
        if e == 0 {
            return 0.0;
        }
        100.0 * self.converted() as f64 / e as f64
    }
}

/// A full detection-coverage campaign for one application.
#[derive(Debug, Clone)]
pub struct CoverageResult {
    /// Which application.
    pub app: AppKind,
    /// The guard configuration every guarded run used.
    pub policy: GuardPolicy,
    /// One entry per requested class, in request order.
    pub classes: Vec<CoverageClassResult>,
    /// The fault-free reference run.
    pub golden: Golden,
}

impl CoverageResult {
    /// The result row for a class, if it was part of the campaign.
    pub fn class(&self, c: TargetClass) -> Option<&CoverageClassResult> {
        self.classes.iter().find(|r| r.class == c)
    }

    /// Baseline errors across all classes.
    pub fn baseline_errors(&self) -> u32 {
        self.classes.iter().map(|c| c.baseline.errors()).sum()
    }

    /// Converted trials across all classes.
    pub fn converted(&self) -> u32 {
        self.classes.iter().map(|c| c.converted()).sum()
    }
}

/// Machine-readable manifestation slug (JSONL field values) — now a
/// thin alias for [`Manifestation::slug`], kept for the module-local
/// call sites.
pub(crate) fn slug(m: Manifestation) -> &'static str {
    m.slug()
}

/// Run one fault under the guard and classify the pair-able outcome.
///
/// The fault is drawn from `trial_seed` exactly as the unguarded
/// [`TrialContext::run_trial`] draws it, then armed on a world running
/// under `policy`. Classification extends §5.1 with the guarded classes:
/// a clean finish with matching output is `Correct` if the guard never
/// intervened and `Recovered` if it did; a clean finish with wrong
/// output is still `Incorrect` (the guard cannot see silent data
/// corruption); any non-clean final exit — the restart budget ran out —
/// is `DetectedByGuard`.
pub(crate) fn run_guarded_trial(
    ctx: &TrialContext,
    class: TargetClass,
    trial_seed: u64,
    policy: &GuardPolicy,
) -> (Manifestation, GuardReport) {
    let app = ctx.app;
    let drawn = draw_fault(
        &ctx.golden,
        &ctx.dicts,
        class,
        trial_seed,
        app.params.nranks,
    );
    let mut cfg = trial_world_config(app, ctx.budget, 0, ctx.fastpath);
    cfg.seed = trial_seed; // vary moldyn's schedule per trial (§4.2.2)
    let (world, report) = run_guarded(&app.image, cfg, policy, |w| drawn.arm(w));
    let outcome = match &report.exit {
        WorldExit::Clean => {
            if app.comparable_output(&world) == ctx.golden.output {
                if report.intervened() {
                    Manifestation::Recovered
                } else {
                    Manifestation::Correct
                }
            } else {
                Manifestation::Incorrect
            }
        }
        _ => Manifestation::DetectedByGuard,
    };
    (outcome, report)
}

/// Coverage-campaign execution (the
/// [`crate::CampaignBuilder::run_coverage`] backend). Baseline runs may
/// fork from epoch checkpoints (observably identical, per the campaign
/// invariant); guarded runs always start cold — their checkpoints belong
/// to the guarded world itself.
pub(crate) fn run_coverage_impl(
    app: &App,
    classes: &[TargetClass],
    cfg: &CampaignConfig,
    policy: &GuardPolicy,
) -> CoverageResult {
    run_coverage_engine(app, classes, cfg, policy, &NullSink, &EngineControl::new())
        .expect("uncontrolled coverage runs always complete")
}

/// Coverage campaign on the shared engine pool: work stealing across
/// classes, pause/stop via `control`, progress through `sink`. Returns
/// `None` when stopped before every paired trial completed.
pub fn run_coverage_engine(
    app: &App,
    classes: &[TargetClass],
    cfg: &CampaignConfig,
    policy: &GuardPolicy,
    sink: &dyn EngineSink,
    control: &EngineControl,
) -> Option<CoverageResult> {
    // The baseline half never records events, whatever the spec says.
    let ctx = TrialContext::build(
        app,
        &CampaignConfig {
            obs_capacity: 0,
            ..*cfg
        },
    );

    let total = classes.len() as u64 * cfg.injections as u64;
    let done = AtomicU64::new(0);
    let started = std::time::Instant::now();
    let counts = vec![cfg.injections; classes.len()];
    let (slots, complete) = run_pool(&counts, cfg.threads, control, |ci, k| {
        let class = classes[ci];
        let seed = trial_seed(cfg.seed, ci, k);
        let base = ctx.run_trial(class, seed).record;
        let (guarded, report) = run_guarded_trial(&ctx, class, seed, policy);
        let d = done.fetch_add(1, Ordering::Relaxed) + 1;
        sink.progress(EngineProgress {
            total,
            done: d,
            resumed: 0,
            wall_nanos: started.elapsed().as_nanos() as u64,
        });
        GuardedTrialRecord {
            class,
            detail: base.detail,
            baseline: base.outcome,
            guarded,
            detections: report.detections,
            restarts: report.restarts,
            retransmits: report.retransmits,
        }
    });
    if !complete {
        return None;
    }

    let mut results = Vec::new();
    for (ci, class_slots) in slots.into_iter().enumerate() {
        let trials: Vec<GuardedTrialRecord> = class_slots
            .into_iter()
            .map(|r| r.expect("every trial slot filled"))
            .collect();
        let mut baseline = Tally::default();
        let mut guarded = Tally::default();
        let mut transitions = TransitionMatrix::default();
        for t in &trials {
            baseline.record(t.baseline);
            guarded.record(t.guarded);
            transitions.record(t.baseline, t.guarded);
        }
        results.push(CoverageClassResult {
            class: classes[ci],
            baseline,
            guarded,
            transitions,
            trials,
        });
    }
    Some(CoverageResult {
        app: app.kind,
        policy: *policy,
        classes: results,
        golden: ctx.golden,
    })
}

/// Render a coverage campaign as a text table: baseline error breakdown
/// against guarded outcomes, one row per class, plus the non-empty
/// outcome transitions.
pub fn render_coverage(r: &CoverageResult, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "guard: {} retransmits, {} restarts, checkpoint every {} rounds",
        r.policy.max_retransmits, r.policy.max_restarts, r.policy.checkpoint_rounds
    );
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
    for c in &r.classes {
        let _ = writeln!(
            out,
            "{:<14} {:>6} | {:>8} {:>5} {:>4} {:>5} | {:>7} {:>5} {:>5} | {:>9.1}",
            c.class.label(),
            c.baseline.executions,
            c.baseline.errors(),
            c.baseline.count(Manifestation::Crash),
            c.baseline.count(Manifestation::Hang),
            c.baseline.count(Manifestation::Incorrect),
            c.guarded.count(Manifestation::Recovered),
            c.guarded.count(Manifestation::DetectedByGuard),
            c.guarded.count(Manifestation::Incorrect),
            c.coverage_percent(),
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(92));
    let _ = writeln!(
        out,
        "overall: {} of {} baseline errors converted to Recovered/Guard Detected",
        r.converted(),
        r.baseline_errors()
    );
    out.push('\n');
    let _ = writeln!(out, "Outcome transitions (baseline -> guarded):");
    for c in &r.classes {
        for (from, to, n) in c.transitions.entries() {
            let _ = writeln!(out, "  {:<14} {from} -> {to}: {n}", c.class.label());
        }
    }
    out
}

/// Render a coverage campaign as TSV: one row per class with full
/// baseline and guarded outcome counts.
pub fn render_coverage_tsv(r: &CoverageResult) -> String {
    let mut out = String::from("region\ttrials");
    for m in Manifestation::ALL {
        let _ = write!(out, "\tbase_{}", slug(m));
    }
    for m in Manifestation::ALL {
        let _ = write!(out, "\tguard_{}", slug(m));
    }
    out.push_str("\tconverted\tcoverage_pct\n");
    for c in &r.classes {
        let _ = write!(out, "{}\t{}", c.class.label(), c.baseline.executions);
        for m in Manifestation::ALL {
            let _ = write!(out, "\t{}", c.baseline.count(m));
        }
        for m in Manifestation::ALL {
            let _ = write!(out, "\t{}", c.guarded.count(m));
        }
        let _ = writeln!(out, "\t{}\t{:.2}", c.converted(), c.coverage_percent());
    }
    out
}

/// Serialize a coverage campaign as JSONL: one object per trial, in
/// campaign order, carrying the paired outcomes and the guard's
/// intervention counters.
pub fn coverage_jsonl(r: &CoverageResult) -> String {
    let mut out = String::new();
    for c in &r.classes {
        for (k, t) in c.trials.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"app\":\"{}\",\"class\":\"{}\",\"trial\":{k},\"detail\":\"{}\",\"baseline\":\"{}\",\"guarded\":\"{}\",\"detections\":{},\"restarts\":{},\"retransmits\":{},\"converted\":{}}}",
                r.app.name(),
                c.class.name(),
                t.detail,
                slug(t.baseline),
                slug(t.guarded),
                t.detections,
                t.restarts,
                t.retransmits,
                t.converted(),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_apps::AppParams;

    fn coverage(
        kind: AppKind,
        classes: &[TargetClass],
        n: u32,
        seed: u64,
        policy: &GuardPolicy,
    ) -> CoverageResult {
        let app = App::build(kind, AppParams::tiny(kind));
        run_coverage_impl(
            &app,
            classes,
            &CampaignConfig {
                injections: n,
                seed,
                ..Default::default()
            },
            policy,
        )
    }

    #[test]
    fn message_faults_are_covered_by_the_crc_guard() {
        // The acceptance bar: on wavetoy message faults, a nonzero
        // fraction of baseline Crash/Hang/Incorrect must convert to
        // Detected/Recovered under the guard.
        let policy = GuardPolicy {
            checkpoint_rounds: 16,
            ..GuardPolicy::default()
        };
        let r = coverage(
            AppKind::Wavetoy,
            &[TargetClass::Message],
            24,
            0xC0FE,
            &policy,
        );
        let c = &r.classes[0];
        assert!(
            c.baseline.errors() > 0,
            "no baseline message fault manifested"
        );
        assert!(
            c.converted() > 0,
            "guard converted nothing: {:?}",
            c.transitions.entries()
        );
        assert!(c.coverage_percent() > 0.0);
        // And converted trials actually show guard work.
        assert!(c
            .trials
            .iter()
            .filter(|t| t.converted())
            .all(|t| t.detections > 0 || t.retransmits > 0));
    }

    #[test]
    fn register_crashes_are_recovered_by_rollback() {
        let policy = GuardPolicy {
            checkpoint_rounds: 16,
            ..GuardPolicy::default()
        };
        let r = coverage(
            AppKind::Wavetoy,
            &[TargetClass::RegularReg],
            20,
            0xD1E,
            &policy,
        );
        let c = &r.classes[0];
        let crash_to_recovered = c
            .transitions
            .count(Manifestation::Crash, Manifestation::Recovered);
        let crash_to_detected = c
            .transitions
            .count(Manifestation::Crash, Manifestation::DetectedByGuard);
        assert!(
            crash_to_recovered + crash_to_detected > 0,
            "no baseline crash was caught: {:?}",
            c.transitions.entries()
        );
    }

    #[test]
    fn guarded_trials_are_fastpath_invariant() {
        // Guard restarts roll the world back to a checkpoint and
        // re-execute — exactly the snapshot-restore boundary where a
        // stale TLB entry would diverge. Every paired outcome and every
        // intervention counter must match with the fast path off.
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let ctx_with = |fastpath| {
            TrialContext::build(
                &app,
                &CampaignConfig {
                    fastpath,
                    ..Default::default()
                },
            )
        };
        let (fast_ctx, slow_ctx) = (ctx_with(true), ctx_with(false));
        let policy = GuardPolicy {
            checkpoint_rounds: 16,
            ..GuardPolicy::default()
        };
        for class in [TargetClass::Message, TargetClass::RegularReg] {
            for k in 0..4 {
                let seed = trial_seed(0x60AD, 0, k);
                let (fast, fr) = run_guarded_trial(&fast_ctx, class, seed, &policy);
                let (slow, sr) = run_guarded_trial(&slow_ctx, class, seed, &policy);
                assert_eq!(fast, slow, "{class:?} trial {k}: outcome diverged");
                assert_eq!(
                    (fr.detections, fr.restarts, fr.retransmits, fr.exit),
                    (sr.detections, sr.restarts, sr.retransmits, sr.exit),
                    "{class:?} trial {k}: guard report diverged"
                );
            }
        }
    }

    #[test]
    fn coverage_campaigns_are_reproducible() {
        let policy = GuardPolicy::default();
        let a = coverage(AppKind::Wavetoy, &[TargetClass::Message], 8, 7, &policy);
        let b = coverage(AppKind::Wavetoy, &[TargetClass::Message], 8, 7, &policy);
        assert_eq!(a.classes[0].trials, b.classes[0].trials);
    }

    #[test]
    fn baseline_half_matches_unguarded_campaign() {
        // The paired baseline must be the exact campaign the unguarded
        // path runs: same seeds, same draws, same outcomes.
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let cfg = CampaignConfig {
            injections: 8,
            seed: 31,
            ..Default::default()
        };
        let plain = crate::campaign::run_campaign_impl(&app, &[TargetClass::Message], &cfg);
        let paired =
            run_coverage_impl(&app, &[TargetClass::Message], &cfg, &GuardPolicy::default());
        for (p, g) in plain.classes[0]
            .trials
            .iter()
            .zip(&paired.classes[0].trials)
        {
            assert_eq!(p.detail, g.detail);
            assert_eq!(p.outcome, g.baseline);
        }
    }

    #[test]
    fn renderers_cover_every_class_row() {
        let r = coverage(
            AppKind::Wavetoy,
            &[TargetClass::Message, TargetClass::RegularReg],
            6,
            3,
            &GuardPolicy::default(),
        );
        let table = render_coverage(&r, "coverage demo");
        assert!(table.contains("Message"));
        assert!(table.contains("Regular Reg."));
        assert!(table.contains("overall:"));
        let tsv = render_coverage_tsv(&r);
        assert_eq!(tsv.lines().count(), 3);
        assert!(tsv.starts_with("region\ttrials\tbase_correct"));
        let jsonl = coverage_jsonl(&r);
        assert_eq!(jsonl.lines().count(), 12);
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
