//! Convergence-aware termination changes no record byte.
//!
//! A forked trial may end at the first epoch boundary where it is
//! provably the golden run again — or, in an interval the campaign swept,
//! at the first round checkpoint between two epochs. The claim under
//! test is the strongest one available: across apps, class subsets,
//! seeds, epoch cadences, worker counts, execution tiers and choices of
//! swept intervals (those two trials share, every one, none), the
//! campaign's record lines (`insns` included), tallies and `insns_total`
//! equal those of the same campaign with every trial run to its own end
//! — also when the campaign is killed at an arbitrary slot and resumed
//! from its record file.

use fl_apps::{App, AppKind, AppParams};
use fl_inject::engine::run_campaign_engine_sweeping;
use fl_inject::{
    run_campaign_engine, run_campaign_engine_to_completion, sort_records_jsonl, CampaignConfig,
    CampaignResult, CompletedSlots, ConvergeStats, EngineControl, EngineRun, EngineSink,
    TargetClass, VecSink,
};
use proptest::prelude::*;
use std::sync::OnceLock;

const INJECTIONS: u32 = 4;

fn app(kind: AppKind) -> &'static App {
    static APPS: OnceLock<Vec<App>> = OnceLock::new();
    let apps = APPS.get_or_init(|| {
        let kinds = AppKind::ALL.iter();
        kinds.map(|&k| App::build(k, AppParams::tiny(k))).collect()
    });
    apps.iter().find(|a| a.kind == kind).unwrap()
}

/// Classes picked by the low eight bits of `mask` (never empty).
fn classes(mask: u8) -> Vec<TargetClass> {
    let picked: Vec<TargetClass> = (0..8)
        .filter(|i| mask >> i & 1 == 1)
        .map(|i| TargetClass::ALL[i])
        .collect();
    if picked.is_empty() {
        vec![TargetClass::Bss]
    } else {
        picked
    }
}

type Engine = fn(
    &App,
    &[TargetClass],
    &CampaignConfig,
    &dyn EngineSink,
    &EngineControl,
    Option<CompletedSlots>,
) -> EngineRun;

fn sweep_always(
    app: &App,
    classes: &[TargetClass],
    cfg: &CampaignConfig,
    sink: &dyn EngineSink,
    control: &EngineControl,
    resume: Option<CompletedSlots>,
) -> EngineRun {
    run_campaign_engine_sweeping(true, app, classes, cfg, sink, control, resume)
}

fn sweep_never(
    app: &App,
    classes: &[TargetClass],
    cfg: &CampaignConfig,
    sink: &dyn EngineSink,
    control: &EngineControl,
    resume: Option<CompletedSlots>,
) -> EngineRun {
    run_campaign_engine_sweeping(false, app, classes, cfg, sink, control, resume)
}

/// The engines that end trials early: sweeping the intervals at least
/// two executing trials fork in (the campaign's own rule), every one,
/// none.
const ENDING: [(&str, Engine); 3] = [
    ("shared", run_campaign_engine),
    ("always", sweep_always),
    ("never", sweep_never),
];

/// Completion-order record lines and the assembled result.
fn run(
    engine: Engine,
    app: &App,
    classes: &[TargetClass],
    cfg: &CampaignConfig,
    resume: Option<CompletedSlots>,
) -> (Vec<String>, CampaignResult) {
    let sink = VecSink::new(app.kind);
    let result = engine(app, classes, cfg, &sink, &EngineControl::new(), resume)
        .result
        .expect("uncontrolled runs complete");
    (sink.into_lines(), result)
}

fn canonical(lines: &[String]) -> String {
    sort_records_jsonl(&(lines.join("\n") + "\n"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    #[test]
    fn terminated_campaigns_equal_full_execution(
        app_idx in 0usize..4,
        mask in any::<u8>(),
        seed in any::<u64>(),
        cadence in 0usize..4,
        threads in prop_oneof![Just(1usize), Just(4usize)],
        fastpath in any::<bool>(),
        cut in 0usize..32,
        sweeps in 0usize..3,
    ) {
        let app = app(AppKind::ALL[app_idx]);
        let (sweeps, engine) = ENDING[sweeps];
        let classes = classes(mask);
        let cfg = CampaignConfig {
            injections: INJECTIONS,
            seed,
            threads,
            epoch_rounds: [1, 4, 16, 64][cadence],
            fastpath,
            ..Default::default()
        };
        let what = format!("{} {:?} {:?} sweeping {}", app.kind, classes, cfg, sweeps);

        let (full_lines, full) =
            run(run_campaign_engine_to_completion, app, &classes, &cfg, None);
        prop_assert_eq!(full.converge, ConvergeStats::default(), "reference ran on: {}", &what);
        let (lines, ended) = run(engine, app, &classes, &cfg, None);

        prop_assert_eq!(canonical(&lines), canonical(&full_lines), "records: {}", &what);
        prop_assert_eq!(ended.insns_total, full.insns_total, "insns_total: {}", &what);
        for (a, b) in ended.classes.iter().zip(&full.classes) {
            prop_assert_eq!(&a.trials, &b.trials, "{}: {}", a.class, &what);
            prop_assert_eq!(&a.tally, &b.tally, "{}: {}", a.class, &what);
        }
        // Kill after `cut` completed trials, resume from the record file.
        let cut = cut % (lines.len() + 1);
        let file = lines[..cut].join("\n");
        let (slots, skipped) = CompletedSlots::from_jsonl(&file, &classes, INJECTIONS);
        prop_assert_eq!((slots.len(), skipped), (cut, 0));
        let (fresh, resumed) = run(engine, app, &classes, &cfg, Some(slots));
        let mut all = lines[..cut].to_vec();
        all.extend(fresh);
        prop_assert_eq!(canonical(&all), canonical(&full_lines), "resume at {}: {}", cut, &what);
        prop_assert_eq!(resumed.insns_total, full.insns_total);
        for (a, b) in resumed.classes.iter().zip(&full.classes) {
            prop_assert_eq!(&a.tally, &b.tally);
        }
    }
}

/// The property must not hold vacuously: on every app — the
/// nondeterministic one included — most benign trials do end early, at
/// every cadence.
#[test]
fn termination_actually_happens() {
    for kind in AppKind::ALL {
        for epoch_rounds in [1, 4, 16, 64] {
            let cfg = CampaignConfig {
                injections: 6,
                seed: 0x7E57,
                threads: 2,
                epoch_rounds,
                ..Default::default()
            };
            let classes = [TargetClass::Bss, TargetClass::Heap, TargetClass::Text];
            let (_, r) = run(run_campaign_engine, app(kind), &classes, &cfg, None);
            let correct: u32 = r
                .classes
                .iter()
                .map(|c| c.tally.count(fl_inject::Manifestation::Correct))
                .sum();
            // A coarse cadence can outlast a tiny app's tail; a fine one
            // must catch nearly every benign trial.
            let floor = if epoch_rounds <= 16 {
                correct as u64 / 2
            } else {
                1
            };
            let ended = r.converge.trials_converged + r.converge.decided_at_draw;
            assert!(
                ended >= floor,
                "{kind} every {epoch_rounds}: {:?} of {correct} correct",
                r.converge
            );
            assert!(ended <= correct as u64);
        }
    }
}

/// Nor may the sweep plane: trials do fork from round checkpoints and do
/// end between epochs — on every app, at every cadence with rounds
/// between its epochs — when every interval is swept, and a sweep ends
/// no fewer trials early.
#[test]
fn sweeps_actually_fork_and_end_between_epochs() {
    for kind in AppKind::ALL {
        for epoch_rounds in [4, 16, 64] {
            let cfg = CampaignConfig {
                injections: 6,
                seed: 0x5EE9,
                threads: 2,
                epoch_rounds,
                ..Default::default()
            };
            let classes = [TargetClass::Stack, TargetClass::Heap, TargetClass::Data];
            let (_, swept) = run(sweep_always, app(kind), &classes, &cfg, None);
            let (_, plain) = run(sweep_never, app(kind), &classes, &cfg, None);
            let (s, p) = (swept.converge, plain.converge);
            let what = format!("{kind} every {epoch_rounds}: {s:?}");
            assert!(s.forked_at_round > 0, "{what}");
            assert!(s.ended_between_epochs > 0, "{what}");
            assert_eq!(p.forked_at_round + p.ended_between_epochs, 0, "{what}");
            let early = |c: ConvergeStats| c.trials_converged + c.decided_at_draw;
            assert!(early(s) >= early(p), "{what}");
        }
    }
}
