//! Process-failure recovery campaigns: rank kills under every fl-ft
//! discipline, and replica voting against message corruption.
//!
//! The guarded campaigns ([`crate::guarded`]) answer "does channel-level
//! detection catch the paper's faults?"; this mode asks the follow-up
//! the paper's §7 conclusion points at — what happens when the fault is
//! not a flipped bit but a *lost process*. Its matrix has two rows. The
//! kill row draws one kill ([`Draw::Kill`]) per trial and runs it four ways from
//! the same draw: bare (the victim strands its peers), detector-only
//! shrink recovery, buddy-checkpoint respawn recovery, and app-owned
//! fl-ulfm recovery. The replica row pairs each §3.3 message fault with
//! an N-replica voted run to measure how often a single corrupt replica
//! is outvoted and masked. Every column starts from its configuration's
//! clean run: shrink and app fork from its checkpoints, respawn resumes
//! with the buddy line that run held there, and the replica column
//! steps only armed replicas and reads the others off the recorded
//! clean run. Every view carries each column's recovery cost, the mean
//! guest instructions its runs retired; the respawn column also counts
//! the checkpoint lines it cut and the rounds its restores threw away.

use crate::faultmodel::Draw;
use crate::matrix::{
    slug_header, tally_fields, Column, Contract, Isolate, Layout, MatrixMode, MatrixResult, Row,
    Runner, Slot,
};
use crate::outcome::Manifestation;
use crate::target::TargetClass;
use fl_apps::AppKind;
use fl_ft::FtPolicy;
use std::fmt::Write as _;

/// The rank-kill row and its columns after the baseline.
const KILL: usize = 0;
const SHRINK: usize = 1;
const RESPAWN: usize = 2;
const APP: usize = 3;
/// The message-fault row and its voted column.
const REPLICA: usize = 1;
const REPLICATED: usize = 1;

/// The fault-tolerance mode of `app`: `injections` rank kills under every
/// recovery discipline and `injections` message faults under the replica
/// vote. A slot holds every run of one draw.
pub fn mode(policy: FtPolicy, app: AppKind) -> MatrixMode {
    let column = |name, isolate, runner, covers| Column {
        name,
        isolate,
        runner,
        covers,
        idle_is: None,
    };
    let recovered = |m| m == Manifestation::Recovered;
    let masked = |m| m == Manifestation::MaskedByReplica;
    let by_app = |m| m == Manifestation::RecoveredByApp;
    let rows = vec![
        Row::new(
            Draw::Kill { wedge: None },
            vec![
                // The strand: no detector, no app-visible failures —
                // jacobi3d's own configuration asks for ulfm, which
                // would let it recover out of the baseline column.
                column("baseline", Isolate::UlfmAndDetector, Runner::World, |_| {
                    false
                }),
                column(
                    "shrink",
                    Isolate::Nothing,
                    Runner::Shrink(policy),
                    recovered,
                ),
                column(
                    "respawn",
                    Isolate::Nothing,
                    Runner::Respawn(policy),
                    recovered,
                ),
                // Apps without fl-ulfm code do not recover here; that
                // asymmetry is the experiment.
                column("app", Isolate::Nothing, Runner::App(policy), by_app),
            ],
        ),
        Row {
            label: "message-fault",
            ..Row::new(
                Draw::Bit(TargetClass::Message),
                vec![
                    column("replica-baseline", Isolate::Nothing, Runner::World, |_| {
                        false
                    }),
                    // With no vote cast, the armed replica is the bare
                    // world run to its end.
                    Column {
                        idle_is: Some("replica-baseline"),
                        ..column(
                            "replicated",
                            Isolate::Nothing,
                            Runner::Replicated(policy),
                            masked,
                        )
                    },
                ],
            )
        },
    ];
    // Each discipline must cover at least 90 % of the draws whose
    // baseline run manifested an error; the app column only where the
    // app carries fl-ulfm code, and never elsewhere.
    let floor = |name, what, row: usize, column, counts| Contract {
        name,
        what,
        rows: row..row + 1,
        column,
        over: |m| m.is_error(),
        counts,
        floor_percent: 90.0,
    };
    let contracts = vec![
        floor(
            "shrink-recovers-rank-kills",
            "manifesting rank kills shrink recovery recovered",
            KILL,
            SHRINK,
            recovered,
        ),
        floor(
            "respawn-recovers-rank-kills",
            "manifesting rank kills buddy-checkpoint respawn recovered",
            KILL,
            RESPAWN,
            recovered,
        ),
        floor(
            "replicas-mask-message-faults",
            "manifesting message faults the replica vote masked",
            REPLICA,
            REPLICATED,
            masked,
        ),
        if app.owns_recovery() {
            floor(
                "app-recovers-rank-kills",
                "manifesting rank kills the application recovered by itself",
                KILL,
                APP,
                by_app,
            )
        } else {
            Contract {
                floor_percent: 100.0,
                ..floor(
                    "no-app-recovery-without-ulfm-code",
                    "manifesting rank kills an app without fl-ulfm code did not claim to recover",
                    KILL,
                    APP,
                    |m| m != Manifestation::RecoveredByApp,
                )
            }
        },
    ];
    MatrixMode {
        rows,
        slot: Slot::Row,
        budget_scale: 1,
        contracts,
        layout: Layout {
            banner: format!(
                "detector: probe every {} rounds, suspect after {}; buddy line every {} rounds; {} replicas",
                policy.detector.probe_rounds,
                policy.detector.suspect_rounds,
                policy.buddy_rounds,
                policy.replicas
            ),
            table,
            tsv,
            jsonl,
            column_key: "",
            column_noun: "",
            summary: &[],
            focus_note,
        },
    }
}

/// What the focus view says a recovery column achieved — and, for
/// respawn, what it cost in checkpoint lines and re-executed rounds.
fn focus_note(r: &MatrixResult, row: usize, column: usize) -> Option<String> {
    let what = match r.mode.rows[row].columns[column].name {
        "shrink" => "recovered by harness shrink",
        "respawn" => "recovered by harness respawn",
        "app" => "recovered by the application (fl-ulfm)",
        "replicated" => "masked by replica vote",
        _ => return None,
    };
    let mut note = format!("{what}: {:.1}%", r.coverage_percent(row, column));
    if column == RESPAWN && row == KILL {
        let total = |i: usize| -> u64 { r.cell(row, column).trials.iter().map(|t| t.aux[i]).sum() };
        let _ = write!(
            note,
            " ({} checkpoint lines, {} rounds re-executed)",
            total(1),
            total(2)
        );
    }
    Some(note)
}

/// Baseline vs recovery outcome counts for the kill trials, plus the
/// replication masking summary.
fn table(r: &MatrixResult, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{}", r.mode.layout.banner);
    let _ = writeln!(
        out,
        "{:<10} {:>6} | {:>8} {:>9} | {:>9} {:>10} {:>7}",
        "Trials", "Kills", "BaseErr", "RankLost", "Shrink(%)", "Respawn(%)", "App(%)"
    );
    let _ = writeln!(out, "{}", "-".repeat(70));
    let lost = |c| r.cell(KILL, c).tally.count(Manifestation::RankLost);
    let _ = writeln!(
        out,
        "{:<10} {:>6} | {:>8} {:>9} | {:>9.1} {:>10.1} {:>7.1}",
        "kill-rank",
        r.cell(KILL, 0).trials.len(),
        r.baseline_errors(KILL),
        lost(SHRINK) + lost(RESPAWN),
        r.coverage_percent(KILL, SHRINK),
        r.coverage_percent(KILL, RESPAWN),
        r.coverage_percent(KILL, APP),
    );
    let cost = |c| r.cell(KILL, c).mean_insns();
    let _ = writeln!(
        out,
        "{:<10} {:>6} | {:>8} {:>9} | {:>9} {:>10} {:>7}",
        "mean-insns",
        "",
        "",
        "",
        cost(SHRINK),
        cost(RESPAWN),
        cost(APP),
    );
    let _ = writeln!(out, "{}", "-".repeat(70));
    let _ = writeln!(
        out,
        "replication: {} message faults, {} baseline errors, {:.1}% masked by vote",
        r.cell(REPLICA, 0).trials.len(),
        r.baseline_errors(REPLICA),
        r.coverage_percent(REPLICA, REPLICATED),
    );
    out
}

/// One row per column with full outcome counts, coverage and cost.
fn tsv(r: &MatrixResult) -> String {
    let mut out = String::from("mode\ttrials");
    slug_header(&mut out, "");
    out.push_str("\trecovery_pct\tmean_insns\n");
    for (ri, row) in r.mode.rows.iter().enumerate() {
        for (ci, col) in row.columns.iter().enumerate() {
            let cell = r.cell(ri, ci);
            let _ = write!(out, "{}\t{}", col.name, cell.tally.executions);
            tally_fields(&mut out, &cell.tally);
            let pct = r.coverage_percent(ri, ci);
            let _ = writeln!(out, "\t{pct:.2}\t{}", cell.mean_insns());
        }
    }
    out
}

/// One object per draw (kill trials first, then replication trials),
/// carrying every paired outcome; a kill also carries the respawn
/// column's counters and each recovery column's retired instructions.
fn jsonl(r: &MatrixResult) -> String {
    let app = r.app.name();
    let mut out = String::new();
    for k in 0..r.cell(KILL, 0).trials.len() {
        let of = |c: usize| &r.cell(KILL, c).trials[k];
        let [respawns, checkpoints, lost_rounds] = of(RESPAWN).aux;
        let _ = writeln!(
            out,
            "{{\"app\":\"{app}\",\"kind\":\"kill\",\"trial\":{k},\"detail\":\"{}\",\"baseline\":\"{}\",\"shrink\":\"{}\",\"respawn\":\"{}\",\"respawns\":{respawns},\"checkpoints\":{checkpoints},\"lost_rounds\":{lost_rounds},\"app_mode\":\"{}\",\"app_shrinks\":{},\"shrink_recovered\":{},\"respawn_recovered\":{},\"app_recovered\":{},\"shrink_insns\":{},\"respawn_insns\":{},\"app_insns\":{}}}",
            of(0).detail,
            of(0).outcome.slug(),
            of(SHRINK).outcome.slug(),
            of(RESPAWN).outcome.slug(),
            of(APP).outcome.slug(),
            of(APP).aux[0],
            r.converted(KILL, SHRINK, k),
            r.converted(KILL, RESPAWN, k),
            r.converted(KILL, APP, k),
            of(SHRINK).insns,
            of(RESPAWN).insns,
            of(APP).insns,
        );
    }
    for k in 0..r.cell(REPLICA, 0).trials.len() {
        let of = |c: usize| &r.cell(REPLICA, c).trials[k];
        let _ = writeln!(
            out,
            "{{\"app\":\"{app}\",\"kind\":\"replica\",\"trial\":{k},\"detail\":\"{}\",\"baseline\":\"{}\",\"replicated\":\"{}\",\"votes\":{},\"masked\":{}}}",
            of(0).detail,
            of(0).outcome.slug(),
            of(REPLICATED).outcome.slug(),
            of(REPLICATED).aux[0],
            r.converted(REPLICA, REPLICATED, k),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_spec, EngineControl, NullSink, SpecOutcome};
    use crate::matrix::ContractCheck;
    use crate::report::Report;
    use crate::spec::{CampaignSpec, SpecMode};
    use fl_apps::AppKind;

    fn ft(kind: AppKind, n: u32, seed: u64) -> MatrixResult {
        let mut spec = CampaignSpec::new(kind);
        spec.tiny = true;
        spec.campaign.injections = n;
        spec.campaign.seed = seed;
        spec.mode = SpecMode::Ft(FtPolicy::default());
        match run_spec(&spec, &NullSink, &EngineControl::new(), None) {
            Some(SpecOutcome::Matrix(r)) => r,
            _ => panic!("an uncontrolled ft spec yields a matrix"),
        }
    }

    #[test]
    fn the_three_floors_are_contracts_and_a_starved_denominator_fails() {
        // Ten draws give every floor evidence. Seed 1's single message
        // fault is benign, so the replica floor has none and must not
        // pass on 0 of 0. The fourth floor judges the app column by the
        // app: one without fl-ulfm code must claim no kill, jacobi3d
        // must recover its own.
        let names = |r: &MatrixResult, pass: bool| -> Vec<&str> {
            let checks = r.contracts().into_iter();
            checks
                .filter(|c| c.passed() == pass)
                .map(|c| c.name)
                .collect()
        };
        let fed = ft(AppKind::Wavetoy, 10, 0xF8);
        assert_eq!(
            names(&fed, true),
            [
                "shrink-recovers-rank-kills",
                "respawn-recovers-rank-kills",
                "replicas-mask-message-faults",
                "no-app-recovery-without-ulfm-code"
            ]
        );
        let starved = ft(AppKind::Wavetoy, 1, 1);
        assert_eq!(starved.baseline_errors(REPLICA), 0);
        assert_eq!(names(&starved, false), ["replicas-mask-message-faults"]);
        let replica = &starved.contracts()[2];
        assert_eq!((replica.covered, replica.denom), (0, 0));
        // The table prints no contract lines: its bytes are pinned.
        assert!(!starved.table("t").contains("contract"));
        let jacobi = ft(AppKind::Jacobi3d, 6, 0xA1).contracts();
        assert_eq!(jacobi[3].name, "app-recovers-rank-kills");
        assert!(jacobi.iter().all(ContractCheck::passed), "{jacobi:?}");
        assert_eq!((jacobi[3].denom, jacobi[3].floor_percent), (6, 90.0));
    }

    #[test]
    fn respawn_counts_its_lines_and_bounds_the_lost_work() {
        // Every respawn-recovered kill cut at least one buddy line, and
        // each restore re-executed at least one round and at most
        // buddy_rounds + suspect_rounds: no line is cut once a rank is
        // down, so the line restored is at most buddy_rounds older than
        // the kill, and the fixed detector declares the victim at most
        // suspect_rounds after it was last heard.
        let policy = FtPolicy::default();
        let bound = policy.buddy_rounds + policy.detector.suspect_rounds;
        for kind in [AppKind::Wavetoy, AppKind::Climsim, AppKind::Jacobi3d] {
            let r = ft(kind, 8, 0x5EED);
            let trials = &r.cell(KILL, RESPAWN).trials;
            let recovered = trials
                .iter()
                .filter(|t| t.outcome == Manifestation::Recovered);
            assert_eq!(recovered.clone().count(), 8, "{kind:?}: {trials:?}");
            for t in recovered {
                let [respawns, checkpoints, lost_rounds] = t.aux;
                assert!(respawns >= 1 && checkpoints >= 1, "{kind:?}: {t:?}");
                assert!(lost_rounds >= respawns, "{kind:?}: {t:?}");
                assert!(lost_rounds <= respawns * bound, "{kind:?}: {t:?}");
            }
        }
    }

    #[test]
    fn the_cost_column_is_the_mean_of_each_draws_retired_insns() {
        // Each recovery column's run of each kill, repeated outside the
        // matrix, retires what the trial and the JSONL say; the table's
        // and the TSV's cost is the mean of those per-draw sums.
        use crate::campaign::{trial_budget, trial_seed, trial_world_config};
        use fl_ft::{ft_config, run_app, run_respawn, run_shrink, run_survivors, ulfm_config};
        use fl_mpi::{Launch, MpiWorld};
        let (n, seed) = (4, 0xC0);
        let r = ft(AppKind::Wavetoy, n, seed);
        let app = fl_apps::App::build(r.app, fl_apps::AppParams::tiny(r.app));
        let cfg = crate::campaign::CampaignConfig {
            injections: n,
            seed,
            ..Default::default()
        };
        let wcfg = trial_world_config(app.kind, &app.params, &cfg, trial_budget(&r.golden, &cfg));
        let launch = Launch::new(&app.image, wcfg.machine, None);
        let policy = FtPolicy::default();
        let world_insns =
            |w: &MpiWorld| -> u64 { (0..w.nranks()).map(|k| w.machine(k).counters.insns).sum() };
        let jsonl = r.jsonl();
        let tsv = r.tsv();
        let table = r.table("t");
        for (column, name) in [(SHRINK, "shrink"), (RESPAWN, "respawn"), (APP, "app")] {
            let mut sum = 0;
            for k in 0..n {
                let (faults, _) = Draw::Kill { wedge: None }.draw(
                    &r.golden,
                    None,
                    None,
                    trial_seed(seed, KILL, k),
                    app.params.nranks,
                );
                let armed = |cfg| {
                    let mut w = launch.world(cfg);
                    faults.into_iter().for_each(|f| w.arm(f));
                    w
                };
                let fcfg = ft_config(wcfg, &policy);
                let (w, _) = match column {
                    SHRINK => run_shrink(armed(fcfg), |r| run_survivors(&launch, fcfg, r)),
                    RESPAWN => run_respawn(armed(fcfg), &policy),
                    _ => run_app(armed(ulfm_config(wcfg, &policy))),
                };
                let insns = world_insns(&w);
                assert_eq!(r.cell(KILL, column).trials[k as usize].insns, insns);
                let line = jsonl.lines().nth(k as usize).unwrap();
                assert!(
                    line.contains(&format!("\"{name}_insns\":{insns}")),
                    "{line}"
                );
                sum += insns;
            }
            let mean = sum / u64::from(n);
            assert_eq!(r.cell(KILL, column).mean_insns(), mean, "{name}");
            let row = tsv.lines().find(|l| l.starts_with(&format!("{name}\t")));
            assert!(row.unwrap().ends_with(&format!("\t{mean}")), "{tsv}");
            assert!(table.contains(&format!(" {mean}")), "{table}");
        }
    }

    #[test]
    fn kills_always_manifest_and_recover() {
        let r = ft(AppKind::Wavetoy, 8, 0xF7);
        let kills = &r.cells[KILL];
        // A kill drawn inside the victim's lifetime always fires and,
        // without a detector, always strands the world.
        assert_eq!(r.baseline_errors(KILL), 8, "{kills:?}");
        assert!(
            r.coverage_percent(KILL, SHRINK) >= 90.0,
            "shrink: {kills:?}"
        );
        assert!(
            r.coverage_percent(KILL, RESPAWN) >= 90.0,
            "respawn: {kills:?}"
        );
    }

    #[test]
    fn replication_masks_manifesting_message_faults() {
        let r = ft(AppKind::Wavetoy, 10, 0xF8);
        let replicas = &r.cells[REPLICA];
        assert!(r.baseline_errors(REPLICA) > 0, "{replicas:?}");
        assert!(
            r.coverage_percent(REPLICA, REPLICATED) >= 90.0,
            "{replicas:?}"
        );
        // Masked trials actually voted someone out.
        assert!((0..10)
            .filter(|&k| r.converted(REPLICA, REPLICATED, k))
            .all(|k| replicas[REPLICATED].trials[k].aux[0] > 0));
    }

    #[test]
    fn jacobi3d_recovers_by_itself_in_app_mode() {
        // The fl-ulfm contract: the app that carries recovery code
        // survives the kill on its own; the paper's apps do not.
        let r = ft(AppKind::Jacobi3d, 6, 0xA1);
        assert_eq!(r.baseline_errors(KILL), 6, "{:?}", r.cells[KILL]);
        assert!(r.coverage_percent(KILL, APP) >= 90.0, "{:?}", r.cells[KILL]);
        let w = ft(AppKind::Wavetoy, 3, 0xA2);
        assert_eq!(w.coverage_percent(KILL, APP), 0.0, "{:?}", w.cells[KILL]);
    }

    #[test]
    fn ft_campaigns_are_reproducible() {
        let (a, b) = (ft(AppKind::Wavetoy, 4, 9), ft(AppKind::Wavetoy, 4, 9));
        for (x, y) in a.cells.iter().flatten().zip(b.cells.iter().flatten()) {
            assert_eq!(x.trials, y.trials);
        }
    }

    #[test]
    fn focus_renderer_covers_every_discipline() {
        let r = ft(AppKind::Wavetoy, 3, 13);
        let focus = |mode| {
            let (row, column) = r.find_column(mode).expect("a column per discipline");
            r.focus(row, Some(column))
        };
        for mode in ["baseline", "shrink", "respawn", "replicated", "app"] {
            let text = focus(mode);
            assert!(text.starts_with("wavetoy / mode "), "{text}");
            assert!(text.contains(mode), "{text}");
        }
        assert!(focus("shrink").contains("harness shrink"));
        assert!(focus("app").contains("fl-ulfm"));
        assert!(focus("replicated").contains("message-fault"));
    }

    #[test]
    fn renderers_cover_every_mode() {
        let r = ft(AppKind::Wavetoy, 4, 11);
        let table = r.table("ft demo");
        assert!(table.contains("kill-rank"));
        assert!(table.contains("replication:"));
        let tsv = r.tsv();
        assert_eq!(tsv.lines().count(), 7, "{tsv}");
        assert!(tsv.starts_with("mode\ttrials\tcorrect"));
        let jsonl = r.jsonl();
        assert_eq!(jsonl.lines().count(), 8);
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
