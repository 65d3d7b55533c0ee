//! Performance-interference campaigns with degradation-aware detection
//! (fl-perturb).
//!
//! Every fault family so far corrupts *state*: bits, messages, whole
//! processes. This module injects faults that corrupt *timing* only —
//! a multiplicative tax on one rank's scheduling quantum
//! ([`Draw::QuantumTax`]), a co-scheduled hog stealing a share of
//! a node group's quanta ([`Draw::HogRank`]), and a per-access
//! latency surcharge on retired loads and stores
//! ([`Draw::MemStall`]). All three draw on the deterministic
//! block/instruction clocks, never wall time, so perturb campaigns keep
//! the byte-identity guarantees of every other campaign flavour.
//!
//! Interference breaks fixed-threshold liveness detection: a taxed rank
//! is silent for long stretches but *alive*, and a fixed heartbeat
//! deadline declares it dead — a false positive whose spurious recovery
//! costs more than the slowdown it "cured". The matrix this module
//! produces measures exactly that: every interference model (plus the
//! two true process failures, kill and wedge, as the detection
//! denominator) runs under three detection columns — none, the fixed
//! threshold, and an *accrual* detector whose deadline is calibrated
//! from each rank's observed worst recovered silence. The contracts at
//! the bottom are the point: the accrual column must show **zero**
//! false positives on pure interference while still detecting ≥90% of
//! real kills and wedges.
//!
//! The slot space is `models × detections × injections`: a slot is one
//! cell's trial, streamed as one canonical record whose detail ends in
//! the measured slowdown. Trial `(mi, di, k)` draws from
//! `trial_seed(seed, mi, k)` — the model index only — so all three
//! detection columns face the byte-identical interference draw.

use crate::engine::Aux;
use crate::faultmodel::Draw;
use crate::matrix::{
    cell_jsonl, cell_tsv, contract_lines, Column, Contract, Isolate, Layout, MatrixMode,
    MatrixResult, Row, Runner, Slot, Summary,
};
use crate::obs::ClassMetrics;
use crate::outcome::{classify, Manifestation};
use fl_mpi::{FailureDetector, WorldExit};
use std::fmt::Write as _;

/// One column of the interference matrix: what stands between a slow
/// rank and a spurious failure verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detection {
    /// No liveness detection: interference shows its bare cost and true
    /// failures become deadline misses (hangs).
    None,
    /// The fixed-threshold heartbeat detector: silence matures into a
    /// failure verdict after a static number of rounds.
    Fixed,
    /// The accrual detector: the deadline is calibrated per rank from
    /// the longest silence it ever *recovered* from, with a floor of 8x
    /// the fixed threshold.
    Accrual,
}

impl Detection {
    /// Every column, matrix order.
    pub const ALL: [Detection; 3] = [Detection::None, Detection::Fixed, Detection::Accrual];

    /// The column's machine-readable name, as every view prints it.
    pub fn name(self) -> &'static str {
        match self {
            Detection::None => "none",
            Detection::Fixed => "fixed",
            Detection::Accrual => "accrual",
        }
    }
}

/// Knobs of a perturb campaign: detector cadence plus the draw ranges
/// of the three interference models. All integers — the policy rides
/// the canonical spec JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerturbPolicy {
    /// Heartbeat probe cadence for the detection columns, in rounds.
    pub probe_rounds: u64,
    /// Fixed suspicion deadline, in rounds (the accrual column floors
    /// at 8x this).
    pub suspect_rounds: u64,
    /// Interference window draw range, in scheduler rounds (inclusive;
    /// shared by the tax and hog models).
    pub tax_rounds: (u64, u64),
    /// Quantum-tax severity draw range, in permille of the victim's
    /// quantum (995 = the rank runs one round in 200).
    pub tax_permille: (u32, u32),
    /// Hog share draw range, in permille of each hogged rank's quantum.
    pub hog_share_permille: (u32, u32),
    /// Ranks per "node" for the hog model (the hog steals from a whole
    /// co-scheduled group).
    pub hog_node_ranks: u16,
    /// Memory-stall surcharge draw range, in retired-insn units charged
    /// per load/store (inclusive).
    pub stall_per_access: (u64, u64),
    /// Memory-stall window draw range, in sixteenths of the victim's
    /// golden instruction count (inclusive).
    pub stall_window_per16: (u64, u64),
    /// Slowdown threshold separating [`Manifestation::Correct`] from
    /// [`Manifestation::Degraded`], in permille of the clean reference
    /// round count (1050 = 5% slower).
    pub degraded_permille: u64,
}

impl Default for PerturbPolicy {
    fn default() -> PerturbPolicy {
        PerturbPolicy {
            probe_rounds: 8,
            suspect_rounds: 32,
            tax_rounds: (256, 1024),
            tax_permille: (900, 995),
            hog_share_permille: (300, 900),
            hog_node_ranks: 2,
            stall_per_access: (1, 6),
            stall_window_per16: (2, 8),
            degraded_permille: 1050,
        }
    }
}

impl Detection {
    /// The detector as a matrix column. Each column isolates exactly one
    /// detector: app-visible ULFM recovery would absorb failure verdicts
    /// and hide both the detections and the false positives this matrix
    /// measures.
    fn column(self, policy: &PerturbPolicy) -> Column {
        Column {
            name: self.name(),
            isolate: Isolate::Ulfm,
            runner: Runner::Paced {
                detector: FailureDetector {
                    enabled: self != Detection::None,
                    probe_rounds: policy.probe_rounds,
                    suspect_rounds: policy.suspect_rounds,
                    accrual: self == Detection::Accrual,
                },
                degraded_permille: policy.degraded_permille,
            },
            covers: is_verdict,
        }
    }
}

/// Did the column end the trial with a failure verdict — a detection on
/// the process rows, a false positive on the interference rows?
fn is_verdict(m: Manifestation) -> bool {
    m == Manifestation::RankLost
}

/// The measured slowdown as the tail of a record detail.
fn write_permille(aux: &Aux) -> String {
    format!(" [{}\u{2030} of clean]", aux[0])
}

/// Read the measured slowdown back out of a record's detail tail — the
/// one number that must survive the record stream so resumed campaigns
/// aggregate identically to uninterrupted ones.
fn read_permille(detail: &str) -> Option<Aux> {
    let (_, tail) = detail.rsplit_once('[')?;
    let permille = tail.strip_suffix("\u{2030} of clean]")?.parse().ok()?;
    Some([permille, 0, 0])
}

/// A cell's degradation aggregates.
fn degradation(r: &MatrixResult, row: usize, column: usize) -> ClassMetrics {
    r.cell(row, column).metrics(r.mode.rows[row].draw.class())
}

/// The per-cell values of the perturb TSV and JSONL.
const SUMMARY: &[Summary] = &[
    ("verdicts", |r, row, c| {
        r.cell(row, c)
            .tally
            .count(Manifestation::RankLost)
            .to_string()
    }),
    ("deadline_misses", |r, row, c| {
        degradation(r, row, c).deadline_misses.to_string()
    }),
    ("slowdown_mean_permille", |r, row, c| {
        let m = degradation(r, row, c);
        let mean = m
            .slowdown_permille_sum
            .checked_div(m.slowdown_trials.into());
        mean.unwrap_or(0).to_string()
    }),
];

/// The perturb mode: the three interference models, then the two true
/// process failures as the detection denominator, against every
/// [`Detection`] column, `injections` draws per row, one cell's trial
/// per slot. Interference inflates rounds — and the mem-stall surcharge
/// inflates retired-insn accounting — without adding real work, so every
/// trial gets double the ordinary hang budget: a slow-but-correct run
/// never masquerades as non-termination.
pub fn mode(policy: PerturbPolicy) -> MatrixMode {
    let interference = [
        Draw::QuantumTax {
            rounds: policy.tax_rounds,
            permille: policy.tax_permille,
        },
        Draw::HogRank {
            node_ranks: policy.hog_node_ranks,
            rounds: policy.tax_rounds,
            share_permille: policy.hog_share_permille,
        },
        Draw::MemStall {
            per_access: policy.stall_per_access,
            window_per16: policy.stall_window_per16,
        },
    ];
    let failures = [false, true].map(|wedge| Draw::Kill { wedge: Some(wedge) });
    let columns: Vec<Column> = Detection::ALL.iter().map(|d| d.column(&policy)).collect();
    let rows: Vec<Row> = (interference.iter().chain(&failures))
        .map(|&d| Row::new(d, columns.clone()))
        .collect();
    let interference = interference.len();
    let column = |d| Detection::ALL.iter().position(|&x| x == d).expect("listed");
    // Detection coverage: over the kill and wedge rows, each real
    // detector must convert >=90% of trials into an explicit failure
    // verdict instead of a silent deadline miss.
    let detects = |name, detection| Contract {
        name,
        what: "kill/wedge trials the detector converted into a failure verdict",
        rows: interference..rows.len(),
        column: column(detection),
        over: |_| true,
        counts: is_verdict,
        floor_percent: 90.0,
    };
    let contracts = vec![
        // Zero false positives: over ALL pure-interference trials under
        // the accrual detector, none may end in a failure verdict. The
        // floor is 100% — a single spurious recovery breaks the contract.
        Contract {
            name: "accrual-zero-false-positives",
            what: "pure-interference trials the accrual detector left alone",
            rows: 0..interference,
            column: column(Detection::Accrual),
            over: |_| true,
            counts: |m| !is_verdict(m),
            floor_percent: 100.0,
        },
        detects("fixed-detects-process-failures", Detection::Fixed),
        detects("accrual-detects-process-failures", Detection::Accrual),
    ];
    MatrixMode {
        rows,
        slot: Slot::Cell {
            write_aux: write_permille,
            read_aux: read_permille,
        },
        budget_scale: 2,
        contracts,
        layout: Layout {
            banner: "verdicts = trials ended by a failure verdict (false positives on \
                     interference rows, detections on kill/wedge rows); x = mean slowdown"
                .into(),
            table,
            tsv: cell_tsv,
            jsonl: cell_jsonl,
            column_key: "detection",
            column_noun: "detection column",
            summary: SUMMARY,
            focus_note: |r, row, c| {
                let m = degradation(r, row, c);
                (m.slowdown_trials > 0)
                    .then(|| format!("[mean slowdown x{:.2}]", m.mean_slowdown_x()))
            },
        },
    }
}

/// The detector-comparison matrix: per model, each detection column's
/// failure verdicts and mean slowdown, then the contract floors.
fn table(r: &MatrixResult, title: &str) -> String {
    let detections = &r.mode.rows[0].columns;
    let rule = "-".repeat(22 + 20 * detections.len());
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{}", r.mode.layout.banner);
    let _ = write!(out, "{:<13} {:>6} |", "model", "trials");
    for d in detections {
        let _ = write!(out, " {:>19}", d.name);
    }
    let _ = writeln!(out, "\n{rule}");
    for (mi, row) in r.mode.rows.iter().enumerate() {
        let trials = r.cell(mi, 0).tally.executions;
        let _ = write!(out, "{:<13} {:>6} |", row.label, trials);
        for di in 0..detections.len() {
            let _ = write!(
                out,
                " {:>4} verd  x{:>6.2}",
                r.cell(mi, di).tally.count(Manifestation::RankLost),
                degradation(r, mi, di).mean_slowdown_x()
            );
        }
        out.push('\n');
    }
    let _ = writeln!(out, "{rule}");
    out + &contract_lines(r)
}

/// Classify one finished perturb trial: the ordinary §5.1 classes,
/// except that a correct-output clean exit further splits into
/// [`Manifestation::Correct`] vs [`Manifestation::Degraded`] on the
/// measured slowdown. Returns the classification and the slowdown in
/// permille of the clean reference.
pub fn classify_perturb(
    exit: &WorldExit,
    output: &[u8],
    golden_output: &[u8],
    rounds: u64,
    ref_rounds: u64,
    degraded_permille: u64,
) -> (Manifestation, u64) {
    let permille = rounds.saturating_mul(1000) / ref_rounds.max(1);
    let m = match exit {
        WorldExit::Clean if output == golden_output => {
            if permille > degraded_permille {
                Manifestation::Degraded
            } else {
                Manifestation::Correct
            }
        }
        e => classify(e, output, golden_output),
    };
    (m, permille)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{trial_seed, CampaignConfig};
    use crate::engine::{parse_record_line, EngineControl, NullSink, VecSink};
    use crate::matrix::run_matrix;
    use crate::report::Report;
    use fl_apps::{App, AppKind, AppParams};
    use fl_mpi::{Effect, WorldEffect};

    fn tiny() -> App {
        App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy))
    }

    #[test]
    fn perturb_draws_are_reproducible_and_model_shaped() {
        let app = tiny();
        let golden = app.golden(2_000_000_000);
        let n = app.params.nranks;
        for (mi, row) in mode(PerturbPolicy::default()).rows.iter().enumerate() {
            for k in 0..4u32 {
                let seed = trial_seed(11, mi, k);
                let draw = || row.draw.draw(&golden, None, None, seed, n);
                let (a, b) = (draw(), draw());
                let model = row.label;
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "{model} draw must be pure in the seed"
                );
                let [f] = &a.0[..] else {
                    panic!("{model} drew {:?}", a.0)
                };
                assert!(f.rank < n && f.at >= 1);
                use WorldEffect::{Hog, Kill, Tax};
                match (row.draw, &f.effect) {
                    (Draw::QuantumTax { .. }, Effect::World(Tax { permille, rounds })) => {
                        assert!((900..=995).contains(permille));
                        assert!((256..=1024).contains(rounds));
                    }
                    (Draw::HogRank { .. }, Effect::World(Hog { mask, permille, .. })) => {
                        assert!(*mask > 0 && *mask < (1 << n));
                        assert_eq!(mask >> f.rank & 1, 1);
                        assert!((300..=900).contains(permille));
                    }
                    (
                        Draw::MemStall { .. },
                        Effect::Stall {
                            window_insns,
                            per_access,
                        },
                    ) => {
                        assert!((1..=6).contains(per_access));
                        assert!(*window_insns >= 1);
                    }
                    (Draw::Kill { wedge: Some(w) }, Effect::World(Kill { wedge, .. })) => {
                        assert_eq!(w, *wedge)
                    }
                    (_, f) => panic!("{model} drew {f:?}"),
                }
            }
        }
    }

    #[test]
    fn perturb_engine_fills_the_matrix_and_streams_records() {
        let app = tiny();
        let cfg = CampaignConfig {
            injections: 2,
            seed: 0x9E27,
            ..Default::default()
        };
        let sink = VecSink::new(app.kind);
        let mode = mode(PerturbPolicy::default());
        let r = run_matrix(&app, &mode, &cfg, &sink, &EngineControl::new(), None).unwrap();
        assert_eq!(r.cells.iter().flatten().count(), 5 * 3);
        assert!(r.ref_rounds > 0);
        for c in r.cells.iter().flatten() {
            assert_eq!(c.tally.executions, 2);
            assert_eq!(c.trials.len(), 2);
        }
        let lines = sink.into_lines();
        assert_eq!(lines.len(), 5 * 3 * 2);
        let classes = mode.slot_plan(2).classes;
        for l in &lines {
            let t = parse_record_line(l).expect("perturb records parse back");
            assert_eq!(t.record.class, classes[t.ci]);
        }
        let table = r.table("perturb demo");
        assert!(table.contains("quantum-tax"), "{table}");
        assert!(
            table.contains("contract accrual-zero-false-positives"),
            "{table}"
        );
        let tsv = r.tsv();
        assert_eq!(tsv.lines().count(), 1 + 5 * 3, "{tsv}");
        let jsonl = r.jsonl();
        assert_eq!(jsonl.lines().count(), 5 * 3);
        let focus = r.focus(r.find_row("quantum-tax").unwrap(), None);
        assert!(focus.contains("model quantum-tax"), "{focus}");
        // The degradation aggregates surface as campaign metrics.
        let metrics = r.metrics().expect("perturb measures slowdown");
        assert_eq!(metrics.classes.len(), 5 * 3);
        assert!(metrics.to_jsonl(app.kind).contains("slowdown"));
    }

    #[test]
    fn accrual_contract_holds_on_the_tiny_matrix() {
        // The tentpole's acceptance floor in unit form: interference
        // trials under the accrual detector never end in a failure
        // verdict, while kills and wedges still do.
        let app = tiny();
        let cfg = CampaignConfig {
            injections: 3,
            seed: 0xACC,
            ..Default::default()
        };
        let mode = mode(PerturbPolicy::default());
        let r = run_matrix(&app, &mode, &cfg, &NullSink, &EngineControl::new(), None).unwrap();
        for check in r.contracts() {
            assert!(
                check.passed(),
                "{}: {}/{} = {:.1}%",
                check.name,
                check.covered,
                check.denom,
                check.percent()
            );
        }
        // The fixed detector must show the problem the accrual detector
        // fixes somewhere in the interference rows: either false
        // positives or nothing to detect at all — but the quantum-tax
        // row specifically is built to starve past the fixed deadline.
        let verdicts = |c| r.cell(0, c).tally.count(Manifestation::RankLost);
        assert!(
            verdicts(1) > 0,
            "a 900-995 permille tax must trip the 32-round fixed deadline"
        );
        assert_eq!(verdicts(2), 0);
    }

    #[test]
    fn idle_interference_on_moldyn_matches_the_reference_round_count() {
        // Slowdown is rounds over the clean reference's rounds, so both
        // must run on one arrival-order schedule: a window that opens and
        // taxes nothing leaves the rounds the reference's, exactly.
        let app = App::build(AppKind::Moldyn, AppParams::tiny(AppKind::Moldyn));
        let cfg = CampaignConfig {
            injections: 3,
            seed: 0x1D1E,
            ..Default::default()
        };
        let idle = PerturbPolicy {
            tax_permille: (0, 0),
            hog_share_permille: (0, 0),
            ..Default::default()
        };
        let r = run_matrix(
            &app,
            &mode(idle),
            &cfg,
            &NullSink,
            &EngineControl::new(),
            None,
        )
        .unwrap();
        for label in ["quantum-tax", "hog-rank"] {
            let row = r.find_row(label).unwrap();
            for (c, cell) in r.cells[row].iter().enumerate() {
                for t in &cell.trials {
                    assert_eq!(
                        (t.outcome, t.aux[0]),
                        (Manifestation::Correct, 1000),
                        "{label} column {c}: {} (reference {} rounds)",
                        t.detail,
                        r.ref_rounds
                    );
                }
            }
        }
    }

    #[test]
    fn classify_perturb_splits_correct_from_degraded() {
        let g = b"out".to_vec();
        let (m, p) = classify_perturb(&WorldExit::Clean, b"out", &g, 1000, 1000, 1050);
        assert_eq!((m, p), (Manifestation::Correct, 1000));
        let (m, p) = classify_perturb(&WorldExit::Clean, b"out", &g, 1500, 1000, 1050);
        assert_eq!((m, p), (Manifestation::Degraded, 1500));
        let (m, _) = classify_perturb(&WorldExit::Clean, b"bad", &g, 1500, 1000, 1050);
        assert_eq!(m, Manifestation::Incorrect);
        let (m, _) = classify_perturb(
            &WorldExit::RankFailed { rank: 1, round: 9 },
            b"",
            &g,
            1200,
            1000,
            1050,
        );
        assert_eq!(m, Manifestation::RankLost);
        let (m, _) = classify_perturb(
            &WorldExit::Hung { reason: "x".into() },
            b"",
            &g,
            4000,
            1000,
            1050,
        );
        assert_eq!(m, Manifestation::Hang);
    }

    #[test]
    fn detail_permille_round_trips_through_the_record_stream() {
        let detail = "fixed/quantum-tax: tax 950\u{2030} on rank 1";
        let written = format!("{detail}{}", write_permille(&[1342, 0, 0]));
        assert_eq!(written, format!("{detail} [1342\u{2030} of clean]"));
        assert_eq!(read_permille(&written), Some([1342, 0, 0]));
        // A detail that lost any part of its tail reads back as nothing,
        // never as slowdown 0.
        assert_eq!(read_permille(detail), None);
        assert_eq!(read_permille(&written[..written.len() - 1]), None);
        assert_eq!(read_permille("x [\u{2030} of clean]"), None);
    }
}
