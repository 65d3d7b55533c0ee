//! Scenario-diversity campaigns: system-level, network-level and
//! correlated fault models against a defense matrix.
//!
//! The paper's campaigns flip single bits; [`crate::guarded`] and
//! [`crate::ft`] measure one defense against one fault family each. This
//! module asks the cross product: every *chaos* fault class — in-flight
//! network faults (drop / duplicate / reorder / corrupt), rank-set
//! partitions, syscall failures (malloc / write denial), correlated
//! burst kills and whole-node kills — run under every defense the
//! harness has (none, channel CRC, watchdog restart, replication,
//! shrink recovery, fl-ulfm application recovery), producing the
//! defense-coverage matrix.
//!
//! The slot space is `models × defenses × injections`: a slot is one
//! cell's trial. Trial `(mi, di, k)` draws its fault from
//! `trial_seed(seed, mi, k)` — the *model* index only — so all six
//! defense columns of a row face the byte-identical draw, and the matrix
//! compares defenses, not luck. Every slot streams one canonical record
//! through the ordinary sink/record machinery, so chaos campaigns resume
//! and sort exactly like plain ones.

use crate::faultmodel::Draw;
use crate::matrix::{
    cell_jsonl, cell_tsv, contract_lines, Column, Contract, Isolate, Layout, MatrixMode,
    MatrixResult, Row, Runner, Slot, Summary,
};
use crate::outcome::Manifestation;
use fl_ft::FtPolicy;
use fl_guard::GuardPolicy;
use std::fmt::Write as _;

/// One column of the coverage matrix: which mechanism stands between the
/// drawn fault and the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defense {
    /// Nothing — the fault's bare manifestation (the row's denominator).
    Baseline,
    /// Channel CRC + NACK retransmission only (no watchdog, no
    /// checkpointing).
    Crc,
    /// The full fl-guard harness: watchdog, checkpoints,
    /// rollback-and-re-execute (which includes the CRC channel).
    Watchdog,
    /// N-replica voting (fl-ft): armed replicas run, the others are read
    /// off the configuration's recorded clean run.
    Replica,
    /// Heartbeat detector + shrink-to-survivors recovery (fl-ft).
    Shrink,
    /// App-visible ULFM mode: the application owns recovery (fl-ulfm).
    App,
}

impl Defense {
    /// Every column, matrix order. Baseline is always first — coverage
    /// is measured against its errors.
    pub const ALL: [Defense; 6] = [
        Defense::Baseline,
        Defense::Crc,
        Defense::Watchdog,
        Defense::Replica,
        Defense::Shrink,
        Defense::App,
    ];

    /// The column's machine-readable name, as every view prints it.
    pub fn name(self) -> &'static str {
        match self {
            Defense::Baseline => "baseline",
            Defense::Crc => "crc",
            Defense::Watchdog => "watchdog",
            Defense::Replica => "replica",
            Defense::Shrink => "shrink",
            Defense::App => "app",
        }
    }
}

/// Knobs of a chaos campaign: the defense configurations plus the draw
/// ranges of the new fault classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPolicy {
    /// Guard configuration for the `crc` (channel part only) and
    /// `watchdog` (full harness) columns.
    pub guard: GuardPolicy,
    /// Ft configuration for the `replica`, `shrink` and `app` columns.
    pub ft: FtPolicy,
    /// Partition window draw range, in scheduler rounds (inclusive).
    pub partition_rounds: (u64, u64),
    /// Largest reorder delay, in scheduler rounds.
    pub reorder_max_delay: u64,
    /// Most ranks one burst may kill (clamped to leave a survivor).
    pub burst_max: u16,
    /// Ranks per "node" for the node-kill model.
    pub node_ranks: u16,
}

impl Default for ChaosPolicy {
    fn default() -> ChaosPolicy {
        ChaosPolicy {
            guard: GuardPolicy::default(),
            ft: FtPolicy::default(),
            partition_rounds: (64, 512),
            reorder_max_delay: 64,
            burst_max: 3,
            node_ranks: 2,
        }
    }
}

/// Did this defense-column outcome neutralize the fault — masked,
/// recovered, or at least *detected*? (Measured against baseline-error
/// draws, so a plain `Correct` means the defense's environment kept the
/// identical draw from manifesting.)
fn is_covered(m: Manifestation) -> bool {
    matches!(
        m,
        Manifestation::Correct
            | Manifestation::Recovered
            | Manifestation::RecoveredByApp
            | Manifestation::MaskedByReplica
            | Manifestation::MaskedByChannel
            | Manifestation::DetectedByGuard
    )
}

impl Defense {
    /// The defense as a matrix column. Each column isolates exactly one
    /// defense: app-visible ULFM and the heartbeat detector are off
    /// unless they ARE the defense.
    fn column(self, policy: &ChaosPolicy) -> Column {
        let (isolate, runner) = match self {
            Defense::Baseline => (Isolate::UlfmAndDetector, Runner::World),
            Defense::Crc => (Isolate::UlfmAndDetector, Runner::Channel(policy.guard)),
            Defense::Watchdog => (Isolate::UlfmAndDetector, Runner::Guarded(policy.guard)),
            Defense::Replica => (Isolate::UlfmAndDetector, Runner::Replicated(policy.ft)),
            Defense::Shrink => (Isolate::Ulfm, Runner::Shrink(policy.ft)),
            Defense::App => (Isolate::Nothing, Runner::App(policy.ft)),
        };
        // Idle, the watchdog is the CRC channel it includes; idle, the
        // channel, the replica vote and the detector are the bare world.
        // The app's own recovery has no exact idle signal.
        let idle_is = match self {
            Defense::Watchdog => Some(Defense::Crc),
            Defense::Crc | Defense::Replica | Defense::Shrink => Some(Defense::Baseline),
            Defense::Baseline | Defense::App => None,
        };
        Column {
            name: self.name(),
            isolate,
            runner,
            covers: is_covered,
            idle_is: idle_is.map(Defense::name),
        }
    }
}

/// The per-cell values of the chaos TSV and JSONL.
const SUMMARY: &[Summary] = &[
    ("base_errors", |r, row, _| {
        r.baseline_errors(row).to_string()
    }),
    ("covered", |r, row, c| r.covered(row, c).to_string()),
    ("coverage_pct", |r, row, c| {
        format!("{:.2}", r.coverage_percent(row, c))
    }),
];

/// The chaos mode: one row per chaos model — network, then system, then
/// correlated — against every [`Defense`] column, `injections` draws per
/// row, one cell's trial per slot.
pub fn mode(policy: ChaosPolicy) -> MatrixMode {
    let draws = [
        Draw::NetDrop,
        Draw::NetDup,
        Draw::NetReorder {
            max_delay: policy.reorder_max_delay,
        },
        Draw::NetCorrupt,
        Draw::Partition {
            rounds: policy.partition_rounds,
        },
        Draw::SyscallMalloc,
        Draw::SyscallWrite,
        Draw::Burst {
            max: policy.burst_max,
        },
        Draw::NodeKill {
            node_ranks: policy.node_ranks,
        },
    ];
    let columns: Vec<Column> = Defense::ALL.iter().map(|d| d.column(&policy)).collect();
    let contract = |name, what, model: fn(&Draw) -> bool, defense, over, counts| {
        let row = draws.iter().position(model).expect("a chaos row");
        Contract {
            name,
            what,
            rows: row..row + 1,
            column: Defense::ALL
                .iter()
                .position(|&d| d == defense)
                .expect("listed"),
            over,
            counts,
            floor_percent: 90.0,
        }
    };
    let contracts = vec![
        // The channel CRC catches every in-flight corruption: masked by
        // retransmit, or detected when the budget runs out. Over ALL
        // net-corrupt trials — the fault always fires.
        contract(
            "crc-catches-net-corrupt",
            "net-corrupt trials the CRC channel masked or detected",
            |d| *d == Draw::NetCorrupt,
            Defense::Crc,
            |_| true,
            |m| {
                matches!(
                    m,
                    Manifestation::MaskedByChannel | Manifestation::DetectedByGuard
                )
            },
        ),
        // The watchdog catches partition-induced hangs: a restart
        // replays the identical partition, so the budget exhausts into a
        // detection — or the re-run recovers. Over partition trials
        // whose baseline hung.
        contract(
            "watchdog-catches-partition-hangs",
            "baseline-hang partition trials the watchdog detected or recovered",
            |d| matches!(d, Draw::Partition { .. }),
            Defense::Watchdog,
            |b| b == Manifestation::Hang,
            |m| matches!(m, Manifestation::DetectedByGuard | Manifestation::Recovered),
        ),
        // Shrink recovery covers node kills: the heartbeat detector
        // raises the first dead member and the world is rebuilt over
        // survivors. Over node-kill trials whose baseline errored.
        contract(
            "shrink-recovers-node-kill",
            "baseline-error node-kill trials shrink recovery converted",
            |d| matches!(d, Draw::NodeKill { .. }),
            Defense::Shrink,
            Manifestation::is_error,
            |m| m == Manifestation::Recovered,
        ),
    ];
    MatrixMode {
        rows: draws.map(|d| Row::new(d, columns.clone())).into(),
        slot: Slot::Cell {
            write_aux: |_| String::new(),
            read_aux: |_| Some([0; 3]),
        },
        budget_scale: 1,
        contracts,
        layout: Layout {
            banner:
                "coverage = % of baseline-error trials the defense masked, recovered or detected"
                    .into(),
            table,
            tsv: cell_tsv,
            jsonl: cell_jsonl,
            column_key: "defense",
            column_noun: "defense",
            summary: SUMMARY,
            focus_note: |r, row, c| {
                (c > 0).then(|| format!("[{:.1}% coverage]", r.coverage_percent(row, c)))
            },
        },
    }
}

/// The defense-coverage matrix: per model, the baseline error count and
/// each defense's coverage percent, then the contract floors.
fn table(r: &MatrixResult, title: &str) -> String {
    let defenses = &r.mode.rows[0].columns[1..];
    let rule = "-".repeat(27 + 10 * defenses.len());
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{}", r.mode.layout.banner);
    let _ = write!(out, "{:<16} {:>9} |", "model", "base-err");
    for d in defenses {
        let _ = write!(out, " {:>9}", d.name);
    }
    let _ = writeln!(out, "\n{rule}");
    for (mi, row) in r.mode.rows.iter().enumerate() {
        let _ = write!(
            out,
            "{:<16} {:>5}/{:<3} |",
            row.label,
            r.baseline_errors(mi),
            r.cell(mi, 0).tally.executions
        );
        for di in 1..=defenses.len() {
            let _ = write!(out, " {:>8.1}%", r.coverage_percent(mi, di));
        }
        out.push('\n');
    }
    let _ = writeln!(out, "{rule}");
    out + &contract_lines(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{trial_seed, CampaignConfig};
    use crate::engine::{parse_record_line, EngineControl, VecSink};
    use crate::faultmodel::SyscallCounts;
    use crate::matrix::{run_matrix, ContractCheck};
    use crate::report::Report;
    use fl_apps::{App, AppKind, AppParams};
    use fl_machine::SyscallFaultKind;
    use fl_mpi::{Effect, Fault, NetFaultKind, WorldEffect};

    fn tiny() -> App {
        App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy))
    }

    #[test]
    fn chaos_draws_are_reproducible_and_model_shaped() {
        let app = tiny();
        let mut clean = app.world(2_000_000_000);
        let exit = clean.run();
        let (golden, sys) = (app.golden_of(&clean, &exit), SyscallCounts::of(&clean));
        let n = app.params.nranks;
        for (mi, row) in mode(ChaosPolicy::default()).rows.iter().enumerate() {
            for k in 0..4u32 {
                let seed = trial_seed(7, mi, k);
                let draw = || row.draw.draw(&golden, None, Some(&sys), seed, n);
                let (a, b) = (draw(), draw());
                let model = row.label;
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "{model} draw must be pure in the seed"
                );
                let world = |f: &Fault| match f.effect {
                    Effect::World(e) => e,
                    ref other => panic!("{model} drew {other:?}"),
                };
                match (row.draw, &a.0[..]) {
                    (Draw::NetDrop, [f]) => {
                        assert_eq!(world(f), WorldEffect::Wire(NetFaultKind::Drop))
                    }
                    (Draw::NetDup, [f]) => {
                        assert_eq!(world(f), WorldEffect::Wire(NetFaultKind::Duplicate))
                    }
                    (Draw::NetReorder { .. }, [f]) => assert!(matches!(
                        world(f),
                        WorldEffect::Wire(NetFaultKind::Reorder { .. })
                    )),
                    (Draw::NetCorrupt, [f]) => {
                        assert_eq!(world(f), WorldEffect::Wire(NetFaultKind::Corrupt))
                    }
                    (Draw::Partition { .. }, [f]) => {
                        let WorldEffect::Cut { mask, rounds } = world(f) else {
                            panic!("{model} drew {f:?}")
                        };
                        assert!(mask > 0 && mask < (1 << n));
                        assert!(rounds >= 64);
                    }
                    (Draw::SyscallMalloc | Draw::SyscallWrite, [f]) => {
                        let Effect::Syscall { kind, .. } = f.effect else {
                            panic!("{model} drew {f:?}")
                        };
                        let malloc = row.draw == Draw::SyscallMalloc;
                        assert_eq!(kind == SyscallFaultKind::Malloc, malloc);
                        assert!(f.at >= 1);
                    }
                    (Draw::Burst { .. }, kills) => {
                        assert!(kills.len() >= 2, "{kills:?}");
                        assert!(kills.len() < n as usize);
                        for k in kills {
                            assert!(matches!(world(k), WorldEffect::Kill { mates: 0, .. }));
                        }
                        let mut ranks: Vec<u16> = kills.iter().map(|k| k.rank).collect();
                        ranks.sort_unstable();
                        ranks.dedup();
                        assert_eq!(ranks.len(), kills.len(), "distinct victims");
                    }
                    (Draw::NodeKill { .. }, [f]) => {
                        let WorldEffect::Kill { mates, .. } = world(f) else {
                            panic!("{model} drew {f:?}")
                        };
                        assert!(mates > 0 && mates < (1 << n));
                        assert_eq!(mates >> f.rank & 1, 1);
                    }
                    (_, f) => panic!("{model} drew {f:?}"),
                }
            }
        }
    }

    #[test]
    fn chaos_engine_fills_the_matrix_and_streams_records() {
        let app = tiny();
        let cfg = CampaignConfig {
            injections: 2,
            seed: 0xC0FFEE,
            ..Default::default()
        };
        let sink = VecSink::new(app.kind);
        let mode = mode(ChaosPolicy::default());
        let r = run_matrix(&app, &mode, &cfg, &sink, &EngineControl::new(), None).unwrap();
        assert_eq!(r.cells.iter().flatten().count(), 9 * 6);
        for c in r.cells.iter().flatten() {
            assert_eq!(c.tally.executions, 2);
            assert_eq!(c.trials.len(), 2);
        }
        let lines = sink.into_lines();
        assert_eq!(lines.len(), 9 * 6 * 2);
        let classes = mode.slot_plan(2).classes;
        for l in &lines {
            let t = parse_record_line(l).expect("chaos records parse back");
            assert_eq!(t.record.class, classes[t.ci]);
        }
        // Render paths cover the full matrix.
        let table = r.table("chaos demo");
        assert!(table.contains("net-corrupt"), "{table}");
        assert!(
            table.contains("contract crc-catches-net-corrupt"),
            "{table}"
        );
        let tsv = r.tsv();
        assert_eq!(tsv.lines().count(), 1 + 9 * 6, "{tsv}");
        let jsonl = r.jsonl();
        assert_eq!(jsonl.lines().count(), 9 * 6);
        let focus = r.focus(r.find_row("net-drop").unwrap(), None);
        assert!(focus.contains("model net-drop"), "{focus}");
    }

    #[test]
    fn contract_floors_need_evidence() {
        let c = ContractCheck {
            name: "x",
            what: "y",
            covered: 0,
            denom: 0,
            floor_percent: 90.0,
        };
        assert!(!c.passed(), "an empty denominator proves nothing");
        let c = ContractCheck {
            covered: 9,
            denom: 10,
            ..c
        };
        assert!(c.passed());
        let c = ContractCheck {
            covered: 8,
            denom: 10,
            ..c
        };
        assert!(!c.passed());
    }
}
