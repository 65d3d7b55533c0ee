//! Matrix campaigns: rows of byte-identical fault draws × columns of
//! defenses or detectors.
//!
//! The paper closes (§6.2, §7) on what would catch the faults its MPI
//! error handlers miss. Four campaign modes measure that, and all four
//! are one experiment: draw one fault per `(row, k)` from
//! `trial_seed(seed, row, k)`, arm that identical draw on one world per
//! column — each column standing one mechanism between the fault and
//! the application — classify every run, and compare each column with
//! the row's baseline column. A [`MatrixMode`] describes a mode as
//! data: its rows and what they draw, its columns and how they run, what
//! one engine slot holds, its contract floors and its pinned layouts.
//! [`run_matrix`] runs any of them on the engine's slot loop and
//! assembles one [`MatrixResult`]. The descriptions live in
//! [`crate::guarded`], [`crate::ft`], [`crate::chaos`] and
//! [`crate::perturb`].

use crate::campaign::{
    trial_budget, trial_seed, trial_world_config, CampaignConfig, Dictionaries, Planned,
    TrialContext, TrialRecord, GOLDEN_BUDGET,
};
use crate::engine::{
    plan_runs, run_slots, Aux, CompletedSlots, EngineControl, EngineSink, SlotPlan, TrialOutput,
};
use crate::faultmodel::{Draw, Duration, SyscallCounts};
use crate::obs::{CampaignMetrics, ClassMetrics};
use crate::outcome::{classify, Manifestation, Tally};
use crate::perturb::classify_perturb;
use crate::report::Report;
use crate::target::TargetClass;
use fl_apps::{App, AppKind, Golden};
use fl_ft::{
    ft_config, replica_config, resume_respawn, run_app, run_replicated, run_respawn, run_shrink,
    run_survivors, ulfm_config, CleanReplica, DigestLog, FtPolicy, RespawnState,
};
use fl_guard::{resume_guarded, run_guarded, GuardPolicy, GuardReport, GuardState};
use fl_mpi::{FailureDetector, Fault, Launch, MpiWorld, WorldConfig, WorldExit, WorldSnapshot};
use fl_snap::{EpochCache, Interval};
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// What a column strips from the application's own world configuration
/// so that it isolates exactly one mechanism (a no-op for the paper's
/// apps; jacobi3d's configuration asks for fl-ulfm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isolate {
    /// Run under the application's configuration as it is.
    Nothing,
    /// Switch app-visible fl-ulfm failures off.
    Ulfm,
    /// Switch fl-ulfm and the heartbeat detector off.
    UlfmAndDetector,
}

/// How a column builds and runs the world it arms the draw on, and with
/// it how the run is classified and what the trial's [`Aux`] holds.
///
/// Every world comes from the campaign's [`Launch`]: the pristine
/// just-loaded machine and the decoded-code store its worlds share.
/// [`Runner::Trial`] forks from the golden run's epochs. Every other
/// runner forks each draw from a checkpoint of its own configuration's
/// clean run — the latest before the draw's first fault fires
/// ([`fl_snap::EpochCache::best_for`]), epoch 0 being the launch itself.
/// `Guarded`, `Respawn` and `Replicated` keep state beside their world:
/// their configuration's clean run is their own pass with nothing armed,
/// which holds that state at each checkpoint ([`fl_snap::Rider`]), so a
/// `Guarded` or `Respawn` draw resumes the runner where a round-0 run
/// stands, and the replicas armed with nothing are that run, read rather
/// than stepped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Runner {
    /// The plain campaign's own trial path — epoch fork and early
    /// termination included.
    Trial,
    /// One world, classified per §5.1.
    World,
    /// One world with the CRC channel on: a clean, correct finish after a
    /// retransmit is `MaskedByChannel`.
    Channel(GuardPolicy),
    /// One world under the given failure detector, with a correct finish
    /// split into `Correct` and `Degraded` past `degraded_permille` of
    /// the clean round count. Aux: `[slowdown ‰, 0, 0]`.
    Paced {
        /// The column's liveness detector.
        detector: FailureDetector,
        /// The `Degraded` threshold.
        degraded_permille: u64,
    },
    /// [`run_guarded`]: a clean finish is `Recovered` if the guard
    /// intervened, any other exit `DetectedByGuard`. Aux: `[detections,
    /// restarts, retransmits]`.
    Guarded(GuardPolicy),
    /// [`run_replicated`], the draw armed on replica 0 only (so the
    /// others are the clean run). Aux: `[votes, 0, 0]`.
    Replicated(FtPolicy),
    /// [`run_shrink`], judged against the one-fewer-rank reference.
    Shrink(FtPolicy),
    /// [`run_respawn`]. Aux: `[respawns, checkpoint lines cut, rounds
    /// re-executed after the restores]`.
    Respawn(FtPolicy),
    /// [`run_app`]: recovery belongs to the application. Aux: `[shrinks
    /// the app performed, 0, 0]`.
    App(FtPolicy),
}

/// One column of a row.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// Machine-readable name, as every view prints it.
    pub name: &'static str,
    /// What of the app's configuration the column switches off.
    pub isolate: Isolate,
    /// How the column runs and classifies.
    pub runner: Runner,
    /// Does this outcome count as covering a draw whose baseline run
    /// manifested an error?
    pub covers: fn(Manifestation) -> bool,
}

/// One row: `injections` draws, each faced by every column. Trial `k`
/// of row `r` draws from `trial_seed(seed, r, k)`.
#[derive(Debug, Clone)]
pub struct Row {
    /// The row's name in the mode's views.
    pub label: &'static str,
    /// What it draws.
    pub draw: Draw,
    /// Its columns, baseline first.
    pub columns: Vec<Column>,
}

impl Row {
    /// A row named after the model it draws.
    pub fn new(draw: Draw, columns: Vec<Column>) -> Row {
        Row {
            label: draw.label(),
            draw,
            columns,
        }
    }
}

/// What one engine slot holds.
#[derive(Debug, Clone, Copy)]
pub enum Slot {
    /// One column of one draw, streamed as one canonical record line
    /// whose detail is `column/row: draw` plus the trial's [`Aux`], and
    /// adoptable from that line on resume (chaos, perturb).
    Cell {
        /// Renders the [`Aux`] as the tail of the record detail.
        write_aux: fn(&Aux) -> String,
        /// Reads it back out of a whole detail; `None` when the detail
        /// does not hold all of it.
        read_aux: fn(&str) -> Option<Aux>,
    },
    /// Every column of one draw; progress only (guard, ft).
    Row,
}

/// One provable-coverage floor, as data.
#[derive(Debug, Clone)]
pub struct Contract {
    /// Stable contract identifier.
    pub name: &'static str,
    /// What the numerator counts.
    pub what: &'static str,
    /// The rows it ranges over.
    pub rows: Range<usize>,
    /// The column it judges.
    pub column: usize,
    /// Which draws enter the denominator, by their baseline outcome.
    pub over: fn(Manifestation) -> bool,
    /// Which of the column's outcomes enter the numerator.
    pub counts: fn(Manifestation) -> bool,
    /// The floor, in percent.
    pub floor_percent: f64,
}

/// A contract floor and the evidence for it.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractCheck {
    /// Stable contract identifier.
    pub name: &'static str,
    /// What the numerator counts.
    pub what: &'static str,
    /// Trials covered.
    pub covered: u32,
    /// Trials in the denominator.
    pub denom: u32,
    /// The floor, in percent.
    pub floor_percent: f64,
}

impl ContractCheck {
    /// Coverage in percent (0 with an empty denominator).
    pub fn percent(&self) -> f64 {
        percent(self.covered, self.denom)
    }

    /// A floor holds only on evidence: an empty denominator fails.
    pub fn passed(&self) -> bool {
        self.denom > 0 && self.percent() + 1e-9 >= self.floor_percent
    }
}

fn percent(num: u32, den: u32) -> f64 {
    if den == 0 {
        return 0.0;
    }
    100.0 * num as f64 / den as f64
}

/// One named per-cell value of the cell views.
pub type Summary = (&'static str, fn(&MatrixResult, usize, usize) -> String);

/// The pinned layouts of a mode: its own table, and either its own TSV
/// and JSONL or the shared per-cell ones ([`cell_tsv`], [`cell_jsonl`])
/// with the mode's column-axis name and summary columns.
#[derive(Debug, Clone)]
pub struct Layout {
    /// The second line of the table, under the title.
    pub banner: String,
    /// The human-readable table.
    pub table: fn(&MatrixResult, &str) -> String,
    /// The TSV view.
    pub tsv: fn(&MatrixResult) -> String,
    /// The JSONL view.
    pub jsonl: fn(&MatrixResult) -> String,
    /// The column axis as a TSV/JSON key.
    pub column_key: &'static str,
    /// The column axis in the focus view's prose.
    pub column_noun: &'static str,
    /// The per-cell values between `trials` and the outcome counts.
    pub summary: &'static [Summary],
    /// The bracketed remark the focus view makes about a cell.
    pub focus_note: fn(&MatrixResult, usize, usize) -> Option<String>,
}

/// One mode of matrix campaign, as data.
#[derive(Debug, Clone)]
pub struct MatrixMode {
    /// The rows, in seed-coordinate order.
    pub rows: Vec<Row>,
    /// What one engine slot holds.
    pub slot: Slot,
    /// Multiple of the ordinary hang budget every trial gets.
    pub budget_scale: u64,
    /// The floors the mode is contracted to hold.
    pub contracts: Vec<Contract>,
    /// The pinned views.
    pub layout: Layout,
}

impl MatrixMode {
    fn columns(&self) -> impl Iterator<Item = &Column> {
        self.rows.iter().flat_map(|r| &r.columns)
    }

    /// Does the mode measure slowdown (any [`Runner::Paced`] column)?
    fn paced(&self) -> bool {
        self.columns()
            .any(|c| matches!(c.runner, Runner::Paced { .. }))
    }

    /// The engine's slot groups: which row, and which of its columns,
    /// the slots of each group hold.
    fn groups(&self) -> Vec<(usize, Range<usize>)> {
        let mut out = Vec::new();
        for (r, row) in self.rows.iter().enumerate() {
            let n = row.columns.len();
            match self.slot {
                Slot::Row => out.push((r, 0..n)),
                Slot::Cell { .. } => out.extend((0..n).map(|c| (r, c..c + 1))),
            }
        }
        out
    }

    /// The mode's slot space at `injections` draws per row — the one
    /// statement the engine, the CLI and the daemon all read.
    pub fn slot_plan(&self, injections: u32) -> SlotPlan {
        let groups = self.groups();
        let class = |(r, _): &(usize, Range<usize>)| self.rows[*r].draw.class();
        let (classes, read_aux): (_, fn(&str) -> Option<Aux>) = match self.slot {
            Slot::Row => (Vec::new(), |_| None),
            Slot::Cell { read_aux, .. } => (groups.iter().map(class).collect(), read_aux),
        };
        SlotPlan {
            groups: groups.len(),
            injections,
            classes,
            read_aux,
        }
    }
}

/// One column's run of one draw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixTrial {
    /// The fault point; in streamed modes the whole record detail.
    pub detail: String,
    /// The classified outcome.
    pub outcome: Manifestation,
    /// What the column's [`Runner`] counted.
    pub aux: Aux,
    /// Guest instructions retired across the ranks of the world the run
    /// ended with — the column's cost of facing the draw.
    pub insns: u64,
}

/// Every trial of one row under one column.
#[derive(Debug, Clone, Default)]
pub struct Cell {
    /// Outcome tally of the cell.
    pub tally: Tally,
    /// Per-trial results, draw order.
    pub trials: Vec<MatrixTrial>,
}

impl Cell {
    /// Mean guest instructions retired per trial (0 for an empty cell).
    pub fn mean_insns(&self) -> u64 {
        let total: u64 = self.trials.iter().map(|t| t.insns).sum();
        total / self.trials.len().max(1) as u64
    }

    /// The cell's degradation aggregates as a metrics row: trials,
    /// deadline misses, and the slowdown of every correct-output trial
    /// of a [`Runner::Paced`] column.
    pub fn metrics(&self, class: TargetClass) -> ClassMetrics {
        let mut m = ClassMetrics::new(class);
        m.trials = self.tally.executions;
        m.deadline_misses = self.tally.count(Manifestation::Hang);
        for t in &self.trials {
            if matches!(t.outcome, Manifestation::Correct | Manifestation::Degraded) {
                m.fold_slowdown(t.aux[0]);
            }
        }
        m
    }
}

/// Baseline-outcome × column-outcome counts over one cell's draws.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransitionMatrix {
    counts: [[u32; Manifestation::ALL.len()]; Manifestation::ALL.len()],
}

impl TransitionMatrix {
    fn idx(m: Manifestation) -> usize {
        Manifestation::ALL
            .iter()
            .position(|&x| x == m)
            .expect("ALL lists every manifestation")
    }

    /// Record one paired outcome.
    pub fn record(&mut self, baseline: Manifestation, under: Manifestation) {
        self.counts[Self::idx(baseline)][Self::idx(under)] += 1;
    }

    /// Draws with this exact baseline → column pair.
    pub fn count(&self, baseline: Manifestation, under: Manifestation) -> u32 {
        self.counts[Self::idx(baseline)][Self::idx(under)]
    }

    /// Non-empty pairs as `(baseline, column, count)` triples, in
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

/// A finished matrix campaign.
#[derive(Debug, Clone)]
pub struct MatrixResult {
    /// Which application.
    pub app: AppKind,
    /// The mode that ran, policies included.
    pub mode: MatrixMode,
    /// `cells[row][column]`.
    pub cells: Vec<Vec<Cell>>,
    /// The fault-free reference run.
    pub golden: Golden,
    /// Scheduler rounds of the clean reference run — the slowdown
    /// denominator (0 unless the mode measures slowdown).
    pub ref_rounds: u64,
    /// Guest instructions retired across every trial.
    pub insns_total: u64,
}

impl MatrixResult {
    /// The cell at `row`, `column`.
    pub fn cell(&self, row: usize, column: usize) -> &Cell {
        &self.cells[row][column]
    }

    /// The first `(row, column)` whose column is called `name`.
    pub fn find_column(&self, name: &str) -> Option<(usize, usize)> {
        self.mode.rows.iter().enumerate().find_map(|(r, row)| {
            let c = row.columns.iter().position(|c| c.name == name)?;
            Some((r, c))
        })
    }

    /// The row labelled `label`.
    pub fn find_row(&self, label: &str) -> Option<usize> {
        self.mode.rows.iter().position(|r| r.label == label)
    }

    /// Draws of `row` whose baseline manifested an error — the row's
    /// coverage denominator.
    pub fn baseline_errors(&self, row: usize) -> u32 {
        self.cells[row][0].tally.errors()
    }

    /// Did `column` cover draw `k` of `row`: the baseline errored and
    /// the column's outcome is one its [`Column::covers`] accepts?
    pub fn converted(&self, row: usize, column: usize, k: usize) -> bool {
        self.cells[row][0].trials[k].outcome.is_error()
            && (self.mode.rows[row].columns[column].covers)(
                self.cells[row][column].trials[k].outcome,
            )
    }

    /// Baseline-error draws of `row` that `column` covered.
    pub fn covered(&self, row: usize, column: usize) -> u32 {
        let n = self.cells[row][column].trials.len();
        (0..n).filter(|&k| self.converted(row, column, k)).count() as u32
    }

    /// [`MatrixResult::covered`] in percent of the row's baseline errors.
    pub fn coverage_percent(&self, row: usize, column: usize) -> f64 {
        percent(self.covered(row, column), self.baseline_errors(row))
    }

    /// The baseline → `column` outcome transitions of `row`.
    pub fn transitions(&self, row: usize, column: usize) -> TransitionMatrix {
        let mut m = TransitionMatrix::default();
        for (b, u) in self.cells[row][0]
            .trials
            .iter()
            .zip(&self.cells[row][column].trials)
        {
            m.record(b.outcome, u.outcome);
        }
        m
    }

    /// The mode's contract floors, evaluated.
    pub fn contracts(&self) -> Vec<ContractCheck> {
        let check = |c: &Contract| {
            let (mut covered, mut denom) = (0, 0);
            for row in &self.cells[c.rows.clone()] {
                for (b, u) in row[0].trials.iter().zip(&row[c.column].trials) {
                    if (c.over)(b.outcome) {
                        denom += 1;
                        covered += u32::from((c.counts)(u.outcome));
                    }
                }
            }
            ContractCheck {
                name: c.name,
                what: c.what,
                covered,
                denom,
                floor_percent: c.floor_percent,
            }
        };
        self.mode.contracts.iter().map(check).collect()
    }

    /// The degradation aggregates of a mode that measures slowdown: one
    /// [`ClassMetrics`] row per cell (`faultlab metrics` renders these
    /// like any other campaign's). `None` for the other modes.
    pub fn metrics(&self) -> Option<CampaignMetrics> {
        let rows = self.mode.rows.iter().zip(&self.cells);
        self.mode.paced().then(|| CampaignMetrics {
            classes: rows
                .flat_map(|(row, cells)| cells.iter().map(|c| c.metrics(row.draw.class())))
                .collect(),
        })
    }

    /// The focus view (never a machine format). With `column: None` one
    /// row, a cell per line — the CLI's `chaos`/`perturb --model M`; with
    /// `Some(c)` one cell, an outcome per line — `ft --mode M`.
    pub fn focus(&self, row: usize, column: Option<usize>) -> String {
        let (r, lay) = (&self.mode.rows[row], &self.mode.layout);
        let note = |c: usize| (lay.focus_note)(self, row, c);
        let mut out = String::new();
        match column {
            Some(c) => {
                let cell = &self.cells[row][c];
                let _ = writeln!(
                    out,
                    "{} / mode {}: {} {} trials",
                    self.app.name(),
                    r.columns[c].name,
                    cell.trials.len(),
                    r.label
                );
                for (m, n) in outcome_counts(&cell.tally) {
                    let _ = writeln!(out, "  {m:<22} {n:>5}");
                }
                if let Some(note) = note(c) {
                    let _ = writeln!(out, "  {note}");
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "{} / model {}: {} trials per {}",
                    self.app.name(),
                    r.label,
                    self.cells[row][0].tally.executions,
                    lay.column_noun
                );
                let width = r
                    .columns
                    .iter()
                    .map(|c| c.name.len() + 1)
                    .max()
                    .unwrap_or(0);
                for (c, col) in r.columns.iter().enumerate() {
                    let _ = write!(out, "  {:<width$}", col.name);
                    for (i, (m, n)) in outcome_counts(&self.cells[row][c].tally).enumerate() {
                        let _ = write!(out, "{}{m} {n}", if i == 0 { " " } else { ", " });
                    }
                    if let Some(note) = note(c) {
                        let _ = write!(out, "  {note}");
                    }
                    out.push('\n');
                }
            }
        }
        out
    }
}

impl Report for MatrixResult {
    fn table(&self, title: &str) -> String {
        (self.mode.layout.table)(self, title)
    }

    fn tsv(&self) -> String {
        (self.mode.layout.tsv)(self)
    }

    fn jsonl(&self) -> String {
        (self.mode.layout.jsonl)(self)
    }
}

/// The classes a tally saw, with their counts, in
/// [`Manifestation::ALL`] order.
fn outcome_counts(t: &Tally) -> impl Iterator<Item = (Manifestation, u32)> + '_ {
    let all = Manifestation::ALL.into_iter();
    all.map(|m| (m, t.count(m))).filter(|&(_, n)| n > 0)
}

/// Append one `\t{prefix}{slug}` header field per manifestation class.
pub fn slug_header(out: &mut String, prefix: &str) {
    for m in Manifestation::ALL {
        let _ = write!(out, "\t{prefix}{}", m.slug());
    }
}

/// Append one `\t{count}` field per manifestation class.
pub fn tally_fields(out: &mut String, t: &Tally) {
    for m in Manifestation::ALL {
        let _ = write!(out, "\t{}", t.count(m));
    }
}

/// The per-cell TSV view: one row per `row × column` cell with the
/// mode's summary columns and full outcome counts.
pub fn cell_tsv(r: &MatrixResult) -> String {
    let lay = &r.mode.layout;
    let mut out = format!("model\t{}\ttrials", lay.column_key);
    for (name, _) in lay.summary {
        let _ = write!(out, "\t{name}");
    }
    slug_header(&mut out, "");
    out.push('\n');
    for (ri, row) in r.mode.rows.iter().enumerate() {
        for (ci, col) in row.columns.iter().enumerate() {
            let tally = &r.cells[ri][ci].tally;
            let _ = write!(out, "{}\t{}\t{}", row.label, col.name, tally.executions);
            for (_, value) in lay.summary {
                let _ = write!(out, "\t{}", value(r, ri, ci));
            }
            tally_fields(&mut out, tally);
            out.push('\n');
        }
    }
    out
}

/// The per-cell JSONL view: one object per `row × column` cell.
pub fn cell_jsonl(r: &MatrixResult) -> String {
    let lay = &r.mode.layout;
    let mut out = String::new();
    for (ri, row) in r.mode.rows.iter().enumerate() {
        for (ci, col) in row.columns.iter().enumerate() {
            let tally = &r.cells[ri][ci].tally;
            let _ = write!(
                out,
                "{{\"app\":\"{}\",\"model\":\"{}\",\"{}\":\"{}\",\"trials\":{}",
                r.app.name(),
                row.label,
                lay.column_key,
                col.name,
                tally.executions,
            );
            for (name, value) in lay.summary {
                let _ = write!(out, ",\"{name}\":{}", value(r, ri, ci));
            }
            out.push_str(",\"outcomes\":{");
            for (i, (m, n)) in outcome_counts(tally).enumerate() {
                let _ = write!(out, "{}\"{}\":{n}", if i == 0 { "" } else { "," }, m.slug());
            }
            out.push_str("}}\n");
        }
    }
    out
}

/// The contract footer of a matrix table: one PASS/FAIL line per floor.
pub fn contract_lines(r: &MatrixResult) -> String {
    let mut out = String::new();
    for c in r.contracts() {
        let _ = writeln!(
            out,
            "contract {:<34} {:>3}/{:<3} = {:>5.1}% (floor {:.0}%) {}",
            c.name,
            c.covered,
            c.denom,
            c.percent(),
            c.floor_percent,
            if c.passed() { "PASS" } else { "FAIL" }
        );
    }
    out
}

/// Sum of retired guest instructions across a world's ranks.
fn world_insns(w: &MpiWorld) -> u64 {
    (0..w.nranks()).map(|r| w.machine(r).counters.insns).sum()
}

/// What the trials of one matrix campaign share: the launch every world
/// starts from, the golden run, the hang budget, what the setup read off
/// the reference runs the mode's draws and runners need, and the clean
/// run of every world configuration a forking column runs under — each
/// made once, and only if the description calls for it. Nothing here
/// outlives the campaign.
struct Env<'a> {
    app: &'a App,
    /// The plain campaign's trial context ([`Runner::Trial`] columns).
    trial: Option<TrialContext>,
    /// The image loaded and pre-decoded once — what every world starts
    /// from, as epoch 0 of its configuration's clean run or launched
    /// directly; the trial context's own, where there is one.
    launch: Launch,
    golden: Golden,
    /// Fault dictionaries of [`Draw::Bit`] rows when no trial context
    /// already holds them.
    dicts: Option<Dictionaries>,
    /// What every column's world is configured from: the campaign's
    /// configuration under the trial hang budget, recording off.
    world: WorldConfig,
    /// The clean runs of the setup's reference configurations while the
    /// setup reads them; then those of the forking columns'
    /// configurations and of their shrink survivors.
    clean: CleanRuns,
    /// Output of the same image run clean at one fewer rank — the apps
    /// are weak-scaled, so a shrunken world solves a different problem
    /// ([`Runner::Shrink`] columns).
    shrunken_output: Vec<u8>,
    /// Fault-free syscall activity, read off the golden-configuration
    /// run ([`Draw::SyscallMalloc`] and [`Draw::SyscallWrite`] rows).
    sys: Option<SyscallCounts>,
    /// Rounds of the clean detection-off run ([`Runner::Paced`] columns)
    /// — the golden run itself unless the app's configuration asks for
    /// detection.
    ref_rounds: u64,
    /// Start each column world from a checkpoint of its configuration's
    /// clean run. Always on; tests turn it off to start every world from
    /// the launch, the reference forked columns must match.
    fork: bool,
}

/// One world configuration's clean run: its checkpoints
/// ([`EpochCache::run_clean`]), what the runner whose pass it is kept
/// beside them, and, where no column forks from it — a reference run, or
/// a shrink column's survivors — the world it ended as.
struct CleanRun {
    epochs: EpochCache,
    marks: Marks,
    end: Option<WorldSnapshot>,
}

/// What the pass of a clean run kept beside its checkpoints.
enum Marks {
    /// Nothing: a plain world's run.
    Plain,
    /// The guard's state at each checkpoint, up to its first
    /// intervention.
    Guard(Vec<Option<GuardState>>),
    /// The respawn runner's state at each checkpoint.
    Respawn(Vec<Option<RespawnState>>),
    /// The record the replica vote reads.
    Replica(Box<CleanReplica>),
}

impl CleanRun {
    /// The world the run ended as, with how it ended.
    fn end(&self) -> (MpiWorld, WorldExit) {
        let end = self
            .end
            .as_ref()
            .expect("a run no column forks from keeps its end");
        (end.restore(), self.epochs.golden_exit().clone())
    }

    /// The latest checkpoint no later than `i` at which the run's pass
    /// holds its runner's state.
    fn resumable(&self, i: usize) -> usize {
        fn held<T>(states: &[Option<T>], i: usize) -> usize {
            (1..=i).rev().find(|&j| states[j].is_some()).unwrap_or(0)
        }
        match &self.marks {
            Marks::Guard(states) => held(states, i),
            Marks::Respawn(states) => held(states, i),
            Marks::Plain | Marks::Replica(_) => i,
        }
    }

    /// The guard's state at resumable checkpoint `i`.
    fn guard(&self, i: usize) -> &GuardState {
        let state = match &self.marks {
            Marks::Guard(states) => states[i].as_ref(),
            _ => None,
        };
        state.expect("a guarded pass's state at a resumable checkpoint")
    }

    /// The respawn runner's state at checkpoint `i`.
    fn respawn(&self, i: usize) -> &RespawnState {
        let state = match &self.marks {
            Marks::Respawn(states) => states[i].as_ref(),
            _ => None,
        };
        state.expect("a respawn pass's state at a resumable checkpoint")
    }

    /// The record of a replica configuration's run.
    fn replica(&self) -> &CleanReplica {
        match &self.marks {
            Marks::Replica(clean) => clean,
            _ => panic!("a replica configuration's run records its digests"),
        }
    }
}

/// The clean runs of one campaign: one execution per distinct world
/// configuration its setup or its columns run under — two where two
/// runners that keep state of their own share one — each listed when the
/// campaign starts and made at most once, by the worker that first needs
/// it. A configuration's clean run is that configuration's cold world
/// with nothing armed, stepped as the runner that keeps state under it
/// steps it, so its checkpoints are exact fork points for any fault that
/// has not fired by them, with that runner's state there. (A guard or
/// respawn pass records its checkpoint markers as events on the world;
/// no matrix run records events, so a plain column forks from the same
/// run.) A run that does not end clean is kept as it ended. Only a run
/// that columns fork from holds checkpoints past epoch 0, and those
/// share every page they can with the runs made before them.
struct CleanRuns {
    runs: Vec<CleanEntry>,
}

/// One configuration of [`CleanRuns`].
struct CleanEntry {
    cfg: WorldConfig,
    /// Columns fork from the run; else its end is what is read.
    forked: bool,
    /// The runner that keeps state of its own whose pass the run is
    /// ([`Runner::rider`]); `None` for a plain world's run.
    rider: Option<Runner>,
    /// A column has asked to fork from the run.
    asked: AtomicBool,
    run: OnceLock<CleanRun>,
}

impl CleanRuns {
    /// List `cfg` (once per runner that keeps state under it), as forked
    /// from if `forked`, as `rider`'s pass if that is a runner.
    fn add(&mut self, cfg: WorldConfig, forked: bool, rider: Option<Runner>) {
        let fits = |e: &CleanEntry| {
            e.cfg == cfg && (rider.is_none() || e.rider.is_none() || e.rider == rider)
        };
        match self.runs.iter_mut().find(|e| fits(e)) {
            Some(e) => {
                e.forked |= forked;
                e.rider = e.rider.or(rider);
            }
            None => self.runs.push(CleanEntry {
                cfg,
                forked,
                rider,
                asked: AtomicBool::new(false),
                run: OnceLock::new(),
            }),
        }
    }

    /// `cfg`'s entry: `rider`'s pass, or for `None` the first listed.
    fn entry(&self, cfg: &WorldConfig, rider: Option<Runner>) -> &CleanEntry {
        let fits = |e: &&CleanEntry| e.cfg == *cfg && (rider.is_none() || e.rider == rider);
        let listed = self.runs.iter().find(fits);
        listed.expect("every configuration is listed when the campaign starts")
    }

    /// `cfg`'s clean run as `rider` steps it, executed from `launch` if
    /// this is its first use; `app` reads a replica run's output.
    fn get(
        &self,
        launch: &Launch,
        app: &App,
        cfg: &WorldConfig,
        rider: Option<Runner>,
    ) -> &CleanRun {
        let entry = self.entry(cfg, rider);
        entry.run.get_or_init(|| {
            let made = self.runs.iter().filter_map(|e| e.run.get());
            let like: Vec<&EpochCache> = made.map(|r| &r.epochs).collect();
            let (world, forked) = (launch.world(*cfg), entry.forked);
            let (epochs, marks, end) = match entry.rider {
                Some(Runner::Guarded(p)) => {
                    let mut state = GuardState::new(&world, &p);
                    let (epochs, states, end) =
                        EpochCache::run_clean(world, forked, &like, &mut state);
                    (epochs, Marks::Guard(states), end)
                }
                Some(Runner::Respawn(p)) => {
                    let mut state = RespawnState::new(&world, &p);
                    let (epochs, states, end) =
                        EpochCache::run_clean(world, forked, &like, &mut state);
                    (epochs, Marks::Respawn(states), end)
                }
                Some(Runner::Replicated(_)) => {
                    let mut log = DigestLog::new(&world);
                    let (epochs, _, end) = EpochCache::run_clean(world, forked, &like, &mut log);
                    let exit = epochs.golden_exit().clone();
                    let clean = CleanReplica::new(log, &end, exit, app.comparable_output(&end));
                    (epochs, Marks::Replica(Box::new(clean)), end)
                }
                _ => {
                    let (epochs, _, end) = EpochCache::run_clean(world, forked, &like, &mut ());
                    (epochs, Marks::Plain, end)
                }
            };
            let end = (!forked).then(|| end.snapshot());
            CleanRun { epochs, marks, end }
        })
    }

    /// `cfg`'s clean run to fork from, made when a column asks for it the
    /// second time: the first draw a configuration faces starts from the
    /// launch, so no campaign's first results wait for a clean run.
    fn fork_source(
        &self,
        launch: &Launch,
        app: &App,
        cfg: &WorldConfig,
        rider: Option<Runner>,
    ) -> Option<&CleanRun> {
        // Relaxed: the flag publishes nothing; the run is published by
        // its `OnceLock`.
        let asked = self.entry(cfg, rider).asked.swap(true, Ordering::Relaxed);
        asked.then(|| self.get(launch, app, cfg, rider))
    }

    /// The finished world of a reference run, which must end clean.
    fn reference(&self, launch: &Launch, app: &App, what: &str, cfg: &WorldConfig) -> MpiWorld {
        let (world, exit) = self.get(launch, app, cfg, None).end();
        assert_eq!(exit, WorldExit::Clean, "{what} run must be clean");
        world
    }
}

impl Runner {
    /// The runner itself if it keeps state of its own beside its world —
    /// a guard's, a respawn's, a replica vote's — which its
    /// configuration's clean run must carry; `None` for a runner whose
    /// world is all there is.
    fn rider(self) -> Option<Runner> {
        let rides = matches!(
            self,
            Runner::Guarded(_) | Runner::Respawn(_) | Runner::Replicated(_)
        );
        rides.then_some(self)
    }
}

/// The world configuration a column runs its worlds under, derived from
/// the campaign's `world` — the one statement of each runner's; `None`
/// for [`Runner::Trial`], which runs the campaign's trial path.
fn column_config(world: WorldConfig, col: &Column) -> Option<WorldConfig> {
    let mut cfg = world;
    isolate(&mut cfg, col.isolate);
    Some(match col.runner {
        Runner::Trial => return None,
        Runner::World => cfg,
        Runner::Channel(p) | Runner::Guarded(p) => WorldConfig {
            guard: p.channel_guard(),
            ..cfg
        },
        Runner::Paced { detector, .. } => WorldConfig {
            ft: detector,
            ..cfg
        },
        Runner::Replicated(_) => replica_config(cfg),
        Runner::Shrink(p) | Runner::Respawn(p) => ft_config(cfg, &p),
        Runner::App(p) => ulfm_config(cfg, &p),
    })
}

/// The configuration of a shrink column's survivors: one rank fewer.
fn shrunk(cfg: WorldConfig) -> WorldConfig {
    WorldConfig {
        nranks: cfg.nranks - 1,
        ..cfg
    }
}

impl<'a> Env<'a> {
    fn build(app: &'a App, mode: &MatrixMode, cfg: &CampaignConfig) -> Env<'a> {
        let runs = |f: fn(&Runner) -> bool| mode.columns().any(|c| f(&c.runner));
        let draws = |f: fn(&Draw) -> bool| mode.rows.iter().any(|r| f(&r.draw));
        // No matrix run records events, whatever the spec says.
        let cfg = CampaignConfig {
            obs_capacity: 0,
            ..*cfg
        };
        let base = trial_world_config(app.kind, &app.params, &cfg, GOLDEN_BUDGET);
        let trial = runs(|r| *r == Runner::Trial).then(|| TrialContext::build(app.clone(), &cfg));
        let launch = match &trial {
            Some(ctx) => ctx.launch.clone(),
            None => Launch::new(&app.image, base.machine, None),
        };
        // The setup's reference runs, all under the golden budget (a run
        // that stays under two budgets is the same run under either).
        // Probe answers never add rounds, so the detection-off reference
        // holds for every column.
        let paced = mode.paced().then(|| {
            let mut c = base;
            isolate(&mut c, Isolate::UlfmAndDetector);
            c
        });
        let shrinks = runs(|r| matches!(r, Runner::Shrink(_))).then(|| shrunk(base));
        let sys_rows = draws(|d| matches!(d, Draw::SyscallMalloc | Draw::SyscallWrite));
        let mut clean = CleanRuns { runs: Vec::new() };
        for c in [Some(base), paced, shrinks].into_iter().flatten() {
            clean.add(c, false, None);
        }
        let reference = |what, c: WorldConfig| clean.reference(&launch, app, what, &c);
        let golden = match &trial {
            Some(ctx) => ctx.golden.clone(),
            None => app.golden_of(&reference("golden", base), &WorldExit::Clean),
        };
        let sys = sys_rows.then(|| SyscallCounts::of(&reference("golden", base)));
        let ref_rounds = paced.map_or(0, |c| reference("reference", c).round());
        let shrunken_output = shrinks.map_or_else(Vec::new, |c| {
            app.comparable_output(&reference("shrunken golden", c))
        });
        // The setup has read its reference runs; the campaign keeps the
        // runs its columns read.
        clean.runs.clear();
        let budget = trial_budget(&golden, &cfg).saturating_mul(mode.budget_scale);
        let world = trial_world_config(app.kind, &app.params, &cfg, budget);
        for col in mode.columns() {
            let Some(c) = column_config(world, col) else {
                continue;
            };
            clean.add(c, true, col.runner.rider());
            if matches!(col.runner, Runner::Shrink(_)) {
                clean.add(shrunk(c), false, None);
            }
        }
        Env {
            app,
            dicts: (trial.is_none() && draws(|d| matches!(d, Draw::Bit(_))))
                .then(|| Dictionaries::build(app)),
            world,
            clean,
            shrunken_output,
            sys,
            ref_rounds,
            trial,
            launch,
            golden,
            fork: true,
        }
    }

    /// The same campaign with every column world started from the
    /// launch. Test-only — the reference forked columns must match byte
    /// for byte.
    #[cfg(test)]
    fn launch_every_world(mut self) -> Env<'a> {
        self.fork = false;
        self
    }

    /// The trial context's plan of a mode with a [`Runner::Trial`]
    /// column: a slot per row and draw, in the order a plain campaign of
    /// the rows' classes runs them. `None` for the other modes.
    fn plan(&self, mode: &MatrixMode, cfg: &CampaignConfig) -> Option<Vec<Planned>> {
        let ctx = self.trial.as_ref()?;
        let classes: Vec<TargetClass> = mode.rows.iter().map(|r| r.draw.class()).collect();
        Some(ctx.plan(&classes, cfg, Duration::Transient, &|_, _| false))
    }

    /// Draw the row's faults for `seed` and their detail. A drawn fault
    /// is spent by arming it (a bit flip's action is a boxed closure), so
    /// every world that faces the draw draws it again — identically.
    fn draw(&self, row: &Row, seed: u64) -> (Vec<Fault>, String) {
        let dicts = self.trial.as_ref().map(|ctx| &ctx.dicts);
        let dicts = dicts.or(self.dicts.as_ref());
        let (sys, nranks) = (self.sys.as_ref(), self.app.params.nranks);
        row.draw.draw(&self.golden, dicts, sys, seed, nranks)
    }

    /// `cfg`'s clean run as `runner` steps it.
    fn clean_run(&self, cfg: &WorldConfig, runner: Runner) -> &CleanRun {
        self.clean.get(&self.launch, self.app, cfg, runner.rider())
    }

    /// Where a `runner` column's world of `cfg` armed with `faults`
    /// starts: the clean run of `cfg` its pass made, and the index of the
    /// latest of its checkpoints at which none of the faults has fired
    /// and the runner's state is known. `None` — start from the launch,
    /// at round 0 — when not forking, when that is epoch 0, and on the
    /// configuration's first draw (see [`CleanRuns::fork_source`]); a
    /// replica column reads its run from the first draw on, so it forks
    /// from then on too.
    fn fork_point(
        &self,
        cfg: &WorldConfig,
        runner: Runner,
        faults: &[Fault],
    ) -> Option<(&CleanRun, usize)> {
        if !self.fork {
            return None;
        }
        let run = match runner {
            Runner::Replicated(_) => self.clean_run(cfg, runner),
            _ => self
                .clean
                .fork_source(&self.launch, self.app, cfg, runner.rider())?,
        };
        let points: Vec<_> = faults
            .iter()
            .map(|f| (f.rank, f.effect.clock(), f.at))
            .collect();
        let best = run.epochs.best_index(&points);
        // A plain column keeps no runner state, so any checkpoint of the
        // pass serves it: the world runs on as a plain one past an
        // intervention.
        let i = match runner.rider() {
            Some(_) => run.resumable(best),
            None => best,
        };
        (i > 0).then_some((run, i))
    }

    /// A `cfg` world armed with `faults`: restored from checkpoint `i` of
    /// `run` where `from` is `Some((run, i))`, else launched at round 0.
    fn armed(
        &self,
        cfg: WorldConfig,
        from: Option<(&CleanRun, usize)>,
        faults: Vec<Fault>,
    ) -> MpiWorld {
        let mut w = match from {
            Some((run, i)) => run.epochs.epochs()[i].snap.restore(),
            None => self.launch.world(cfg),
        };
        arm(&mut w, faults);
        w
    }

    /// Run one column of one draw: start the column's world, arm the
    /// draw, run, classify. A [`Runner::Trial`] column runs `planned`, the
    /// draw's slot of the trial context's plan, as a plain campaign's
    /// worker does, on the interval sweep `held`. Returns the outcome, the
    /// runner's counters and the guest instructions retired.
    fn run(
        &self,
        row: &Row,
        col: &Column,
        seed: u64,
        planned: Option<&Planned>,
        held: &mut Option<Interval>,
    ) -> (Manifestation, Aux, u64) {
        let Some(cfg) = column_config(self.world, col) else {
            let ctx = self.trial.as_ref().expect("built for Runner::Trial");
            let p = planned.expect("a mode with a trial column runs on the plan");
            let (run, _) = ctx.run_planned(p, held);
            return (run.record.outcome, Aux::default(), run.insns);
        };
        let (w, outcome, aux) = self.face(col, cfg, &|| self.draw(row, seed).0);
        (outcome, aux, world_insns(&w))
    }

    /// A [`Runner::Guarded`] column's run of the draw `faults` under
    /// `cfg`, from `from` ([`Env::fork_point`]): resumed with the guarded
    /// pass's state there, or started at round 0.
    fn guarded(
        &self,
        cfg: WorldConfig,
        p: &GuardPolicy,
        from: Option<(&CleanRun, usize)>,
        faults: &dyn Fn() -> Vec<Fault>,
    ) -> (MpiWorld, GuardReport) {
        let w = self.armed(cfg, from, faults());
        // The state was taken with nothing armed; the draw's faults,
        // unfired at the fork, ride the rollback checkpoint as they ride
        // a round-0 run's.
        match from {
            Some((run, i)) => resume_guarded(w, run.guard(i).armed(|w| arm(w, faults()))),
            None => run_guarded(w, p),
        }
    }

    /// Face the draw `faults` with column `col`, whose worlds run under
    /// `cfg`: start its world, arm the draw, run, classify. A drawn fault
    /// is spent by arming it, so `faults` draws it again for every world
    /// that faces it. Returns the world the run ended with, the outcome
    /// and the runner's counters.
    fn face(
        &self,
        col: &Column,
        cfg: WorldConfig,
        faults: &dyn Fn() -> Vec<Fault>,
    ) -> (MpiWorld, Manifestation, Aux) {
        let (app, golden) = (self.app, &self.golden.output);
        let output = |w: &MpiWorld| app.comparable_output(w);
        let from = self.fork_point(&cfg, col.runner, &faults());
        let world = || self.armed(cfg, from, faults());

        // A mechanism that intervened and still finished clean succeeded
        // if the output is its reference; every other run classifies as
        // usual.
        let judge = |w: &MpiWorld, exit: &WorldExit, intervened, reference: &Vec<u8>, success| {
            let out = output(w);
            match exit {
                WorldExit::Clean if intervened && out == *reference => success,
                WorldExit::Clean if intervened => Manifestation::Incorrect,
                _ => classify(exit, &out, golden),
            }
        };
        use Manifestation::{MaskedByChannel, MaskedByReplica, Recovered, RecoveredByApp};
        let one = |n: u32| [n.into(), 0, 0];
        match col.runner {
            Runner::Trial => unreachable!("the trial path has no column configuration"),
            Runner::World => {
                let mut w = world();
                let m = classify(&w.run(), &output(&w), golden);
                (w, m, Aux::default())
            }
            Runner::Channel(_) => {
                let mut w = world();
                let exit = w.run();
                let m = judge(&w, &exit, w.retransmits() > 0, golden, MaskedByChannel);
                (w, m, Aux::default())
            }
            Runner::Paced {
                degraded_permille, ..
            } => {
                let mut w = world();
                let exit = w.run();
                let (rounds, clean) = (w.round(), self.ref_rounds);
                let (m, permille) =
                    classify_perturb(&exit, &output(&w), golden, rounds, clean, degraded_permille);
                (w, m, [permille, 0, 0])
            }
            Runner::Guarded(p) => {
                let (w, rep) = self.guarded(cfg, &p, from, faults);
                let m = match &rep.exit {
                    WorldExit::Clean => judge(&w, &rep.exit, rep.intervened(), golden, Recovered),
                    _ => Manifestation::DetectedByGuard,
                };
                let aux = [rep.detections, rep.restarts, rep.retransmits].map(u64::from);
                (w, m, aux)
            }
            Runner::Replicated(p) => {
                // The armed replica starts at a checkpoint of the clean
                // run the others are — epoch 0, the launch, when not
                // forking — so it steps in lockstep with them.
                let run = self.clean_run(&cfg, col.runner);
                let start = &run.epochs.epochs()[from.map_or(0, |(_, i)| i)].snap;
                let (w, rep) = run_replicated(start, run.replica(), &p, vec![faults()], output);
                let m = judge(&w, &rep.exit, rep.votes > 0, golden, MaskedByReplica);
                (w, m, one(rep.votes))
            }
            Runner::Shrink(_) => {
                // The survivors carry no fault and this campaign records
                // no events, so every draw's survivors are the one clean
                // run of their configuration.
                let survivors = |failed| match self.fork {
                    true => self.clean.get(&self.launch, app, &shrunk(cfg), None).end(),
                    false => run_survivors(&self.launch, cfg, failed),
                };
                let (w, rep) = run_shrink(world(), survivors);
                let survivors = &self.shrunken_output;
                let m = judge(&w, &rep.exit, rep.intervened(), survivors, Recovered);
                (w, m, Aux::default())
            }
            Runner::Respawn(p) => {
                let w = world();
                // The line was cut with nothing armed; the draw's faults,
                // unfired at the fork, ride it as they ride a round-0
                // run's.
                let (w, rep) = match from {
                    Some((run, i)) => resume_respawn(w, run.respawn(i).armed(|w| arm(w, faults()))),
                    None => run_respawn(w, &p),
                };
                let m = judge(&w, &rep.exit, rep.intervened(), golden, Recovered);
                let (respawns, lines) = (rep.respawns.into(), rep.checkpoints.into());
                (w, m, [respawns, lines, rep.lost_rounds])
            }
            Runner::App(_) => {
                // Only a shrink the application itself called counts.
                let (w, rep) = run_app(world());
                let m = judge(&w, &rep.exit, w.app_shrinks() > 0, golden, RecoveredByApp);
                (w, m, one(rep.shrinks))
            }
        }
    }
}

/// Arm every fault of a draw on `world`.
fn arm(world: &mut MpiWorld, faults: Vec<Fault>) {
    faults.into_iter().for_each(|f| world.arm(f));
}

fn isolate(cfg: &mut WorldConfig, what: Isolate) {
    cfg.ulfm &= what == Isolate::Nothing;
    cfg.ft.enabled &= what != Isolate::UlfmAndDetector;
}

/// Run a matrix campaign on the engine's slot loop: workers claiming
/// runs of slots, pause/stop via `control`, progress — and, where a slot
/// is a cell, one canonical record per slot — through `sink`, and
/// record-level resume. A mode with a [`Runner::Trial`] column lays its
/// slots out in the trial context's plan order, the slots of each swept
/// interval one run, as a plain campaign does; the others in `(group, k)`
/// order, each slot a run of one. Returns `None` when stopped before
/// every slot completed.
///
/// Everything a worker computes is a function of `(app, mode, cfg, row,
/// k)`, and cells are assembled in slot order, so the result is
/// bit-identical for any worker count, claim order or resume point.
pub fn run_matrix(
    app: &App,
    mode: &MatrixMode,
    cfg: &CampaignConfig,
    sink: &dyn EngineSink,
    control: &EngineControl,
    resume: Option<CompletedSlots>,
) -> Option<MatrixResult> {
    let env = Env::build(app, mode, cfg);
    let groups = mode.groups();
    // `Some` iff slots are cells: they stream, and may be adopted.
    let codec = match mode.slot {
        Slot::Cell {
            write_aux,
            read_aux,
        } => Some((write_aux, read_aux)),
        Slot::Row => None,
    };
    let resume = resume.filter(|_| codec.is_some()).unwrap_or_default();
    let adoptable = resume.len() as u64;
    // The slots `(group, k)` in claim order, each with its planned trial
    // where the mode has a trial column.
    let order: Vec<(usize, u32, Option<Planned>)> = match env.plan(mode, cfg) {
        Some(plan) => {
            let groups = &groups;
            let of_row = move |p: Planned| {
                let row = groups.iter().enumerate().filter(move |(_, g)| g.0 == p.ci);
                row.map(move |(g, _)| (g, p.k, Some(p)))
            };
            plan.into_iter().flat_map(of_row).collect()
        }
        None => {
            let all = |g| (0..cfg.injections).map(move |k| (g, k, None));
            (0..groups.len()).flat_map(all).collect()
        }
    };

    // One slot: adopt it, or draw once and run the slot's columns. A
    // record the mode cannot read back completely is not adopted.
    let exec = |held: &mut Option<Interval>, i: u32| -> Vec<MatrixTrial> {
        let (g, k, planned) = &order[i as usize];
        let (g, k) = (*g, *k);
        if let (Some(t), Some((_, read_aux))) = (resume.take(g, k), codec) {
            if let Some(aux) = read_aux(&t.record.detail) {
                let trial = MatrixTrial {
                    detail: t.record.detail,
                    outcome: t.record.outcome,
                    aux,
                    insns: t.insns,
                };
                return vec![trial];
            }
        }
        let (r, columns) = &groups[g];
        let row = &mode.rows[*r];
        let seed = trial_seed(cfg.seed, *r, k);
        let (_, drawn) = env.draw(row, seed);
        let mut run = |col: &Column| {
            let (outcome, aux, insns) = env.run(row, col, seed, planned.as_ref(), held);
            let detail = match codec {
                Some((write_aux, _)) => {
                    format!("{}/{}: {drawn}{}", col.name, row.label, write_aux(&aux))
                }
                None => drawn.clone(),
            };
            MatrixTrial {
                detail,
                outcome,
                aux,
                insns,
            }
        };
        let slot: Vec<_> = row.columns[columns.clone()].iter().map(&mut run).collect();
        if codec.is_some() {
            let t = &slot[0];
            sink.trial(&TrialOutput {
                ci: g,
                k,
                record: TrialRecord {
                    class: row.draw.class(),
                    detail: t.detail.clone(),
                    outcome: t.outcome,
                },
                insns: t.insns,
                metrics: None,
            });
        }
        slot
    };
    // An adopted slot is a run of one, as in a plain campaign.
    let runs = plan_runs(order.iter().map(|&(g, k, p)| {
        let swept = p.filter(|p| p.swept && !resume.holds(g, k));
        swept.map(|p| p.epoch)
    }));
    let (slots, _) = run_slots(&runs, cfg.threads, control, sink, adoptable, exec);
    let mut done: Vec<_> = order.iter().map(|&(g, k, _)| (g, k)).zip(slots?).collect();
    done.sort_unstable_by_key(|&(slot, _)| slot);

    // Assemble in slot order — the same folds in the same order
    // regardless of worker count, resume point or claim order.
    let mut cells: Vec<Vec<Cell>> = mode
        .rows
        .iter()
        .map(|r| vec![Cell::default(); r.columns.len()])
        .collect();
    let mut insns_total = 0;
    for ((g, _), slot) in done {
        let (r, columns) = &groups[g];
        for (c, trial) in columns.clone().zip(slot) {
            insns_total += trial.insns;
            cells[*r][c].tally.record(trial.outcome);
            cells[*r][c].trials.push(trial);
        }
    }
    Some(MatrixResult {
        app: app.kind,
        mode: mode.clone(),
        cells,
        golden: env.golden,
        ref_rounds: env.ref_rounds,
        insns_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_matrix_counts_every_pair() {
        // Every baseline × column pair has its own counter — `Degraded`,
        // the thirteenth class, included.
        let all = Manifestation::ALL;
        let mut m = TransitionMatrix::default();
        for (i, &from) in all.iter().enumerate() {
            for (j, &to) in all.iter().enumerate() {
                for _ in 0..=(i * all.len() + j) % 3 {
                    m.record(from, to);
                }
            }
        }
        let mut want = Vec::new();
        for (i, &from) in all.iter().enumerate() {
            for (j, &to) in all.iter().enumerate() {
                let n = ((i * all.len() + j) % 3 + 1) as u32;
                assert_eq!(m.count(from, to), n, "{from} -> {to}");
                want.push((from, to, n));
            }
        }
        assert_eq!(m.entries(), want);
        assert_eq!(want.len(), 13 * 13);
        assert!(TransitionMatrix::default().entries().is_empty());
    }

    /// What [`forked_columns_are_cold_columns`] saw.
    #[derive(Default)]
    struct Seen {
        /// Column runs compared.
        runs: u32,
        /// Of those, runs whose column forked from a checkpoint past
        /// round 0.
        forked_late: u32,
        /// Of those, `Guarded` and `Respawn` runs: runners that resumed
        /// from their pass's state at the checkpoint.
        resumed: u32,
        /// Column configurations whose clean run did not end clean.
        unclean: u32,
    }

    /// `faults` faced by `col` of `forked` and of `cold`: the same
    /// outcome, counters and retired instructions, and the same world at
    /// the end.
    fn same_face(
        forked: &Env,
        cold: &Env,
        col: &Column,
        faults: impl Fn() -> Vec<Fault>,
        what: &str,
    ) {
        let cfg = column_config(forked.world, col).expect("a column that runs worlds");
        let (a, m, aux) = forked.face(col, cfg, &faults);
        let (b, cold_m, cold_aux) = cold.face(col, cfg, &faults);
        assert_eq!((m, aux), (cold_m, cold_aux), "{what}");
        assert_eq!(world_insns(&a), world_insns(&b), "{what}");
        assert!(
            a.snapshot() == b.snapshot(),
            "{what}: the worlds ended apart"
        );
    }

    /// The lattice plane "forked column = cold column": every draw of
    /// every row of `mode` (the spec mode so named, with `flags` set, on
    /// the message and regular-register regions), faced by every column
    /// forked from its configuration's clean run and by the same column
    /// launched at round 0, on wavetoy and jacobi3d and both exec tiers,
    /// ends alike: outcome, aux, retired instructions and the final world,
    /// under the same draw detail. Then the block-clock edge, on the fast
    /// tier: every column running the failure detector faces a kill of
    /// every rank at exactly that rank's block clock at each checkpoint
    /// of its configuration's clean run — a kill that fired a round
    /// before a checkpoint where its rank sat blocked through the round.
    fn forked_columns_are_cold_columns(mode: &str, flags: &[(&str, &str)], n: u32) -> Seen {
        use crate::spec::{CampaignSpec, SpecMode};
        use fl_apps::AppParams;
        let mut seen = Seen::default();
        for kind in [AppKind::Wavetoy, AppKind::Jacobi3d] {
            let app = App::build(kind, AppParams::tiny(kind));
            let mut spec = CampaignSpec::new(kind);
            spec.classes = vec![TargetClass::Message, TargetClass::RegularReg];
            spec.mode = SpecMode::named(mode).expect("a matrix mode");
            let flags = flags
                .iter()
                .map(|(f, v)| (f.to_string(), Some(v.to_string())));
            spec.set_flags(&flags.collect::<Vec<_>>())
                .expect("valid flags");
            let matrix = spec.matrix().expect("a matrix mode");
            for fastpath in [true, false] {
                let cfg = CampaignConfig {
                    injections: n,
                    seed: 0x01A7_71CE,
                    fastpath,
                    ..Default::default()
                };
                let forked = Env::build(&app, &matrix, &cfg);
                let cold = Env::build(&app, &matrix, &cfg).launch_every_world();
                let plan = forked.plan(&matrix, &cfg).unwrap_or_default();
                for (r, row) in matrix.rows.iter().enumerate() {
                    for k in 0..n {
                        let seed = trial_seed(cfg.seed, r, k);
                        let planned = plan.iter().find(|p| (p.ci, p.k) == (r, k));
                        let (faults, detail) = forked.draw(row, seed);
                        assert_eq!(detail, cold.draw(row, seed).1);
                        for col in &row.columns {
                            let what = format!(
                                "{kind} fastpath={fastpath} {} × {}: {detail}",
                                row.label, col.name
                            );
                            seen.runs += 1;
                            let Some(c) = column_config(forked.world, col) else {
                                let got = forked.run(row, col, seed, planned, &mut None);
                                let want = cold.run(row, col, seed, planned, &mut None);
                                assert_eq!(got, want, "{what}");
                                continue;
                            };
                            let draw = || forked.draw(row, seed).0;
                            same_face(&forked, &cold, col, draw, &what);
                            let from = forked.fork_point(&c, col.runner, &faults);
                            if let Runner::Guarded(p) = col.runner {
                                // Its whole report: the rollback
                                // checkpoint's round included.
                                let (_, got) = forked.guarded(c, &p, from, &draw);
                                let (_, want) = cold.guarded(c, &p, None, &draw);
                                assert_eq!(got, want, "{what}");
                            }
                            let late = from.is_some();
                            seen.forked_late += u32::from(late);
                            let resumes =
                                matches!(col.runner, Runner::Guarded(_) | Runner::Respawn(_));
                            seen.resumed += u32::from(late && resumes);
                        }
                    }
                }
                let mut edges = Vec::new();
                for col in matrix.columns().filter(|_| fastpath) {
                    let Some(c) = column_config(forked.world, col) else {
                        continue;
                    };
                    let run = (c, col.runner.rider());
                    if !c.ft.enabled || edges.contains(&run) {
                        continue;
                    }
                    edges.push(run);
                    for e in &forked.clean_run(&c, col.runner).epochs.epochs()[1..] {
                        for rank in 0..c.nranks {
                            let at = e.snap.machine(rank).counters.blocks;
                            let kill = || vec![Fault::kill(rank, at, false).into()];
                            let what =
                                format!("{kind} {}: rank {rank} killed at block {at}", col.name);
                            same_face(&forked, &cold, col, kill, &what);
                        }
                    }
                }
                let ended = forked.clean.runs.iter().filter_map(|e| e.run.get());
                let unclean = ended.filter(|run| *run.epochs.golden_exit() != WorldExit::Clean);
                seen.unclean += unclean.count() as u32;
            }
        }
        seen
    }

    #[test]
    fn forked_chaos_columns_are_cold_columns() {
        let seen = forked_columns_are_cold_columns("chaos", &[], 1);
        assert!(
            seen.forked_late * 2 > seen.runs,
            "{} of {}",
            seen.forked_late,
            seen.runs
        );
        assert!(seen.resumed > 0, "no guarded draw resumed");
    }

    #[test]
    fn forked_perturb_columns_are_cold_columns() {
        let seen = forked_columns_are_cold_columns("perturb", &[], 1);
        assert!(
            seen.forked_late * 4 > seen.runs,
            "{} of {}",
            seen.forked_late,
            seen.runs
        );
        assert_eq!(seen.unclean, 0);
    }

    #[test]
    fn forked_ft_and_guard_columns_are_cold_columns() {
        // `Respawn` (ft) and `Guarded` (guard) draws after their
        // configuration's first resume from their pass's state.
        for mode in ["ft", "guard"] {
            let seen = forked_columns_are_cold_columns(mode, &[], 2);
            assert!(
                seen.resumed > 0,
                "{mode}: {} of {}",
                seen.resumed,
                seen.runs
            );
        }
    }

    #[test]
    fn a_column_whose_clean_run_fails_still_forks_exactly() {
        // One silent round is a suspicion: the detector columns' clean
        // runs end in a false positive. Their draws fork from the
        // checkpoints before it and end as the cold runs do, whatever
        // that is.
        let seen = forked_columns_are_cold_columns("perturb", &[("suspect-rounds", "1")], 1);
        assert!(seen.unclean > 0, "every clean run ended clean");
        assert!(seen.forked_late > 0);
    }
}
