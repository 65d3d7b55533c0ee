//! The campaign engine: spec → plan → worker pool → record sink.
//!
//! Before this module existed every campaign flavour (plain, coverage,
//! ft) owned a private driver loop: an atomic cursor, a thread scope,
//! a slot-addressed record vector. The engine extracts that loop
//! into one place and adds the three capabilities the campaign service
//! needs:
//!
//! * **Runs** — the campaign's slots, in the order its plan lays them
//!   out, are grouped into runs: the slots that fork in one swept epoch
//!   interval form one run, every other slot a run of one. Workers claim
//!   whole runs from one cursor, so each interval is swept once at any
//!   worker count. Records stay addressed by `(class, trial)`, so the
//!   output is bit-identical no matter which worker ran which trial.
//! * **Pause / stop** — workers consult an [`EngineControl`] between
//!   trials. Pause parks them on a condvar mid-campaign; stop makes
//!   them drain and exit, leaving a partial slot vector.
//! * **Resume** — a [`CompletedSlots`] map (typically parsed back from
//!   a streamed JSONL record file) pre-fills slots so a restarted
//!   engine re-runs only the missing trials. Because every trial is
//!   deterministic in its campaign coordinates, the resumed campaign's
//!   canonical record stream and metrics are bit-identical to an
//!   uninterrupted run's.
//!
//! Plain campaigns ([`run_campaign_engine`]) and matrix campaigns
//! ([`crate::matrix::run_matrix`]) are clients of the one internal slot
//! loop; the one-shot CLI verbs reach both through [`run_spec`], and
//! `faultlab serve` through [`run_spec_memo`], which may run a plain
//! campaign on the context the previous one built; callers that already
//! hold an app call them with it ([`run_campaign`]). There is exactly one
//! way trials get scheduled, executed, counted and recorded.

use crate::campaign::{
    CampaignConfig, CampaignResult, ClassResult, ContextKey, ConvergeStats, TrialContext,
    TrialRecord,
};
use crate::faultmodel::Duration;
use crate::json::{escape, parse, Json};
use crate::matrix::{run_matrix, ContractCheck, MatrixResult};
use crate::obs::{trial_metrics, CampaignMetrics, ClassMetrics, TrialMetrics, KIND_COUNT};
use crate::outcome::{Manifestation, Tally};
use crate::report::Report;
use crate::spec::CampaignSpec;
use crate::target::TargetClass;
use fl_apps::{App, AppKind, AppParams};
use fl_machine::ExecStats;
use fl_snap::Interval;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Engine run state, transitioned by controllers and observed by
/// workers between trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Workers claim and execute trials.
    Running,
    /// Workers park on the control's condvar; the campaign thread stays
    /// inside the pool, resumable instantly.
    Paused,
    /// Workers finish their current trial and exit; the pool returns a
    /// partial slot vector.
    Stopping,
}

/// Shared pause/stop switch for one engine run.
///
/// Cheap to share (`&EngineControl` is all the workers hold); a server
/// keeps one per campaign so `POST /campaigns/<id>/pause` can park the
/// pool mid-run.
#[derive(Debug, Default)]
pub struct EngineControl {
    state: Mutex<Option<RunState>>,
    cv: Condvar,
}

impl EngineControl {
    /// A control in the `Running` state.
    pub fn new() -> EngineControl {
        EngineControl {
            state: Mutex::new(Some(RunState::Running)),
            cv: Condvar::new(),
        }
    }

    fn set(&self, s: RunState) {
        *self.state.lock().unwrap() = Some(s);
        self.cv.notify_all();
    }

    /// Park workers after their current trial.
    pub fn pause(&self) {
        self.set(RunState::Paused);
    }

    /// Unpark paused workers.
    pub fn resume(&self) {
        self.set(RunState::Running);
    }

    /// Drain workers; the engine returns a partial run.
    pub fn stop(&self) {
        self.set(RunState::Stopping);
    }

    /// The current state.
    pub fn state(&self) -> RunState {
        self.state.lock().unwrap().unwrap_or(RunState::Running)
    }

    /// Worker-side gate: blocks while paused, returns `false` once the
    /// run is stopping.
    pub fn proceed(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        while *st == Some(RunState::Paused) {
            st = self.cv.wait(st).unwrap();
        }
        *st != Some(RunState::Stopping)
    }
}

/// Group a plan's slots into runs, the unit a worker claims: consecutive
/// slots with the same `Some` key — the epoch of the swept interval they
/// fork in — form one run, so one worker sweeps that interval once for
/// all of them; every `None` slot is a run of one. The runs cover the
/// slots in plan order.
pub(crate) fn plan_runs(keys: impl IntoIterator<Item = Option<usize>>) -> Vec<Range<u32>> {
    let mut runs: Vec<Range<u32>> = Vec::new();
    let mut last = None;
    for (i, key) in (0..).zip(keys) {
        match runs.last_mut() {
            Some(run) if key.is_some() && key == last => run.end = i + 1,
            _ => runs.push(i..i + 1),
        }
        last = key;
    }
    runs
}

/// The one slot loop of every campaign. `runs` are consecutive ranges
/// covering the slot space ([`plan_runs`]); each of up to `threads`
/// workers (0: one per available core) claims the next whole run from one cursor and hands `exec`
/// its slots in order, with its own state `W`, which lives as long as the
/// worker. Records are addressed by slot index, so the output does not
/// depend on which worker ran which run. `resumed` slots are held for
/// adoption, each a run of one: at most one worker starts per run left
/// with a slot to run. This is the one place a finished slot is counted
/// and reported to `sink`. Returns the filled slots (`None` after a stop)
/// and the final counters.
pub(crate) fn run_slots<T: Send, W: Default>(
    runs: &[Range<u32>],
    threads: usize,
    control: &EngineControl,
    sink: &dyn EngineSink,
    resumed: u64,
    exec: impl Fn(&mut W, u32) -> T + Sync,
) -> (Option<Vec<T>>, EngineProgress) {
    let total = runs.last().map_or(0, |r| r.end);
    let to_run = runs
        .len()
        .saturating_sub(usize::try_from(resumed).unwrap_or(usize::MAX));
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        n => n,
    };
    let workers = threads.min(to_run).max(1);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..total).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let done = AtomicU64::new(0);
    let started = std::time::Instant::now();
    let progress = |done: u64| EngineProgress {
        total: total.into(),
        done,
        resumed,
        wall_nanos: started.elapsed().as_nanos() as u64,
    };
    let work = || {
        let mut state = W::default();
        while let Some(run) = runs.get(next.fetch_add(1, Ordering::Relaxed)) {
            for i in run.clone() {
                if !control.proceed() {
                    return;
                }
                let t = exec(&mut state, i);
                slots.lock().unwrap()[i as usize] = Some(t);
                sink.progress(progress(done.fetch_add(1, Ordering::Relaxed) + 1));
            }
        }
    };
    // The calling thread is one of the workers: a one-worker campaign
    // starts no thread, and a long-lived caller's thread does the work
    // instead of waiting on one that is new for every campaign.
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    let slots = slots.into_inner().unwrap();
    let filled = slots.iter().all(Option::is_some);
    let filled = filled.then(|| slots.into_iter().flatten().collect());
    (filled, progress(done.load(Ordering::Relaxed)))
}

/// One finished trial, addressed by its campaign coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutput {
    /// Class position in the campaign's class list.
    pub ci: usize,
    /// Trial index within the class.
    pub k: u32,
    /// What was injected and what happened.
    pub record: TrialRecord,
    /// Guest instructions retired across all ranks.
    pub insns: u64,
    /// Per-trial event metrics, present iff the campaign records events.
    pub metrics: Option<TrialMetrics>,
}

/// Subscriber to engine output: per-trial records in completion order,
/// plus progress counter updates. One-shot CLI progress lines, the
/// server's status responses and the watch stream all render from this
/// one event source.
pub trait EngineSink: Sync {
    /// One trial finished (called from worker threads, completion
    /// order). Not called for slots adopted from [`CompletedSlots`] —
    /// those were already streamed by the run that produced them.
    fn trial(&self, _t: &TrialOutput) {}

    /// Progress counters advanced.
    fn progress(&self, _p: EngineProgress) {}
}

/// A sink that ignores everything.
pub struct NullSink;

impl EngineSink for NullSink {}

/// A sink that collects canonical record lines in memory.
pub struct VecSink {
    lines: Mutex<Vec<String>>,
    app: AppKind,
}

impl VecSink {
    /// An empty sink for `app`'s records.
    pub fn new(app: AppKind) -> VecSink {
        VecSink {
            lines: Mutex::new(Vec::new()),
            app,
        }
    }

    /// The collected lines, in completion order.
    pub fn into_lines(self) -> Vec<String> {
        self.lines.into_inner().unwrap()
    }
}

impl EngineSink for VecSink {
    fn trial(&self, t: &TrialOutput) {
        self.lines.lock().unwrap().push(record_line(self.app, t));
    }
}

/// A snapshot of a campaign engine run's progress counters, emitted to
/// every [`EngineSink`] after each trial completes. One-shot CLI
/// progress lines, the server's status responses and the watch stream
/// all render from it ([`StderrProgress`] is the CLI one) — there is no
/// ad-hoc progress printing anywhere else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProgress {
    /// Trials in the campaign's slot space.
    pub total: u64,
    /// Slots finished so far this run, including adopted ones.
    pub done: u64,
    /// Slots adopted from a previous run's records rather than executed.
    pub resumed: u64,
    /// Wall-clock nanoseconds since the engine run started.
    pub wall_nanos: u64,
}

impl EngineProgress {
    /// Trials actually executed by this run (done minus adopted).
    pub fn executed(&self) -> u64 {
        self.done.saturating_sub(self.resumed)
    }

    /// Completed fraction in percent (100 for an empty campaign).
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            return 100.0;
        }
        100.0 * self.done as f64 / self.total as f64
    }

    /// Executed-trial throughput in trials per second (0 before any
    /// wall time has elapsed).
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.executed() as f64 * 1e9 / self.wall_nanos as f64
    }

    /// One-line human rendering, shared by the CLI progress line and
    /// the server's watch stream.
    pub fn render(&self) -> String {
        let mut line = format!(
            "{}/{} trials ({:.0}%), {:.1} trials/s",
            self.done,
            self.total,
            self.percent(),
            self.trials_per_sec()
        );
        if self.resumed > 0 {
            line.push_str(&format!(" ({} resumed)", self.resumed));
        }
        line
    }
}

/// The one-shot CLI's progress subscriber: rewrites a stderr status
/// line every `every` trials (and on completion). Stderr so piped
/// stdout (JSONL, TSV) stays clean.
pub struct StderrProgress {
    every: u64,
    last: AtomicU64,
}

impl StderrProgress {
    /// Report every `every` trials (clamped to at least 1).
    pub fn new(every: u64) -> StderrProgress {
        StderrProgress {
            every: every.max(1),
            last: AtomicU64::new(0),
        }
    }
}

impl EngineSink for StderrProgress {
    fn progress(&self, p: EngineProgress) {
        if !p.done.is_multiple_of(self.every) && p.done != p.total {
            return;
        }
        // Monotonic filter: completion-order updates may arrive slightly
        // out of order across workers; never paint a stale count.
        let prev = self.last.fetch_max(p.done, Ordering::Relaxed);
        if p.done < prev {
            return;
        }
        eprint!("\r  {}", p.render());
        if p.done == p.total {
            eprintln!();
        }
    }
}

/// Slots completed by a previous run of the same campaign, keyed by
/// `(ci, k)`. The engine adopts them instead of re-executing.
#[derive(Debug, Default)]
pub struct CompletedSlots {
    map: Mutex<HashMap<(usize, u32), TrialOutput>>,
}

impl CompletedSlots {
    /// An empty map.
    pub fn new() -> CompletedSlots {
        CompletedSlots::default()
    }

    /// Adopt one finished trial.
    pub fn insert(&self, t: TrialOutput) {
        self.map.lock().unwrap().insert((t.ci, t.k), t);
    }

    /// Completed slots held.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when no slots are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn take(&self, ci: usize, k: u32) -> Option<TrialOutput> {
        self.map.lock().unwrap().remove(&(ci, k))
    }

    pub(crate) fn holds(&self, ci: usize, k: u32) -> bool {
        self.map.lock().unwrap().contains_key(&(ci, k))
    }

    /// Parse a streamed JSONL record file back into the completed slots
    /// of a plain campaign over `classes`; see [`SlotPlan::adopt`].
    /// Returns the slots and how many lines were skipped.
    pub fn from_jsonl(
        text: &str,
        classes: &[TargetClass],
        injections: u32,
    ) -> (CompletedSlots, usize) {
        let (slots, _, skipped) = SlotPlan::streamed(classes.to_vec(), injections).adopt(text);
        (slots, skipped)
    }
}

/// Mode-specific counters a matrix trial keeps beside its outcome; a
/// column's runner says what each position holds
/// ([`crate::matrix::Runner`]). All zero in plain campaigns.
pub type Aux = [u64; 3];

/// The slot space of one campaign, stated once per mode and read by the
/// engine, the CLI progress line and the daemon: slot `(ci, k)` exists
/// for `ci < groups`, `k < injections`.
#[derive(Debug, Clone)]
pub struct SlotPlan {
    /// Slot groups: regions of a plain campaign, cells or rows of a
    /// matrix campaign.
    pub groups: usize,
    /// Slots per group.
    pub injections: u32,
    /// The record class of each group's streamed records — `groups`
    /// long, or empty when the mode streams none (progress only) and
    /// therefore has nothing to adopt on resume.
    pub classes: Vec<TargetClass>,
    /// Reads a trial's [`Aux`] back out of its streamed record detail;
    /// `None` when the detail does not hold all of it.
    pub read_aux: fn(&str) -> Option<Aux>,
}

impl SlotPlan {
    /// One group per class, every slot streaming a self-contained record.
    pub fn streamed(classes: Vec<TargetClass>, injections: u32) -> SlotPlan {
        SlotPlan {
            groups: classes.len(),
            injections,
            classes,
            read_aux: |_| Some(Aux::default()),
        }
    }

    /// Slots in the plan — the `total` of every [`EngineProgress`].
    pub fn total(&self) -> u64 {
        self.groups as u64 * self.injections as u64
    }

    /// Does every slot stream one canonical record line?
    pub fn streams(&self) -> bool {
        !self.classes.is_empty()
    }

    /// The one adoption filter. Splits a streamed record file into what
    /// a resumed engine adopts — as completed slots, and as the
    /// newline-terminated lines to keep on disk — and counts the rest.
    /// A line is adopted when it parses, lies inside the slot space,
    /// carries its slot's class and can be read back completely; a torn
    /// tail after a kill or a mangled detail is skipped and its slot
    /// simply runs again.
    pub fn adopt(&self, text: &str) -> (CompletedSlots, String, usize) {
        let slots = CompletedSlots::new();
        let (mut kept, mut skipped) = (String::new(), 0);
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match parse_record_line(line) {
                Ok(t)
                    if t.k < self.injections
                        && self.classes.get(t.ci) == Some(&t.record.class)
                        && (self.read_aux)(&t.record.detail).is_some() =>
                {
                    kept.push_str(line);
                    kept.push('\n');
                    slots.insert(t);
                }
                _ => skipped += 1,
            }
        }
        (slots, kept, skipped)
    }
}

/// What an engine run produced.
#[derive(Debug)]
pub struct EngineRun {
    /// The assembled campaign result — `Some` iff every slot completed
    /// (the run was not stopped early).
    pub result: Option<CampaignResult>,
    /// Final progress counters.
    pub progress: EngineProgress,
}

/// Run a campaign on the engine: plan, worker pool claiming runs of
/// slots, record sink, pause/stop control, optional resume.
///
/// Its trial loop is the single backend behind [`run_spec`], `faultlab
/// campaign --jobs N` and `faultlab serve`. Records, metrics and
/// instruction totals are bit-identical for any worker count, claim
/// order, or resume point, because every trial is deterministic in
/// `(spec, ci, k)` and all aggregation happens in slot order.
pub fn run_campaign_engine(
    app: &App,
    classes: &[TargetClass],
    cfg: &CampaignConfig,
    sink: &dyn EngineSink,
    control: &EngineControl,
    resume: Option<CompletedSlots>,
) -> EngineRun {
    let ctx = TrialContext::build(app.clone(), cfg);
    run_engine(&ctx, classes, cfg, sink, control, resume)
}

/// [`run_campaign_engine`] for callers that hold an `App` — a custom
/// build, a variant, one reused across campaigns — and want nothing but
/// the result: no sink, no control, run to completion.
pub fn run_campaign(app: &App, classes: &[TargetClass], cfg: &CampaignConfig) -> CampaignResult {
    run_campaign_engine(app, classes, cfg, &NullSink, &EngineControl::new(), None)
        .result
        .expect("uncontrolled engine runs always complete")
}

/// Run the trials of the campaign `classes` × `cfg` names on `ctx`, a
/// context built for `cfg`'s [`ContextKey`] — by this campaign or by an
/// earlier one with the same key.
fn run_engine(
    ctx: &TrialContext,
    classes: &[TargetClass],
    cfg: &CampaignConfig,
    sink: &dyn EngineSink,
    control: &EngineControl,
    resume: Option<CompletedSlots>,
) -> EngineRun {
    let observe = cfg.obs_capacity > 0;
    // Exec-cache and early-termination telemetry. Sums are commutative,
    // so the totals are independent of worker count; resume-adopted
    // slots contribute zero (their worlds ran in a previous process).
    let telemetry = Mutex::new((ExecStats::default(), ConvergeStats::default()));
    let resume = resume.unwrap_or_default();
    let plan = ctx.plan(classes, cfg, Duration::Transient, &|ci, k| {
        resume.holds(ci, k)
    });
    let adoptable = resume.len() as u64;
    // A worker holds the sweep of one interval at a time: the one its
    // current run's trials fork in.
    let exec = |held: &mut Option<Interval>, i: u32| {
        let p = &plan[i as usize];
        let (ci, k) = (p.ci, p.k);
        if let Some(t) = resume.take(ci, k) {
            return t;
        }
        let (run, swept) = ctx.run_planned(p, held);
        {
            let mut t = telemetry.lock().unwrap();
            t.0.add(&swept);
            t.0.add(&run.world.exec_stats());
            t.1.add(&run.converge);
        }
        let metrics = observe
            .then(|| trial_metrics(&run.record, run.rank, &run.world.event_streams(), run.insns));
        let t = TrialOutput {
            ci,
            k,
            record: run.record,
            insns: run.insns,
            metrics,
        };
        sink.trial(&t);
        t
    };
    let runs = plan_runs(plan.iter().map(|p| {
        let swept = p.swept && !resume.holds(p.ci, p.k);
        swept.then_some(p.epoch)
    }));
    let (slots, progress) = run_slots(&runs, cfg.threads, control, sink, adoptable, exec);
    let Some(mut done) = slots else {
        return EngineRun {
            result: None,
            progress,
        };
    };

    // Assemble the result in slot order — the same folds in the same
    // order regardless of worker count, resume point or plan order.
    done.sort_unstable_by_key(|t| (t.ci, t.k));
    let mut done = done.into_iter().peekable();
    let mut insns_total = 0u64;
    let mut results = Vec::new();
    let mut metrics: Vec<ClassMetrics> = Vec::new();
    for (ci, &class) in classes.iter().enumerate() {
        let mut class_metrics = ClassMetrics::new(class);
        let mut tally = Tally::default();
        let trials: Vec<TrialRecord> = std::iter::from_fn(|| done.next_if(|t| t.ci == ci))
            .map(|t| {
                insns_total += t.insns;
                if let Some(tm) = &t.metrics {
                    class_metrics.fold(tm);
                }
                tally.record(t.record.outcome);
                t.record
            })
            .collect();
        if observe {
            metrics.push(class_metrics);
        }
        results.push(ClassResult {
            class,
            tally,
            trials,
        });
    }
    let (exec_stats, converge) = telemetry.into_inner().unwrap();
    EngineRun {
        result: Some(CampaignResult {
            app: ctx.app.kind,
            classes: results,
            golden: ctx.golden.clone(),
            metrics: observe.then_some(CampaignMetrics { classes: metrics }),
            insns_total,
            wall_nanos: progress.wall_nanos,
            exec_stats,
            converge,
        }),
        progress,
    }
}

/// What running a [`CampaignSpec`] produced.
#[derive(Debug)]
pub enum SpecOutcome {
    /// A plain campaign's result.
    Campaign(CampaignResult),
    /// A guard, ft, chaos or perturb campaign's result.
    Matrix(MatrixResult),
}

impl SpecOutcome {
    /// The result's table, TSV and JSONL views.
    pub fn report(&self) -> &dyn Report {
        match self {
            SpecOutcome::Campaign(r) => r,
            SpecOutcome::Matrix(r) => r,
        }
    }

    /// The mode's contract floors, evaluated; a plain campaign has none.
    pub fn contracts(&self) -> Vec<ContractCheck> {
        match self {
            SpecOutcome::Campaign(_) => Vec::new(),
            SpecOutcome::Matrix(r) => r.contracts(),
        }
    }
}

/// Run a [`CampaignSpec`] end to end on the engine — the single entry
/// point behind the one-shot CLI verbs and the campaign service.
/// Returns `None` when `control` stopped the run before completion.
///
/// `resume` pre-fills completed slots of the modes whose slots stream
/// records ([`SlotPlan::streams`]: plain, chaos and perturb campaigns);
/// guard and ft campaigns always run every slot.
pub fn run_spec(
    spec: &CampaignSpec,
    sink: &dyn EngineSink,
    control: &EngineControl,
    resume: Option<CompletedSlots>,
) -> Option<SpecOutcome> {
    run_spec_memo(spec, sink, control, resume, &ContextMemo::default())
}

/// [`run_spec`] with a plain campaign's context taken from `memo` when
/// the previous plain campaign run through it left one that fits, and
/// left there for the next. Records are byte-identical either way: a
/// context is a function of its key alone (see [`ContextMemo`]). Matrix
/// campaigns bypass the memo.
pub fn run_spec_memo(
    spec: &CampaignSpec,
    sink: &dyn EngineSink,
    control: &EngineControl,
    resume: Option<CompletedSlots>,
    memo: &ContextMemo,
) -> Option<SpecOutcome> {
    let params = if spec.tiny {
        fl_apps::AppParams::tiny(spec.app)
    } else {
        fl_apps::AppParams::default_for(spec.app)
    };
    let cfg = &spec.campaign;
    match spec.matrix() {
        None => {
            let ctx = memo.context(spec.app, params, cfg);
            run_engine(&ctx, &spec.classes, cfg, sink, control, resume)
                .result
                .map(SpecOutcome::Campaign)
        }
        Some(mode) => {
            let app = App::build(spec.app, params);
            run_matrix(&app, &mode, cfg, sink, control, resume).map(SpecOutcome::Matrix)
        }
    }
}

/// The trial context of the last plain campaign run through
/// [`run_spec_memo`], kept for the next one. A long-lived caller — the
/// campaign daemon — holds one, so a campaign whose context fits the
/// previous one's skips compile, launch and the golden pass. Contexts
/// fit when the app, its size, the epoch interval, the hang-bound
/// factor, the event-ring capacity and the execution tier are equal,
/// and for a nondeterministic app the seed, which fixes its schedule;
/// seed, regions, injections and workers are otherwise the campaign's
/// own. It holds one context, never more: on a miss the old
/// context is let go before the new one is built, so the memo adds at
/// most one context to what running campaigns hold.
#[derive(Default)]
pub struct ContextMemo {
    last: Mutex<Option<(ContextKey, Arc<TrialContext>)>>,
}

impl ContextMemo {
    /// The context of a campaign of `kind` at `params` under `cfg`: the
    /// held one if its key matches, else a new one, which is then held.
    fn context(&self, kind: AppKind, params: AppParams, cfg: &CampaignConfig) -> Arc<TrialContext> {
        let key = ContextKey::new(kind, params, cfg);
        // Every update is one assignment, so a poisoned lock still holds
        // a valid memo.
        let last = || self.last.lock().unwrap_or_else(PoisonError::into_inner);
        let held = last().take();
        match held {
            Some((held, ctx)) if held == key => {
                *last() = Some((held, ctx.clone()));
                return ctx;
            }
            stale => drop(stale),
        }
        let ctx = Arc::new(TrialContext::build(App::build(kind, params), cfg));
        *last() = Some((key, ctx.clone()));
        ctx
    }
}

fn opt_u64(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".into(),
    }
}

/// Serialize one trial as its canonical JSONL record line (no trailing
/// newline). This is the wire format of the record stream: stable field
/// order, integers only, so identical trials always produce identical
/// bytes.
pub fn record_line(app: AppKind, t: &TrialOutput) -> String {
    let mut out = format!(
        "{{\"app\":\"{}\",\"class\":\"{}\",\"ci\":{},\"k\":{},\"detail\":\"{}\",\"outcome\":\"{}\",\"insns\":{}",
        app.name(),
        t.record.class.name(),
        t.ci,
        t.k,
        escape(&t.record.detail),
        t.record.outcome.slug(),
        t.insns,
    );
    match &t.metrics {
        None => out.push_str(",\"metrics\":null}"),
        Some(m) => {
            let _ = write!(
                out,
                ",\"metrics\":{{\"injection_clock\":{},\"first_symptom_clock\":{},\"blocks_to_manifestation\":{},\"events_to_symptom\":{},\"events_total\":{},\"kind_counts\":[",
                opt_u64(m.injection_clock),
                opt_u64(m.first_symptom_clock),
                opt_u64(m.blocks_to_manifestation),
                opt_u64(m.events_to_symptom),
                m.events_total,
            );
            for (i, n) in m.kind_counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{n}");
            }
            out.push_str("]}}");
        }
    }
    out
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing/invalid `{key}`"))
}

fn field_opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => j
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("invalid `{key}`")),
    }
}

/// Parse a canonical record line back into a [`TrialOutput`] — the
/// resume path's inverse of [`record_line`].
pub fn parse_record_line(line: &str) -> Result<TrialOutput, String> {
    let v = parse(line)?;
    let class: TargetClass = v
        .get("class")
        .and_then(Json::as_str)
        .ok_or("missing `class`")?
        .parse()?;
    let outcome = v
        .get("outcome")
        .and_then(Json::as_str)
        .and_then(Manifestation::from_slug)
        .ok_or("missing/unknown `outcome`")?;
    let detail = v
        .get("detail")
        .and_then(Json::as_str)
        .ok_or("missing `detail`")?
        .to_string();
    let insns = field_u64(&v, "insns")?;
    let metrics = match v.get("metrics") {
        None | Some(Json::Null) => None,
        Some(m) => {
            let counts = m
                .get("kind_counts")
                .and_then(Json::as_arr)
                .ok_or("missing `kind_counts`")?;
            if counts.len() != KIND_COUNT {
                return Err(format!(
                    "kind_counts has {} entries, expected {KIND_COUNT}",
                    counts.len()
                ));
            }
            let mut kind_counts = [0u64; KIND_COUNT];
            for (dst, src) in kind_counts.iter_mut().zip(counts) {
                *dst = src.as_u64().ok_or("invalid kind count")?;
            }
            Some(TrialMetrics {
                outcome,
                injection_clock: field_opt_u64(m, "injection_clock")?,
                first_symptom_clock: field_opt_u64(m, "first_symptom_clock")?,
                blocks_to_manifestation: field_opt_u64(m, "blocks_to_manifestation")?,
                events_to_symptom: field_opt_u64(m, "events_to_symptom")?,
                events_total: field_u64(m, "events_total")?,
                insns,
                kind_counts,
            })
        }
    };
    Ok(TrialOutput {
        ci: field_u64(&v, "ci")? as usize,
        k: field_u64(&v, "k")? as u32,
        record: TrialRecord {
            class,
            detail,
            outcome,
        },
        insns,
        metrics,
    })
}

/// Sort a streamed JSONL record file into the canonical slot order
/// `(ci, k)`, preserving each line byte-for-byte. Unparsable lines are
/// dropped (a torn tail after a kill). This is "the slot-addressed
/// record sort": any two runs of the same spec produce the same
/// canonical stream, regardless of worker count or interruptions.
pub fn sort_records_jsonl(text: &str) -> String {
    let mut keyed: Vec<((usize, u32), &str)> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| {
            let t = parse_record_line(l).ok()?;
            Some(((t.ci, t.k), l))
        })
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    let mut out = String::new();
    for (_, l) in keyed {
        out.push_str(l);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_apps::AppParams;

    fn tiny() -> App {
        App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy))
    }

    fn cfg(injections: u32, seed: u64, threads: usize) -> CampaignConfig {
        CampaignConfig {
            injections,
            seed,
            threads,
            ..Default::default()
        }
    }

    #[test]
    fn engine_progress_derivations() {
        let p = EngineProgress {
            total: 200,
            done: 50,
            resumed: 10,
            wall_nanos: 2_000_000_000,
        };
        assert_eq!(p.executed(), 40);
        assert!((p.percent() - 25.0).abs() < 1e-12);
        assert!((p.trials_per_sec() - 20.0).abs() < 1e-12);
        let line = p.render();
        assert!(line.contains("50/200"), "{line}");
        assert!(line.contains("(10 resumed)"), "{line}");
        assert_eq!(EngineProgress::default().percent(), 100.0);
        assert_eq!(EngineProgress::default().trials_per_sec(), 0.0);
    }

    /// Runs of the given lengths, keyed as a plan keys its slots: the
    /// slots of a run longer than one share their run's key.
    fn runs_of(lens: &[u32]) -> Vec<Range<u32>> {
        let keys = lens.iter().enumerate();
        plan_runs(keys.flat_map(|(i, &n)| (0..n).map(move |_| (n > 1).then_some(i))))
    }

    #[test]
    fn plan_runs_join_consecutive_equal_keys() {
        let (a, b) = (Some(2), Some(3));
        let keys = [None, a, a, b, None, None, b, b];
        let want = [0..1, 1..3, 3..4, 4..5, 5..6, 6..8];
        assert_eq!(plan_runs(keys), want);
        assert_eq!(runs_of(&[3, 1, 2]), [0..3, 3..4, 4..6]);
        assert!(plan_runs([]).is_empty());
    }

    #[test]
    fn each_run_goes_whole_to_one_worker_in_order() {
        let lens = [5, 1, 1, 3, 7, 1, 2, 1, 1, 6];
        let runs = runs_of(&lens);
        let total = lens.iter().sum::<u32>();
        let ran = Mutex::new(Vec::new());
        let control = EngineControl::new();
        let (slots, progress) = run_slots(&runs, 3, &control, &NullSink, 0, |_: &mut (), i| {
            ran.lock().unwrap().push((std::thread::current().id(), i));
            std::thread::sleep(std::time::Duration::from_millis(1));
            i
        });
        assert_eq!(slots, Some((0..total).collect()));
        assert_eq!(progress.done, u64::from(total));
        let ran = ran.into_inner().unwrap();
        assert_eq!(ran.len(), total as usize, "every slot runs exactly once");
        for run in &runs {
            let on: Vec<_> = ran.iter().filter(|(_, i)| run.contains(i)).collect();
            assert!(
                on.iter().all(|(t, _)| *t == on[0].0),
                "{run:?} split: {on:?}"
            );
            let order: Vec<u32> = on.iter().map(|&&(_, i)| i).collect();
            assert_eq!(
                order,
                run.clone().collect::<Vec<_>>(),
                "{run:?} out of order"
            );
        }
    }

    /// The finishing time of `workers` workers that each claim the next
    /// run of `costs` as they come free, as the pool's cursor hands runs
    /// out.
    fn makespan(costs: &[u64], workers: usize) -> u64 {
        let mut free_at = vec![0u64; workers];
        for &c in costs {
            *free_at.iter_mut().min().unwrap() += c;
        }
        free_at.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn makespan_hands_each_run_to_the_first_free_worker() {
        assert_eq!(makespan(&[5, 1, 1, 1], 2), 5);
        assert_eq!(makespan(&[1, 1, 1, 5], 2), 6);
        assert_eq!(makespan(&[], 4), 0);
    }

    /// The runs of the benchmark's `tables_det` specs (pass 0) and the
    /// guest work each does at one worker, in scheduler quanta granted to
    /// its sweep and trials — a deterministic count — and in wall time on
    /// the host: how many runs, how large the largest, and when 2 and 4
    /// workers claiming whole runs would finish, as shares of the total.
    /// Claimed in plan order, longest run first (the size known before a
    /// run runs) and largest first (known only after), next to the bound
    /// no order beats: the larger of the even split and the largest run.
    /// `cargo test --release -p fl-inject --lib run_shape -- --ignored --nocapture`
    #[test]
    #[ignore = "paper-size plans, run on demand"]
    fn run_shape_at_paper_size() {
        for (kind, i) in [
            (AppKind::Wavetoy, 0),
            (AppKind::Climsim, 1),
            (AppKind::Jacobi3d, 2),
        ] {
            let cfg = cfg(20, 20_040_611 + i, 1);
            let ctx = TrialContext::build(App::build(kind, AppParams::default_for(kind)), &cfg);
            let plan = ctx.plan(&TargetClass::ALL, &cfg, Duration::Transient, &|_, _| false);
            let runs = plan_runs(plan.iter().map(|p| p.swept.then_some(p.epoch)));
            let mut held = None;
            let (mut quanta, mut nanos) = (Vec::new(), Vec::new());
            for run in &runs {
                let started = std::time::Instant::now();
                let mut q = 0;
                for i in run.clone() {
                    let (trial, swept) = ctx.run_planned(&plan[i as usize], &mut held);
                    q += swept.quanta_granted + trial.world.exec_stats().quanta_granted;
                }
                quanta.push(q);
                nanos.push(started.elapsed().as_nanos() as u64);
            }
            let longest = runs.iter().map(|r| r.len()).max().unwrap_or(0);
            println!(
                "{kind}: {} runs of {} trials, {} of more than one; longest {longest} trials ({:.1} %)",
                runs.len(),
                plan.len(),
                runs.iter().filter(|r| r.len() > 1).count(),
                100.0 * longest as f64 / plan.len() as f64,
            );
            for (unit, costs) in [("quanta", &quanta), ("ms", &nanos)] {
                let total: u64 = costs.iter().sum();
                let largest = costs.iter().copied().max().unwrap_or(0);
                let mut sorted = costs.clone();
                sorted.sort_unstable_by(|a, b| b.cmp(a));
                let mut by_len: Vec<_> = runs.iter().zip(costs.iter()).collect();
                by_len.sort_by_key(|(r, _)| std::cmp::Reverse(r.len()));
                let by_len: Vec<u64> = by_len.into_iter().map(|(_, &c)| c).collect();
                let share = |c: u64| 100.0 * c as f64 / total as f64;
                let scale = if unit == "ms" { 1e-6 } else { 1.0 };
                let mut line = format!(
                    "  {unit}: total {:.0}, largest run {:.1} %",
                    total as f64 * scale,
                    share(largest)
                );
                for w in [2, 4] {
                    let even = total.div_ceil(w as u64).max(largest);
                    // Quanta are exact: claims in plan order finish within
                    // a tenth of the best any order could do.
                    if unit == "quanta" {
                        assert!(makespan(costs, w) * 10 <= even * 11, "{kind} at {w}");
                    }
                    let _ = write!(
                        line,
                        "; {w} workers: plan order {:.1} %, longest first {:.1} %, largest first {:.1} %, bound {:.1} %",
                        share(makespan(costs, w)),
                        share(makespan(&by_len, w)),
                        share(makespan(&sorted, w)),
                        share(even),
                    );
                }
                println!("{line}");
            }
        }
    }

    #[test]
    fn pool_slots_are_complete_and_ordered() {
        let control = EngineControl::new();
        let slots = |n: u32, threads| {
            let runs = runs_of(&vec![1; n as usize]);
            run_slots(&runs, threads, &control, &NullSink, 0, |_: &mut (), i| i).0
        };
        assert_eq!(slots(8, 3), Some((0..8).collect()));
        assert_eq!(slots(0, 2), Some(Vec::new()));
        // Each worker's state lives across the slots it claims.
        let (slots, _) = run_slots(&runs_of(&[3, 5]), 1, &control, &NullSink, 0, {
            |seen: &mut u32, _| {
                *seen += 1;
                *seen
            }
        });
        assert_eq!(slots, Some((1..=8).collect()));
    }

    #[test]
    fn stopped_pool_returns_partial() {
        let control = EngineControl::new();
        let ran = AtomicU64::new(0);
        let (slots, progress) = run_slots(&runs_of(&[64]), 1, &control, &NullSink, 0, {
            |_: &mut (), i| {
                if ran.fetch_add(1, Ordering::Relaxed) + 1 == 10 {
                    control.stop();
                }
                i
            }
        });
        assert!(slots.is_none());
        assert!((10..64).contains(&progress.done), "done {}", progress.done);
    }

    #[test]
    fn campaign_reports_throughput() {
        let r = run_campaign(&tiny(), &[TargetClass::RegularReg], &cfg(4, 2, 0));
        assert!(r.insns_total > 0);
        assert!(r.wall_nanos > 0);
        assert_eq!(r.trials_total(), 4);
        assert!(r.mips() > 0.0);
        assert!(r.trials_per_sec() > 0.0);
        assert!(r.metrics.is_none(), "recording is off by default");
    }

    #[test]
    fn engine_runs_an_app_no_spec_can_name() {
        // A spec names apps by kind and `tiny`; the engine and the matrix
        // runner take whatever app they are handed.
        let kind = AppKind::Wavetoy;
        let mut params = AppParams::tiny(kind);
        params.steps += 1; // neither tiny nor default
        let app = App::build(kind, params);
        let classes = [TargetClass::RegularReg];
        let c = cfg(4, 6, 0);
        let r = run_campaign(&app, &classes, &c);
        assert_eq!(r.classes[0].tally.executions, 4);
        let guard = crate::guarded::mode(&classes, fl_guard::GuardPolicy::default());
        let g = run_matrix(&app, &guard, &c, &NullSink, &EngineControl::new(), None).unwrap();
        assert_eq!(g.cell(0, 1).tally.executions, 4);
    }

    #[test]
    fn jobs_count_does_not_change_records() {
        let app = tiny();
        let classes = [TargetClass::RegularReg, TargetClass::Stack];
        let lines = |threads: usize| {
            let sink = VecSink::new(app.kind);
            let c = cfg(8, 0x10B5, threads);
            let run = run_campaign_engine(&app, &classes, &c, &sink, &EngineControl::new(), None);
            assert!(run.result.is_some());
            sort_records_jsonl(&sink.into_lines().join("\n"))
        };
        assert_eq!(lines(1), lines(4), "records must be byte-identical");
    }

    /// Workers claim whole runs, so each swept interval is swept once at
    /// any worker count: the guest work of the sweeps and the trials
    /// together is the one-worker campaign's.
    #[test]
    fn any_worker_count_does_the_sweep_work_of_one() {
        let app = tiny();
        let classes = [
            TargetClass::RegularReg,
            TargetClass::Stack,
            TargetClass::Heap,
        ];
        let work = |threads| {
            let r = run_campaign(&app, &classes, &cfg(12, 0x5EE9, threads));
            (r.exec_stats.quanta_granted, r.converge.forked_at_round)
        };
        let (one, forked) = work(1);
        assert!(forked > 0, "the plan sweeps no interval");
        for threads in [2, 4] {
            assert_eq!(work(threads).0, one, "quanta granted at {threads} workers");
        }
    }

    #[test]
    fn record_lines_round_trip() {
        let app = tiny();
        let classes = [TargetClass::RegularReg];
        let sink = VecSink::new(app.kind);
        let mut c = cfg(4, 7, 1);
        c.obs_capacity = 256;
        let run = run_campaign_engine(&app, &classes, &c, &sink, &EngineControl::new(), None);
        let result = run.result.unwrap();
        for line in sink.into_lines() {
            let t = parse_record_line(&line).expect("line parses");
            assert_eq!(t.record, result.classes[t.ci].trials[t.k as usize]);
            assert_eq!(record_line(app.kind, &t), line, "re-emit is byte-identical");
            assert!(t.metrics.is_some(), "observed runs carry metrics");
        }
    }

    #[test]
    fn resume_from_records_is_bit_identical() {
        let app = tiny();
        let classes = [TargetClass::RegularReg, TargetClass::Message];
        let mut c = cfg(6, 0x5EED, 2);
        c.obs_capacity = 128;

        // Uninterrupted reference.
        let ref_sink = VecSink::new(app.kind);
        let reference =
            run_campaign_engine(&app, &classes, &c, &ref_sink, &EngineControl::new(), None)
                .result
                .unwrap();
        let ref_lines = sort_records_jsonl(&ref_sink.into_lines().join("\n"));

        // Interrupted run: stop after 5 trials.
        let control = EngineControl::new();
        let sink = VecSink::new(app.kind);
        let seen = AtomicU64::new(0);
        struct StopAfter<'a> {
            inner: &'a VecSink,
            control: &'a EngineControl,
            seen: &'a AtomicU64,
            at: u64,
        }
        impl EngineSink for StopAfter<'_> {
            fn trial(&self, t: &TrialOutput) {
                self.inner.trial(t);
                if self.seen.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
                    self.control.stop();
                }
            }
        }
        let stopper = StopAfter {
            inner: &sink,
            control: &control,
            seen: &seen,
            at: 5,
        };
        let first = run_campaign_engine(&app, &classes, &c, &stopper, &control, None);
        assert!(first.result.is_none(), "stopped run must not complete");
        let first_lines = sink.into_lines();
        assert!(!first_lines.is_empty());

        // Resume from the streamed records.
        let (slots, skipped) =
            CompletedSlots::from_jsonl(&first_lines.join("\n"), &classes, c.injections);
        assert_eq!(skipped, 0);
        let resumed_before = slots.len();
        let sink2 = VecSink::new(app.kind);
        let second = run_campaign_engine(
            &app,
            &classes,
            &c,
            &sink2,
            &EngineControl::new(),
            Some(slots),
        );
        let resumed = second.result.expect("resumed run completes");
        let second_lines = sink2.into_lines();
        assert_eq!(
            first_lines.len() + second_lines.len(),
            classes.len() * c.injections as usize,
            "no trial runs twice"
        );
        assert_eq!(second.progress.resumed, resumed_before as u64);

        // Canonical stream and all aggregates are bit-identical.
        let mut all = first_lines;
        all.extend(second_lines);
        assert_eq!(sort_records_jsonl(&all.join("\n")), ref_lines);
        for (a, b) in resumed.classes.iter().zip(&reference.classes) {
            assert_eq!(a.trials, b.trials);
            assert_eq!(a.tally, b.tally);
        }
        assert_eq!(resumed.metrics, reference.metrics);
        assert_eq!(resumed.insns_total, reference.insns_total);
    }

    #[test]
    fn torn_lines_are_skipped_on_resume() {
        let text = "{\"app\":\"wavetoy\",\"class\":\"regular-reg\",\"ci\":0,\"k\":0,\"detail\":\"d\",\"outcome\":\"crash\",\"insns\":5,\"metrics\":null}\n{\"app\":\"wavetoy\",\"cla";
        let (slots, skipped) = CompletedSlots::from_jsonl(text, &[TargetClass::RegularReg], 4);
        assert_eq!(slots.len(), 1);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn pause_parks_and_resume_releases_workers() {
        let control = EngineControl::new();
        control.pause();
        assert_eq!(control.state(), RunState::Paused);
        let done = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let runs = runs_of(&[1; 8]);
                let (slots, _) = run_slots(&runs, 2, &control, &NullSink, 0, |_: &mut (), k| {
                    done.fetch_add(1, Ordering::Relaxed);
                    k
                });
                assert!(slots.is_some());
            });
            // Workers are parked: nothing completes while paused.
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert_eq!(done.load(Ordering::Relaxed), 0);
            control.resume();
        });
        assert_eq!(done.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn converge_counters_are_deterministic_telemetry() {
        let app = tiny();
        let classes = [TargetClass::Bss, TargetClass::Stack];
        let run = |threads: usize, resume: Option<CompletedSlots>| {
            let sink = VecSink::new(app.kind);
            let c = cfg(10, 0xC0DE, threads);
            let r = run_campaign_engine(&app, &classes, &c, &sink, &EngineControl::new(), resume)
                .result
                .unwrap();
            (r.converge, sink.into_lines())
        };
        let (one, lines) = run(1, None);
        assert!(one.trials_converged + one.decided_at_draw >= 10, "{one:?}");
        assert!(one.decided_at_draw >= 1, "{one:?}");
        assert!(one.epoch_compares >= one.trials_converged);
        // Unlike the exec-cache counters these do not depend on who ran
        // what: they are sums of per-trial constants.
        assert_eq!(run(4, None).0, one);
        // They never reach a record.
        assert!(lines.iter().all(|l| !l.contains("converge")));
        // Adopted slots ran in another process: they contribute nothing.
        let (slots, _) = CompletedSlots::from_jsonl(&lines.join("\n"), &classes, 10);
        assert_eq!(run(2, Some(slots)).0, ConvergeStats::default());
    }

    /// Convergence-aware termination changes no record byte.
    ///
    /// A forked trial may end at the first epoch boundary where it is
    /// provably the golden run again — or, in an interval the campaign
    /// swept, at the first round checkpoint between two epochs. The claim
    /// under test is the strongest one available: across apps, class
    /// subsets, seeds, epoch cadences, worker counts, execution tiers and
    /// choices of swept intervals (those two trials share, every one,
    /// none), the campaign's record lines (`insns` included), tallies and
    /// `insns_total` equal those of the same campaign with every trial run
    /// to its own end — also when the campaign is killed at an arbitrary
    /// slot and resumed from its record file.
    mod prop_converge {
        use super::super::*;
        use crate::campaign::Sweeps;
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

        /// The choices of swept intervals a campaign that ends trials
        /// early can make: those at least two executing trials fork in
        /// (the campaign's own rule), every one, none.
        const ENDING: [Sweeps; 3] = [Sweeps::Shared, Sweeps::Always, Sweeps::Never];

        /// Completion-order record lines and the assembled result of the
        /// campaign on a context sweeping the intervals `sweeps` names, or
        /// running every trial to its own end (`None`).
        fn run(
            sweeps: Option<Sweeps>,
            app: &App,
            classes: &[TargetClass],
            cfg: &CampaignConfig,
            resume: Option<CompletedSlots>,
        ) -> (Vec<String>, CampaignResult) {
            let ctx = TrialContext::build(app.clone(), cfg);
            let ctx = match sweeps {
                Some(sweeps) => ctx.sweeping(sweeps),
                None => ctx.run_to_completion(),
            };
            let sink = VecSink::new(app.kind);
            let result = run_engine(&ctx, classes, cfg, &sink, &EngineControl::new(), resume)
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
                let sweeps = Some(ENDING[sweeps]);
                let classes = classes(mask);
                let cfg = CampaignConfig {
                    injections: INJECTIONS,
                    seed,
                    threads,
                    epoch_rounds: [1, 4, 16, 64][cadence],
                    fastpath,
                    ..Default::default()
                };
                let what = format!("{} {:?} {:?} sweeping {:?}", app.kind, classes, cfg, sweeps);

                let (full_lines, full) = run(None, app, &classes, &cfg, None);
                prop_assert_eq!(full.converge, ConvergeStats::default(), "reference ran on: {}", &what);
                let (lines, ended) = run(sweeps, app, &classes, &cfg, None);

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
                let (fresh, resumed) = run(sweeps, app, &classes, &cfg, Some(slots));
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
        /// nondeterministic one included — most benign trials do end
        /// early, at every cadence.
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
                    let (_, r) = run(Some(Sweeps::Shared), app(kind), &classes, &cfg, None);
                    let correct: u32 = r
                        .classes
                        .iter()
                        .map(|c| c.tally.count(Manifestation::Correct))
                        .sum();
                    // A coarse cadence can outlast a tiny app's tail; a
                    // fine one must catch nearly every benign trial.
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

        /// Nor may the sweep plane: trials do fork from round checkpoints
        /// and do end between epochs — on every app, at every cadence with
        /// rounds between its epochs — when every interval is swept, and a
        /// sweep ends no fewer trials early.
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
                    let (_, swept) = run(Some(Sweeps::Always), app(kind), &classes, &cfg, None);
                    let (_, plain) = run(Some(Sweeps::Never), app(kind), &classes, &cfg, None);
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
    }
}
