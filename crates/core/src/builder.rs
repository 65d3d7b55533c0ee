//! The fluent campaign API — a thin veneer over the campaign engine.
//!
//! [`CampaignBuilder`] is the single front door for configuring and
//! running injection campaigns: application, region set, fault duration
//! model, trial count, seeding, epoch forking, event recording and
//! guarded execution all hang off one builder instead of a positional
//! struct literal. It holds no execution logic of its own: every `run*`
//! call hands the app it wraps to the engine [`crate::run_spec`] calls
//! on the app a spec names — [`crate::run_campaign_engine`] or
//! [`crate::run_matrix`] — so builder-run and spec-run campaigns are
//! byte-identical by construction. Only non-transient fault models run
//! on a loop of their own.
//!
//! ```
//! use fl_apps::{App, AppKind, AppParams};
//! use fl_inject::{CampaignBuilder, TargetClass};
//!
//! let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
//! let result = CampaignBuilder::new(&app)
//!     .classes(&[TargetClass::RegularReg])
//!     .injections(10)
//!     .seed(7)
//!     .run();
//! assert_eq!(result.classes[0].tally.executions, 10);
//! ```

use crate::campaign::{
    replay_trial_impl, trial_seed, CampaignConfig, CampaignResult, ClassResult, TrialRecord,
};
use crate::chaos::ChaosPolicy;
use crate::engine::{run_campaign_engine, EngineControl, NullSink};
use crate::faultmodel::{model_classes, run_model_trial, FaultModel};
use crate::matrix::{run_matrix, MatrixResult};
use crate::obs::TrialTrace;
use crate::outcome::Tally;
use crate::perturb::PerturbPolicy;
use crate::spec::{CampaignSpec, SpecMode};
use crate::target::TargetClass;
use fl_apps::{App, AppParams};
use fl_ft::FtPolicy;
use fl_guard::GuardPolicy;
use std::mem::discriminant;

/// Fluent configuration for one injection campaign.
///
/// Defaults mirror [`CampaignConfig::default`]: 500 injections per
/// class, all eight target classes, the transient fault model, epoch
/// forking every 16 rounds, event recording off.
#[derive(Clone)]
pub struct CampaignBuilder<'a> {
    app: &'a App,
    classes: Vec<TargetClass>,
    cfg: CampaignConfig,
    model: FaultModel,
    mode: SpecMode,
}

impl<'a> CampaignBuilder<'a> {
    /// Start configuring a campaign against `app`.
    pub fn new(app: &'a App) -> CampaignBuilder<'a> {
        CampaignBuilder {
            app,
            classes: TargetClass::ALL.to_vec(),
            cfg: CampaignConfig::default(),
            model: FaultModel::Transient,
            mode: SpecMode::Campaign,
        }
    }

    /// Replace the target-class set (request order = result order).
    pub fn classes(mut self, classes: &[TargetClass]) -> Self {
        self.classes = classes.to_vec();
        self
    }

    /// Injections per target class.
    pub fn injections(mut self, n: u32) -> Self {
        self.cfg.injections = n;
        self
    }

    /// Master campaign seed (trials derive from it reproducibly).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Hang bound as a multiple of the longest golden rank.
    pub fn budget_factor(mut self, f: f64) -> Self {
        self.cfg.budget_factor = f;
        self
    }

    /// Worker threads (0 = all available).
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.threads = n;
        self
    }

    /// Checkpoint cadence for snapshot-forked trials (0 = always cold).
    pub fn epoch_rounds(mut self, rounds: u32) -> Self {
        self.cfg.epoch_rounds = rounds;
        self
    }

    /// Enable structured event recording with the given per-rank ring
    /// capacity; the campaign result then carries
    /// [`crate::CampaignMetrics`]. 0 turns recording back off.
    pub fn observe(mut self, ring_capacity: u32) -> Self {
        self.cfg.obs_capacity = ring_capacity;
        self
    }

    /// Enable or disable the execution fast path (software TLB +
    /// basic-block dispatch) for every trial machine. On by default;
    /// turning it off is observably identical but much slower — useful
    /// for benchmarking the fast path and for divergence hunting.
    pub fn fastpath(mut self, on: bool) -> Self {
        self.cfg.fastpath = on;
        self
    }

    /// Fault duration model (default transient). Non-transient models
    /// support the register and static-memory classes only; see
    /// [`model_classes`].
    pub fn fault_model(mut self, model: FaultModel) -> Self {
        self.model = model;
        self
    }

    /// Set the guard policy for [`CampaignBuilder::run_coverage`]
    /// (defaults to [`GuardPolicy::default`] if never called).
    pub fn guarded(mut self, policy: GuardPolicy) -> Self {
        self.mode = SpecMode::Guard(policy);
        self
    }

    /// Set the recovery policy for [`CampaignBuilder::run_ft`]
    /// (defaults to [`FtPolicy::default`] if never called).
    pub fn ft(mut self, policy: FtPolicy) -> Self {
        self.mode = SpecMode::Ft(policy);
        self
    }

    /// Set the scenario-diversity policy for
    /// [`CampaignBuilder::run_chaos`] (defaults to
    /// [`ChaosPolicy::default`] if never called).
    pub fn chaos(mut self, policy: ChaosPolicy) -> Self {
        self.mode = SpecMode::Chaos(policy);
        self
    }

    /// Set the performance-interference policy for
    /// [`CampaignBuilder::run_perturb`] (defaults to
    /// [`PerturbPolicy::default`] if never called).
    pub fn perturb(mut self, policy: PerturbPolicy) -> Self {
        self.mode = SpecMode::Perturb(policy);
        self
    }

    /// Adopt a whole [`CampaignConfig`] (e.g. from a parsed experiment
    /// spec), replacing every parameter set so far except the class
    /// list and fault model.
    pub fn with_config(mut self, cfg: CampaignConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The campaign parameters as currently configured.
    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// The configured class list.
    pub fn class_list(&self) -> &[TargetClass] {
        &self.classes
    }

    /// Is the wrapped app one of the two canonical parameterizations a
    /// [`CampaignSpec`] can name? `Some(tiny)` if so.
    fn canonical_tiny(&self) -> Option<bool> {
        let kind = self.app.kind;
        if self.app.params == AppParams::tiny(kind) {
            Some(true)
        } else if self.app.params == AppParams::default_for(kind) {
            Some(false)
        } else {
            None
        }
    }

    /// The builder's configuration as a [`CampaignSpec`], policy
    /// included — the document `faultlab submit` would accept to run the
    /// same campaign on a service. `None` for configurations outside the
    /// spec language: custom app parameters (a spec names apps by kind +
    /// `tiny` only) or a non-transient fault model.
    pub fn to_spec(&self) -> Option<CampaignSpec> {
        if self.model != FaultModel::Transient {
            return None;
        }
        Some(CampaignSpec {
            app: self.app.kind,
            tiny: self.canonical_tiny()?,
            classes: self.classes.clone(),
            campaign: self.cfg,
            mode: self.mode,
        })
    }

    /// Run the campaign on the engine.
    ///
    /// # Panics
    /// With a non-transient fault model, panics if the class list
    /// contains a class outside [`model_classes`] (dynamic targets
    /// cannot be re-asserted periodically).
    pub fn run(self) -> CampaignResult {
        if self.model != FaultModel::Transient {
            return self.run_model_campaign();
        }
        let control = EngineControl::new();
        run_campaign_engine(
            self.app,
            &self.classes,
            &self.cfg,
            &NullSink,
            &control,
            None,
        )
        .result
        .expect("uncontrolled engine runs always complete")
    }

    /// Run the matrix campaign `default` names on the engine, under the
    /// policy set for it or else `default`'s. Transient model only — the
    /// fault families are the matrix's subject, not the builder's knob.
    fn run_mode(&self, default: SpecMode) -> MatrixResult {
        let same_family = discriminant(&self.mode) == discriminant(&default);
        let mode = if same_family { self.mode } else { default };
        assert!(
            self.model == FaultModel::Transient,
            "{} campaigns support the transient model only",
            mode.name()
        );
        let matrix = mode.matrix(&self.classes).expect("a matrix mode");
        let control = EngineControl::new();
        run_matrix(self.app, &matrix, &self.cfg, &NullSink, &control, None)
            .expect("uncontrolled engine runs always complete")
    }

    /// Run a detection-coverage campaign: every trial's fault executed
    /// both unguarded and under the configured [`GuardPolicy`] (see
    /// [`CampaignBuilder::guarded`]), with paired outcomes and the
    /// baseline→guarded transition matrix.
    pub fn run_coverage(self) -> MatrixResult {
        self.run_mode(SpecMode::Guard(GuardPolicy::default()))
    }

    /// Run a process-failure recovery campaign: `injections` rank kills
    /// each executed bare, under shrink recovery, under buddy-checkpoint
    /// respawn, and in app-owned fl-ulfm mode, plus `injections` §3.3
    /// message faults each executed bare and in a voted replica set (see
    /// [`CampaignBuilder::ft`]).
    pub fn run_ft(self) -> MatrixResult {
        self.run_mode(SpecMode::Ft(FtPolicy::default()))
    }

    /// Run the chaos defense-coverage matrix: `injections` trials for
    /// each of the 9 × 6 chaos-model × defense cells, all defense
    /// columns replaying the byte-identical fault draw (see
    /// [`CampaignBuilder::chaos`]).
    pub fn run_chaos(self) -> MatrixResult {
        self.run_mode(SpecMode::Chaos(ChaosPolicy::default()))
    }

    /// Run the performance-interference detector-comparison matrix:
    /// `injections` trials for each of the 5 × 3 perturb-model ×
    /// detection cells, all detection columns replaying the
    /// byte-identical fault draw (see [`CampaignBuilder::perturb`]).
    pub fn run_perturb(self) -> MatrixResult {
        self.run_mode(SpecMode::Perturb(PerturbPolicy::default()))
    }

    /// Replay one recorded trial from its campaign coordinates (class
    /// position `ci`, trial index `k`). Transient model only.
    pub fn replay(self, ci: usize, k: u32) -> TrialRecord {
        self.replay_traced(ci, k).record
    }

    /// Replay one trial and return its full event trace. Streams are
    /// empty unless [`CampaignBuilder::observe`] was set. Transient
    /// model only.
    pub fn replay_traced(self, ci: usize, k: u32) -> TrialTrace {
        assert!(
            self.model == FaultModel::Transient,
            "trial replay supports the transient model only"
        );
        replay_trial_impl(self.app, &self.classes, &self.cfg, ci, k)
    }

    /// Campaign under a persistent fault model: every trial routes
    /// through [`run_model_trial`], always cold (persistent faults
    /// re-arm across the whole run, so epoch forking buys nothing).
    fn run_model_campaign(self) -> CampaignResult {
        let supported = model_classes();
        for c in &self.classes {
            assert!(
                supported.contains(c),
                "fault model {} does not support class {c} (supported: register and static memory)",
                self.model
            );
        }
        let golden = self.app.golden(2_000_000_000);
        let budget = (*golden.insns.iter().max().unwrap() as f64 * self.cfg.budget_factor) as u64
            + 2_000_000;
        let started = std::time::Instant::now();
        let mut results = Vec::new();
        for (ci, &class) in self.classes.iter().enumerate() {
            let mut tally = Tally::default();
            let mut trials = Vec::with_capacity(self.cfg.injections as usize);
            for k in 0..self.cfg.injections {
                let outcome = run_model_trial(
                    self.app,
                    &golden,
                    class,
                    self.model,
                    trial_seed(self.cfg.seed, ci, k),
                    budget,
                );
                tally.record(outcome);
                trials.push(TrialRecord {
                    class,
                    detail: format!("model {} trial {k}", self.model),
                    outcome,
                });
            }
            results.push(ClassResult {
                class,
                tally,
                trials,
            });
        }
        CampaignResult {
            app: self.app.kind,
            classes: results,
            golden,
            metrics: None,
            // Model trials tear their worlds down inside
            // `run_model_trial`; no counters survive to aggregate.
            insns_total: 0,
            wall_nanos: started.elapsed().as_nanos() as u64,
            exec_stats: fl_machine::ExecStats::default(),
            converge: crate::campaign::ConvergeStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_apps::{AppKind, AppParams};

    fn tiny(kind: AppKind) -> App {
        App::build(kind, AppParams::tiny(kind))
    }

    #[test]
    fn builder_matches_backend() {
        let app = tiny(AppKind::Wavetoy);
        let via_builder = CampaignBuilder::new(&app)
            .classes(&[TargetClass::RegularReg])
            .injections(8)
            .seed(11)
            .run();
        let via_backend = run_campaign_engine(
            &app,
            &[TargetClass::RegularReg],
            &CampaignConfig {
                injections: 8,
                seed: 11,
                ..Default::default()
            },
            &NullSink,
            &EngineControl::new(),
            None,
        )
        .result
        .unwrap();
        assert_eq!(
            via_builder.classes[0].trials, via_backend.classes[0].trials,
            "builder must drive the identical campaign as the backend"
        );
    }

    #[test]
    fn default_classes_are_all_eight() {
        let app = tiny(AppKind::Wavetoy);
        let b = CampaignBuilder::new(&app);
        assert_eq!(b.class_list(), &TargetClass::ALL);
        assert_eq!(b.config().injections, 500);
    }

    #[test]
    fn observe_enables_metrics() {
        let app = tiny(AppKind::Wavetoy);
        let r = CampaignBuilder::new(&app)
            .classes(&[TargetClass::RegularReg])
            .injections(5)
            .seed(3)
            .observe(256)
            .run();
        let metrics = r.metrics.expect("observe(..) must produce metrics");
        assert_eq!(metrics.classes.len(), 1);
        let cm = &metrics.classes[0];
        assert_eq!(cm.trials, 5);
        assert!(cm.events_total > 0, "trials must record events");
        // Register faults always land (the flip fires unconditionally).
        assert_eq!(cm.landed, 5);
    }

    #[test]
    fn fastpath_off_campaign_is_bit_identical() {
        // The perf tentpole's correctness bar at campaign level: with
        // the TLB and block dispatch disabled, every trial — cold and
        // epoch-forked alike — must produce the same records, event
        // aggregates, and instruction counts.
        let app = tiny(AppKind::Wavetoy);
        let classes = [
            TargetClass::RegularReg,
            TargetClass::Stack,
            TargetClass::Message,
        ];
        let run = |on: bool| {
            CampaignBuilder::new(&app)
                .classes(&classes)
                .injections(8)
                .seed(0xFA57)
                .observe(512)
                .fastpath(on)
                .run()
        };
        let fast = run(true);
        let slow = run(false);
        for (f, s) in fast.classes.iter().zip(&slow.classes) {
            assert_eq!(f.trials, s.trials, "{:?}: fast path diverged", f.class);
            assert_eq!(f.tally, s.tally);
        }
        assert_eq!(fast.metrics, slow.metrics);
        assert_eq!(fast.insns_total, slow.insns_total);
        assert!(fast.insns_total > 0);
    }

    #[test]
    fn campaign_reports_throughput() {
        let app = tiny(AppKind::Wavetoy);
        let r = CampaignBuilder::new(&app)
            .classes(&[TargetClass::RegularReg])
            .injections(4)
            .seed(2)
            .run();
        assert!(r.insns_total > 0);
        assert!(r.wall_nanos > 0);
        assert_eq!(r.trials_total(), 4);
        assert!(r.mips() > 0.0);
        assert!(r.trials_per_sec() > 0.0);
    }

    #[test]
    fn unobserved_run_has_no_metrics() {
        let app = tiny(AppKind::Wavetoy);
        let r = CampaignBuilder::new(&app)
            .classes(&[TargetClass::RegularReg])
            .injections(2)
            .run();
        assert!(r.metrics.is_none());
    }

    #[test]
    fn model_campaign_runs_supported_classes() {
        let app = tiny(AppKind::Wavetoy);
        let r = CampaignBuilder::new(&app)
            .classes(&[TargetClass::RegularReg])
            .injections(4)
            .seed(9)
            .fault_model(FaultModel::StuckAt1)
            .run();
        assert_eq!(r.classes[0].tally.executions, 4);
        assert!(r.classes[0].trials[0].detail.contains("stuck-at-1"));
    }

    #[test]
    fn chaos_builder_runs_the_matrix() {
        let app = tiny(AppKind::Wavetoy);
        let r = CampaignBuilder::new(&app)
            .injections(1)
            .seed(4)
            .chaos(ChaosPolicy::default())
            .run_chaos();
        assert_eq!(r.cells.iter().flatten().count(), 9 * 6);
        assert!(r.cells.iter().flatten().all(|c| c.trials.len() == 1));
        assert!(r.insns_total > 0);
    }

    #[test]
    fn perturb_builder_runs_the_matrix() {
        let app = tiny(AppKind::Wavetoy);
        let r = CampaignBuilder::new(&app)
            .injections(1)
            .seed(4)
            .perturb(PerturbPolicy::default())
            .run_perturb();
        assert_eq!(r.cells.iter().flatten().count(), 5 * 3);
        assert!(r.cells.iter().flatten().all(|c| c.trials.len() == 1));
        assert!(r.insns_total > 0 && r.ref_rounds > 0);
    }

    #[test]
    fn builder_lowers_to_the_canonical_spec() {
        let app = tiny(AppKind::Climsim);
        let spec = CampaignBuilder::new(&app)
            .classes(&[TargetClass::Message])
            .injections(9)
            .seed(0x5EC)
            .to_spec()
            .expect("tiny apps are spec-expressible");
        assert_eq!(spec.app, AppKind::Climsim);
        assert!(spec.tiny);
        assert_eq!(spec.classes, vec![TargetClass::Message]);
        assert_eq!(spec.campaign.injections, 9);
        assert_eq!(spec.campaign.seed, 0x5EC);
        // The lowering is the submit path: it must survive the wire.
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn custom_app_params_fall_back_to_the_direct_engine_path() {
        // There is no other path: the engine takes the app the builder
        // holds, so an app no spec can name runs like any other.
        let kind = AppKind::Wavetoy;
        let mut params = AppParams::tiny(kind);
        params.steps += 1; // not tiny, not default: unexpressible
        let app = App::build(kind, params);
        let b = CampaignBuilder::new(&app)
            .classes(&[TargetClass::RegularReg])
            .injections(4)
            .seed(6);
        assert!(b.to_spec().is_none());
        let r = b.clone().run();
        assert_eq!(r.classes[0].tally.executions, 4);
        let g = b.run_coverage();
        assert_eq!(g.cell(0, 1).tally.executions, 4);
    }

    #[test]
    fn non_transient_models_are_not_spec_expressible() {
        let app = tiny(AppKind::Wavetoy);
        let b = CampaignBuilder::new(&app)
            .classes(&[TargetClass::RegularReg])
            .fault_model(FaultModel::StuckAt1);
        assert!(b.to_spec().is_none());
    }

    #[test]
    #[should_panic(expected = "does not support class")]
    fn model_campaign_rejects_dynamic_classes() {
        let app = tiny(AppKind::Wavetoy);
        let _ = CampaignBuilder::new(&app)
            .classes(&[TargetClass::Heap])
            .fault_model(FaultModel::Held)
            .run();
    }
}
