//! # fl-inject — software fault injection for MPI applications
//!
//! The paper's primary contribution (Lu & Reed, "Assessing Fault
//! Sensitivity in MPI Applications", SC 2004), rebuilt on the FaultLab
//! substrates: simulate single-event upsets by flipping single bits in
//!
//! * **registers** — general-purpose, EIP, EFLAGS, the 80-bit x87 data
//!   registers and the seven FPU special registers;
//! * **the application's address space** — text, data, BSS, heap and
//!   stack, using the paper's region-targeting techniques (symbol-table
//!   fault dictionary, tagged malloc-chunk scan, EBP stack walk), with
//!   MPI-library objects excluded;
//! * **MPI messages** — a bit at a uniformly drawn offset of a rank's
//!   incoming channel-level byte stream, hitting headers and payloads in
//!   proportion to the application's traffic mix (§3.3);
//!
//! then observe the run and classify it per §5.1 as Correct, Crash,
//! Hang, Incorrect output, Application-Detected, or MPI-Detected.
//! Guarded (fl-guard) campaigns extend the taxonomy with Guard-Detected
//! and Recovered, and a guard-mode spec runs every trial's fault both
//! bare and guarded to measure detection coverage — one of the four
//! matrix campaigns [`matrix`] runs (see [`guarded`], [`ft`], [`chaos`],
//! [`perturb`]).
//!
//! A campaign is a [`CampaignSpec`] — the same description `faultlab
//! run-config` reads from a file and the service accepts over its socket
//! — and [`run_spec`] runs it:
//!
//! ```
//! use fl_apps::AppKind;
//! use fl_inject::{run_spec, CampaignSpec, EngineControl, NullSink, Report, SpecOutcome};
//!
//! let mut spec = CampaignSpec::from_json(
//!     r#"{"app":"wavetoy","tiny":true,"regions":["regular-reg"],"injections":10}"#,
//! )
//! .unwrap();
//! spec.campaign.seed = 7;
//! let outcome = run_spec(&spec, &NullSink, &EngineControl::new(), None).unwrap();
//! let SpecOutcome::Campaign(result) = &outcome else {
//!     unreachable!("a plain campaign");
//! };
//! assert_eq!(result.app, AppKind::Wavetoy);
//! assert_eq!(result.classes[0].tally.executions, 10);
//! println!("{}", outcome.report().table(&spec.title()));
//! ```

pub mod campaign;
pub mod chaos;
pub mod engine;
pub mod faultmodel;
pub mod ft;
pub mod guarded;
pub mod json;
pub mod matrix;
pub mod obs;
pub mod outcome;
pub mod perturb;
pub mod regpressure;
pub mod report;
pub mod sampling;
pub mod ser;
pub mod spec;
pub mod suggest;
pub mod target;

pub use campaign::{replay_trial, trial_seed, CampaignConfig, CampaignResult, Dictionaries};
pub use chaos::ChaosPolicy;
pub use engine::{
    parse_record_line, record_line, run_campaign, run_campaign_engine, run_spec, run_spec_memo,
    sort_records_jsonl, CompletedSlots, ContextMemo, EngineControl, EngineProgress, EngineSink,
    NullSink, SpecOutcome, StderrProgress, TrialOutput, VecSink,
};
pub use faultmodel::compare_models;
pub use fl_ft::FtPolicy;
pub use fl_guard::GuardPolicy;
pub use matrix::{Cell, MatrixResult};
pub use obs::TrialTrace;
pub use outcome::{classify, Manifestation, Tally};
pub use perturb::{Detection, PerturbPolicy};
pub use regpressure::render_register_pressure;
pub use report::{
    join_reports, render_register_breakdown, render_tsv, MetricsReport, Report, ReportFormat,
};
pub use sampling::{estimation_error, sample_size};
pub use spec::{CampaignSpec, SpecMode};
pub use suggest::suggest;
pub use target::{resolve_heap_target, TargetClass};
