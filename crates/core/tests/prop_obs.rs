//! Observability invariants, test-enforced:
//!
//! * **Fork/cold bit-identity** — a trial forked from an epoch snapshot
//!   cache must emit an event stream bit-identical to the same trial run
//!   cold from `main`. The event log is part of machine snapshots, so
//!   this holds structurally; the property test checks it end to end
//!   across classes and trial seeds.
//! * **Golden JSONL** — the serialized timeline of one pinned trial is
//!   locked to a checked-in golden file, so any drift in the event
//!   schema, emission points or ordering is a visible diff.

use fl_apps::{App, AppKind, AppParams};
use fl_inject::{replay_trial, CampaignConfig, TargetClass, TrialTrace};
use proptest::prelude::*;
use std::sync::OnceLock;

const OBS_CAPACITY: u32 = 512;
const EPOCH_ROUNDS: u32 = 8;

fn app() -> &'static App {
    static APP: OnceLock<App> = OnceLock::new();
    APP.get_or_init(|| App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy)))
}

/// Trial `k` of class `ci` (all eight classes, request order) of the
/// campaign seeded `seed`, with recording on; cold when `epoch_rounds`
/// is 0, else forked from checkpoints taken at that cadence.
fn traced(seed: u64, ci: usize, k: u32, epoch_rounds: u32) -> TrialTrace {
    let cfg = CampaignConfig {
        seed,
        obs_capacity: OBS_CAPACITY,
        epoch_rounds,
        ..Default::default()
    };
    replay_trial(app(), &TargetClass::ALL, &cfg, ci, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Forked and cold runs of the same trial retain byte-for-byte the
    /// same events (same kinds, clocks, sequence numbers, drop counts)
    /// and produce the same record.
    #[test]
    fn forked_event_stream_is_bit_identical_to_cold(class_idx in 0usize..8, k in 0u32..12) {
        let class = TargetClass::ALL[class_idx];
        let cold = traced(0x0B5_0B5, class_idx, k, 0);
        let forked = traced(0x0B5_0B5, class_idx, k, EPOCH_ROUNDS);
        prop_assert_eq!(&cold.record, &forked.record,
            "{} trial {}: outcome diverged between cold and forked", class.name(), k);
        prop_assert_eq!(&cold.streams, &forked.streams,
            "{} trial {}: event streams diverged between cold and forked", class.name(), k);
        prop_assert_eq!(cold.events_jsonl(), forked.events_jsonl());
    }
}

#[test]
fn events_jsonl_matches_golden_file() {
    let trace = traced(0xFA17, 0, 0, 0);
    assert_eq!(trace.record.class, TargetClass::RegularReg);
    let jsonl = trace.events_jsonl();
    assert!(
        !jsonl.is_empty(),
        "an observed wavetoy trial must retain events"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/events_wavetoy_reg.jsonl"
    );
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(path, &jsonl).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing; run with REGEN_GOLDEN=1 to create it");
    assert_eq!(
        jsonl, golden,
        "event JSONL drifted from the golden file; if the schema change is \
         intentional, rerun this test with REGEN_GOLDEN=1 and review the diff"
    );
}

#[test]
fn events_jsonl_lines_are_well_formed() {
    let trace = traced(0xFA17, 7, 3, 0);
    assert_eq!(trace.record.class, TargetClass::Message);
    for line in trace.events_jsonl().lines() {
        assert!(
            line.starts_with("{\"rank\":") && line.ends_with('}'),
            "{line}"
        );
        for key in ["\"seq\":", "\"clock\":", "\"kind\":\""] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
}
