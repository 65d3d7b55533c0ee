//! A campaign starts at most one worker per run of slots it has left to
//! run: a worker count far beyond the slots, or beyond what resume left,
//! starts no thread that would find nothing to do — none at all when
//! resume left nothing. The only test in its binary, so that the
//! process's thread count is the campaign's alone.

use fl_apps::{App, AppKind, AppParams};
use fl_inject::{
    run_campaign_engine, sort_records_jsonl, CampaignConfig, CompletedSlots, EngineControl,
    EngineProgress, EngineSink, TargetClass, TrialOutput, VecSink,
};
use std::sync::atomic::{AtomicUsize, Ordering};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

/// Collects records and the most threads the process had while a slot
/// was finishing, adopted slots included.
struct Counting {
    lines: VecSink,
    most: AtomicUsize,
}

impl EngineSink for Counting {
    fn trial(&self, t: &TrialOutput) {
        self.most.fetch_max(threads(), Ordering::Relaxed);
        self.lines.trial(t);
    }

    fn progress(&self, _: EngineProgress) {
        self.most.fetch_max(threads(), Ordering::Relaxed);
    }
}

#[test]
fn a_campaign_starts_no_worker_beyond_its_slots_left_to_run() {
    let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
    let classes = [TargetClass::Bss];
    let run = |injections, jobs, resume| {
        let cfg = CampaignConfig {
            injections,
            seed: 11,
            threads: jobs,
            ..Default::default()
        };
        let sink = Counting {
            lines: VecSink::new(app.kind),
            most: AtomicUsize::new(0),
        };
        let before = threads();
        let done = run_campaign_engine(&app, &classes, &cfg, &sink, &EngineControl::new(), resume);
        assert!(done.result.is_some());
        let most = sink.most.load(Ordering::Relaxed);
        (most.saturating_sub(before), sink.lines.into_lines())
    };
    // One slot: the calling thread runs it, whatever the worker count.
    let (extra, one) = run(1, 40_000, None);
    assert_eq!(extra, 0, "threads started for one trial");
    assert_eq!(run(1, 1, None).1, one, "records at 40,000 workers");

    // Two slots, one adopted: again no thread beyond the caller.
    let (_, both) = run(2, 1, None);
    let (slots, _) = CompletedSlots::from_jsonl(&both[..1].join("\n"), &classes, 2);
    let (extra, rest) = run(2, 64, Some(slots));
    assert_eq!(extra, 0, "threads started for one slot left to run");
    let mut all = both[..1].to_vec();
    all.extend(rest);
    let canonical = |l: &[String]| sort_records_jsonl(&l.join("\n"));
    assert_eq!(canonical(&all), canonical(&both));

    // Every slot adopted: nothing left to run, so no thread beside the
    // caller, which adopts them all.
    let (_, four) = run(4, 1, None);
    for jobs in [0, 64] {
        let (slots, _) = CompletedSlots::from_jsonl(&four.join("\n"), &classes, 4);
        let (extra, rest) = run(4, jobs, Some(slots));
        assert_eq!(
            extra, 0,
            "threads started at --jobs {jobs} with every slot adopted"
        );
        assert!(rest.is_empty(), "adopted slots stream nothing");
    }

    // Three slots, three workers: two threads beside the caller, at most.
    let (extra, three) = run(3, 64, None);
    assert!(extra <= 2, "{extra} threads started for three trials");
    assert_eq!(canonical(&three), canonical(&run(3, 1, None).1));
}
