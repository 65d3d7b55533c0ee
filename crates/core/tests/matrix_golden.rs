//! The bytes of every matrix-campaign view, pinned.
//!
//! `results/*_coverage.*` pin the tables, TSVs and cell JSONL of the four
//! matrix modes at their published sizes, but nothing pins the focus
//! views, the streamed record lines or a guard/ft JSONL on an app CI can
//! run in a second. These files do: wavetoy-tiny, one seed, two
//! injections, every view of every mode. They were generated once and
//! must only ever change together with a deliberate format change.

use fl_apps::AppKind;
use fl_inject::{
    render_chaos_focus, render_chaos_tsv, render_ft_focus, render_perturb_focus,
    render_perturb_tsv, run_spec, sort_records_jsonl, CampaignSpec, ChaosPolicy, ChaosResult,
    EngineControl, FtMode, FtPolicy, GuardPolicy, PerturbPolicy, PerturbResult, Report, SpecMode,
    SpecOutcome, VecSink,
};

const SEED: u64 = 0x601D;

/// Run `mode` on wavetoy-tiny; returns the outcome and the canonical
/// (slot-sorted) record stream.
fn run(mode: SpecMode) -> (SpecOutcome, String) {
    let mut spec = CampaignSpec::new(AppKind::Wavetoy);
    spec.tiny = true;
    spec.campaign.injections = 2;
    spec.campaign.seed = SEED;
    spec.mode = mode;
    let sink = VecSink::new(spec.app);
    let out = run_spec(&spec, &sink, &EngineControl::new(), None).expect("run completes");
    (out, sort_records_jsonl(&sink.into_lines().join("\n")))
}

fn check(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/matrix_{name}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(want == actual, "{path} differs; got:\n{actual}");
}

#[test]
fn guard_views_match_golden_files() {
    let (SpecOutcome::Coverage(r), records) = run(SpecMode::Guard(GuardPolicy::default())) else {
        panic!("guard spec yields a coverage outcome");
    };
    assert!(records.is_empty(), "guard campaigns stream no records");
    check("guard.txt", &r.table("guard golden"));
    check("guard.tsv", &r.tsv());
    check("guard.jsonl", &r.jsonl());
}

#[test]
fn ft_views_match_golden_files() {
    let (SpecOutcome::Ft(r), records) = run(SpecMode::Ft(FtPolicy::default())) else {
        panic!("ft spec yields an ft outcome");
    };
    assert!(records.is_empty(), "ft campaigns stream no records");
    check("ft.txt", &r.table("ft golden"));
    check("ft.tsv", &r.tsv());
    check("ft.jsonl", &r.jsonl());
    let focus: String = FtMode::ALL
        .iter()
        .map(|&m| render_ft_focus(&r, m))
        .collect();
    check("ft_focus.txt", &focus);
}

#[test]
fn chaos_views_match_golden_files() {
    let (SpecOutcome::Chaos(r), records) = run(SpecMode::Chaos(ChaosPolicy::default())) else {
        panic!("chaos spec yields a chaos outcome");
    };
    check("chaos.txt", &fl_inject::render_chaos(&r, "chaos golden"));
    check("chaos.tsv", &render_chaos_tsv(&r));
    check("chaos.jsonl", &fl_inject::chaos_jsonl(&r));
    let focus: String = ChaosResult::models()
        .iter()
        .map(|&m| render_chaos_focus(&r, m))
        .collect();
    check("chaos_focus.txt", &focus);
    check("chaos_records.jsonl", &records);
}

#[test]
fn perturb_views_match_golden_files() {
    let (SpecOutcome::Perturb(r), records) = run(SpecMode::Perturb(PerturbPolicy::default()))
    else {
        panic!("perturb spec yields a perturb outcome");
    };
    check(
        "perturb.txt",
        &fl_inject::render_perturb(&r, "perturb golden"),
    );
    check("perturb.tsv", &render_perturb_tsv(&r));
    check("perturb.jsonl", &fl_inject::perturb_jsonl(&r));
    let focus: String = PerturbResult::models()
        .iter()
        .map(|&m| render_perturb_focus(&r, m))
        .collect();
    check("perturb_focus.txt", &focus);
    check("perturb_records.jsonl", &records);
    check("perturb_metrics.jsonl", &r.metrics().to_jsonl(r.app));
}
