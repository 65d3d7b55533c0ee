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
    run_spec, sort_records_jsonl, CampaignSpec, ChaosPolicy, EngineControl, FtPolicy, GuardPolicy,
    MatrixResult, PerturbPolicy, Report, SpecMode, SpecOutcome, VecSink,
};

const SEED: u64 = 0x601D;

/// Run `mode` on wavetoy-tiny; returns the result and the canonical
/// (slot-sorted) record stream.
fn run(mode: SpecMode) -> (MatrixResult, String) {
    let mut spec = CampaignSpec::new(AppKind::Wavetoy);
    spec.tiny = true;
    spec.campaign.injections = 2;
    spec.campaign.seed = SEED;
    spec.mode = mode;
    let sink = VecSink::new(spec.app);
    let out = run_spec(&spec, &sink, &EngineControl::new(), None).expect("run completes");
    let SpecOutcome::Matrix(r) = out else {
        panic!("a matrix mode yields a matrix outcome");
    };
    (r, sort_records_jsonl(&sink.into_lines().join("\n")))
}

fn check(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/matrix_{name}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(want == actual, "{path} differs; got:\n{actual}");
}

/// Table, TSV and JSONL of `r` against `matrix_{mode}.{txt,tsv,jsonl}`.
fn check_views(mode: &str, r: &MatrixResult) {
    check(&format!("{mode}.txt"), &r.table(&format!("{mode} golden")));
    check(&format!("{mode}.tsv"), &r.tsv());
    check(&format!("{mode}.jsonl"), &r.jsonl());
}

/// The focus view of every row.
fn row_focus(r: &MatrixResult) -> String {
    (0..r.mode.rows.len())
        .map(|row| r.focus(row, None))
        .collect()
}

#[test]
fn guard_views_match_golden_files() {
    let (r, records) = run(SpecMode::Guard(GuardPolicy::default()));
    assert!(records.is_empty(), "guard campaigns stream no records");
    check_views("guard", &r);
}

#[test]
fn ft_views_match_golden_files() {
    let (r, records) = run(SpecMode::Ft(FtPolicy::default()));
    assert!(records.is_empty(), "ft campaigns stream no records");
    check_views("ft", &r);
    let focus = |m| {
        let (row, column) = r.find_column(m).expect("a column per discipline");
        r.focus(row, Some(column))
    };
    let disciplines = ["baseline", "shrink", "respawn", "replicated", "app"];
    check(
        "ft_focus.txt",
        &disciplines.into_iter().map(focus).collect::<String>(),
    );
}

#[test]
fn chaos_views_match_golden_files() {
    let (r, records) = run(SpecMode::Chaos(ChaosPolicy::default()));
    check_views("chaos", &r);
    check("chaos_focus.txt", &row_focus(&r));
    check("chaos_records.jsonl", &records);
    assert!(r.metrics().is_none(), "chaos measures no slowdown");
}

#[test]
fn perturb_views_match_golden_files() {
    let (r, records) = run(SpecMode::Perturb(PerturbPolicy::default()));
    check_views("perturb", &r);
    check("perturb_focus.txt", &row_focus(&r));
    check("perturb_records.jsonl", &records);
    let metrics = r.metrics().expect("perturb measures slowdown");
    check("perturb_metrics.jsonl", &metrics.to_jsonl(r.app));
}
