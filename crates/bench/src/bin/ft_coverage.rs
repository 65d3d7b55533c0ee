//! Regenerate the **process-failure recovery report**: every rank kill
//! run baseline / shrink / respawn and every message fault run baseline
//! / replicated, for all three applications — the fl-ft answer to the
//! paper's "what would it take to survive these faults" question.
//!
//! ```sh
//! cargo run --release -p fl-bench --bin ft_coverage -- 40
//! ```
//!
//! Exits non-zero if any recovery discipline misses its contract:
//! shrink and respawn must each convert at least 90 % of manifesting
//! rank kills into `Recovered`, and the replica vote must mask at least
//! 90 % of manifesting single-replica message corruptions.

use fl_apps::{App, AppKind, AppParams};
use fl_bench::{emit, injections_from_args};
use fl_inject::{CampaignBuilder, FtPolicy, Report};

fn main() {
    let injections = injections_from_args(40);
    let seed = 0xF7_AB1;
    let policy = FtPolicy::default();
    let mut texts = Vec::new();
    let mut tsvs = Vec::new();
    let mut jsonls = Vec::new();
    let mut broken = Vec::new();
    for kind in AppKind::PAPER {
        eprintln!(
            "ft_coverage: {} x {injections} rank kills + {injections} message faults ...",
            kind.name()
        );
        let app = App::build(kind, AppParams::tiny(kind));
        let result = CampaignBuilder::new(&app)
            .injections(injections)
            .seed(seed)
            .ft(policy)
            .run_ft();
        let title = format!(
            "Process-Level Fault Tolerance ({} / {} analogue), n = {injections} per fault kind",
            kind.name(),
            kind.paper_name()
        );
        texts.push(result.table(&title));
        tsvs.push(result.tsv());
        jsonls.push(result.jsonl());
        // A column's baseline errors and the percent of them it covered.
        let coverage = |column: &str| {
            let (row, column) = result.find_column(column).expect("an ft column");
            (
                result.baseline_errors(row),
                result.coverage_percent(row, column),
            )
        };
        for (what, (_, pct)) in [
            ("shrink recovery", coverage("shrink")),
            ("respawn recovery", coverage("respawn")),
        ] {
            if pct < 90.0 {
                broken.push(format!("{}: {what} {pct:.1}% < 90%", kind.name()));
            }
        }
        let (errors, masked) = coverage("replicated");
        if errors == 0 {
            broken.push(format!(
                "{}: no baseline message-fault errors to mask (n too small)",
                kind.name()
            ));
        } else if masked < 90.0 {
            broken.push(format!(
                "{}: replica masking {masked:.1}% < 90%",
                kind.name()
            ));
        }
    }
    emit("ft_coverage.txt", &texts.join("\n"));
    // One TSV: repeat the header only once, tag rows with the app name.
    let mut tsv = String::new();
    for (i, (t, kind)) in tsvs.iter().zip(AppKind::PAPER).enumerate() {
        for (li, line) in t.lines().enumerate() {
            if li == 0 {
                if i == 0 {
                    tsv.push_str("app\t");
                    tsv.push_str(line);
                    tsv.push('\n');
                }
            } else {
                tsv.push_str(kind.name());
                tsv.push('\t');
                tsv.push_str(line);
                tsv.push('\n');
            }
        }
    }
    emit("ft_coverage.tsv", &tsv);
    emit("ft_coverage.jsonl", &jsonls.concat());
    if !broken.is_empty() {
        for b in &broken {
            eprintln!("ft_coverage: CONTRACT BROKEN: {b}");
        }
        std::process::exit(1);
    }
}
