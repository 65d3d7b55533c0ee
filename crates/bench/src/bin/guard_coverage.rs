//! Regenerate the **detection-coverage report**: every trial's fault run
//! guard-off and guard-on, per region, for all three applications —
//! the paper's closing argument (message-level detection plus
//! checkpoint/recovery) measured inside the lab.
//!
//! ```sh
//! cargo run --release -p fl-bench --bin guard_coverage -- 100
//! ```

use fl_apps::{App, AppKind, AppParams};
use fl_bench::{emit, injections_from_args};
use fl_inject::{CampaignBuilder, GuardPolicy, Report, TargetClass};

fn main() {
    let injections = injections_from_args(100);
    let seed = 0x6A_12D;
    let policy = GuardPolicy {
        checkpoint_rounds: 32,
        ..GuardPolicy::default()
    };
    // Tiny app parameters: each fault runs twice, and guarded runs may
    // re-execute up to max_restarts times, so the trial cost is ~2-5x a
    // plain campaign's.
    let mut texts = Vec::new();
    let mut tsvs = Vec::new();
    let mut jsonls = Vec::new();
    for kind in AppKind::PAPER {
        eprintln!(
            "guard_coverage: {} x {injections} paired trials per region ...",
            kind.name()
        );
        let app = App::build(kind, AppParams::tiny(kind));
        let result = CampaignBuilder::new(&app)
            .classes(&TargetClass::ALL)
            .injections(injections)
            .seed(seed)
            .guarded(policy)
            .run_coverage();
        let title = format!(
            "Detection Coverage ({} / {} analogue), n = {injections} paired trials per region",
            kind.name(),
            kind.paper_name()
        );
        texts.push(result.table(&title));
        tsvs.push(result.tsv());
        jsonls.push(result.jsonl());
    }
    emit("guard_coverage.txt", &texts.join("\n"));
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
    emit("guard_coverage.tsv", &tsv);
    emit("guard_coverage.jsonl", &jsonls.concat());
}
