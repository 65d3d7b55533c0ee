//! Regenerate the **performance-interference detection matrix**: every
//! perturb fault model (quantum tax, co-scheduled hog, memory stall,
//! plus the kill/wedge detection denominator) run under every detection
//! column (none, fixed threshold, accrual) on the byte-identical fault
//! draw, across all four applications — the fl-perturb answer to "does
//! a slow rank look dead, and to which detector".
//!
//! ```sh
//! cargo run --release -p fl-bench --bin interfere_coverage -- 10
//! ```
//!
//! Exits non-zero if any floor misses its contract: the accrual
//! detector must produce **zero** false positives over pure-interference
//! trials, and both real detectors must convert at least 90 % of true
//! kills and wedges into explicit failure verdicts.

use fl_apps::{App, AppKind, AppParams};
use fl_bench::{emit, injections_from_args};
use fl_inject::{CampaignBuilder, PerturbPolicy, Report};

fn main() {
    let injections = injections_from_args(10);
    let seed = 0x9E27;
    let policy = PerturbPolicy::default();
    let apps = AppKind::ALL;
    let mut texts = Vec::new();
    let mut tsvs = Vec::new();
    let mut jsonls = Vec::new();
    let mut broken = Vec::new();
    for kind in apps {
        eprintln!(
            "interfere_coverage: {} x {injections} injections per model x detection cell ...",
            kind.name()
        );
        let app = App::build(kind, AppParams::tiny(kind));
        let result = CampaignBuilder::new(&app)
            .injections(injections)
            .seed(seed)
            .perturb(policy)
            .run_perturb();
        let title = format!(
            "Performance-Interference Detection Matrix ({} / {} analogue), n = {injections} per cell",
            kind.name(),
            kind.paper_name()
        );
        texts.push(result.table(&title));
        tsvs.push(result.tsv());
        jsonls.push(result.jsonl());
        for c in result.contracts() {
            if !c.passed() {
                broken.push(format!(
                    "{}: {} ({}) {}/{} = {:.1}% < {:.0}%",
                    kind.name(),
                    c.name,
                    c.what,
                    c.covered,
                    c.denom,
                    c.percent(),
                    c.floor_percent
                ));
            }
        }
    }
    emit("interfere_coverage.txt", &texts.join("\n"));
    // One TSV: repeat the header only once, tag rows with the app name.
    let mut tsv = String::new();
    for (i, (t, kind)) in tsvs.iter().zip(apps).enumerate() {
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
    emit("interfere_coverage.tsv", &tsv);
    emit("interfere_coverage.jsonl", &jsonls.concat());
    if !broken.is_empty() {
        for b in &broken {
            eprintln!("interfere_coverage: CONTRACT BROKEN: {b}");
        }
        std::process::exit(1);
    }
}
