//! Regenerate the **chaos defense-coverage matrix**: every chaos fault
//! model (network drop/duplicate/reorder/corrupt, partitions, syscall
//! failures, correlated bursts, node kills) run against every defense
//! column (none, CRC channel, watchdog harness, replication, shrink
//! recovery, app-owned ULFM) on the byte-identical fault draw — the
//! fl-chaos answer to "which defense actually covers which fault
//! class".
//!
//! ```sh
//! cargo run --release -p fl-bench --bin chaos_coverage -- 10
//! ```
//!
//! Runs wavetoy (no app-side recovery) and jacobi3d (fl-ulfm app-side
//! recovery) so the matrix shows the app-column asymmetry. Exits
//! non-zero if any provable-coverage floor misses its contract: the CRC
//! channel must neutralize at least 90 % of in-flight corruptions, the
//! watchdog must catch at least 90 % of partition-induced hangs, and
//! shrink recovery must recover at least 90 % of manifesting node
//! kills.

use fl_apps::{App, AppKind, AppParams};
use fl_bench::{emit, injections_from_args};
use fl_inject::{CampaignBuilder, ChaosPolicy, Report};

fn main() {
    let injections = injections_from_args(10);
    let seed = 0x51C2;
    let policy = ChaosPolicy::default();
    let apps = [AppKind::Wavetoy, AppKind::Jacobi3d];
    let mut texts = Vec::new();
    let mut tsvs = Vec::new();
    let mut jsonls = Vec::new();
    let mut broken = Vec::new();
    for kind in apps {
        eprintln!(
            "chaos_coverage: {} x {injections} injections per model x defense cell ...",
            kind.name()
        );
        let app = App::build(kind, AppParams::tiny(kind));
        let result = CampaignBuilder::new(&app)
            .injections(injections)
            .seed(seed)
            .chaos(policy)
            .run_chaos();
        let title = format!(
            "Chaos Defense-Coverage Matrix ({} / {} analogue), n = {injections} per cell",
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
    emit("chaos_coverage.txt", &texts.join("\n"));
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
    emit("chaos_coverage.tsv", &tsv);
    emit("chaos_coverage.jsonl", &jsonls.concat());
    if !broken.is_empty() {
        for b in &broken {
            eprintln!("chaos_coverage: CONTRACT BROKEN: {b}");
        }
        std::process::exit(1);
    }
}
