//! The committed campaign artifacts and the spec lists that produce them
//! cannot drift apart unnoticed: every line of `results/specs/*.jsonl`
//! is a canonical spec, and the titles in the committed `<stem>.txt` are
//! the titles of exactly those specs, in order. (Regenerating the tables
//! themselves takes minutes; `scripts/regenerate-results.sh` and CI's
//! `git diff --exit-code results/` do that.)

use fl_inject::CampaignSpec;
use std::path::Path;

#[test]
fn committed_spec_lists_are_canonical_and_title_their_artifacts() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut stems = Vec::new();
    for entry in std::fs::read_dir(results.join("specs")).expect("results/specs exists") {
        let path = entry.unwrap().path();
        let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
        let list = std::fs::read_to_string(&path).unwrap();
        let mut titles = Vec::new();
        for (i, line) in list.lines().enumerate() {
            let at = format!("{stem}.jsonl:{}", i + 1);
            let spec = CampaignSpec::from_json(line).unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(spec.to_json(), line, "{at} is not in canonical form");
            titles.push(spec.title());
        }
        let table = std::fs::read_to_string(results.join(&stem).with_extension("txt"))
            .unwrap_or_else(|e| panic!("results/{stem}.txt: {e}"));
        let committed: Vec<&str> = table
            .lines()
            .filter(|l| l.contains(" analogue), n = "))
            .collect();
        assert_eq!(committed, titles, "results/{stem}.txt vs its spec list");
        stems.push(stem);
    }
    stems.sort();
    assert_eq!(
        stems,
        [
            "chaos_coverage",
            "ft_coverage",
            "guard_coverage",
            "interfere_coverage",
            "table2",
            "table3",
            "table4"
        ]
    );
}
