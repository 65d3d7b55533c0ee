//! The operator's view of early termination: the `converged:` line of
//! the campaign footer.

use std::process::Command;

/// Run `faultlab campaign <args>` and return the trials the footer says
/// ended early (at an epoch boundary or between epochs) and were decided
/// at their draw, with everything printed above the footer.
fn campaign(args: &[&str]) -> ((u64, u64), String) {
    let out = Command::new(env!("CARGO_BIN_EXE_faultlab"))
        .arg("campaign")
        .args(args)
        .output()
        .expect("faultlab runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let (table, footer) = stdout
        .split_once("throughput:")
        .expect("campaign prints a throughput footer");
    let line = footer
        .lines()
        .find_map(|l| l.strip_prefix("converged: "))
        .expect("footer has a converged: line");
    // "<n> trials ended early (<b> between epochs), <m> decided at draw, ..."
    let count = |part: Option<&str>| -> u64 {
        let n = part.and_then(|p| p.split_whitespace().next());
        n.and_then(|n| n.parse().ok()).expect("a leading count")
    };
    let mut parts = line.split(", ");
    let converged = count(parts.next());
    let decided = count(parts.next().filter(|p| p.ends_with("decided at draw")));
    ((converged, decided), table.to_string())
}

#[test]
fn moldyn_campaigns_report_trials_ended_early() {
    // A silent fall-back to cold moldyn trials shows here as a zero.
    let args = [
        "moldyn",
        "--tiny",
        "--injections",
        "6",
        "--regions",
        "bss,heap,text",
        "--seed",
        "1604",
    ];
    let ((converged, decided), table) = campaign(&args);
    assert!(converged > 0, "no moldyn-tiny trial ended early:\n{table}");
    assert!(
        decided > 0,
        "no moldyn-tiny flip was dead when drawn:\n{table}"
    );
    // Cold, nothing can end early — and the table does not change.
    let cold: Vec<&str> = args
        .iter()
        .copied()
        .chain(["--epoch-rounds", "0"])
        .collect();
    assert_eq!(campaign(&cold), ((0, 0), table));
}
