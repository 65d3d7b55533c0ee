//! Byte goldens of the spec surface: what `faultlab spec` prints per
//! mode (captured from the binary before the knob tables replaced the
//! hand-written codecs), and what `faultlab run-config` prints for the
//! example spec and for a spec list, in every view.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_faultlab"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("faultlab runs")
}

fn faultlab(args: &[&str]) -> String {
    let out = run(args);
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn spec_verb_prints_the_pinned_json_for_every_mode() {
    let golden = include_str!("golden/spec_verb.txt");
    let mut lines = golden.lines().filter(|l| !l.starts_with('#'));
    let mut checked = 0;
    while let Some(command) = lines.next() {
        let args = command.strip_prefix("$ ").expect("a `$ args` line");
        let args: Vec<&str> = args.split_whitespace().collect();
        let want = lines.next().expect("an output line per command");
        assert_eq!(faultlab(&args).trim_end(), want, "{command}");
        checked += 1;
    }
    assert_eq!(checked, 12, "defaults and every flag once, per mode");
}

#[test]
fn run_config_prints_what_the_key_value_example_printed() {
    assert_eq!(
        faultlab(&["run-config", "examples/campaign.json"]),
        include_str!("golden/run_config_campaign.txt")
    );
}

#[test]
fn run_config_joins_a_spec_list_in_every_view_and_writes_what_it_prints() {
    // wavetoy + jacobi3d, chaos, 2 injections per cell.
    let list = "crates/cli/tests/golden/chaos_pair.jsonl";
    let out = std::env::temp_dir().join(format!("faultlab-out-{}", std::process::id()));
    std::fs::create_dir_all(&out).unwrap();
    let out_dir = out.to_str().unwrap();
    for (flag, ext, want) in [
        (
            None,
            "txt",
            include_str!("golden/run_config_chaos_pair.txt"),
        ),
        (
            Some("--tsv"),
            "tsv",
            include_str!("golden/run_config_chaos_pair.tsv"),
        ),
        (
            Some("--jsonl"),
            "jsonl",
            include_str!("golden/run_config_chaos_pair.jsonl"),
        ),
    ] {
        let args = ["run-config", list, "--out", out_dir].into_iter();
        let args: Vec<&str> = args.chain(flag).collect();
        assert!(faultlab(&args) == want, "stdout of {args:?}");
        // Every run writes all three views; check the one just printed.
        let file = out.join("chaos_pair").with_extension(ext);
        assert!(std::fs::read_to_string(&file).unwrap() == want, "{file:?}");
    }
    let written = std::fs::read_dir(&out).unwrap().count();
    std::fs::remove_dir_all(&out).unwrap();
    assert_eq!(written, 3, "<stem>.txt, .tsv and .jsonl");
}

#[test]
fn run_config_fails_on_a_broken_contract_and_names_it() {
    // One ft message fault, benign: the replica floor's denominator is
    // empty, and a floor holds only on evidence.
    let out = run(&["run-config", "crates/cli/tests/golden/ft_starved.json"]);
    assert!(!out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("1 message faults, 0 baseline errors"),
        "{stdout}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    let named = "wavetoy: contract replicas-mask-message-faults broken";
    assert!(stderr.contains(named) && stderr.contains("0/0"), "{stderr}");
}
