//! Byte goldens of the spec surface, captured from the binary before
//! the knob tables replaced the hand-written codecs: what `faultlab
//! spec` prints per mode, and what `faultlab run-config` prints for the
//! example spec (the old key=value example's output).

use std::process::Command;

fn faultlab(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_faultlab"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("faultlab runs");
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
