//! The benchmark against its own contract: `BENCHMARK.json` at the repo
//! root names what `bench run` prints, and a driver run ends in one result
//! object with exactly the promised keys.

use fl_campaign_bench::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(manifest: &Json, key: &str) -> Vec<String> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("bench starts");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("UTF-8 report"),
    )
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `run --quick` prints every end-to-end and per-layer metric of
/// `BENCHMARK.json` exactly once per workload, and writes them all to
/// `results.json`.
#[test]
fn quick_run_prints_every_named_metric_once_per_workload() {
    let m = manifest();
    let out = out_dir("quick");
    let (ok, report) = bench(&[
        "run",
        "--quick",
        "--seed",
        "11",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "quick run failed:\n{report}");
    let rows: Vec<(&str, &str)> = report
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            Some((cols.next()?, cols.next()?))
        })
        .collect();
    let metrics: Vec<String> = names(&m, "end_to_end")
        .into_iter()
        .chain(names(&m, "per_layer"))
        .collect();
    for w in names(&m, "workloads") {
        assert!(well_formed(&w), "{w}");
        for metric in &metrics {
            assert!(well_formed(metric), "{metric}");
            let printed = rows.iter().filter(|r| r.0 == w && r.1 == metric).count();
            assert_eq!(printed, 1, "{w} {metric} printed {printed} times");
        }
        let errors = rows
            .iter()
            .filter(|r| r.0 == w && r.1 == "error_share")
            .count();
        assert_eq!(
            errors, 2,
            "{w}: error_share once per run, untraced and traced"
        );
    }

    let results = json::parse(&std::fs::read_to_string(out.join("results.json")).unwrap()).unwrap();
    assert!(results
        .get("provenance")
        .and_then(|p| p.get("nproc"))
        .is_some());
    for w in names(&m, "workloads") {
        let at = |path: &[&str]| path.iter().try_fold(&results, |v, k| v.get(k));
        for e in names(&m, "end_to_end") {
            let v = at(&["workloads", &w, "end_to_end", "metrics", &e]);
            assert!(v.and_then(|v| v.get("n")).is_some(), "{w} {e}");
        }
        for l in names(&m, "per_layer") {
            assert!(at(&["workloads", &w, "per_layer", "metrics", &l, "mad"]).is_some());
        }
        let share = at(&["workloads", &w, "end_to_end", "errors", "error_share"]);
        assert_eq!(share.and_then(Json::as_f64), Some(0.0), "{w}");
    }
    assert!(out.join("spans.jsonl").is_file());
    assert!(out.join("tables_det.specs.jsonl").is_file());
    assert!(!out.join("state").exists() || out.join("state").read_dir().unwrap().next().is_none());

    // A run compared with itself has nothing to report.
    let path = out.join("results.json");
    let path = path.to_str().unwrap();
    let (ok, table) = bench(&["compare", path, path]);
    assert!(ok, "{table}");
    for bad in [
        "regressed",
        "improved",
        "unresolved",
        "DIFFERENT",
        "missing",
    ] {
        assert!(!table.contains(bad), "{bad} in:\n{table}");
    }
}

/// The driver's invocation ends in one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`; the metrics are the
/// end-to-end set with `--trace 0` and the per-layer set with `--trace 1`.
#[test]
fn a_driver_run_ends_in_the_result_object() {
    let m = manifest();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = out_dir(&format!("driver{trace}"));
        let args = [
            "run",
            "--workload",
            "serve_small",
            "--seed",
            "3",
            "--seconds",
            "1",
        ];
        let rest = ["--trace", trace, "--quick", "--out", out.to_str().unwrap()];
        let (ok, report) = bench(&[&args[..], &rest[..]].concat());
        assert!(ok, "{report}");
        let last = json::parse(report.lines().last().expect("a last line")).expect("JSON");
        let keys: Vec<&str> = last
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let got = last.get("metrics").and_then(Json::as_obj).unwrap();
        let want = m.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(got.len(), want.len());
        for (def, (name, value)) in want.iter().zip(got) {
            assert_eq!(def.get("name").and_then(Json::as_str), Some(name.as_str()));
            assert_eq!(def.get("unit"), value.get("unit"), "{name}");
            assert!(
                value.get("value").and_then(Json::as_f64).is_some(),
                "{name}"
            );
            assert_eq!(value.as_obj().unwrap().len(), 2, "{name}");
        }
    }
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "2"],
        &["frobnicate"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&output.stdout).contains("\"metrics\""));
    }
}
