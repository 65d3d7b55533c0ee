//! The metric registry: every name the benchmark prints, with its unit,
//! direction, bound and — for the layer metrics — the end-to-end metric
//! it is expected to move. `BENCHMARK.json` is generated from this file
//! (`bench manifest`) and a test keeps the two equal.

use crate::json::Json;
use crate::workloads::{ALL_REGIONS, WORKLOADS};
use fl_apps::AppKind;

/// How long one driver run measures (`--seconds`).
pub const RUN_SECONDS: u32 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

/// Every bound is a quarter, the most the driver's contract allows. On the
/// 2-core reference host ten runs on ten seeds spread (interquartile range
/// over median) by up to 9 % for throughput and 11 % for the latencies, and
/// the host itself drifted by 12 % between two such sets an hour apart; a
/// bound has to clear three times the first and all of the second. See the
/// README's noise-floor section for the measurements.
///
/// `error_share` is the sixth end-to-end number: it is 0 on a healthy
/// tree, so it travels as `failed`/`attempted`/`correct` in the result
/// line instead of as a bounded metric, and any increase fails the run.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "trials_per_s",
        unit: "trials/s",
        better: "higher",
        bound: 0.25,
        what: "trials completed / pass wall time (spec JSON handed over to last record in hand), setup included; median of passes",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "sum over the pass's campaigns of hand-over to first completed trial (time to first record); median of passes",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
        what: "VmHWM of the workload's process after its timed passes",
    },
    EndToEnd {
        name: "submit_done_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "per-campaign latency, submit (or run_spec hand-over) to records in hand: per-pass p50, median of passes",
    },
    EndToEnd {
        name: "submit_done_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "same, per-pass nearest-rank p90",
    },
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
}

fn l(
    layer: &'static str,
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
) -> Layer {
    Layer {
        name: name.into(),
        unit,
        better,
        layer,
    }
}

/// The per-layer metrics of the traced run, in report order.
pub fn per_layer() -> Vec<Layer> {
    let (lo, hi) = ("lower", "higher");
    let mut v = vec![
        l("apps", "apps.source_ms", "ms", lo),
        l("lang", "lang.compile_ms", "ms", lo),
        l("lang", "lang.compile_mb_s", "MB/s", hi),
        l("lang", "lang.text_bytes", "bytes", lo),
        l("machine", "machine.predecode_ms", "ms", lo),
        l("machine", "machine.load_us", "us", lo),
        l("machine", "machine.kernel_mips_fast", "MIPS", hi),
        l("machine", "machine.kernel_mips_slow", "MIPS", hi),
        l("machine", "machine.kernel_insns", "count", lo),
        l("machine", "exec.block_hits", "count", lo),
        l("machine", "exec.block_misses", "count", lo),
        l("machine", "exec.trace_hits", "count", lo),
        l("machine", "exec.trace_side_exits", "count", lo),
        l("machine", "exec.demotions", "count", lo),
        l("machine", "exec.insns_total", "count", lo),
    ];
    // The golden-run probe iterates the same list.
    let apps = AppKind::ALL.map(AppKind::name);
    for app in apps {
        v.push(l("mpi", format!("mpi.golden_ms.{app}"), "ms", lo));
    }
    for app in apps {
        v.push(l("mpi", format!("mpi.golden_mips.{app}"), "MIPS", hi));
    }
    v.extend([
        l("mpi", "mpi.pingpong_small_msgs_per_s", "1/s", hi),
        l("mpi", "mpi.pingpong_bulk_mb_s", "MB/s", hi),
        l("mpi", "mpi.allreduce_per_s", "1/s", hi),
        l("mpi", "mpi.msgs", "count", lo),
        l("mpi", "mpi.header_bytes", "bytes", lo),
        l("mpi", "mpi.payload_bytes", "bytes", lo),
        l("guard", "guard.crc_small_msgs_per_s", "1/s", hi),
        l("guard", "guard.crc_bulk_mb_s", "MB/s", hi),
        l("snap", "snap.epoch_build_ms", "ms", lo),
        l("snap", "snap.epochs", "count", hi),
        l("snap", "snap.capture_us", "us", lo),
        l("snap", "snap.restore_us", "us", lo),
        l("snap", "snap.fork_tail_ms", "ms", lo),
        l("engine", "engine.setup_ms", "ms", lo),
        l("engine", "engine.trial_ms_p50", "ms", lo),
        l("engine", "engine.trial_ms_p95", "ms", lo),
        l("engine", "engine.trial_ms_max", "ms", lo),
        l("engine", "engine.assemble_ms", "ms", lo),
        l("engine", "engine.benign_time_share", "fraction", lo),
        l("engine", "engine.crash_time_share", "fraction", lo),
        l("engine", "engine.hang_time_share", "fraction", lo),
    ]);
    for region in ALL_REGIONS {
        v.push(l(
            "engine",
            format!("engine.ms_per_trial.{region}"),
            "ms",
            lo,
        ));
    }
    v.extend([
        l("engine", "engine.dictionaries_ms", "ms", lo),
        l("engine", "engine.resume_full_ms", "ms", lo),
        l("engine", "engine.scale2_x", "x", hi),
        l("core", "core.record_encode_ns", "ns", lo),
        l("core", "core.record_parse_ns", "ns", lo),
        l("core", "core.records_sort_us_per_k", "us", lo),
        l("core", "core.resume_adopt_us_per_k", "us", lo),
        l("core", "core.spec_parse_us", "us", lo),
        l("core", "core.spec_emit_us", "us", lo),
        l("serve", "serve.start_ms", "ms", lo),
        l("serve", "serve.status_rtt_us", "us", lo),
        l("serve", "serve.submit_rtt_us", "us", lo),
        l("serve", "serve.resubmit_done_rtt_us", "us", lo),
        l("serve", "serve.records_get_mb_s", "MB/s", hi),
        l("serve", "serve.overhead_frac", "fraction", lo),
        l("serve", "serve.state_bytes", "bytes", lo),
        l("bench", "bench.trace_overhead_frac", "fraction", lo),
        l("bench", "bench.noise_floor_frac", "fraction", lo),
    ]);
    v
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        ("command", Json::Arr(command.map(Json::str).to_vec())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name.as_str())),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str, max: usize) -> bool {
        let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let layers = per_layer();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(layers.iter().map(|m| m.name.clone()));
        for n in names {
            assert!(name_ok(&n, 64), "{n}");
            assert!(seen.insert(n.clone()), "{n} is used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layers.iter().map(|m| m.unit));
        for u in units {
            assert!(u.len() <= 16, "{u}");
            assert!(
                u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
        assert!((1..=128).contains(&layers.len()));
    }

    #[test]
    fn bounds_are_legal_and_setup_has_the_largest() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "{}", m.name);
        }
    }

    #[test]
    fn the_committed_benchmark_file_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let committed = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(committed, manifest(), "regenerate with `bench manifest`");
    }
}
