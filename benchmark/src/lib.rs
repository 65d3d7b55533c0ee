//! The mpi-faultlab campaign benchmark.
//!
//! The unit users wait on is a campaign — spec in, compile, golden run,
//! epochs, fork, guest execution, MPI, classify, record, disk or socket —
//! so the benchmark measures campaigns: four workloads built from spec
//! JSON documents, six end-to-end numbers per workload with tracing off,
//! and a separate traced run with layer probes for the per-layer numbers.
//! See `README.md` next to this crate's manifest.
//!
//! ```text
//! bench run [--seed S] [--repeats N | --seconds T] [--quick] [--out DIR]
//! bench run --workload W --seed S --seconds T --trace 0|1
//! bench compare <a.json> <b.json>
//! bench manifest
//! ```

pub mod checks;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod pass;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

use run::RunOpts;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

static OUT_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Where results, spans, spec dumps and daemon state directories go:
/// `out/` next to the manifest, inside the checkout, unless `--out` named
/// another place.
pub fn out_dir() -> PathBuf {
    OUT_DIR
        .get_or_init(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")))
        .clone()
}

/// A state directory no daemon of this or any concurrent run has used.
pub fn state_dir() -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    out_dir()
        .join("state")
        .join(format!("{}-{n}", std::process::id()))
}

const USAGE: &str = "usage:
  bench run [--seed S] [--repeats N | --seconds T] [--quick] [--out DIR]
      every workload, untraced then traced, each in a fresh child process;
      writes out/results.json and out/spans.jsonl
  bench run --workload W [--seed S] [--seconds T | --repeats N] [--trace 0|1] [--quick] [--out DIR]
      one workload in this process; the last line of output is the result
      object (end-to-end metrics with --trace 0, per-layer with --trace 1)
  bench compare <a.json> <b.json>
      judge results b against results a with the benchmark's bounds
  bench manifest
      print BENCHMARK.json as generated from the metric registry";

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: None,
        repeats: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--quick" => o.quick = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--workload" => o.workload = Some(value()?.to_string()),
            "--seed" => {
                let v = value()?;
                o.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(v));
                }
                o.seconds = Some(s);
            }
            "--repeats" => {
                let v = value()?;
                let n: usize = v.parse().map_err(|_| bad(v))?;
                if n == 0 {
                    return Err(bad(v));
                }
                o.repeats = Some(n);
            }
            "--trace" => {
                o.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(o)
}

/// The `bench` binary: exit code 0 when everything passed, 1 when an
/// output check failed or a comparison regressed, 2 on a usage or
/// environment error.
pub fn main_with_args(args: &[String]) -> ExitCode {
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|o| {
            if let Some(dir) = &o.out {
                OUT_DIR.set(dir.clone()).expect("set once, before any use");
            }
            if o.workload.is_some() {
                run::run_workload(&o)
            } else {
                run::run_all(&o)
            }
        }),
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest().to_pretty());
            Ok(true)
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
