//! `bench run`: with `--workload`, measure that workload in this process
//! and print one result line (what the driver calls); without it, run
//! every workload twice — untraced, then traced — each time in a fresh
//! child process of this binary, and write `out/results.json`.

use crate::checks::{check_pass, cross_checks, fnv1a, Tally};
use crate::json::{self, Json};
use crate::metrics::{per_layer, END_TO_END};
use crate::pass::{record_spans, run_pass_inproc, run_pass_serve, PassRun};
use crate::probes::{Metrics, Probes};
use crate::stats::{mad, median, percentile, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, SpecDoc, Variant, Workload, ALL_REGIONS, WORKLOADS};
use crate::{out_dir, state_dir};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: Option<String>,
    pub seed: u64,
    /// Measure for about this long (the driver's `--seconds`).
    pub seconds: Option<f64>,
    /// Or for exactly this many passes.
    pub repeats: Option<usize>,
    pub trace: bool,
    /// One pass, no warm-up, injections divided by four.
    pub quick: bool,
    /// Write results here instead of `out/` next to the manifest.
    pub out: Option<PathBuf>,
}

const DEFAULT_REPEATS: usize = 5;

fn run_pass(w: &Workload, docs: &[SpecDoc], traced: bool) -> Result<PassRun, String> {
    if w.serve {
        run_pass_serve(docs, traced, &state_dir())
    } else {
        Ok(run_pass_inproc(docs, traced))
    }
}

fn pass_variant(o: &RunOpts) -> Variant {
    Variant {
        quick: o.quick,
        ..Variant::default()
    }
}

/// A quick-sized pass before anything is timed: heap growth, page faults
/// and lazy set-up are paid here. Its timing is discarded; its records are
/// the reference of the cross-checks. `--quick` runs have none.
fn warm_up(w: &Workload, o: &RunOpts) -> Result<Option<PassRun>, String> {
    if o.quick {
        return Ok(None);
    }
    let v = Variant {
        quick: true,
        ..Variant::default()
    };
    let docs = workloads::specs(w.name, o.seed, 0, v);
    let pass = run_pass(w, &docs, false)?;
    match pass.first_error() {
        Some(e) => Err(format!("warm-up: {e}")),
        None => Ok(Some(pass)),
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd
        .stderr(Stdio::null())
        .stdin(Stdio::null())
        .output()
        .ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

/// Where and how the numbers were taken.
fn provenance(o: &RunOpts) -> Json {
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let git = |args: &[&str]| first_line_of(Command::new("git").arg("-C").arg(repo).args(args));
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .map(|_| git(&["status", "--porcelain"]).is_some());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse::<f64>().ok());
    let opt = |s: Option<String>| s.map_or(Json::Null, Json::Str);
    Json::obj([
        ("git_rev", opt(rev)),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu", Json::Str(cpu)),
        ("rustc", opt(first_line_of(Command::new("rustc").arg("-V")))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Num(o.seed as f64)),
        (
            "repeats",
            o.repeats.map_or(Json::Null, |r| Json::Num(r as f64)),
        ),
        ("seconds", o.seconds.map_or(Json::Null, Json::Num)),
        ("quick", Json::Bool(o.quick)),
        ("load_avg_1m", load.map_or(Json::Null, Json::Num)),
    ])
}

fn print_provenance(p: &Json) {
    let mut line = String::from("# provenance:");
    for (k, v) in p.as_obj().unwrap_or(&[]) {
        line.push_str(&format!(" {k}={}", v.to_line()));
    }
    println!("{line}");
}

/// Whole numbers as they are, everything else to four decimals.
fn num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 9e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.4}")
    }
}

/// One report row: workload, metric, median ± MAD, range, sample count.
fn print_row(workload: &str, name: &str, unit: &str, s: &Summary) {
    println!(
        "{workload:<15} {name:<34} {:>16} {unit:<9} ±{:<12} [{} .. {}] n={}",
        num(s.value),
        num(s.mad),
        num(s.min),
        num(s.max),
        s.n
    );
}

/// Guest instructions retired, summed over a record stream.
fn insns_of(records: &str) -> u64 {
    records
        .lines()
        .filter_map(|l| json::parse(l).ok()?.get("insns")?.as_f64())
        .sum::<f64>() as u64
}

fn metric_json(s: &Summary, extra: Vec<(&str, Json)>) -> Json {
    let mut items: Vec<(String, Json)> =
        extra.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    items.extend(s.to_json());
    Json::Obj(items)
}

/// The `error_share` row, and what failed if anything did.
fn print_errors(w: &Workload, t: &Tally) {
    println!(
        "{:<15} {:<34} {:>16.6} {:<9} failed {} of {} operations",
        w.name,
        "error_share",
        t.error_share(),
        "fraction",
        t.failed,
        t.attempted
    );
    for note in &t.notes {
        println!("# check failed: {note}");
    }
}

fn errors_json(t: &Tally) -> Json {
    Json::obj([
        ("attempted", Json::Num(t.attempted as f64)),
        ("failed", Json::Num(t.failed as f64)),
        ("error_share", Json::Num(t.error_share())),
        ("notes", Json::Arr(t.notes.iter().map(Json::str).collect())),
    ])
}

/// The last line of a driver run: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric with its value and unit.
fn result_line(t: &Tally, metrics: &[(String, &'static str, f64)]) -> String {
    Json::obj([
        ("correct", Json::Bool(t.failed == 0)),
        ("attempted", Json::Num(t.attempted.max(1) as f64)),
        ("failed", Json::Num(t.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, unit, value)| {
                (
                    name.as_str(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })),
        ),
    ])
    .to_line()
}

fn write_out(name: &str, text: &str) -> Result<PathBuf, String> {
    let path = out_dir().join(name);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Whether another timed pass fits: by count, or — for `--seconds` — when
/// a pass as long as the last one would end within a tenth past the limit.
fn another_pass(o: &RunOpts, passes: usize, elapsed_s: f64, last_s: f64) -> bool {
    if o.quick {
        return false;
    }
    match (o.repeats, o.seconds) {
        (Some(n), _) => passes < n,
        (None, Some(limit)) => elapsed_s + last_s <= limit * 1.1,
        (None, None) => passes < DEFAULT_REPEATS,
    }
}

/// The untraced run of one workload: warm-up, timed passes, output
/// checks, end-to-end metrics.
fn run_end_to_end(w: &Workload, o: &RunOpts) -> Result<bool, String> {
    let prov = provenance(o);
    print_provenance(&prov);
    // In a `--quick` run the one timed pass is itself quick-sized and
    // takes the warm-up's place as the reference.
    let mut reference = warm_up(w, o)?;
    let mut tally = Tally::default();
    let (mut tps, mut setup, mut p50, mut p90, mut wall) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut exact = Vec::new();
    let started = Instant::now();
    loop {
        let pass_no = tps.len() as u64;
        let docs = workloads::specs(w.name, o.seed, pass_no, pass_variant(o));
        let pass = run_pass(w, &docs, false)?;
        check_pass(&mut tally, &pass, &docs, w.serve);
        tps.push(pass.trials_per_s());
        setup.push(pass.setup_s());
        let lat = pass.latencies_ms();
        p50.push(percentile(&lat, 50.0));
        p90.push(percentile(&lat, 90.0));
        wall.push(pass.wall_s);
        if pass_no == 0 {
            let specs: String = docs.iter().map(|d| format!("{}\n", d.json)).collect();
            write_out(&format!("{}.specs.jsonl", w.name), &specs)?;
            exact = vec![
                ("records_digest", Json::Str(fnv1a(&pass.records()))),
                ("insns_total", Json::Num(insns_of(&pass.records()) as f64)),
                ("trials", Json::Num(pass.trials() as f64)),
            ];
        }
        let more = another_pass(o, tps.len(), started.elapsed().as_secs_f64(), pass.wall_s);
        reference.get_or_insert(pass);
        if !more {
            break;
        }
    }
    // Read before the checks run two-threaded campaigns.
    let rss = peak_rss_mib();
    cross_checks(
        &mut tally,
        w,
        o.seed,
        reference.as_ref().expect("a pass ran"),
    );

    let values = [
        Summary::of(&tps),
        Summary::of(&setup),
        Summary::single(rss),
        Summary::of(&p50),
        Summary::of(&p90),
    ];
    let mut metrics = Vec::new();
    let mut line = Vec::new();
    for (def, s) in END_TO_END.iter().zip(&values) {
        print_row(w.name, def.name, def.unit, s);
        let extra = vec![
            ("unit", Json::str(def.unit)),
            ("better", Json::str(def.better)),
            ("bound", Json::Num(def.bound)),
            ("what", Json::str(def.what)),
        ];
        metrics.push((def.name, metric_json(s, extra)));
        line.push((def.name.to_string(), def.unit, s.value));
    }
    print_errors(w, &tally);
    for (k, v) in &exact {
        println!("{:<15} {:<34} {:>16} exact", w.name, k, v.to_line());
    }
    let doc = Json::obj([
        ("workload", Json::str(w.name)),
        ("passes", Json::Num(tps.len() as f64)),
        (
            "pass_wall_s",
            Json::Arr(wall.iter().map(|x| Json::Num(*x)).collect()),
        ),
        ("metrics", Json::obj(metrics)),
        ("errors", errors_json(&tally)),
        ("exact", Json::obj(exact)),
        ("provenance", prov),
    ]);
    write_out(&format!("{}.e2e.json", w.name), &doc.to_pretty())?;
    println!("{}", result_line(&tally, &line));
    Ok(tally.failed == 0)
}

/// Engine phases read off the spans of traced in-process campaigns.
fn engine_metrics(tracer: &Tracer, out: &mut Metrics) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let named = |name: &str| -> Vec<&crate::trace::Span> {
        tracer.spans.iter().filter(|s| s.name == name).collect()
    };
    let total = |name: &str| ms(named(name).iter().map(|s| s.dur_ns()).sum());
    out.insert(
        "engine.setup_ms".into(),
        Summary::single(total("engine.setup")),
    );
    out.insert(
        "engine.assemble_ms".into(),
        Summary::single(total("engine.assemble")),
    );
    let trials = named("engine.trial");
    let durs: Vec<f64> = trials.iter().map(|s| ms(s.dur_ns())).collect();
    let all: f64 = durs.iter().sum();
    for (name, p) in [("p50", 50.0), ("p95", 95.0), ("max", 100.0)] {
        let s = Summary::stat(percentile(&durs, p), &durs);
        out.insert(format!("engine.trial_ms_{name}"), s);
    }
    for outcome in ["correct", "crash", "hang"] {
        let t: f64 = trials
            .iter()
            .filter(|s| s.attr("outcome") == Some(outcome))
            .map(|s| ms(s.dur_ns()))
            .sum();
        let name = if outcome == "correct" {
            "benign"
        } else {
            outcome
        };
        out.insert(
            format!("engine.{name}_time_share"),
            Summary::single(if all > 0.0 { t / all } else { 0.0 }),
        );
    }
    for region in ALL_REGIONS {
        let d: Vec<f64> = trials
            .iter()
            .filter(|s| s.attr("class") == Some(region))
            .map(|s| ms(s.dur_ns()))
            .collect();
        let mean = d.iter().sum::<f64>() / d.len().max(1) as f64;
        out.insert(
            format!("engine.ms_per_trial.{region}"),
            Summary::stat(mean, &d),
        );
    }
}

/// The traced run of one workload: the same pass untraced, traced and
/// untraced again (tracing overhead and noise floor), the daemon against
/// the same specs in-process, one pass at two workers, then the probes.
fn run_traced(w: &Workload, o: &RunOpts) -> Result<bool, String> {
    let prov = provenance(o);
    print_provenance(&prov);
    warm_up(w, o)?;
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let docs = workloads::specs(w.name, o.seed, 0, pass_variant(o));
    let mut checked = |pass: PassRun, serve: bool| {
        check_pass(&mut tally, &pass, &docs, serve);
        pass
    };

    // Untraced, traced, untraced on one input; `--quick` keeps the middle.
    let mut untraced = Vec::new();
    if !o.quick {
        untraced.push(checked(run_pass(w, &docs, false)?, w.serve));
    }
    let traced = checked(run_pass(w, &docs, true)?, w.serve);
    if !o.quick {
        untraced.push(checked(run_pass(w, &docs, false)?, w.serve));
    }
    record_spans(&mut tracer, &traced, &docs, 0);
    let mut exec = traced.exec();
    let mut in_process = Vec::new();
    if w.serve {
        // The daemon runs the engine out of the benchmark's sight, so the
        // engine phases and work counters come from the same specs traced
        // in-process — which is also the A side of the daemon's overhead.
        let pass = checked(run_pass_inproc(&docs, true), false);
        record_spans(&mut tracer, &pass, &docs, docs.len() as u32);
        exec = pass.exec();
        in_process.push(pass.wall_s);
        if !o.quick {
            in_process.push(checked(run_pass_inproc(&docs, false), false).wall_s);
        }
    }
    let two_docs = workloads::specs(
        w.name,
        o.seed,
        0,
        Variant {
            threads: 2,
            ..pass_variant(o)
        },
    );
    let two = checked(run_pass(w, &two_docs, false)?, w.serve);
    let digest = fnv1a(&traced.records());
    for p in untraced.iter().chain([&two]) {
        tally.op(fnv1a(&p.records()) == digest, || {
            "records differ between passes over the same specs".into()
        });
    }

    let mut out = Metrics::new();
    engine_metrics(&tracer, &mut out);
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let base = if walls.is_empty() {
        traced.wall_s
    } else {
        median(&walls)
    };
    let all_walls: Vec<f64> = walls.iter().copied().chain([traced.wall_s]).collect();
    let noise = mad(&all_walls) / median(&all_walls);
    // An overhead inside the noise is reported as zero, never as negative.
    let floor = |x: f64| if x.abs() <= noise { 0.0 } else { x.max(0.0) };
    out.insert(
        "bench.trace_overhead_frac".into(),
        Summary::single(floor(traced.wall_s / base - 1.0)),
    );
    out.insert("bench.noise_floor_frac".into(), Summary::single(noise));
    out.insert("engine.scale2_x".into(), Summary::single(base / two.wall_s));
    let overhead = if in_process.is_empty() {
        Summary::of(&[])
    } else {
        Summary::single(floor(median(&all_walls) / median(&in_process) - 1.0))
    };
    out.insert("serve.overhead_frac".into(), overhead);
    for (name, v) in [
        ("exec.block_hits", exec.block_hits),
        ("exec.block_misses", exec.block_misses),
        ("exec.trace_hits", exec.trace_hits),
        ("exec.trace_side_exits", exec.trace_side_exits),
        ("exec.demotions", exec.demotions),
        ("exec.insns_total", exec.insns_total),
    ] {
        out.insert(name.into(), Summary::single(v as f64));
    }

    let mut probes = Probes {
        tracer: &mut tracer,
        tally: &mut tally,
        out,
        quick: o.quick,
    };
    probes.run_all(&docs, &traced.records(), o.seed, &state_dir())?;
    let out = probes.out;

    let defs = per_layer();
    let mut metrics = Vec::new();
    let mut line = Vec::new();
    for def in &defs {
        let s = out
            .get(&def.name)
            .ok_or_else(|| format!("no probe produced {}", def.name))?;
        print_row(w.name, &def.name, def.unit, s);
        let extra = vec![
            ("unit", Json::str(def.unit)),
            ("better", Json::str(def.better)),
            ("layer", Json::str(def.layer)),
        ];
        metrics.push((def.name.clone(), metric_json(s, extra)));
        line.push((def.name.clone(), def.unit, s.value));
    }
    let self_ms: Vec<(String, Json)> = tracer
        .self_time_by_name()
        .into_iter()
        .map(|(k, ns)| (k.to_string(), Json::Num(ns as f64 / 1e6)))
        .collect();
    println!(
        "# traced pass {:.1} ms; self time by span (ms): {}",
        traced.wall_s * 1e3,
        Json::Obj(self_ms.clone()).to_line()
    );
    print_errors(w, &tally);
    write_out(&format!("{}.spans.jsonl", w.name), &tracer.to_jsonl())?;
    let doc = Json::obj([
        ("workload", Json::str(w.name)),
        ("traced_pass_wall_ms", Json::Num(traced.wall_s * 1e3)),
        ("untraced_pass_wall_ms", Json::Num(base * 1e3)),
        ("metrics", Json::obj(metrics)),
        ("self_time_ms", Json::Obj(self_ms)),
        ("errors", errors_json(&tally)),
        ("provenance", prov),
    ]);
    write_out(&format!("{}.layers.json", w.name), &doc.to_pretty())?;
    println!("{}", result_line(&tally, &line));
    Ok(tally.failed == 0)
}

/// Run one workload in this process. `Ok(false)` when an output check
/// failed.
pub fn run_workload(o: &RunOpts) -> Result<bool, String> {
    let name = o.workload.as_deref().expect("caller checked");
    let w = workloads::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{name}` (expected one of {})",
            names.join(", ")
        )
    })?;
    if o.trace {
        run_traced(w, o)
    } else {
        run_end_to_end(w, o)
    }
}

/// Run every workload, untraced then traced, each in a fresh child
/// process so that peak memory is per workload, and collect what the
/// children wrote into `out/results.json` and `out/spans.jsonl`.
pub fn run_all(o: &RunOpts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let started = Instant::now();
    // Stamp the pass count the children will use, not an absent flag.
    let o = &RunOpts {
        repeats: o
            .repeats
            .or((o.seconds.is_none() && !o.quick).then_some(DEFAULT_REPEATS)),
        ..o.clone()
    };
    let prov = provenance(o);
    print_provenance(&prov);
    let mut ok = true;
    let mut spans = String::new();
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let child = |trace: bool| -> Result<(bool, String), String> {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", w.name, "--seed", &o.seed.to_string()]);
            cmd.args(["--trace", if trace { "1" } else { "0" }]);
            cmd.arg("--out").arg(out_dir());
            if o.quick {
                cmd.arg("--quick");
            }
            if let Some(n) = o.repeats {
                cmd.args(["--repeats", &n.to_string()]);
            } else if let Some(s) = o.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            // `output` waits until the child has ended.
            let out = cmd
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("start child for {}: {e}", w.name))?;
            Ok((
                out.status.success(),
                String::from_utf8_lossy(&out.stdout).into_owned(),
            ))
        };
        // A measuring child has the machine to itself. A `--quick` run is a
        // smoke test, so its two children share the two cores.
        let reports = if o.quick {
            std::thread::scope(|s| {
                let traced = s.spawn(|| child(true));
                [child(false), traced.join().expect("child thread")]
            })
        } else {
            [child(false), child(true)]
        };
        for report in reports {
            let (success, text) = report?;
            print!("{text}");
            ok &= success;
        }
        let read = |suffix: &str| -> Result<Json, String> {
            let path = out_dir().join(format!("{}.{suffix}", w.name));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
        };
        results.push((
            w.name,
            Json::obj([
                ("why", Json::str(w.why)),
                ("end_to_end", read("e2e.json")?),
                ("per_layer", read("layers.json")?),
            ]),
        ));
        spans.push_str(
            &std::fs::read_to_string(out_dir().join(format!("{}.spans.jsonl", w.name)))
                .unwrap_or_default(),
        );
    }
    let doc = Json::obj([("provenance", prov), ("workloads", Json::obj(results))]);
    let path = write_out("results.json", &doc.to_pretty())?;
    write_out("spans.jsonl", &spans)?;
    println!(
        "# wrote {} and spans.jsonl in {:.0} s; {}",
        path.display(),
        started.elapsed().as_secs_f64(),
        if ok {
            "all output checks passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    Ok(ok)
}
