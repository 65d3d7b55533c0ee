//! `faultlab` — command-line driver for the FaultLab experiments.
//!
//! ```text
//! faultlab profile  [<app> ...]                 Table 1 application profiles
//! faultlab campaign <app> [options]             Tables 2-4 injection campaigns
//! faultlab run-config <spec.json|specs.jsonl>  run the spec(s) a file holds
//! faultlab trace    <app> [--samples N]         Tables 5-7 working-set curves
//! faultlab replay   <app> <region> --trial K    re-run one trial, verbosely
//! faultlab events   <app> <region> --trial K    replay one trial's event timeline
//! faultlab metrics  <app> [options]             campaign-level event metrics
//! faultlab guard    <app> [options]             guard-on/off detection coverage
//! faultlab ft       <app> [options]             rank-kill recovery + replication campaign
//! faultlab chaos    <app> [options]             chaos-model x defense coverage matrix
//! faultlab perturb  <app> [options]             interference-model x detection matrix
//! faultlab sample-size --error D [--conf C]     §4.3 sample-size calculator
//! faultlab source   <app>                       print the generated FL source
//! faultlab disasm   <app> [--limit N]           disassemble the app text
//! ```
//!
//! Apps: `wavetoy`, `moldyn`, `climsim`, `jacobi3d`. Regions:
//! `regular-reg`, `fp-reg`, `bss`, `data`, `stack`, `text`, `heap`,
//! `message` (or `all`).

use fl_apps::{App, AppKind, AppParams};
use fl_inject::spec::Flag::{self, On, Value};
use fl_inject::{
    estimation_error, join_reports, render_register_breakdown, replay_trial, run_spec, sample_size,
    sort_records_jsonl, suggest, CampaignSpec, EngineControl, EngineProgress, EngineSink,
    MetricsReport, Report, ReportFormat, SpecMode, SpecOutcome, StderrProgress, TargetClass,
    TrialOutput, VecSink,
};
use fl_serve::{ServeConfig, Server};
use std::path::Path;

const DEFAULT_BUDGET: u64 = 2_000_000_000;

/// Default campaign-service address for `serve` and its client verbs.
const DEFAULT_ADDR: &str = "127.0.0.1:7717";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("faultlab: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "profile" => cmd_profile(rest),
        "campaign" => cmd_campaign(rest),
        "run-config" => cmd_run_config(rest),
        "trace" => cmd_trace(rest),
        "replay" => cmd_replay(rest),
        "events" => cmd_events(rest),
        "metrics" => cmd_metrics(rest),
        "guard" | "ft" | "chaos" | "perturb" => cmd_matrix(cmd, rest),
        "spec" => cmd_spec(rest),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "status" => cmd_status(rest),
        "watch" => cmd_watch(rest),
        "pause" | "resume" | "stop" => cmd_control(cmd, rest),
        "sample-size" => cmd_sample_size(rest),
        "source" => cmd_source(rest),
        "disasm" => cmd_disasm(rest),
        "regpressure" => cmd_regpressure(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `faultlab help`)")),
    }
}

/// `[--flag N]` for each of `flags`, wrapped under the usage block's
/// twenty-column indent.
fn usage_flags(flags: &[Flag]) -> String {
    let mut lines = vec![String::new()];
    for flag in flags {
        let item = match flag {
            Value(name) => format!(" [--{name} N]"),
            switch => format!(" [--{}]", switch.name()),
        };
        match lines.last_mut() {
            Some(line) if line.len() + item.len() <= 60 => line.push_str(&item),
            _ => lines.push(item),
        }
    }
    lines.join("\n                   ")
}

fn print_usage() {
    let spec_flags = SpecMode::Campaign.flags();
    // A matrix verb's usage: its focus flag, then its policy's flags.
    let matrix = |verb: &str, focus: &str| {
        let mode = SpecMode::named(verb).expect("a matrix verb");
        format!(
            "\x20 faultlab {verb:<8} <app> [spec flags] [--tsv] [--jsonl]{focus}\n\
             \x20                  {}\n",
            usage_flags(&mode.flags()[spec_flags.len()..])
        )
    };
    println!(
        "faultlab — software fault injection for MPI applications\n\
         \n\
         USAGE:\n\
         \x20 faultlab profile  [<app> ...]\n\
         \x20 faultlab campaign <app> [spec flags] [--tsv] [--jsonl] [--registers]\n\
         \x20 faultlab run-config <spec.json|specs.jsonl> [--out DIR] [--tsv] [--jsonl]\n\
         \x20 faultlab trace    <app> [--samples N] [--tsv] [--tiny]\n\
         \x20 faultlab replay   <app> <region> --trial K [--regions R1,R2|all]\n\
         \x20                   [--seed S] [--injections N] [--epoch-rounds E] [--tiny]\n\
         \x20 faultlab events   <app> <region> --trial K [--regions R1,R2|all]\n\
         \x20                   [--seed S] [--ring N] [--jsonl] [--tiny] [--no-fastpath]\n\
         \x20 faultlab metrics  <app> [spec flags] [--tsv]\n\
         {}{}{}{}\
         \x20 faultlab spec     <app> [--mode campaign|guard|ft|chaos|perturb] [spec flags]\n\
         \x20                   [the mode's policy flags, as on its verb]\n\
         \x20 faultlab serve    [--addr HOST:PORT] [--state-dir DIR]\n\
         \x20 faultlab submit   [<spec.json>|-] [--addr HOST:PORT]\n\
         \x20 faultlab status   [<id>] [--addr HOST:PORT]\n\
         \x20 faultlab watch    <id> [--addr HOST:PORT]\n\
         \x20 faultlab pause|resume|stop <id> [--addr HOST:PORT]\n\
         \x20 faultlab sample-size --error D [--confidence C] [--injections N]\n\
         \x20 faultlab source   <app> [--tiny]\n\
         \x20 faultlab disasm   <app> [--limit N] [--tiny]\n\
         \x20 faultlab regpressure <app> [--tiny]\n\
         \n\
         SPEC FLAGS:{}\n\
         \n\
         FLAGS (same meaning on every verb that takes them):\n\
         \x20 --injections N      trials per region (campaign/metrics/guard), per fault\n\
         \x20                     kind (ft) or per matrix cell (chaos/perturb)\n\
         \x20 --regions R1,R2     comma-separated region list, or `all`\n\
         \x20 --seed S            campaign PRNG seed\n\
         \x20 --jobs N / --threads N  worker threads (0 = one per core); give one\n\
         \x20 --addr HOST:PORT    campaign service address (default 127.0.0.1:7717)\n\
         \x20 --epoch-rounds E    scheduler rounds per snapshot epoch\n\
         \x20 --ring N            per-rank event ring capacity\n\
         \x20 --tiny              CI-sized app parameters (fast)\n\
         \x20 --tsv / --jsonl     machine-readable output instead of the table\n\
         \x20 --out DIR           run-config: also write <file stem>.txt/.tsv/.jsonl,\n\
         \x20                     every view of the run, into DIR\n\
         \x20 --no-fastpath       disable the software-TLB/basic-block fast path\n\
         \x20                     (observably identical, much slower)\n\
         \x20 --mode M            ft: focus the table on one recovery discipline\n\
         \x20                     (baseline|shrink|respawn|replicated|app);\n\
         \x20                     spec: experiment family (campaign|guard|ft|chaos|perturb)\n\
         \x20 --model M           chaos/perturb: focus the table on one fault model's row\n\
         \x20 perturb's permille knobs are relative to the clean reference run: a\n\
         \x20                     degraded threshold of 1050 separates Correct from\n\
         \x20                     Degraded at 5% slower\n\
         \n\
         APPS: wavetoy (Cactus Wavetoy), moldyn (NAMD), climsim (CAM),\n\
         \x20     jacobi3d (Jacobi-3D, fl-ulfm app-side recovery)\n\
         REGIONS: regular-reg fp-reg bss data stack text heap message all",
        matrix("guard", ""),
        matrix("ft", " [--mode M]"),
        matrix("chaos", " [--model M]"),
        matrix("perturb", " [--model M]"),
        usage_flags(&spec_flags),
    );
}

/// The did-you-mean tail of an "unknown X" error: the nearest valid
/// name, or every valid name when none is close.
fn hint(dashes: &str, input: &str, valid: &[&str], plural: &str) -> String {
    match suggest(input, valid) {
        Some(v) => format!("(did you mean `{dashes}{v}`?)"),
        None => {
            let all: Vec<String> = valid.iter().map(|v| format!("{dashes}{v}")).collect();
            format!("(valid {plural}: {})", all.join(", "))
        }
    }
}

/// The error for a flag that is not one of `valid`; `context` says
/// where, e.g. " for mode `campaign`".
fn unknown_flag(name: &str, valid: &[Flag], context: &str) -> String {
    let mut names: Vec<&str> = valid.iter().map(|f| f.name()).collect();
    names.sort_unstable();
    names.dedup();
    let hint = hint("--", name, &names, "flags");
    format!("unknown flag `--{name}`{context} {hint}")
}

/// A verb's arguments: the bare words it reads, and the `--flag [word]`
/// options among the flags it accepts.
struct Opts {
    words: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    /// Split `args` into words and flags. `valid` says which flags exist
    /// and which of them take a word: a switch never swallows the word
    /// after it, a value flag always needs one, no flag repeats. The verb
    /// reads at most `words` bare words; one more is an error, not noise.
    fn parse(
        args: &[String],
        valid: impl IntoIterator<Item = Flag>,
        words: usize,
    ) -> Result<Opts, String> {
        let accepted: Vec<Flag> = valid.into_iter().collect();
        let mut o = Opts {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if o.words.len() == words {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                o.words.push(arg.clone());
                continue;
            };
            let flag = accepted.iter().find(|f| f.name() == name);
            let flag = flag.ok_or_else(|| unknown_flag(name, &accepted, ""))?;
            if o.has(name) {
                return Err(format!("flag `--{name}` given twice"));
            }
            let word = match flag {
                Value(_) => {
                    let word = args.next().filter(|w| !w.starts_with("--")).cloned();
                    Some(word.ok_or_else(|| format!("--{name} needs a value"))?)
                }
                _ => None,
            };
            o.flags.push((name.to_string(), word));
        }
        Ok(o)
    }

    /// The app the first word names, built at the size `--tiny` asks for.
    fn app(&self, verb: &str) -> Result<App, String> {
        let name = self.words.first();
        let name = name.ok_or_else(|| format!("{verb} needs an app name"))?;
        Ok(build_app(name.parse()?, self.has("tiny")))
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn get_num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: expected a number, got `{v}`")),
        }
    }
}

fn build_app(kind: AppKind, tiny: bool) -> App {
    let params = if tiny {
        AppParams::tiny(kind)
    } else {
        AppParams::default_for(kind)
    };
    App::build(kind, params)
}

/// The campaign-level spec flags called `names` — for verbs that read
/// only some of them.
fn spec_flags<'a>(names: &'a [&str]) -> impl Iterator<Item = Flag> + 'a {
    let flags = SpecMode::Campaign.flags().into_iter();
    flags.filter(|f| names.contains(&f.name()))
}

/// The spec mode called `name`, at its default policy.
fn parse_mode(name: &str) -> Result<SpecMode, String> {
    SpecMode::named(name).ok_or_else(|| {
        let names = SpecMode::all().map(|m| m.name());
        format!("unknown mode `{name}` {}", hint("", name, &names, "modes"))
    })
}

/// What the verbs (and `spec --mode`) preset differently from the spec
/// defaults: injections per row, and the guard verb's checkpoint cadence
/// (the policy's own default is 64).
fn preset(spec: &mut CampaignSpec) {
    spec.campaign.injections = match &mut spec.mode {
        SpecMode::Campaign => 500,
        SpecMode::Guard(g) => {
            g.checkpoint_rounds = 32;
            100
        }
        SpecMode::Ft(_) => 40,
        SpecMode::Chaos(_) => 20,
        SpecMode::Perturb(_) => 10,
    };
}

/// Build a [`CampaignSpec`] from a verb's flags — the single source the
/// one-shot verbs, `faultlab spec` and the service submissions share.
fn spec_from_opts(o: &Opts, mode: &str) -> Result<CampaignSpec, String> {
    let app_name = o.words.first().ok_or("needs an app name")?;
    let mut spec = CampaignSpec::new(app_name.parse()?);
    spec.mode = parse_mode(mode)?;
    preset(&mut spec);
    spec.set_flags(&o.flags)?;
    Ok(spec)
}

/// The one-shot verbs' engine sink: a stderr progress line, plus the
/// canonical record stream when `--jsonl` asked for it.
struct CliSink {
    records: Option<VecSink>,
    progress: StderrProgress,
}

impl CliSink {
    fn new(spec: &CampaignSpec, collect_records: bool) -> CliSink {
        CliSink {
            records: collect_records.then(|| VecSink::new(spec.app)),
            progress: StderrProgress::new((spec.slot_plan().total() / 20).max(1)),
        }
    }

    fn canonical_records(self) -> String {
        match self.records {
            Some(v) => sort_records_jsonl(&v.into_lines().join("\n")),
            None => String::new(),
        }
    }
}

impl EngineSink for CliSink {
    fn trial(&self, t: &TrialOutput) {
        if let Some(v) = &self.records {
            v.trial(t);
        }
    }

    fn progress(&self, p: EngineProgress) {
        self.progress.progress(p);
    }
}

/// Run a spec on the engine with the CLI sink; uncontrolled one-shot
/// runs always complete.
fn run_spec_cli(spec: &CampaignSpec, sink: &CliSink) -> SpecOutcome {
    run_spec(spec, sink, &EngineControl::new(), None)
        .expect("uncontrolled one-shot runs always complete")
}

fn jobs_label(threads: usize) -> String {
    if threads == 0 {
        "auto".into()
    } else {
        threads.to_string()
    }
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, [On("tiny")], usize::MAX)?;
    let kinds: Vec<AppKind> = if o.words.is_empty() {
        AppKind::ALL.to_vec()
    } else {
        o.words
            .iter()
            .map(|w| w.parse())
            .collect::<Result<_, _>>()?
    };
    let mut rows = Vec::new();
    for kind in kinds {
        eprintln!("profiling {} ...", kind.name());
        let app = build_app(kind, o.has("tiny"));
        let g = app.golden(DEFAULT_BUDGET);
        rows.push((kind.name(), fl_apps::profile(&app, &g)));
    }
    println!("Table 1: Per-Process Profiles of Test Applications\n");
    print!("{}", fl_apps::render_profile_table(&rows));
    Ok(())
}

fn cmd_campaign(args: &[String]) -> Result<(), String> {
    let own = [On("tsv"), On("jsonl"), On("registers")];
    let o = Opts::parse(args, SpecMode::Campaign.flags().into_iter().chain(own), 1)?;
    let spec = spec_from_opts(&o, "campaign")?;
    let kind = spec.app;
    eprintln!(
        "campaign: {} x {} injections over {} regions, {} workers ...",
        kind.name(),
        spec.campaign.injections,
        spec.classes.len(),
        jobs_label(spec.campaign.threads),
    );
    let sink = CliSink::new(&spec, o.has("jsonl"));
    let SpecOutcome::Campaign(result) = run_spec_cli(&spec, &sink) else {
        unreachable!("campaign mode yields a campaign outcome");
    };
    match ReportFormat::from_flags(o.has("tsv"), o.has("jsonl")) {
        // The engine's live record stream is a superset of the
        // result-level `Report::jsonl` (per-trial insns, obs fields);
        // this verb keeps streaming the canonical records.
        ReportFormat::Jsonl => print!("{}", sink.canonical_records()),
        ReportFormat::Tsv => print!("{}", result.tsv()),
        ReportFormat::Table => {
            print!("{}", result.table(&spec.title()));
            println!("\n{}", throughput_line(&result));
            if o.has("registers") {
                for class in [TargetClass::RegularReg, TargetClass::FpReg] {
                    if let Some(c) = result.class(class) {
                        println!("\nPer-register breakdown ({}):", class.label());
                        print!("{}", render_register_breakdown(c));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Human-readable campaign throughput summary: one line of rates, one
/// line of exec-cache behaviour (block/trace hits, side exits,
/// demotions) so a cold cache or a demotion storm is visible at a
/// glance, and one line of what early termination skipped. The
/// instruction figure is the one full execution would report; trials
/// ended early (at an epoch boundary or between epochs) or decided at
/// their draw did not execute their share of it, and trials forked from
/// a round checkpoint did not execute their prefix.
fn throughput_line(result: &fl_inject::CampaignResult) -> String {
    let s = &result.exec_stats;
    let c = &result.converge;
    format!(
        "throughput: {} trials, {:.1}M guest insns in {:.2}s — {:.1} MIPS, {:.1} trials/sec\n\
         exec-cache: {} block hits, {} block misses, {} trace passes, {} side exits, {} demotions\n\
         converged: {} trials ended early ({} between epochs), {} decided at draw, {} forked at a round checkpoint, {} compares, {} granules excused",
        result.trials_total(),
        result.insns_total as f64 / 1e6,
        result.wall_nanos as f64 / 1e9,
        result.mips(),
        result.trials_per_sec(),
        s.block_hits,
        s.block_misses,
        s.trace_hits,
        s.trace_side_exits,
        s.demotions,
        c.trials_converged,
        c.ended_between_epochs,
        c.decided_at_draw,
        c.forked_at_round,
        c.epoch_compares,
        c.granules_excused,
    )
}

/// Run the campaign a spec file describes — the paper's config-file
/// workflow (§3.1), on the same JSON `faultlab spec` prints and the
/// service accepts — or, from a `.jsonl` file, the campaigns of a spec
/// list (one spec per line) joined into one artifact, as every
/// `results/specs/*.jsonl` is. Fails when a contract floor is missed.
fn cmd_run_config(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, [Value("out"), On("tsv"), On("jsonl")], 1)?;
    let path = o.words.first().ok_or("run-config needs a file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let path = Path::new(path);
    let specs: Vec<CampaignSpec> = if path.extension().is_some_and(|e| e == "jsonl") {
        let lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        lines
            .map(|(i, l)| {
                CampaignSpec::from_json(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
            })
            .collect::<Result<_, _>>()?
    } else {
        vec![CampaignSpec::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?]
    };
    // Run every spec, noting the floors any of them missed.
    let mut runs = Vec::new();
    let mut broken = Vec::new();
    for spec in &specs {
        let app = spec.app.name();
        eprintln!("run-config: {} ...", spec.title());
        let outcome = run_spec_cli(spec, &CliSink::new(spec, false));
        for c in outcome.contracts().iter().filter(|c| !c.passed()) {
            broken.push(format!(
                "{app}: contract {} broken ({}): {}/{} = {:.1}% < {:.0}%",
                c.name,
                c.what,
                c.covered,
                c.denom,
                c.percent(),
                c.floor_percent
            ));
        }
        runs.push((spec, outcome));
    }
    let shown = ReportFormat::from_flags(o.has("tsv"), o.has("jsonl"));
    for (ext, format) in [
        ("txt", ReportFormat::Table),
        ("tsv", ReportFormat::Tsv),
        ("jsonl", ReportFormat::Jsonl),
    ] {
        let view = |(spec, outcome): &(&CampaignSpec, SpecOutcome)| {
            let view = outcome.report().render(format, &spec.title());
            (spec.app.name(), view)
        };
        let artifact = join_reports(format, &runs.iter().map(view).collect::<Vec<_>>());
        if format == shown {
            print!("{artifact}");
        }
        if let Some(dir) = o.get("out") {
            let stem = path.file_stem().unwrap_or_default();
            let file = Path::new(dir).join(stem).with_extension(ext);
            std::fs::write(&file, artifact).map_err(|e| format!("{}: {e}", file.display()))?;
        }
    }
    if broken.is_empty() {
        Ok(())
    } else {
        Err(broken.join("\n"))
    }
}

fn cmd_regpressure(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, [On("tiny")], 1)?;
    let app = o.app("regpressure")?;
    print!("{}", fl_inject::render_register_pressure(&app.image));
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, [Value("samples"), On("tsv"), On("tiny")], 1)?;
    let samples: usize = o.get_num("samples")?.unwrap_or(60);
    if samples < 2 {
        return Err(format!("--samples must be at least 2, got {samples}"));
    }
    let app = o.app("trace")?;
    eprintln!("tracing {} ...", app.kind.name());
    let report = fl_trace::trace_app(&app, DEFAULT_BUDGET, samples);
    if o.has("tsv") {
        print!("{}", fl_trace::render_tsv(&report));
    } else {
        print!("{}", fl_trace::render_summary(&report));
    }
    Ok(())
}

/// The trial a `replay` or `events` command line names: the campaign it
/// belongs to, and its class, class position and index within it.
fn trial_coords(verb: &str, o: &Opts) -> Result<(CampaignSpec, TargetClass, usize, u32), String> {
    let spec = spec_from_opts(o, "campaign")?;
    let region = o.words.get(1);
    let region = region.ok_or_else(|| format!("{verb} needs a region"))?;
    let class: TargetClass = region.parse()?;
    let ci = spec
        .classes
        .iter()
        .position(|&c| c == class)
        .ok_or_else(|| format!("region `{region}` is not in the campaign's region list"))?;
    let k: u32 = o
        .get_num("trial")?
        .ok_or_else(|| format!("{verb} needs --trial K"))?;
    if k >= spec.campaign.injections {
        return Err(format!(
            "--trial {k} out of range (campaign has {} trials)",
            spec.campaign.injections
        ));
    }
    Ok((spec, class, ci, k))
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let of_spec = [
        "regions",
        "seed",
        "injections",
        "threads",
        "epoch-rounds",
        "tiny",
    ];
    let o = Opts::parse(args, spec_flags(&of_spec).chain([Value("trial")]), 2)?;
    let (spec, class, ci, k) = trial_coords("replay", &o)?;
    let (kind, cfg) = (spec.app, spec.campaign);
    let app = build_app(kind, spec.tiny);
    eprintln!("replaying {} {} trial {k} ...", kind.name(), class.label());
    let trace = replay_trial(&app, &spec.classes, &cfg, ci, k);
    let rec = trace.record;
    println!("app:     {}", kind.name());
    println!("class:   {}", class.label());
    println!(
        "trial:   {k} (seed {:#x})",
        fl_inject::trial_seed(cfg.seed, ci, k)
    );
    println!("fault:   {}", rec.detail);
    println!("outcome: {}", rec.outcome);
    println!("ended:   {}", trace.converge.ended(trace.round));
    Ok(())
}

fn cmd_events(args: &[String]) -> Result<(), String> {
    let of_spec = [
        "regions",
        "seed",
        "injections",
        "threads",
        "epoch-rounds",
        "ring",
        "tiny",
        "no-fastpath",
    ];
    let own = [Value("trial"), On("jsonl")];
    let o = Opts::parse(args, spec_flags(&of_spec).chain(own), 2)?;
    let (mut spec, class, ci, k) = trial_coords("events", &o)?;
    if !o.has("ring") {
        spec.campaign.obs_capacity = 4096;
    }
    let kind = spec.app;
    let app = build_app(kind, spec.tiny);
    eprintln!(
        "tracing events: {} {} trial {k} ...",
        kind.name(),
        class.label()
    );
    let trace = replay_trial(&app, &spec.classes, &spec.campaign, ci, k);
    if o.has("jsonl") {
        print!("{}", trace.events_jsonl());
        return Ok(());
    }
    println!("app:     {}", kind.name());
    println!("class:   {}", class.label());
    println!("fault:   {}", trace.record.detail);
    println!("outcome: {}", trace.record.outcome);
    let m = trace.metrics();
    match (m.injection_clock, m.first_symptom_clock) {
        (Some(i), Some(s)) => println!(
            "landed:  block {i}, first symptom block {s} (+{} blocks, {} events between)",
            m.blocks_to_manifestation.unwrap_or(0),
            m.events_to_symptom.unwrap_or(0),
        ),
        (Some(i), None) => println!("landed:  block {i}, no symptom recorded"),
        _ => println!("landed:  no (fault never fired in the retained window)"),
    }
    println!("events:  {} retained", m.events_total);
    for (rank, e) in trace.timeline() {
        println!("  [{:>8}] rank {rank}  {}", e.clock, e.kind.describe());
    }
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(
        args,
        SpecMode::Campaign.flags().into_iter().chain([On("tsv")]),
        1,
    )?;
    let mut spec = spec_from_opts(&o, "campaign")?;
    if !o.has("ring") {
        spec.campaign.obs_capacity = 4096;
    }
    let kind = spec.app;
    eprintln!(
        "metrics: {} x {} injections over {} regions ...",
        kind.name(),
        spec.campaign.injections,
        spec.classes.len()
    );
    let sink = CliSink::new(&spec, false);
    let SpecOutcome::Campaign(result) = run_spec_cli(&spec, &sink) else {
        unreachable!("campaign mode yields a campaign outcome");
    };
    // Keep stdout machine-readable; the throughput summary goes to
    // stderr alongside the progress line.
    eprintln!("{}", throughput_line(&result));
    let metrics = result
        .metrics
        .expect("metrics campaigns always record events");
    let view = MetricsReport {
        app: kind,
        metrics: &metrics,
        telemetry: Some((&result.exec_stats, &result.converge)),
    };
    // Default stays JSONL: this verb's stdout is machine-readable.
    let fmt = ReportFormat::from_flags(o.has("tsv"), !o.has("tsv"));
    print!("{}", view.render(fmt, ""));
    Ok(())
}

/// The four matrix verbs: `guard`, `ft`, `chaos`, `perturb`.
fn cmd_matrix(verb: &str, args: &[String]) -> Result<(), String> {
    // The flag that focuses the table: one recovery discipline
    // (`ft --mode M`) or one fault model's row (`--model M`). Every
    // column still runs — they are paired draws.
    let focus_flag = match verb {
        "guard" => None,
        "ft" => Some("mode"),
        _ => Some("model"),
    };
    let own = [On("tsv"), On("jsonl")].into_iter();
    let valid = parse_mode(verb)?.flags().into_iter();
    let o = Opts::parse(args, valid.chain(own).chain(focus_flag.map(Value)), 1)?;
    let spec = spec_from_opts(&o, verb)?;
    let matrix = spec.matrix().expect("matrix verbs build matrix specs");
    // A focus is matched against the names the matrix itself prints:
    // ft's column names, or the other modes' row labels.
    let focus = match focus_flag.and_then(|f| o.get(f)) {
        None => None,
        Some(m) => {
            let rows = matrix.rows.iter();
            let names: Vec<&str> = if verb == "ft" {
                rows.flat_map(|r| r.columns.iter().map(|c| c.name))
                    .collect()
            } else {
                rows.map(|r| r.label).collect()
            };
            if !names.contains(&m) {
                let err = if verb == "ft" {
                    format!("unknown ft mode `{m}` {}", hint("", m, &names, "modes"))
                } else if let Some(v) = suggest(m, &names) {
                    format!("unknown fault model `{m}` (did you mean `{v}`?)")
                } else {
                    let rows = names.join(", ");
                    format!("`{m}` is not a {verb} model (matrix rows: {rows})")
                };
                return Err(err);
            }
            Some(m)
        }
    };
    let kind = spec.app;
    let (n, shape) = (spec.campaign.injections, &matrix.rows);
    match verb {
        "guard" => eprintln!(
            "guard: {} x {n} paired trials over {} regions ...",
            kind.name(),
            shape.len()
        ),
        "ft" => eprintln!(
            "ft: {} x {n} rank kills (baseline/shrink/respawn/app) + {n} message faults (replicated) ...",
            kind.name()
        ),
        "chaos" => eprintln!(
            "chaos: {} x {n} injections per cell over {} fault models x {} defenses, {} workers ...",
            kind.name(),
            shape.len(),
            shape[0].columns.len(),
            jobs_label(spec.campaign.threads),
        ),
        _ => eprintln!(
            "perturb: {} x {n} injections per cell over {} interference/process models x {} detectors, {} workers ...",
            kind.name(),
            shape.len(),
            shape[0].columns.len(),
            jobs_label(spec.campaign.threads),
        ),
    }
    // Where slots stream records, `--jsonl` prints that canonical stream
    // (the resumable wire format, like `campaign --jsonl`), not the
    // result's summary rows.
    let streams = spec.slot_plan().streams();
    let sink = CliSink::new(&spec, streams && o.has("jsonl"));
    let SpecOutcome::Matrix(result) = run_spec_cli(&spec, &sink) else {
        unreachable!("matrix modes yield a matrix outcome");
    };
    match (
        ReportFormat::from_flags(o.has("tsv"), o.has("jsonl")),
        focus,
    ) {
        (ReportFormat::Jsonl, _) if streams => print!("{}", sink.canonical_records()),
        // The machine formats always carry every column; focus only
        // changes the human-readable view.
        (ReportFormat::Table, Some(name)) => {
            let (row, column) = if verb == "ft" {
                let (row, column) = result.find_column(name).expect("validated above");
                (row, Some(column))
            } else {
                (result.find_row(name).expect("validated above"), None)
            };
            print!("{}", result.focus(row, column));
        }
        (fmt, _) => print!("{}", result.render(fmt, &spec.title())),
    }
    Ok(())
}

fn cmd_spec(args: &[String]) -> Result<(), String> {
    // Which policy flags exist depends on `--mode`, itself a flag: parse
    // against every mode's flags, then hold the line to the chosen mode's.
    let any_mode = SpecMode::all().into_iter().flat_map(|m| m.flags());
    let o = Opts::parse(args, any_mode.chain([Value("mode")]), 1)?;
    let mode = o.get("mode").unwrap_or("campaign");
    let spec = spec_from_opts(&o, mode)?;
    let read = spec.mode.flags();
    for (name, _) in &o.flags {
        if name != "mode" && read.iter().all(|f| f.name() != name) {
            return Err(unknown_flag(name, &read, &format!(" for mode `{mode}`")));
        }
    }
    println!("{}", spec.to_json());
    Ok(())
}

fn serve_addr(o: &Opts) -> String {
    o.get("addr").unwrap_or(DEFAULT_ADDR).to_string()
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, [Value("addr"), Value("state-dir")], 0)?;
    let cfg = ServeConfig {
        addr: serve_addr(&o),
        state_dir: o.get("state-dir").unwrap_or(".faultlab-serve").into(),
    };
    let state_dir = cfg.state_dir.clone();
    let server = Server::start(cfg).map_err(|e| format!("serve: {e}"))?;
    eprintln!(
        "faultlab serve: listening on {}, state in {} (POST /shutdown to exit)",
        server.local_addr(),
        state_dir.display(),
    );
    server.join();
    Ok(())
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, [Value("addr")], 1)?;
    let text = match o.words.first().map(String::as_str) {
        Some("-") | None => {
            let mut s = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut s)
                .map_err(|e| format!("reading spec from stdin: {e}"))?;
            s
        }
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
    };
    let addr = serve_addr(&o);
    let id = fl_serve::submit(&addr, text.trim())?;
    println!("{}", fl_serve::status(&addr, &id)?);
    Ok(())
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, [Value("addr")], 1)?;
    let addr = serve_addr(&o);
    match o.words.first() {
        Some(id) => println!("{}", fl_serve::status(&addr, id)?),
        None => {
            let (code, body) = fl_serve::request(&addr, "GET", "/campaigns", None)?;
            if code != 200 {
                return Err(format!("status failed ({code}): {body}"));
            }
            println!("{body}");
        }
    }
    Ok(())
}

fn cmd_watch(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, [Value("addr")], 1)?;
    let id = o.words.first().ok_or("watch needs a campaign id")?;
    fl_serve::watch(&serve_addr(&o), id, |line| println!("{line}"))
}

fn cmd_control(action: &str, args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, [Value("addr")], 1)?;
    let id = o
        .words
        .first()
        .ok_or_else(|| format!("{action} needs a campaign id"))?;
    println!("{}", fl_serve::control(&serve_addr(&o), id, action)?);
    Ok(())
}

fn cmd_sample_size(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(
        args,
        [Value("error"), Value("confidence"), Value("injections")],
        0,
    )?;
    // Both are fractions strictly inside (0, 1); NaN is not.
    let fraction = |name: &str, v: f64| {
        if v > 0.0 && v < 1.0 {
            Ok(v)
        } else {
            Err(format!(
                "--{name} must lie strictly between 0 and 1, got {v}"
            ))
        }
    };
    let conf = fraction("confidence", o.get_num("confidence")?.unwrap_or(0.95))?;
    if let Some(n) = o.get_num::<u32>("injections")? {
        if n == 0 {
            return Err("--injections must be at least 1".into());
        }
        println!(
            "n = {n} at {:.0}% confidence -> estimation error d = {:.2}%",
            conf * 100.0,
            estimation_error(conf, n) * 100.0
        );
        return Ok(());
    }
    let d: f64 = o
        .get_num("error")?
        .ok_or("sample-size needs --error D (fraction) or --injections N")?;
    let d = fraction("error", d)?;
    println!(
        "d = {:.2}% at {:.0}% confidence -> n >= {} injections (oversampled, P = 0.5)",
        d * 100.0,
        conf * 100.0,
        sample_size(conf, d)
    );
    Ok(())
}

fn cmd_source(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, [On("tiny")], 1)?;
    let app = o.app("source")?;
    print!("{}", app.source);
    Ok(())
}

fn cmd_disasm(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, [Value("limit"), On("tiny")], 1)?;
    let app = o.app("disasm")?;
    let limit: usize = o.get_num("limit")?.unwrap_or(200);
    let words: Vec<u32> = app
        .image
        .text
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let mut idx = 0;
    let mut printed = 0;
    while idx < words.len() && printed < limit {
        let addr = fl_machine::TEXT_BASE + 4 * idx as u32;
        if let Some(sym) = app
            .image
            .symbols
            .iter()
            .find(|s| s.addr == addr && !s.library)
        {
            println!("\n<{}>:", sym.name);
        }
        match fl_isa::decode_at(&words, idx) {
            Ok((insn, len)) => {
                println!("{addr:#010x}:  {}", fl_isa::disasm(&insn));
                idx += len;
            }
            Err(e) => {
                println!("{addr:#010x}:  (bad) {e}");
                idx += 1;
            }
        }
        printed += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_inject::ChaosPolicy;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// Parse `args` as the verb `mode` names would (`campaign` for a
    /// plain campaign) and build its spec.
    fn spec_of(mode: &str, args: &[&str]) -> Result<CampaignSpec, String> {
        let o = Opts::parse(&s(args), parse_mode(mode)?.flags(), 1)?;
        spec_from_opts(&o, mode)
    }

    #[test]
    fn opts_words_and_flags() {
        let valid = [Value("injections"), On("tsv"), Value("seed")];
        let args = s(&["moldyn", "--injections", "400", "--tsv", "--seed", "7"]);
        let o = Opts::parse(&args, valid, 1).unwrap();
        assert_eq!(o.words, vec!["moldyn"]);
        assert!(o.has("tsv"));
        assert_eq!(o.get("injections"), Some("400"));
        assert_eq!(o.get_num::<u32>("injections").unwrap(), Some(400));
        assert_eq!(o.get_num::<u64>("seed").unwrap(), Some(7));
        assert_eq!(o.get_num::<u32>("missing").unwrap(), None);
    }

    #[test]
    fn opts_flag_followed_by_flag_has_no_value() {
        let o = Opts::parse(&s(&["--tiny", "--tsv"]), [On("tiny"), On("tsv")], 0).unwrap();
        assert!(o.has("tiny"));
        assert!(o.has("tsv"));
        assert_eq!(o.get("tiny"), None);
    }

    #[test]
    fn opts_bad_number_is_an_error() {
        let o = Opts::parse(&s(&["--injections", "many"]), [Value("injections")], 0).unwrap();
        assert!(o.get_num::<u32>("injections").is_err());
        let err = spec_of("campaign", &["wavetoy", "--injections", "many"]).unwrap_err();
        assert_eq!(err, "--injections: expected an integer, got `many`");
    }

    #[test]
    fn a_switch_does_not_swallow_the_next_word() {
        let spec = spec_of("campaign", &["--tiny", "wavetoy"]).unwrap();
        assert!(spec.tiny && spec.app == AppKind::Wavetoy);
        assert!(run(&s(&["spec", "--tiny", "wavetoy"])).is_ok());
        let err = run(&s(&["campaign", "--tiny", "--injections"])).unwrap_err();
        assert_eq!(err, "--injections needs a value");
    }

    #[test]
    fn a_value_flag_without_a_value_is_an_error() {
        let err = run(&s(&["spec", "wavetoy", "--seed", "--tiny"])).unwrap_err();
        assert_eq!(err, "--seed needs a value");
        let err = run(&s(&["spec", "wavetoy", "--seed"])).unwrap_err();
        assert_eq!(err, "--seed needs a value");
    }

    #[test]
    fn a_flag_given_twice_is_an_error() {
        let err = run(&s(&["spec", "wavetoy", "--seed", "1", "--seed", "2"])).unwrap_err();
        assert_eq!(err, "flag `--seed` given twice");
        let err = run(&s(&["trace", "wavetoy", "--tsv", "--tsv"])).unwrap_err();
        assert_eq!(err, "flag `--tsv` given twice");
    }

    #[test]
    fn jobs_with_threads_is_an_error() {
        let err = run(&s(&["spec", "wavetoy", "--jobs", "2", "--threads", "3"])).unwrap_err();
        assert!(
            err.contains("`--jobs`") && err.contains("`--threads`"),
            "{err}"
        );
        assert!(err.contains("same knob"), "{err}");
    }

    #[test]
    fn spec_rejects_policy_flags_its_mode_does_not_read() {
        let err = run(&s(&["spec", "wavetoy", "--checkpoint-rounds", "5"])).unwrap_err();
        assert!(
            err.starts_with(
                "unknown flag `--checkpoint-rounds` for mode `campaign` (valid flags: "
            ),
            "{err}"
        );
        let err = run(&s(&["spec", "wavetoy", "--mode", "ft", "--tax-hi", "990"])).unwrap_err();
        assert!(err.contains("for mode `ft`"), "{err}");
        // Near a flag the mode does read: the usual hint.
        let err = run(&s(&[
            "spec",
            "wavetoy",
            "--mode",
            "guard",
            "--respawns",
            "5",
        ]))
        .unwrap_err();
        assert!(
            err.contains("for mode `guard` (did you mean `--restarts`?)"),
            "{err}"
        );
        // The flags a mode reads still pass, chaos's borrowed ones included.
        for args in [
            &[
                "spec",
                "wavetoy",
                "--mode",
                "guard",
                "--checkpoint-rounds",
                "5",
            ][..],
            &["spec", "wavetoy", "--mode", "chaos", "--retransmits", "5"],
            &["spec", "wavetoy", "--mode", "chaos", "--replicas", "5"],
            &[
                "spec",
                "wavetoy",
                "--mode",
                "perturb",
                "--probe-rounds",
                "5",
            ],
        ] {
            assert_eq!(run(&s(args)), Ok(()), "{args:?}");
        }
    }

    #[test]
    fn app_and_region_parsing() {
        assert_eq!("wavetoy".parse(), Ok(AppKind::Wavetoy));
        assert_eq!("climsim".parse(), Ok(AppKind::Climsim));
        assert!("namd".parse::<AppKind>().is_err());
        assert_eq!("regular-reg".parse(), Ok(TargetClass::RegularReg));
        assert_eq!("msg".parse(), Ok(TargetClass::Message));
        assert!("rom".parse::<TargetClass>().is_err());
    }

    #[test]
    fn unknown_command_is_reported() {
        assert!(run(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn unknown_flag_suggests_nearest() {
        let valid = [Value("injections"), Value("seed"), On("tiny")];
        let err = Opts::parse(&s(&["--injetions", "400"]), valid, 0)
            .err()
            .unwrap();
        assert!(
            err.contains("did you mean `--injections`?"),
            "bad suggestion: {err}"
        );
    }

    #[test]
    fn unknown_flag_far_from_everything_lists_valid_flags() {
        let valid = [Value("seed"), On("tiny")];
        let err = Opts::parse(&s(&["--frobnicate"]), valid, 0).err().unwrap();
        assert!(err.contains("valid flags: --seed, --tiny"), "{err}");
    }

    #[test]
    fn known_flags_pass_validation() {
        let valid = [Value("seed"), On("tiny")];
        assert!(Opts::parse(&s(&["wavetoy", "--seed", "7", "--tiny"]), valid, 1).is_ok());
    }

    #[test]
    fn verbs_reject_mistyped_flags() {
        let err = run(&s(&["campaign", "wavetoy", "--inject", "5"])).unwrap_err();
        assert!(err.contains("did you mean `--injections`?"), "{err}");
        let err = run(&s(&["ft", "wavetoy", "--replica", "3"])).unwrap_err();
        assert!(err.contains("did you mean `--replicas`?"), "{err}");
    }

    #[test]
    fn spec_from_opts_matches_legacy_defaults() {
        let spec = spec_of("campaign", &["wavetoy"]).unwrap();
        assert_eq!(spec.app, AppKind::Wavetoy);
        assert!(!spec.tiny);
        assert_eq!(spec.campaign.injections, 500);
        assert_eq!(spec.campaign.seed, 0xFA17);
        assert_eq!(spec.campaign.epoch_rounds, 16);
        assert_eq!(spec.campaign.obs_capacity, 0);
        assert!(spec.campaign.fastpath);
        assert!(matches!(spec.mode, SpecMode::Campaign));

        let spec = spec_of("guard", &["moldyn", "--tiny", "--checkpoint-rounds", "8"]).unwrap();
        assert_eq!(spec.campaign.injections, 100);
        let SpecMode::Guard(g) = &spec.mode else {
            panic!("expected guard mode");
        };
        assert_eq!(g.checkpoint_rounds, 8);
        assert_eq!(g.max_restarts, 3);
        assert_eq!(g.max_retransmits, 3);
        // The verb's own cadence preset, not the policy default of 64.
        let spec = spec_of("guard", &["moldyn"]).unwrap();
        assert!(matches!(spec.mode, SpecMode::Guard(g) if g.checkpoint_rounds == 32));
    }

    #[test]
    fn unknown_modes_suggest_the_nearest_valid_mode() {
        // ft recovery disciplines
        let err = run(&s(&["ft", "wavetoy", "--mode", "ap"])).unwrap_err();
        assert!(err.contains("did you mean `app`?"), "{err}");
        let err = run(&s(&["ft", "wavetoy", "--mode", "shrnk"])).unwrap_err();
        assert!(err.contains("did you mean `shrink`?"), "{err}");
        // spec experiment families
        let err = run(&s(&["spec", "wavetoy", "--mode", "campain"])).unwrap_err();
        assert!(err.contains("did you mean `campaign`?"), "{err}");
        // far from everything: list the valid modes instead
        let err = run(&s(&["spec", "wavetoy", "--mode", "frobnicate"])).unwrap_err();
        assert!(err.contains("valid modes: campaign, guard, ft"), "{err}");
    }

    #[test]
    fn perturb_flags_shape_the_policy() {
        let spec = spec_of(
            "perturb",
            &[
                "wavetoy",
                "--tiny",
                "--tax-hi",
                "990",
                "--hog-node-ranks",
                "4",
                "--degraded-permille",
                "1100",
            ],
        )
        .unwrap();
        let SpecMode::Perturb(p) = &spec.mode else {
            panic!("expected perturb mode");
        };
        assert_eq!(p.tax_permille, (900, 990));
        assert_eq!(p.hog_node_ranks, 4);
        assert_eq!(p.degraded_permille, 1100);
        assert_eq!(spec.campaign.injections, 10);
    }

    #[test]
    fn perturb_model_flag_surfaces_parse_suggestions() {
        let err = run(&s(&[
            "perturb",
            "wavetoy",
            "--tiny",
            "--model",
            "quantum-tx",
        ]))
        .unwrap_err();
        assert!(err.contains("did you mean `quantum-tax`?"), "{err}");
        // A real model that is not a matrix row names the rows.
        let err = run(&s(&["perturb", "wavetoy", "--tiny", "--model", "net-drop"])).unwrap_err();
        assert!(err.contains("not a perturb model"), "{err}");
        assert!(err.contains("quantum-tax, hog-rank, mem-stall"), "{err}");
        // Mistyped perturb flags suggest their nearest valid flag.
        let err = run(&s(&["perturb", "wavetoy", "--tax-high", "990"])).unwrap_err();
        assert!(err.contains("did you mean `--tax-hi`?"), "{err}");
    }

    #[test]
    fn perturb_mode_is_a_spec_family() {
        let err = run(&s(&["spec", "wavetoy", "--mode", "pertrb"])).unwrap_err();
        assert!(err.contains("did you mean `perturb`?"), "{err}");
        let err = run(&s(&["spec", "wavetoy", "--mode", "frobnicate"])).unwrap_err();
        assert!(
            err.contains("perturb"),
            "mode list must name perturb: {err}"
        );
    }

    #[test]
    fn chaos_flags_shape_the_policy() {
        let spec = spec_of(
            "chaos",
            &[
                "wavetoy",
                "--tiny",
                "--burst-max",
                "4",
                "--partition-hi",
                "1024",
                "--replicas",
                "5",
            ],
        )
        .unwrap();
        let SpecMode::Chaos(p) = &spec.mode else {
            panic!("expected chaos mode");
        };
        assert_eq!(p.burst_max, 4);
        assert_eq!(p.partition_rounds, (64, 1024));
        assert_eq!(p.ft.replicas, 5);
        assert_eq!(p.node_ranks, ChaosPolicy::default().node_ranks);
    }

    #[test]
    fn chaos_model_flag_surfaces_parse_suggestions() {
        let err = run(&s(&["chaos", "wavetoy", "--tiny", "--model", "net-crrupt"])).unwrap_err();
        assert!(err.contains("did you mean `net-corrupt`?"), "{err}");
        // The old aliases are near misses of the row labels now.
        let err = run(&s(&["chaos", "wavetoy", "--tiny", "--model", "burst"])).unwrap_err();
        assert!(err.contains("did you mean `burst-kill`?"), "{err}");
        // A real model that is not a matrix row is rejected with the
        // row list, not run.
        let err = run(&s(&["chaos", "wavetoy", "--tiny", "--model", "transient"])).unwrap_err();
        assert!(err.contains("not a chaos model"), "{err}");
        assert!(err.contains("net-drop"), "{err}");
    }

    #[test]
    fn jacobi3d_parses_as_an_app() {
        assert_eq!("jacobi3d".parse(), Ok(AppKind::Jacobi3d));
        let spec = spec_of("ft", &["jacobi3d", "--tiny"]).unwrap();
        assert_eq!(spec.app, AppKind::Jacobi3d);
    }

    #[test]
    fn jobs_is_an_alias_for_threads() {
        let spec = spec_of("campaign", &["wavetoy", "--jobs", "4"]).unwrap();
        assert_eq!(spec.campaign.threads, 4);
        let spec = spec_of("campaign", &["wavetoy", "--threads", "3"]).unwrap();
        assert_eq!(spec.campaign.threads, 3);
    }

    #[test]
    fn spec_verb_output_round_trips() {
        for mode in SpecMode::all().map(|m| m.name()) {
            let json = spec_of(mode, &["climsim", "--tiny"]).unwrap().to_json();
            let back = CampaignSpec::from_json(&json).unwrap();
            assert_eq!(back.to_json(), json, "mode {mode} did not round-trip");
        }
        assert!(run(&s(&["spec", "wavetoy", "--tiny"])).is_ok());
    }

    /// Each command line is given one word more than its verb reads.
    fn rejects_the_extra_word(lines: &[(&[&str], &str)]) {
        for (args, extra) in lines {
            let err = run(&s(args)).unwrap_err();
            assert_eq!(err, format!("unexpected argument `{extra}`"), "{args:?}");
        }
    }

    #[test]
    fn spec_verbs_reject_a_second_app() {
        rejects_the_extra_word(&[
            (&["campaign", "wavetoy", "moldyn", "--tiny"], "moldyn"),
            (&["chaos", "wavetoy", "--tiny", "jacobi3d"], "jacobi3d"),
            (&["spec", "wavetoy", "--mode", "ft", "moldyn"], "moldyn"),
        ]);
    }

    #[test]
    fn run_config_rejects_a_second_file() {
        let example = "examples/campaign.json";
        rejects_the_extra_word(&[(&["run-config", example, "missing.json"], "missing.json")]);
    }

    #[test]
    fn trial_and_tool_verbs_reject_extra_words() {
        rejects_the_extra_word(&[
            (
                &["replay", "wavetoy", "stack", "heap", "--trial", "0"],
                "heap",
            ),
            (&["source", "wavetoy", "moldyn"], "moldyn"),
            (&["sample-size", "0.05"], "0.05"),
        ]);
        // `profile` reads every word it is given.
        assert!(Opts::parse(&s(&["wavetoy", "moldyn"]), [], usize::MAX).is_ok());
    }

    #[test]
    fn service_verbs_reject_extra_words() {
        rejects_the_extra_word(&[
            (&["watch", "abc", "def"], "def"),
            (&["stop", "abc", "def"], "def"),
            (&["serve", "here"], "here"),
        ]);
    }

    #[test]
    fn service_verbs_validate_their_arguments() {
        let err = run(&s(&["watch"])).unwrap_err();
        assert!(err.contains("campaign id"), "{err}");
        let err = run(&s(&["pause"])).unwrap_err();
        assert!(err.contains("campaign id"), "{err}");
        let err = run(&s(&["submit", "/no/such/spec.json"])).unwrap_err();
        assert!(err.contains("/no/such/spec.json"), "{err}");
    }

    #[test]
    fn out_of_range_values_are_errors_not_panics() {
        // Each of these once reached a library assertion (exit 101).
        for args in [
            &["sample-size", "--error", "0"][..],
            &["sample-size", "--error", "nan"],
            &["sample-size", "--error", "0.05", "--confidence", "1"],
            &["sample-size", "--injections", "0"],
            &["trace", "wavetoy", "--tiny", "--samples", "1"],
        ] {
            let flag = args.iter().rev().nth(1).unwrap();
            let err = run(&s(args)).expect_err(&format!("{args:?}"));
            assert!(err.starts_with(flag), "{args:?}: {err}");
        }
    }

    #[test]
    fn trace_samples_stop_at_one_per_block() {
        // A sample count past the run's length must not be allocated
        // before the run is looked at: it stops at one point per block.
        let huge = usize::MAX.to_string();
        let args = ["trace", "wavetoy", "--tiny", "--tsv", "--samples", &huge];
        assert_eq!(run(&s(&args)), Ok(()));
        let app = build_app(AppKind::Wavetoy, true);
        let report = fl_trace::trace_app(&app, DEFAULT_BUDGET, usize::MAX);
        assert_eq!(report.text.times.len() as u64, report.total_blocks + 1);
    }

    #[test]
    fn sample_size_command_works() {
        assert!(cmd_sample_size(&s(&["--error", "0.05"])).is_ok());
        assert!(cmd_sample_size(&s(&["--injections", "500"])).is_ok());
        assert!(cmd_sample_size(&s(&[])).is_err());
    }
}
