//! `faultlab` — command-line driver for the FaultLab experiments.
//!
//! ```text
//! faultlab profile  [<app> ...]                 Table 1 application profiles
//! faultlab campaign <app> [options]             Tables 2-4 injection campaigns
//! faultlab trace    <app> [--samples N]         Tables 5-7 working-set curves
//! faultlab trial    <app> <region> --seed K     run one injection, verbosely
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
use fl_inject::{
    estimation_error, render_register_breakdown, run_spec, sample_size, sort_records_jsonl,
    CampaignBuilder, CampaignConfig, CampaignSpec, ChaosPolicy, EngineControl, EngineProgress,
    EngineSink, FaultModel, FtMode, FtPolicy, GuardPolicy, MetricsReport, PerturbPolicy, Report,
    ReportFormat, SpecMode, SpecOutcome, StderrProgress, TargetClass, TrialOutput, VecSink,
};
use fl_serve::{ServeConfig, Server};
use fl_snap::RecoveryConfig;

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
        "trial" => cmd_trial(rest),
        "replay" => cmd_replay(rest),
        "events" => cmd_events(rest),
        "metrics" => cmd_metrics(rest),
        "guard" | "ft" | "chaos" | "perturb" => cmd_matrix(cmd, rest),
        "recovery" => cmd_recovery(rest),
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

fn print_usage() {
    println!(
        "faultlab — software fault injection for MPI applications\n\
         \n\
         USAGE:\n\
         \x20 faultlab profile  [<app> ...]\n\
         \x20 faultlab campaign <app> [--injections N] [--regions R1,R2|all]\n\
         \x20                   [--seed S] [--jobs N] [--epoch-rounds E] [--ring N]\n\
         \x20                   [--tiny] [--tsv] [--jsonl] [--registers] [--no-fastpath]\n\
         \x20 faultlab trace    <app> [--samples N] [--tsv] [--tiny]\n\
         \x20 faultlab trial    <app> <region> [--seed K] [--tiny]\n\
         \x20 faultlab replay   <app> <region> --trial K [--regions R1,R2|all]\n\
         \x20                   [--seed S] [--injections N] [--epoch-rounds E] [--tiny]\n\
         \x20 faultlab events   <app> <region> --trial K [--regions R1,R2|all]\n\
         \x20                   [--seed S] [--ring N] [--jsonl] [--tiny] [--no-fastpath]\n\
         \x20 faultlab metrics  <app> [--injections N] [--regions R1,R2|all]\n\
         \x20                   [--seed S] [--ring N] [--tsv] [--tiny] [--no-fastpath]\n\
         \x20 faultlab guard    <app> [--injections N] [--regions R1,R2|all]\n\
         \x20                   [--seed S] [--threads T] [--checkpoint-rounds C]\n\
         \x20                   [--restarts R] [--retransmits X] [--tiny] [--tsv] [--jsonl]\n\
         \x20                   [--no-fastpath]\n\
         \x20 faultlab ft       <app> [--injections N] [--seed S] [--jobs N]\n\
         \x20                   [--mode baseline|shrink|respawn|replicated|app]\n\
         \x20                   [--buddy-rounds B] [--respawns R] [--replicas N]\n\
         \x20                   [--probe-rounds P] [--suspect-rounds Q]\n\
         \x20                   [--tiny] [--tsv] [--jsonl] [--no-fastpath]\n\
         \x20 faultlab chaos    <app> [--injections N] [--seed S] [--jobs N]\n\
         \x20                   [--model net-drop|net-dup|net-reorder|net-corrupt|\n\
         \x20                    partition|syscall-malloc|syscall-write|burst-kill|node-kill]\n\
         \x20                   [--partition-lo L] [--partition-hi H] [--reorder-delay D]\n\
         \x20                   [--burst-max K] [--node-ranks R] [guard/ft flags ...]\n\
         \x20                   [--tiny] [--tsv] [--jsonl] [--no-fastpath]\n\
         \x20 faultlab perturb  <app> [--injections N] [--seed S] [--jobs N]\n\
         \x20                   [--model quantum-tax|hog-rank|mem-stall|kill-rank|wedge-rank]\n\
         \x20                   [--probe-rounds P] [--suspect-rounds Q]\n\
         \x20                   [--tax-lo L] [--tax-hi H] [--tax-rounds-lo L] [--tax-rounds-hi H]\n\
         \x20                   [--hog-share-lo L] [--hog-share-hi H] [--hog-node-ranks R]\n\
         \x20                   [--stall-access-lo L] [--stall-access-hi H]\n\
         \x20                   [--stall-window-lo L] [--stall-window-hi H]\n\
         \x20                   [--degraded-permille D] [--tiny] [--tsv] [--jsonl] [--no-fastpath]\n\
         \x20 faultlab recovery <app> [--checkpoint-every K] [--kill-rank R]\n\
         \x20                   [--kill-round N] [--tiny]\n\
         \x20 faultlab run-config <file.cfg>\n\
         \x20 faultlab spec     <app> [--mode campaign|guard|ft|chaos|perturb] [spec flags ...]\n\
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
         FLAGS (same meaning on every verb that takes them):\n\
         \x20 --injections N      trials per region (campaign/metrics/guard) or per\n\
         \x20                     fault kind (ft)\n\
         \x20 --regions R1,R2     comma-separated region list, or `all`\n\
         \x20 --seed S            campaign PRNG seed\n\
         \x20 --jobs N / --threads N  worker threads (0 = one per core)\n\
         \x20 --addr HOST:PORT    campaign service address (default 127.0.0.1:7717)\n\
         \x20 --epoch-rounds E    scheduler rounds per snapshot epoch\n\
         \x20 --ring N            per-rank event ring capacity\n\
         \x20 --tiny              CI-sized app parameters (fast)\n\
         \x20 --tsv / --jsonl     machine-readable output instead of the table\n\
         \x20 --no-fastpath       disable the software-TLB/basic-block fast path\n\
         \x20                     (observably identical, much slower)\n\
         \x20 --mode M            ft: focus the table on one recovery discipline\n\
         \x20                     (baseline|shrink|respawn|replicated|app);\n\
         \x20                     spec: experiment family (campaign|guard|ft|chaos|perturb)\n\
         \x20 --model M           chaos/perturb: focus the table on one fault model's row\n\
         \x20 --degraded-permille D  perturb: slowdown threshold separating Correct from\n\
         \x20                     Degraded, in permille of the clean reference (1050 = 5%)\n\
         \n\
         APPS: wavetoy (Cactus Wavetoy), moldyn (NAMD), climsim (CAM),\n\
         \x20     jacobi3d (Jacobi-3D, fl-ulfm app-side recovery)\n\
         REGIONS: regular-reg fp-reg bss data stack text heap message all"
    );
}

fn parse_app(name: &str) -> Result<AppKind, String> {
    name.parse()
}

fn parse_region(name: &str) -> Result<TargetClass, String> {
    name.parse()
}

/// Pull `--flag value` options and bare words out of an argument list.
struct Opts {
    words: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut words = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                let value = args.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            } else {
                words.push(a.clone());
            }
            i += 1;
        }
        Opts { words, flags }
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
                .map_err(|_| format!("--{name} expects a number, got `{v}`")),
        }
    }

    /// Reject flags outside `valid`, suggesting the nearest valid flag.
    fn expect(&self, valid: &[&str]) -> Result<(), String> {
        for (name, _) in &self.flags {
            if valid.iter().any(|v| v == name) {
                continue;
            }
            let nearest = valid
                .iter()
                .map(|v| (edit_distance(name, v), *v))
                .min()
                .filter(|&(d, v)| d <= 3 || v.starts_with(name.as_str()) || name.starts_with(v));
            return Err(match nearest {
                Some((_, v)) => format!("unknown flag `--{name}` (did you mean `--{v}`?)"),
                None => format!(
                    "unknown flag `--{name}` (valid flags: {})",
                    valid
                        .iter()
                        .map(|v| format!("--{v}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
        Ok(())
    }
}

/// Validate a mode name against its closed set, suggesting the nearest
/// valid mode on a miss — the same did-you-mean unknown flags get.
fn check_mode(input: &str, valid: &[&str], what: &str) -> Result<(), String> {
    if valid.contains(&input) {
        return Ok(());
    }
    let nearest = valid
        .iter()
        .map(|v| (edit_distance(input, v), *v))
        .min()
        .filter(|&(d, v)| d <= 3 || v.starts_with(input) || input.starts_with(v));
    Err(match nearest {
        Some((_, v)) => format!("unknown {what} `{input}` (did you mean `{v}`?)"),
        None => format!(
            "unknown {what} `{input}` (valid modes: {})",
            valid.join(", ")
        ),
    })
}

/// Levenshtein distance, for did-you-mean flag suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

fn build_app(kind: AppKind, tiny: bool) -> App {
    let params = if tiny {
        AppParams::tiny(kind)
    } else {
        AppParams::default_for(kind)
    };
    App::build(kind, params)
}

/// Flags shared by every spec-building verb (`campaign`, `metrics`,
/// `guard`, `ft`, `spec`), excluding each verb's output/policy flags.
const SPEC_FLAGS: &[&str] = &[
    "injections",
    "regions",
    "seed",
    "threads",
    "jobs",
    "epoch-rounds",
    "ring",
    "tiny",
    "no-fastpath",
];

const GUARD_FLAGS: &[&str] = &["checkpoint-rounds", "restarts", "retransmits"];
const FT_FLAGS: &[&str] = &[
    "buddy-rounds",
    "respawns",
    "replicas",
    "probe-rounds",
    "suspect-rounds",
];
const CHAOS_FLAGS: &[&str] = &[
    "partition-lo",
    "partition-hi",
    "reorder-delay",
    "burst-max",
    "node-ranks",
];
const PERTURB_FLAGS: &[&str] = &[
    "probe-rounds",
    "suspect-rounds",
    "tax-lo",
    "tax-hi",
    "tax-rounds-lo",
    "tax-rounds-hi",
    "hog-share-lo",
    "hog-share-hi",
    "hog-node-ranks",
    "stall-access-lo",
    "stall-access-hi",
    "stall-window-lo",
    "stall-window-hi",
    "degraded-permille",
];

fn guard_policy_from(o: &Opts) -> Result<GuardPolicy, String> {
    Ok(GuardPolicy {
        checkpoint_rounds: o.get_num("checkpoint-rounds")?.unwrap_or(32),
        max_restarts: o.get_num("restarts")?.unwrap_or(3),
        max_retransmits: o.get_num("retransmits")?.unwrap_or(3),
        ..GuardPolicy::default()
    })
}

fn ft_policy_from(o: &Opts) -> Result<FtPolicy, String> {
    let mut policy = FtPolicy::default();
    if let Some(b) = o.get_num("buddy-rounds")? {
        policy.buddy_rounds = b;
    }
    if let Some(r) = o.get_num("respawns")? {
        policy.max_respawns = r;
    }
    if let Some(n) = o.get_num("replicas")? {
        policy.replicas = n;
    }
    if let Some(p) = o.get_num("probe-rounds")? {
        policy.detector.probe_rounds = p;
    }
    if let Some(q) = o.get_num("suspect-rounds")? {
        policy.detector.suspect_rounds = q;
    }
    Ok(policy)
}

fn chaos_policy_from(o: &Opts) -> Result<ChaosPolicy, String> {
    // Guard and ft knobs configure the crc/watchdog and
    // replica/shrink/app defense columns respectively.
    let mut p = ChaosPolicy {
        ft: ft_policy_from(o)?,
        ..ChaosPolicy::default()
    };
    if let Some(c) = o.get_num("checkpoint-rounds")? {
        p.guard.checkpoint_rounds = c;
    }
    if let Some(r) = o.get_num("restarts")? {
        p.guard.max_restarts = r;
    }
    if let Some(x) = o.get_num("retransmits")? {
        p.guard.max_retransmits = x;
    }
    if let Some(v) = o.get_num("partition-lo")? {
        p.partition_rounds.0 = v;
    }
    if let Some(v) = o.get_num("partition-hi")? {
        p.partition_rounds.1 = v;
    }
    if let Some(v) = o.get_num("reorder-delay")? {
        p.reorder_max_delay = v;
    }
    if let Some(v) = o.get_num("burst-max")? {
        p.burst_max = v;
    }
    if let Some(v) = o.get_num("node-ranks")? {
        p.node_ranks = v;
    }
    Ok(p)
}

/// Build a [`CampaignSpec`] from a verb's flags — the single source the
/// one-shot verbs, `faultlab spec` and the service submissions share.
/// `--jobs` and `--threads` are aliases (0 = one worker per core).
fn perturb_policy_from(o: &Opts) -> Result<PerturbPolicy, String> {
    let mut p = PerturbPolicy::default();
    if let Some(v) = o.get_num("probe-rounds")? {
        p.probe_rounds = v;
    }
    if let Some(v) = o.get_num("suspect-rounds")? {
        p.suspect_rounds = v;
    }
    if let Some(v) = o.get_num("tax-lo")? {
        p.tax_permille.0 = v;
    }
    if let Some(v) = o.get_num("tax-hi")? {
        p.tax_permille.1 = v;
    }
    if let Some(v) = o.get_num("tax-rounds-lo")? {
        p.tax_rounds.0 = v;
    }
    if let Some(v) = o.get_num("tax-rounds-hi")? {
        p.tax_rounds.1 = v;
    }
    if let Some(v) = o.get_num("hog-share-lo")? {
        p.hog_share_permille.0 = v;
    }
    if let Some(v) = o.get_num("hog-share-hi")? {
        p.hog_share_permille.1 = v;
    }
    if let Some(v) = o.get_num("hog-node-ranks")? {
        p.hog_node_ranks = v;
    }
    if let Some(v) = o.get_num("stall-access-lo")? {
        p.stall_per_access.0 = v;
    }
    if let Some(v) = o.get_num("stall-access-hi")? {
        p.stall_per_access.1 = v;
    }
    if let Some(v) = o.get_num("stall-window-lo")? {
        p.stall_window_per16.0 = v;
    }
    if let Some(v) = o.get_num("stall-window-hi")? {
        p.stall_window_per16.1 = v;
    }
    if let Some(v) = o.get_num("degraded-permille")? {
        p.degraded_permille = v;
    }
    Ok(p)
}

fn spec_from_opts(o: &Opts, mode: &str, default_injections: u32) -> Result<CampaignSpec, String> {
    let app_name = o.words.first().ok_or("needs an app name")?;
    let kind = parse_app(app_name)?;
    let mut spec = CampaignSpec::new(kind);
    spec.tiny = o.has("tiny");
    spec.classes = match o.get("regions") {
        None | Some("all") => TargetClass::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(parse_region)
            .collect::<Result<_, _>>()?,
    };
    let c = &mut spec.campaign;
    c.injections = o.get_num("injections")?.unwrap_or(default_injections);
    c.seed = o.get_num("seed")?.unwrap_or(0xFA17);
    c.threads = match o.get_num("jobs")? {
        Some(j) => j,
        None => o.get_num("threads")?.unwrap_or(0),
    };
    c.epoch_rounds = o.get_num("epoch-rounds")?.unwrap_or(16);
    c.obs_capacity = o.get_num("ring")?.unwrap_or(0);
    c.fastpath = !o.has("no-fastpath");
    check_mode(
        mode,
        &["campaign", "guard", "ft", "chaos", "perturb"],
        "mode",
    )?;
    spec.mode = match mode {
        "campaign" => SpecMode::Campaign,
        "guard" => SpecMode::Guard(guard_policy_from(o)?),
        "chaos" => SpecMode::Chaos(chaos_policy_from(o)?),
        "perturb" => SpecMode::Perturb(perturb_policy_from(o)?),
        _ => SpecMode::Ft(ft_policy_from(o)?),
    };
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
    let o = Opts::parse(args);
    o.expect(&["tiny"])?;
    let kinds: Vec<AppKind> = if o.words.is_empty() {
        AppKind::ALL.to_vec()
    } else {
        o.words
            .iter()
            .map(|w| parse_app(w))
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
    let o = Opts::parse(args);
    let mut valid = SPEC_FLAGS.to_vec();
    valid.extend(["tsv", "jsonl", "registers"]);
    o.expect(&valid)?;
    let spec = spec_from_opts(&o, "campaign", 500)?;
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
            let title = format!(
                "Fault Injection Results ({} / {} analogue), d = {:.1}% at 95% confidence",
                kind.name(),
                kind.paper_name(),
                estimation_error(0.95, spec.campaign.injections) * 100.0
            );
            print!("{}", result.table(&title));
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
/// ended at an epoch boundary did not execute their share of it.
fn throughput_line(result: &fl_inject::CampaignResult) -> String {
    let s = &result.exec_stats;
    let c = &result.converge;
    format!(
        "throughput: {} trials, {:.1}M guest insns in {:.2}s — {:.1} MIPS, {:.1} trials/sec\n\
         exec-cache: {} block hits, {} block misses, {} trace passes, {} side exits, {} demotions\n\
         converged: {} trials ended at an epoch boundary, {} epoch compares, {} granules excused",
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
        c.epoch_compares,
        c.granules_excused,
    )
}

fn cmd_run_config(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args);
    o.expect(&[])?;
    let path = o.words.first().ok_or("run-config needs a file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = fl_inject::parse_spec(&text).map_err(|e| format!("{path}: {e}"))?;
    let app = build_app(spec.app, spec.tiny);
    eprintln!(
        "run-config: {} x {} injections over {} regions ...",
        spec.app.name(),
        spec.campaign.injections,
        spec.classes.len()
    );
    let result = CampaignBuilder::new(&app)
        .classes(&spec.classes)
        .with_config(spec.campaign)
        .run();
    let title = format!(
        "Fault Injection Results ({}), n = {}, d = {:.1}% @95%",
        spec.app.name(),
        spec.campaign.injections,
        estimation_error(0.95, spec.campaign.injections) * 100.0
    );
    print!("{}", result.table(&title));
    Ok(())
}

fn cmd_regpressure(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args);
    o.expect(&["tiny"])?;
    let app_name = o.words.first().ok_or("regpressure needs an app name")?;
    let app = build_app(parse_app(app_name)?, o.has("tiny"));
    print!("{}", fl_inject::render_register_pressure(&app.image));
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args);
    o.expect(&["samples", "tsv", "tiny"])?;
    let app_name = o.words.first().ok_or("trace needs an app name")?;
    let kind = parse_app(app_name)?;
    let samples: usize = o.get_num("samples")?.unwrap_or(60);
    let app = build_app(kind, o.has("tiny"));
    eprintln!("tracing {} ...", kind.name());
    let report = fl_trace::trace_app(&app, DEFAULT_BUDGET, samples);
    if o.has("tsv") {
        print!("{}", fl_trace::render_tsv(&report));
    } else {
        print!("{}", fl_trace::render_summary(&report));
    }
    Ok(())
}

fn cmd_trial(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args);
    o.expect(&["seed", "tiny"])?;
    let app_name = o.words.first().ok_or("trial needs an app name")?;
    let region = o.words.get(1).ok_or("trial needs a region")?;
    let kind = parse_app(app_name)?;
    let class = parse_region(region)?;
    let seed: u64 = o.get_num("seed")?.unwrap_or(1);
    let app = build_app(kind, o.has("tiny"));
    // `trial` takes a raw trial seed: trial 0 of class 0 of the campaign
    // seeded with it draws exactly that seed.
    let rec = CampaignBuilder::new(&app)
        .classes(&[class])
        .seed(seed)
        .injections(1)
        .replay(0, 0);
    println!("app:     {}", kind.name());
    println!("fault:   {}", rec.detail);
    println!("outcome: {}", rec.outcome);
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args);
    o.expect(&[
        "trial",
        "regions",
        "seed",
        "injections",
        "threads",
        "epoch-rounds",
        "tiny",
    ])?;
    let app_name = o.words.first().ok_or("replay needs an app name")?;
    let region = o.words.get(1).ok_or("replay needs a region")?;
    let kind = parse_app(app_name)?;
    let class = parse_region(region)?;
    let regions: Vec<TargetClass> = match o.get("regions") {
        None | Some("all") => TargetClass::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(parse_region)
            .collect::<Result<_, _>>()?,
    };
    let ci = regions
        .iter()
        .position(|&c| c == class)
        .ok_or_else(|| format!("region `{region}` is not in the campaign's region list"))?;
    let k: u32 = o.get_num("trial")?.ok_or("replay needs --trial K")?;
    let cfg = CampaignConfig {
        injections: o.get_num("injections")?.unwrap_or(500),
        seed: o.get_num("seed")?.unwrap_or(0xFA17),
        budget_factor: 3.0,
        threads: o.get_num("threads")?.unwrap_or(0),
        epoch_rounds: o.get_num("epoch-rounds")?.unwrap_or(16),
        ..Default::default()
    };
    if k >= cfg.injections {
        return Err(format!(
            "--trial {k} out of range (campaign has {} trials)",
            cfg.injections
        ));
    }
    let app = build_app(kind, o.has("tiny"));
    eprintln!("replaying {} {} trial {k} ...", kind.name(), class.label());
    let seed = cfg.seed;
    let rec = CampaignBuilder::new(&app)
        .classes(&regions)
        .with_config(cfg)
        .replay(ci, k);
    println!("app:     {}", kind.name());
    println!("class:   {}", class.label());
    println!(
        "trial:   {k} (seed {:#x})",
        fl_inject::trial_seed(seed, ci, k)
    );
    println!("fault:   {}", rec.detail);
    println!("outcome: {}", rec.outcome);
    Ok(())
}

fn cmd_events(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args);
    o.expect(&[
        "trial",
        "regions",
        "seed",
        "injections",
        "threads",
        "epoch-rounds",
        "ring",
        "jsonl",
        "tiny",
        "no-fastpath",
    ])?;
    let app_name = o.words.first().ok_or("events needs an app name")?;
    let region = o.words.get(1).ok_or("events needs a region")?;
    let kind = parse_app(app_name)?;
    let class = parse_region(region)?;
    let regions: Vec<TargetClass> = match o.get("regions") {
        None | Some("all") => TargetClass::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(parse_region)
            .collect::<Result<_, _>>()?,
    };
    let ci = regions
        .iter()
        .position(|&c| c == class)
        .ok_or_else(|| format!("region `{region}` is not in the campaign's region list"))?;
    let k: u32 = o.get_num("trial")?.ok_or("events needs --trial K")?;
    let cfg = CampaignConfig {
        injections: o.get_num("injections")?.unwrap_or(500),
        seed: o.get_num("seed")?.unwrap_or(0xFA17),
        budget_factor: 3.0,
        threads: o.get_num("threads")?.unwrap_or(0),
        epoch_rounds: o.get_num("epoch-rounds")?.unwrap_or(16),
        obs_capacity: o.get_num("ring")?.unwrap_or(4096),
        fastpath: !o.has("no-fastpath"),
    };
    if k >= cfg.injections {
        return Err(format!(
            "--trial {k} out of range (campaign has {} trials)",
            cfg.injections
        ));
    }
    let app = build_app(kind, o.has("tiny"));
    eprintln!(
        "tracing events: {} {} trial {k} ...",
        kind.name(),
        class.label()
    );
    let trace = CampaignBuilder::new(&app)
        .classes(&regions)
        .with_config(cfg)
        .replay_traced(ci, k);
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
    let o = Opts::parse(args);
    let mut valid = SPEC_FLAGS.to_vec();
    valid.push("tsv");
    o.expect(&valid)?;
    let mut spec = spec_from_opts(&o, "campaign", 500)?;
    if o.get("ring").is_none() {
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

/// Injections per row a matrix verb (and `spec --mode`) defaults to.
fn default_injections(mode: &str) -> u32 {
    match mode {
        "guard" => 100,
        "ft" => 40,
        "chaos" => 20,
        "perturb" => 10,
        _ => 500,
    }
}

/// The four matrix verbs: `guard`, `ft`, `chaos`, `perturb`.
fn cmd_matrix(verb: &str, args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args);
    // The verb's policy flags, and the flag that focuses the table: one
    // recovery discipline (`ft --mode M`) or one fault model's row
    // (`--model M`). Every column still runs — they are paired draws.
    let (policy_flags, focus_flag): (&[&[&str]], Option<&str>) = match verb {
        "guard" => (&[GUARD_FLAGS], None),
        "ft" => (&[FT_FLAGS], Some("mode")),
        "chaos" => (&[GUARD_FLAGS, FT_FLAGS, CHAOS_FLAGS], Some("model")),
        _ => (&[PERTURB_FLAGS], Some("model")),
    };
    let mut valid = SPEC_FLAGS.to_vec();
    valid.extend(policy_flags.iter().copied().flatten());
    valid.extend(["tsv", "jsonl"]);
    valid.extend(focus_flag);
    o.expect(&valid)?;
    let spec = spec_from_opts(&o, verb, default_injections(verb))?;
    let matrix = spec.matrix().expect("matrix verbs build matrix specs");
    let focus: Option<String> = match focus_flag.and_then(|f| o.get(f)) {
        None => None,
        Some(m) if verb == "ft" => {
            let labels: Vec<&str> = FtMode::ALL.iter().map(|m| m.label()).collect();
            check_mode(m, &labels, "ft mode")?;
            Some(m.to_string())
        }
        Some(m) => {
            // The parse error carries the registry-wide did-you-mean
            // hint; a real model that is not a row names the rows.
            let model: FaultModel = m.parse()?;
            let rows: Vec<&str> = matrix.rows.iter().map(|r| r.label.as_str()).collect();
            if !rows.contains(&model.label()) {
                return Err(format!(
                    "`{model}` is not a {verb} model (matrix rows: {})",
                    rows.join(", ")
                ));
            }
            Some(model.label().to_string())
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
    let title = match verb {
        "guard" => "Detection Coverage ({}), guard-off vs guard-on",
        "ft" => "Process-Level Fault Tolerance ({}), shrink vs respawn vs app vs replication",
        "chaos" => "Chaos Defense-Coverage Matrix ({})",
        _ => "Performance-Interference Detection Matrix ({}), fixed vs accrual",
    };
    let analogue = format!("{} / {} analogue", kind.name(), kind.paper_name());
    match (
        ReportFormat::from_flags(o.has("tsv"), o.has("jsonl")),
        focus,
    ) {
        (ReportFormat::Jsonl, _) if streams => print!("{}", sink.canonical_records()),
        // The machine formats always carry every column; focus only
        // changes the human-readable view.
        (ReportFormat::Table, Some(label)) => {
            let (row, column) = if verb == "ft" {
                let (row, column) = result.find_column(&label).expect("a column per FtMode");
                (row, Some(column))
            } else {
                (result.find_row(&label).expect("validated above"), None)
            };
            print!("{}", result.focus(row, column));
        }
        (fmt, _) => print!("{}", result.render(fmt, &title.replace("{}", &analogue))),
    }
    Ok(())
}

fn cmd_spec(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args);
    let mut valid = SPEC_FLAGS.to_vec();
    valid.push("mode");
    valid.extend(GUARD_FLAGS);
    valid.extend(FT_FLAGS);
    valid.extend(CHAOS_FLAGS);
    valid.extend(PERTURB_FLAGS);
    o.expect(&valid)?;
    let mode = o.get("mode").unwrap_or("campaign");
    let spec = spec_from_opts(&o, mode, default_injections(mode))?;
    println!("{}", spec.to_json());
    Ok(())
}

fn serve_addr(o: &Opts) -> String {
    o.get("addr").unwrap_or(DEFAULT_ADDR).to_string()
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args);
    o.expect(&["addr", "state-dir"])?;
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
    let o = Opts::parse(args);
    o.expect(&["addr"])?;
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
    let o = Opts::parse(args);
    o.expect(&["addr"])?;
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
    let o = Opts::parse(args);
    o.expect(&["addr"])?;
    let id = o.words.first().ok_or("watch needs a campaign id")?;
    fl_serve::watch(&serve_addr(&o), id, |line| println!("{line}"))
}

fn cmd_control(action: &str, args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args);
    o.expect(&["addr"])?;
    let id = o
        .words
        .first()
        .ok_or_else(|| format!("{action} needs a campaign id"))?;
    println!("{}", fl_serve::control(&serve_addr(&o), id, action)?);
    Ok(())
}

fn cmd_recovery(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args);
    o.expect(&["checkpoint-every", "kill-rank", "kill-round", "tiny"])?;
    let app_name = o.words.first().ok_or("recovery needs an app name")?;
    let kind = parse_app(app_name)?;
    let app = build_app(kind, o.has("tiny"));
    let golden = app.golden(DEFAULT_BUDGET);
    let budget = golden.insns.iter().max().unwrap() * 3 + 2_000_000;
    let wcfg = app.world_config(budget);
    let every: u32 = o.get_num("checkpoint-every")?.unwrap_or(16);
    let kill_rank: u16 = o.get_num("kill-rank")?.unwrap_or(1);
    if kill_rank >= app.params.nranks {
        return Err(format!(
            "--kill-rank {kill_rank} out of range (app has {} ranks)",
            app.params.nranks
        ));
    }
    let kill_round: u64 = match o.get_num("kill-round")? {
        Some(r) => r,
        None => {
            // Default: mid-run, measured on a throwaway golden pass.
            fl_snap::EpochCache::build(&app.image, wcfg, u32::MAX).rounds() / 2
        }
    };
    eprintln!(
        "recovery: {}, checkpoint every {every} rounds, kill rank {kill_rank} at round {kill_round} ...",
        kind.name()
    );
    let r = fl_snap::run_recovery(
        &app.image,
        wcfg,
        RecoveryConfig {
            checkpoint_every: every,
            kill_rank,
            kill_round,
        },
    );
    println!("golden run:        {} scheduler rounds", r.golden_rounds);
    println!("crash:             {:?}", r.crash_exit);
    println!("checkpoints taken: {}", r.checkpoints_taken);
    println!("restored from:     round {}", r.checkpoint_round);
    println!("work lost:         {} rounds", r.lost_rounds);
    println!("re-run exit:       {:?}", r.recovered_exit);
    println!(
        "recovered:         {}",
        if r.recovered {
            "yes (output matches golden)"
        } else {
            "NO"
        }
    );
    Ok(())
}

fn cmd_sample_size(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args);
    o.expect(&["error", "confidence", "injections"])?;
    let conf: f64 = o.get_num("confidence")?.unwrap_or(0.95);
    if let Some(n) = o.get_num::<u32>("injections")? {
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
    println!(
        "d = {:.2}% at {:.0}% confidence -> n >= {} injections (oversampled, P = 0.5)",
        d * 100.0,
        conf * 100.0,
        sample_size(conf, d)
    );
    Ok(())
}

fn cmd_source(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args);
    o.expect(&["tiny"])?;
    let app_name = o.words.first().ok_or("source needs an app name")?;
    let app = build_app(parse_app(app_name)?, o.has("tiny"));
    print!("{}", app.source);
    Ok(())
}

fn cmd_disasm(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args);
    o.expect(&["limit", "tiny"])?;
    let app_name = o.words.first().ok_or("disasm needs an app name")?;
    let limit: usize = o.get_num("limit")?.unwrap_or(200);
    let app = build_app(parse_app(app_name)?, o.has("tiny"));
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

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn opts_words_and_flags() {
        let o = Opts::parse(&s(&[
            "moldyn",
            "--injections",
            "400",
            "--tsv",
            "--seed",
            "7",
        ]));
        assert_eq!(o.words, vec!["moldyn"]);
        assert!(o.has("tsv"));
        assert_eq!(o.get("injections"), Some("400"));
        assert_eq!(o.get_num::<u32>("injections").unwrap(), Some(400));
        assert_eq!(o.get_num::<u64>("seed").unwrap(), Some(7));
        assert_eq!(o.get_num::<u32>("missing").unwrap(), None);
    }

    #[test]
    fn opts_flag_followed_by_flag_has_no_value() {
        let o = Opts::parse(&s(&["--tiny", "--tsv"]));
        assert!(o.has("tiny"));
        assert!(o.has("tsv"));
        assert_eq!(o.get("tiny"), None);
    }

    #[test]
    fn opts_bad_number_is_an_error() {
        let o = Opts::parse(&s(&["--injections", "many"]));
        assert!(o.get_num::<u32>("injections").is_err());
    }

    #[test]
    fn app_and_region_parsing() {
        assert_eq!(parse_app("wavetoy").unwrap(), AppKind::Wavetoy);
        assert_eq!(parse_app("climsim").unwrap(), AppKind::Climsim);
        assert!(parse_app("namd").is_err());
        assert_eq!(
            parse_region("regular-reg").unwrap(),
            TargetClass::RegularReg
        );
        assert_eq!(parse_region("msg").unwrap(), TargetClass::Message);
        assert!(parse_region("rom").is_err());
    }

    #[test]
    fn unknown_command_is_reported() {
        assert!(run(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn unknown_flag_suggests_nearest() {
        let o = Opts::parse(&s(&["--injetions", "400"]));
        let err = o.expect(&["injections", "seed", "tiny"]).unwrap_err();
        assert!(
            err.contains("did you mean `--injections`?"),
            "bad suggestion: {err}"
        );
    }

    #[test]
    fn unknown_flag_far_from_everything_lists_valid_flags() {
        let o = Opts::parse(&s(&["--frobnicate"]));
        let err = o.expect(&["seed", "tiny"]).unwrap_err();
        assert!(err.contains("valid flags: --seed, --tiny"), "{err}");
    }

    #[test]
    fn known_flags_pass_validation() {
        let o = Opts::parse(&s(&["wavetoy", "--seed", "7", "--tiny"]));
        assert!(o.expect(&["seed", "tiny"]).is_ok());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("seed", "seed"), 0);
        assert_eq!(edit_distance("sed", "seed"), 1);
        assert_eq!(edit_distance("no-fastpath", "fastpath"), 3);
        assert_eq!(edit_distance("", "ring"), 4);
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
        let o = Opts::parse(&s(&["wavetoy"]));
        let spec = spec_from_opts(&o, "campaign", 500).unwrap();
        assert_eq!(spec.app, AppKind::Wavetoy);
        assert!(!spec.tiny);
        assert_eq!(spec.campaign.injections, 500);
        assert_eq!(spec.campaign.seed, 0xFA17);
        assert_eq!(spec.campaign.epoch_rounds, 16);
        assert_eq!(spec.campaign.obs_capacity, 0);
        assert!(spec.campaign.fastpath);
        assert!(matches!(spec.mode, SpecMode::Campaign));

        let o = Opts::parse(&s(&["moldyn", "--tiny", "--checkpoint-rounds", "8"]));
        let spec = spec_from_opts(&o, "guard", 100).unwrap();
        assert_eq!(spec.campaign.injections, 100);
        let SpecMode::Guard(g) = &spec.mode else {
            panic!("expected guard mode");
        };
        assert_eq!(g.checkpoint_rounds, 8);
        assert_eq!(g.max_restarts, 3);
        assert_eq!(g.max_retransmits, 3);
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
        let o = Opts::parse(&s(&[
            "wavetoy",
            "--tiny",
            "--tax-hi",
            "990",
            "--hog-node-ranks",
            "4",
            "--degraded-permille",
            "1100",
        ]));
        let spec = spec_from_opts(&o, "perturb", 10).unwrap();
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
        let o = Opts::parse(&s(&[
            "wavetoy",
            "--tiny",
            "--burst-max",
            "4",
            "--partition-hi",
            "1024",
            "--replicas",
            "5",
        ]));
        let spec = spec_from_opts(&o, "chaos", 20).unwrap();
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
        // A real model that is not a matrix row is rejected with the
        // row list, not run.
        let err = run(&s(&["chaos", "wavetoy", "--tiny", "--model", "transient"])).unwrap_err();
        assert!(err.contains("not a chaos model"), "{err}");
        assert!(err.contains("net-drop"), "{err}");
    }

    #[test]
    fn jacobi3d_parses_as_an_app() {
        assert_eq!(parse_app("jacobi3d").unwrap(), AppKind::Jacobi3d);
        let o = Opts::parse(&s(&["jacobi3d", "--tiny"]));
        let spec = spec_from_opts(&o, "ft", 40).unwrap();
        assert_eq!(spec.app, AppKind::Jacobi3d);
    }

    #[test]
    fn jobs_is_an_alias_for_threads() {
        let o = Opts::parse(&s(&["wavetoy", "--jobs", "4"]));
        let spec = spec_from_opts(&o, "campaign", 500).unwrap();
        assert_eq!(spec.campaign.threads, 4);
        let o = Opts::parse(&s(&["wavetoy", "--threads", "3"]));
        let spec = spec_from_opts(&o, "campaign", 500).unwrap();
        assert_eq!(spec.campaign.threads, 3);
    }

    #[test]
    fn spec_verb_output_round_trips() {
        for mode in ["campaign", "guard", "ft", "chaos"] {
            let o = Opts::parse(&s(&["climsim", "--tiny", "--mode", mode]));
            let spec = spec_from_opts(&o, mode, 500).unwrap();
            let json = spec.to_json();
            let back = CampaignSpec::from_json(&json).unwrap();
            assert_eq!(back.to_json(), json, "mode {mode} did not round-trip");
        }
        assert!(run(&s(&["spec", "wavetoy", "--tiny"])).is_ok());
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
    fn sample_size_command_works() {
        assert!(cmd_sample_size(&s(&["--error", "0.05"])).is_ok());
        assert!(cmd_sample_size(&s(&["--injections", "500"])).is_ok());
        assert!(cmd_sample_size(&s(&[])).is_err());
    }
}
