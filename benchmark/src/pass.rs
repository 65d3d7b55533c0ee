//! One pass over a workload's specs: closed loop, one driver thread, one
//! campaign in flight — either in-process through `run_spec` or through a
//! real `fl-serve` daemon.

use crate::json::{self, Json};
use crate::trace::Tracer;
use crate::workloads::SpecDoc;
use fl_inject::{
    record_line, run_spec, sort_records_jsonl, CampaignSpec, CompletedSlots, EngineControl,
    EngineProgress, EngineSink, SpecOutcome, TrialOutput,
};
use fl_serve::{client, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The daemon is polled this often; `client::wait_done` (25 ms) and
/// `/watch` (100 ms) would quantise campaigns that last 40 ms.
const POLL: Duration = Duration::from_millis(2);
/// A campaign that has not finished by now never will.
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(120);

/// Work counters of a plain campaign (exact at one worker).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounts {
    pub block_hits: u64,
    pub block_misses: u64,
    pub trace_hits: u64,
    pub trace_side_exits: u64,
    pub demotions: u64,
    pub insns_total: u64,
}

impl ExecCounts {
    pub fn add(&mut self, o: &ExecCounts) {
        self.block_hits += o.block_hits;
        self.block_misses += o.block_misses;
        self.trace_hits += o.trace_hits;
        self.trace_side_exits += o.trace_side_exits;
        self.demotions += o.demotions;
        self.insns_total += o.insns_total;
    }
}

/// What one campaign of a pass did. Times are nanoseconds since the pass
/// started.
#[derive(Debug, Default)]
pub struct CampaignRun {
    /// Spec handed over.
    pub start_ns: u64,
    /// Records in hand.
    pub end_ns: u64,
    /// First completed trial seen (`progress` with `done >= 1`, or the
    /// first poll that reports it).
    pub first_done_ns: Option<u64>,
    /// The canonical slot-sorted record stream; empty for modes that
    /// stream no per-trial records in-process.
    pub records: String,
    /// Trial totals as the engine (or daemon) reported them.
    pub total: u64,
    pub done: u64,
    pub exec: Option<ExecCounts>,
    /// HTTP requests issued and how many of them failed.
    pub requests: u64,
    pub request_errors: u64,
    /// Traced passes only: when each `progress` callback arrived and how
    /// many record lines existed by then.
    pub stamps: Vec<(u64, usize)>,
    /// Traced passes only: named intervals on the benchmark's side of a
    /// boundary (`run_spec`, `serve.submit`, `serve.poll`, …).
    pub calls: Vec<(&'static str, u64, u64)>,
    /// Record lines in completion order (what `stamps` indexes).
    pub lines: Vec<String>,
    pub error: Option<String>,
}

impl CampaignRun {
    pub fn latency_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    pub fn setup_s(&self) -> f64 {
        // A campaign that never completed a trial was all setup.
        (self.first_done_ns.unwrap_or(self.end_ns) - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct PassRun {
    pub origin: Instant,
    pub wall_s: f64,
    pub campaigns: Vec<CampaignRun>,
}

impl PassRun {
    pub fn trials(&self) -> u64 {
        self.campaigns.iter().map(|c| c.done).sum()
    }

    pub fn trials_per_s(&self) -> f64 {
        self.trials() as f64 / self.wall_s
    }

    pub fn setup_s(&self) -> f64 {
        self.campaigns.iter().map(CampaignRun::setup_s).sum()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.campaigns.iter().map(|c| c.latency_s() * 1e3).collect()
    }

    pub fn exec(&self) -> ExecCounts {
        let mut sum = ExecCounts::default();
        for c in self.campaigns.iter().filter_map(|c| c.exec.as_ref()) {
            sum.add(c);
        }
        sum
    }

    /// All canonical record streams, campaign after campaign.
    pub fn records(&self) -> String {
        self.campaigns.iter().map(|c| c.records.as_str()).collect()
    }

    pub fn first_error(&self) -> Option<&str> {
        self.campaigns.iter().find_map(|c| c.error.as_deref())
    }
}

#[derive(Default)]
struct SinkState {
    first_done_ns: Option<u64>,
    total: u64,
    done: u64,
    lines: Vec<String>,
    stamps: Vec<(u64, usize)>,
}

/// The benchmark's engine subscriber. Untraced, it keeps the record lines
/// and the time of the first completed trial; traced, it also timestamps
/// every `progress` callback (all five modes emit one per trial).
struct PassSink {
    app: fl_apps::AppKind,
    origin: Instant,
    traced: bool,
    state: Mutex<SinkState>,
}

impl EngineSink for PassSink {
    fn trial(&self, t: &TrialOutput) {
        let line = record_line(self.app, t);
        self.state.lock().expect("sink poisoned").lines.push(line);
    }

    fn progress(&self, p: EngineProgress) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let mut s = self.state.lock().expect("sink poisoned");
        s.total = p.total;
        s.done = s.done.max(p.done);
        if p.done >= 1 && s.first_done_ns.is_none() {
            s.first_done_ns = Some(now);
        }
        if self.traced {
            let lines = s.lines.len();
            s.stamps.push((now, lines));
        }
    }
}

/// Run one spec in-process. `resume` pre-fills completed slots (the
/// resume probe); the passes hand over `None`.
pub fn run_campaign_inproc(
    doc: &SpecDoc,
    origin: Instant,
    traced: bool,
    resume: Option<CompletedSlots>,
) -> CampaignRun {
    let now = || origin.elapsed().as_nanos() as u64;
    let mut run = CampaignRun {
        start_ns: now(),
        ..CampaignRun::default()
    };
    let spec = match CampaignSpec::from_json(&doc.json) {
        Ok(s) => s,
        Err(e) => {
            run.end_ns = now();
            run.error = Some(format!("spec rejected: {e}"));
            return run;
        }
    };
    let sink = PassSink {
        app: spec.app,
        origin,
        traced,
        state: Mutex::new(SinkState::default()),
    };
    let enter = now();
    let outcome = run_spec(&spec, &sink, &EngineControl::new(), resume);
    let leave = now();
    let state = sink.state.into_inner().expect("sink poisoned");
    let mut text = String::new();
    for l in &state.lines {
        text.push_str(l);
        text.push('\n');
    }
    run.records = sort_records_jsonl(&text);
    run.end_ns = now();
    run.first_done_ns = state.first_done_ns;
    run.total = state.total;
    run.done = state.done;
    run.stamps = state.stamps;
    run.lines = state.lines;
    match outcome {
        None => run.error = Some("run_spec stopped before completion".into()),
        Some(SpecOutcome::Campaign(r)) => {
            run.exec = Some(ExecCounts {
                block_hits: r.exec_stats.block_hits,
                block_misses: r.exec_stats.block_misses,
                trace_hits: r.exec_stats.trace_hits,
                trace_side_exits: r.exec_stats.trace_side_exits,
                demotions: r.exec_stats.demotions,
                insns_total: r.insns_total,
            });
        }
        Some(_) => {}
    }
    if traced {
        run.calls.push(("spec.parse", run.start_ns, enter));
        run.calls.push(("run_spec", enter, leave));
        run.calls.push(("records.sort", leave, run.end_ns));
    }
    run
}

pub fn run_pass_inproc(docs: &[SpecDoc], traced: bool) -> PassRun {
    let origin = Instant::now();
    let campaigns = docs
        .iter()
        .map(|d| run_campaign_inproc(d, origin, traced, None))
        .collect();
    PassRun {
        origin,
        wall_s: origin.elapsed().as_secs_f64(),
        campaigns,
    }
}

/// Refuse a state directory that already holds anything. Submit is
/// idempotent on the spec hash, so a second pass against a used directory
/// is answered from `done.json` in under a millisecond and measures
/// nothing.
pub fn claim_state_dir(dir: &Path) -> Result<(), String> {
    if let Ok(mut entries) = std::fs::read_dir(dir) {
        if entries.next().is_some() {
            return Err(format!(
                "state dir {} is not empty: a pass on a reused state dir measures nothing",
                dir.display()
            ));
        }
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// A daemon on a fresh state directory that is removed again on drop.
pub struct Daemon {
    server: Option<Server>,
    pub addr: String,
    pub state_dir: PathBuf,
}

impl Daemon {
    pub fn start(state_dir: &Path) -> Result<Daemon, String> {
        claim_state_dir(state_dir)?;
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: state_dir.to_path_buf(),
        })
        .map_err(|e| format!("start daemon: {e}"))?;
        Ok(Daemon {
            addr: server.local_addr().to_string(),
            server: Some(server),
            state_dir: state_dir.to_path_buf(),
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            // Stops campaigns, closes the socket loop and joins every
            // thread the daemon started.
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// Submit one spec, poll `status` until done, fetch the records.
pub fn run_campaign_serve(addr: &str, doc: &SpecDoc, origin: Instant, traced: bool) -> CampaignRun {
    let now = || origin.elapsed().as_nanos() as u64;
    let mut run = CampaignRun {
        start_ns: now(),
        ..CampaignRun::default()
    };
    let call = |run: &mut CampaignRun, name: &'static str, start: u64| {
        run.requests += 1;
        if traced {
            run.calls.push((name, start, now()));
        }
    };
    let fail = |mut run: CampaignRun, what: &str, e: String| {
        run.request_errors += 1;
        run.error = Some(format!("{what}: {e}"));
        run.end_ns = now();
        run
    };

    let t = now();
    let submitted = client::submit(addr, &doc.json);
    call(&mut run, "serve.submit", t);
    let id = match submitted {
        Ok(id) => id,
        Err(e) => return fail(run, "submit", e),
    };
    loop {
        let t = now();
        let polled = client::status(addr, &id);
        call(&mut run, "serve.poll", t);
        let body = match polled {
            Ok(b) => b,
            Err(e) => return fail(run, "status", e),
        };
        let status = json::parse(&body).unwrap_or(Json::Null);
        let field = |k: &str| status.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        run.done = field("done");
        run.total = field("total");
        if run.done >= 1 && run.first_done_ns.is_none() {
            run.first_done_ns = Some(now());
        }
        match client::status_field(&body).as_str() {
            "done" => break,
            s @ ("failed" | "stopped") => return fail(run, "campaign", format!("ended {s}")),
            _ => {}
        }
        if now() - run.start_ns > CAMPAIGN_TIMEOUT.as_nanos() as u64 {
            return fail(run, "campaign", "timed out".into());
        }
        std::thread::sleep(POLL);
    }
    let t = now();
    let fetched = client::records(addr, &id);
    call(&mut run, "serve.records_get", t);
    match fetched {
        Ok(text) => run.records = text,
        Err(e) => return fail(run, "records", e),
    }
    run.end_ns = now();
    run
}

/// One pass through a fresh daemon on a fresh state directory, which is
/// removed afterwards. The pass clock starts once the daemon listens;
/// start-up has its own probe.
pub fn run_pass_serve(docs: &[SpecDoc], traced: bool, state_dir: &Path) -> Result<PassRun, String> {
    let daemon = Daemon::start(state_dir)?;
    let origin = Instant::now();
    let campaigns = docs
        .iter()
        .map(|d| run_campaign_serve(&daemon.addr, d, origin, traced))
        .collect();
    let wall_s = origin.elapsed().as_secs_f64();
    drop(daemon);
    Ok(PassRun {
        origin,
        wall_s,
        campaigns,
    })
}

/// Turn a traced pass into spans: per campaign a root `campaign` span, the
/// recorded calls under it, and under `run_spec` the engine phases read
/// off the `progress` callbacks — `engine.setup` (entry to first
/// callback), one `engine.trial` between consecutive callbacks, and
/// `engine.assemble` (last callback to return).
pub fn record_spans(tracer: &mut Tracer, pass: &PassRun, docs: &[SpecDoc], first_campaign: u32) {
    let base = tracer.at(pass.origin);
    for (i, (c, doc)) in pass.campaigns.iter().zip(docs).enumerate() {
        let cid = first_campaign + i as u32;
        let root = tracer.push(
            None,
            Some(cid),
            "campaign",
            base + c.start_ns,
            base + c.end_ns,
            vec![("app", doc.app.into()), ("mode", doc.mode.into())],
        );
        for &(name, start, end) in &c.calls {
            let id = tracer.push(
                Some(root),
                Some(cid),
                name,
                base + start,
                base + end,
                vec![],
            );
            if name != "run_spec" || c.stamps.is_empty() {
                continue;
            }
            let mut prev = (start, 0usize);
            for (k, &(at, lines)) in c.stamps.iter().enumerate() {
                let mut attrs = Vec::new();
                // The callback closes a trial whose record line, if the
                // mode streams one, was pushed just before it.
                if lines > prev.1 {
                    if let Ok(v) = json::parse(&c.lines[lines - 1]) {
                        for key in ["class", "outcome"] {
                            if let Some(s) = v.get(key).and_then(Json::as_str) {
                                attrs.push((key, s.to_string()));
                            }
                        }
                        if let Some(n) = v.get("insns").and_then(Json::as_f64) {
                            attrs.push(("insns", format!("{n}")));
                        }
                    }
                }
                let name = if k == 0 {
                    "engine.setup"
                } else {
                    "engine.trial"
                };
                tracer.push(Some(id), Some(cid), name, base + prev.0, base + at, attrs);
                prev = (at, lines);
            }
            tracer.push(
                Some(id),
                Some(cid),
                "engine.assemble",
                base + prev.0,
                base + end,
                vec![],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = crate::out_dir().join("test").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_reused_state_dir_is_refused() {
        let dir = scratch("reused");
        claim_state_dir(&dir).expect("fresh dir is fine");
        claim_state_dir(&dir).expect("empty dir is fine");
        std::fs::write(dir.join("leftover"), "x").unwrap();
        let err = claim_state_dir(&dir).unwrap_err();
        assert!(err.contains("reused state dir"), "{err}");
        let docs = crate::workloads::specs("serve_small", 1, 0, Default::default());
        assert!(run_pass_serve(&docs[..1], false, &dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_daemon_removes_its_state_dir() {
        let dir = scratch("daemon");
        let d = Daemon::start(&dir).unwrap();
        assert!(dir.is_dir());
        drop(d);
        assert!(!dir.exists());
    }
}
