//! The campaign daemon: socket loop, campaign registry, durable state.
//!
//! One campaign = one directory under the state dir, keyed by the
//! FNV-1a hash of the spec's canonical JSON:
//!
//! ```text
//! <state-dir>/<id>/spec.json      the canonical spec, one line
//! <state-dir>/<id>/records.jsonl  per-trial records, appended + flushed
//! <state-dir>/<id>/matrix.jsonl   per-cell summary (chaos, perturb)
//! <state-dir>/<id>/metrics.jsonl  per-class metrics (ring > 0; perturb)
//! <state-dir>/<id>/done.json      commit marker: final progress counters
//! ```
//!
//! `records.jsonl` is both the streamed output and the resume state: a
//! line is flushed the moment its trial completes, so a `kill -9` loses
//! at most one torn tail line, which the resume parser skips and the
//! engine re-runs. On startup the server scans the state dir and
//! relaunches every campaign that has a spec but no `done.json` —
//! restarting a killed server finishes its campaigns bit-identically.
//!
//! Endpoints (JSON in, JSON or JSONL out):
//!
//! | method | path                        | effect                         |
//! |--------|-----------------------------|--------------------------------|
//! | GET    | `/healthz`                  | liveness probe                 |
//! | POST   | `/campaigns`                | submit a spec (idempotent)     |
//! | GET    | `/campaigns`                | list campaigns                 |
//! | GET    | `/campaigns/<id>`           | status + progress counters     |
//! | GET    | `/campaigns/<id>/records`   | canonical slot-sorted JSONL    |
//! | GET    | `/campaigns/<id>/metrics`   | per-class metrics JSONL        |
//! | GET    | `/campaigns/<id>/watch`     | status stream until terminal   |
//! | POST   | `/campaigns/<id>/pause`     | park the worker pool           |
//! | POST   | `/campaigns/<id>/resume`    | unpark it                      |
//! | POST   | `/campaigns/<id>/stop`      | drain workers, keep state      |
//! | POST   | `/shutdown`                 | stop campaigns, exit the loop  |

use crate::http::{read_request, refuse, respond, start_stream, Request};
use fl_apps::AppKind;
use fl_inject::json::{parse, Json};
use fl_inject::{
    record_line, run_spec_memo, sort_records_jsonl, CampaignSpec, ContextMemo, EngineControl,
    EngineProgress, EngineSink, Report, SpecOutcome, TrialOutput,
};
use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Connection handler threads. The accept loop hands each connection to
/// a free one; when every handler is busy — each `watch` stream holds
/// one until its campaign ends — it answers 503 itself rather than queue
/// the request behind them. The handlers live as long as the server, so
/// the daemon's thread count is fixed however many clients connect.
pub const HANDLERS: usize = 4;

/// The campaign id for a spec: FNV-1a 64 of its canonical JSON. Equal
/// specs hash to equal ids, which is what makes submit idempotent and
/// restart-resume find its state directory again.
pub fn campaign_id(canonical_spec_json: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in canonical_spec_json.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("c{h:016x}")
}

/// Where a campaign is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Running,
    Paused,
    /// Stop requested; workers are draining.
    Stopping,
    /// Drained before completion — resumable by resubmit or restart.
    Stopped,
    Done,
    Failed,
}

impl Status {
    fn name(self) -> &'static str {
        match self {
            Status::Running => "running",
            Status::Paused => "paused",
            Status::Stopping => "stopping",
            Status::Stopped => "stopped",
            Status::Done => "done",
            Status::Failed => "failed",
        }
    }

    fn terminal(self) -> bool {
        matches!(self, Status::Stopped | Status::Done | Status::Failed)
    }
}

struct CampState {
    status: Status,
    progress: EngineProgress,
}

struct Campaign {
    id: String,
    spec: CampaignSpec,
    dir: PathBuf,
    control: EngineControl,
    state: Mutex<CampState>,
}

impl Campaign {
    fn new(id: String, spec: CampaignSpec, dir: PathBuf) -> Campaign {
        // Known before the engine starts.
        let progress = EngineProgress {
            total: spec.slot_plan().total(),
            ..EngineProgress::default()
        };
        Campaign {
            id,
            spec,
            dir,
            control: EngineControl::new(),
            state: Mutex::new(CampState {
                status: Status::Running,
                progress,
            }),
        }
    }

    fn set_status(&self, s: Status) {
        self.state.lock().unwrap().status = s;
    }

    fn status_json(&self) -> String {
        let st = self.state.lock().unwrap();
        self.status_json_locked(&st)
    }

    fn status_json_locked(&self, st: &CampState) -> String {
        format!(
            "{{\"id\":\"{}\",\"app\":\"{}\",\"mode\":\"{}\",\"status\":\"{}\",\"total\":{},\"done\":{},\"resumed\":{},\"wall_nanos\":{}}}",
            self.id,
            self.spec.app.name(),
            self.spec.mode.name(),
            st.status.name(),
            st.progress.total,
            st.progress.done,
            st.progress.resumed,
            st.progress.wall_nanos,
        )
    }
}

/// The engine sink that makes campaigns durable: every record line is
/// appended and flushed the moment its trial completes, and progress
/// events land in the registry entry the status endpoints read.
struct FileSink {
    app: AppKind,
    file: Mutex<fs::File>,
    camp: Arc<Campaign>,
}

impl EngineSink for FileSink {
    fn trial(&self, t: &TrialOutput) {
        let mut f = self.file.lock().unwrap();
        let _ = writeln!(f, "{}", record_line(self.app, t));
        let _ = f.flush();
    }

    fn progress(&self, p: EngineProgress) {
        let mut st = self.camp.state.lock().unwrap();
        // Completion-order events can arrive slightly out of order
        // across workers; keep the counter monotonic.
        if p.done >= st.progress.done {
            st.progress = p;
        }
    }
}

/// How to run the service.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Campaign state root (created if missing).
    pub state_dir: PathBuf,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: PathBuf::from(".faultlab-serve"),
        }
    }
}

struct Inner {
    addr: Mutex<Option<SocketAddr>>,
    state_dir: PathBuf,
    campaigns: Mutex<BTreeMap<String, Arc<Campaign>>>,
    /// Campaign run threads not yet joined: the running ones, and those
    /// finished since the last launch.
    runs: Mutex<Vec<JoinHandle<()>>>,
    /// The last plain campaign's trial context, for the next one.
    memo: ContextMemo,
    shutdown: AtomicBool,
}

/// Connections on their way from the accept loop to the handlers.
struct Handoff {
    state: Mutex<HandoffState>,
    cv: Condvar,
}

struct HandoffState {
    /// Handed over, not yet picked up.
    waiting: VecDeque<TcpStream>,
    /// Handlers not serving a connection. A handler counts as free from
    /// the moment it is spawned and again before it closes the
    /// connection it served, so a client that waits for each reply
    /// before it connects again always finds one.
    free: usize,
    /// The accept loop has exited: handlers finish what is waiting and
    /// return.
    closed: bool,
}

impl Handoff {
    fn new(handlers: usize) -> Handoff {
        Handoff {
            state: Mutex::new(HandoffState {
                waiting: VecDeque::new(),
                free: handlers,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HandoffState> {
        self.state
            .lock()
            .expect("no handler panics while holding the handoff lock")
    }

    /// Give `stream` to a free handler; hand it back when none is free.
    fn offer(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut st = self.lock();
        if st.free <= st.waiting.len() {
            return Err(stream);
        }
        st.waiting.push_back(stream);
        self.cv.notify_one();
        Ok(())
    }

    /// The next connection to serve, waiting for it; `None` once the
    /// handoff is closed and drained.
    fn next(&self) -> Option<TcpStream> {
        let mut st = self.lock();
        loop {
            if let Some(stream) = st.waiting.pop_front() {
                st.free -= 1;
                return Some(stream);
            }
            if st.closed {
                return None;
            }
            st = self
                .cv
                .wait(st)
                .expect("no handler panics while holding the handoff lock");
        }
    }

    /// A handler has answered its connection and is free again.
    fn served(&self) {
        self.lock().free += 1;
    }

    fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }
}

/// A running campaign service. Dropping the handle does *not* stop the
/// daemon; call [`Server::shutdown`] (tests) or let [`Server::join`]
/// block until a `POST /shutdown` arrives (the CLI verb).
pub struct Server {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    handoff: Arc<Handoff>,
    handlers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, auto-resume unfinished campaigns in the state dir, and
    /// start accepting connections.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        fs::create_dir_all(&cfg.state_dir)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            addr: Mutex::new(Some(addr)),
            state_dir: cfg.state_dir,
            campaigns: Mutex::new(BTreeMap::new()),
            runs: Mutex::new(Vec::new()),
            memo: ContextMemo::default(),
            shutdown: AtomicBool::new(false),
        });
        load_state_dir(&inner);
        let handoff = Arc::new(Handoff::new(HANDLERS));
        let handlers = (0..HANDLERS)
            .map(|_| {
                let (inner, handoff) = (inner.clone(), handoff.clone());
                std::thread::spawn(move || {
                    while let Some(mut stream) = handoff.next() {
                        // A panicking route must not cost the server a
                        // handler; the client sees its connection close.
                        let serve = std::panic::AssertUnwindSafe(|| handle(&inner, &mut stream));
                        let _ = std::panic::catch_unwind(serve);
                        handoff.served();
                        drop(stream);
                    }
                })
            })
            .collect();
        let (inner2, handoff2) = (inner.clone(), handoff.clone());
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if inner2.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if let Err(mut stream) = handoff2.offer(stream) {
                    let _ = refuse(&mut stream, 503, "every connection handler is busy");
                }
            }
        });
        Ok(Server {
            addr,
            inner,
            accept: Some(accept),
            handoff,
            handlers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the accept loop exits (a `POST /shutdown` arrived),
    /// then join the connection handlers and drain campaign threads.
    pub fn join(self) {
        self.wind_down();
    }

    /// Stop every campaign, close the socket loop, and wait for the
    /// connection handlers to finish their requests and all run threads
    /// to drain their in-flight trials. A handler still reading a
    /// request finishes within the read timeout.
    pub fn shutdown(self) {
        trigger_shutdown(&self.inner);
        self.wind_down();
    }

    fn wind_down(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.handoff.close();
        for h in self.handlers.drain(..) {
            let _ = h.join();
        }
        let handles: Vec<_> = self.inner.runs.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Flag the accept loop down, stop all live campaigns, and poke the
/// listener awake with a throwaway connection.
fn trigger_shutdown(inner: &Inner) {
    inner.shutdown.store(true, Ordering::SeqCst);
    for camp in inner.campaigns.lock().unwrap().values() {
        let st = camp.state.lock().unwrap().status;
        if !st.terminal() {
            camp.control.stop();
        }
    }
    if let Some(addr) = *inner.addr.lock().unwrap() {
        let _ = TcpStream::connect(addr);
    }
}

/// Register every campaign directory found under the state dir;
/// relaunch the unfinished ones (the auto-resume path).
fn load_state_dir(inner: &Arc<Inner>) {
    let Ok(entries) = fs::read_dir(&inner.state_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        let Ok(text) = fs::read_to_string(dir.join("spec.json")) else {
            continue;
        };
        let Ok(spec) = CampaignSpec::from_json(text.trim()) else {
            continue;
        };
        let Some(id) = dir.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        let camp = Arc::new(Campaign::new(id.clone(), spec, dir.clone()));
        if dir.join("done.json").is_file() {
            let mut st = camp.state.lock().unwrap();
            st.status = Status::Done;
            st.progress = read_done_marker(&dir).unwrap_or(EngineProgress {
                total: st.progress.total,
                done: st.progress.total,
                ..EngineProgress::default()
            });
            drop(st);
            inner.campaigns.lock().unwrap().insert(id, camp);
        } else {
            inner.campaigns.lock().unwrap().insert(id, camp.clone());
            launch(inner, camp);
        }
    }
}

fn read_done_marker(dir: &std::path::Path) -> Option<EngineProgress> {
    let text = fs::read_to_string(dir.join("done.json")).ok()?;
    let v = parse(text.trim()).ok()?;
    Some(EngineProgress {
        total: v.get("total").and_then(Json::as_u64)?,
        done: v.get("done").and_then(Json::as_u64)?,
        resumed: v.get("resumed").and_then(Json::as_u64).unwrap_or(0),
        wall_nanos: v.get("wall_nanos").and_then(Json::as_u64).unwrap_or(0),
    })
}

/// Spawn the campaign's run thread and track its handle, joining the
/// run threads that have finished since the last launch: an unjoined
/// thread keeps its stack.
fn launch(inner: &Arc<Inner>, camp: Arc<Campaign>) {
    let mut runs = inner.runs.lock().unwrap();
    let (finished, running) = std::mem::take(&mut *runs)
        .into_iter()
        .partition::<Vec<_>, _>(|h| h.is_finished());
    *runs = running;
    for h in finished {
        let _ = h.join();
    }
    let inner = inner.clone();
    runs.push(std::thread::spawn(move || run_campaign(&inner, &camp)));
}

/// One campaign's whole life on a dedicated thread: load resume state,
/// run the engine with the durable sink, commit the outcome.
fn run_campaign(inner: &Inner, camp: &Arc<Campaign>) {
    let records = camp.dir.join("records.jsonl");
    let plan = camp.spec.slot_plan();
    let mut resume = None;
    if !plan.streams() {
        // Guard/ft campaigns have no per-trial resume stream; their
        // records are written whole at completion. Re-run from scratch.
        let _ = fs::remove_file(&records);
    } else if let Ok(text) = fs::read_to_string(&records) {
        // Sanitize before appending: a kill mid-write leaves a torn
        // tail with no trailing newline, and appending fresh lines
        // onto it would corrupt the first new record. Rewrite the
        // file to exactly the lines the engine will adopt.
        let (slots, kept, _skipped) = plan.adopt(&text);
        if kept != text && fs::write(&records, &kept).is_err() {
            camp.set_status(Status::Failed);
            return;
        }
        if !slots.is_empty() {
            resume = Some(slots);
        }
    }

    let file = match fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&records)
    {
        Ok(f) => f,
        Err(_) => {
            camp.set_status(Status::Failed);
            return;
        }
    };
    let sink = FileSink {
        app: camp.spec.app,
        file: Mutex::new(file),
        camp: camp.clone(),
    };

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_spec_memo(&camp.spec, &sink, &camp.control, resume, &inner.memo)
    }));
    match outcome {
        Err(_) => camp.set_status(Status::Failed),
        Ok(None) => camp.set_status(Status::Stopped),
        Ok(Some(outcome)) => {
            match outcome {
                SpecOutcome::Campaign(r) => {
                    if let Some(m) = &r.metrics {
                        let _ =
                            fs::write(camp.dir.join("metrics.jsonl"), m.to_jsonl(camp.spec.app));
                    }
                }
                SpecOutcome::Matrix(r) => {
                    // Streamed per-trial records stay in place (they are
                    // the resume state) and the per-cell summary lands
                    // next to them; a mode that streams none has its
                    // per-draw rows written whole, now.
                    let view = if plan.streams() {
                        camp.dir.join("matrix.jsonl")
                    } else {
                        records
                    };
                    let _ = fs::write(view, r.jsonl());
                    if let Some(m) = r.metrics() {
                        let _ =
                            fs::write(camp.dir.join("metrics.jsonl"), m.to_jsonl(camp.spec.app));
                    }
                }
            }
            // The done marker is the commit point: it is written last,
            // so a kill before this line leaves a resumable campaign.
            let p = camp.state.lock().unwrap().progress;
            let _ = fs::write(
                camp.dir.join("done.json"),
                format!(
                    "{{\"total\":{},\"done\":{},\"resumed\":{},\"wall_nanos\":{}}}\n",
                    p.total, p.done, p.resumed, p.wall_nanos
                ),
            );
            camp.set_status(Status::Done);
        }
    }
}

fn handle(inner: &Arc<Inner>, stream: &mut TcpStream) {
    let req = match read_request(stream) {
        Ok(req) => req,
        Err(e) => {
            if let Some((status, msg)) = e.reply() {
                let _ = refuse(stream, status, msg);
            }
            return;
        }
    };
    match route(inner, &req, stream) {
        Ok(Some((status, content_type, body))) => {
            let _ = respond(stream, status, content_type, &body);
        }
        Ok(None) => {} // streamed
        Err((status, msg)) => {
            let _ = respond(stream, status, "text/plain", &msg);
        }
    }
}

type Reply = Option<(u16, &'static str, String)>;
type RouteError = (u16, String);

const JSON: &str = "application/json";
const JSONL: &str = "application/jsonl";

fn route(inner: &Arc<Inner>, req: &Request, stream: &mut TcpStream) -> Result<Reply, RouteError> {
    let path = req.path.split('?').next().unwrap_or("");
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => Ok(Some((200, JSON, "{\"ok\":true}".into()))),
        ("POST", ["shutdown"]) => {
            trigger_shutdown(inner);
            Ok(Some((200, JSON, "{\"shutting_down\":true}".into())))
        }
        ("POST", ["campaigns"]) => submit(inner, &req.body).map(Some),
        ("GET", ["campaigns"]) => {
            let reg = inner.campaigns.lock().unwrap();
            let items: Vec<String> = reg.values().map(|c| c.status_json()).collect();
            Ok(Some((200, JSON, format!("[{}]", items.join(",")))))
        }
        ("GET", ["campaigns", id]) => Ok(Some((200, JSON, get(inner, id)?.status_json()))),
        ("GET", ["campaigns", id, "records"]) => {
            let camp = get(inner, id)?;
            let text = fs::read_to_string(camp.dir.join("records.jsonl"))
                .map_err(|_| (404, format!("campaign {id} has no records yet")))?;
            let body = if camp.spec.slot_plan().streams() {
                sort_records_jsonl(&text)
            } else {
                text
            };
            Ok(Some((200, JSONL, body)))
        }
        ("GET", ["campaigns", id, "metrics"]) => {
            let camp = get(inner, id)?;
            let text = fs::read_to_string(camp.dir.join("metrics.jsonl"))
                .map_err(|_| (404, format!("campaign {id} has no metrics")))?;
            Ok(Some((200, JSONL, text)))
        }
        ("GET", ["campaigns", id, "watch"]) => {
            let camp = get(inner, id)?;
            watch_stream(inner, &camp, stream);
            Ok(None)
        }
        ("POST", ["campaigns", id, action @ ("pause" | "resume" | "stop")]) => {
            let camp = get(inner, id)?;
            let mut st = camp.state.lock().unwrap();
            match (*action, st.status) {
                ("pause", Status::Running) => {
                    camp.control.pause();
                    st.status = Status::Paused;
                }
                ("resume", Status::Paused) => {
                    camp.control.resume();
                    st.status = Status::Running;
                }
                ("stop", Status::Running | Status::Paused) => {
                    camp.control.stop();
                    st.status = Status::Stopping;
                }
                _ => {} // no-op on any other state
            }
            drop(st);
            Ok(Some((200, JSON, camp.status_json())))
        }
        _ => Err((404, format!("no route for {} {}", req.method, req.path))),
    }
}

fn get(inner: &Inner, id: &str) -> Result<Arc<Campaign>, RouteError> {
    inner
        .campaigns
        .lock()
        .unwrap()
        .get(id)
        .cloned()
        .ok_or_else(|| (404, format!("no campaign {id}")))
}

/// Submit a spec. Idempotent on the canonical spec: a running or done
/// campaign just reports its status; a stopped one is relaunched and
/// resumes from its records.
fn submit(inner: &Arc<Inner>, body: &str) -> Result<(u16, &'static str, String), RouteError> {
    let spec = CampaignSpec::from_json(body).map_err(|e| (400, e))?;
    let canonical = spec.to_json();
    let id = campaign_id(&canonical);
    let mut reg = inner.campaigns.lock().unwrap();
    if let Some(camp) = reg.get(&id) {
        let camp = camp.clone();
        let st = camp.state.lock().unwrap().status;
        if matches!(st, Status::Stopped | Status::Failed) {
            camp.control.resume();
            camp.set_status(Status::Running);
            launch(inner, camp.clone());
        }
        return Ok((200, JSON, camp.status_json()));
    }
    let dir = inner.state_dir.join(&id);
    fs::create_dir_all(&dir).map_err(|e| (500, format!("cannot create {}: {e}", dir.display())))?;
    fs::write(dir.join("spec.json"), format!("{canonical}\n"))
        .map_err(|e| (500, format!("cannot persist spec: {e}")))?;
    let camp = Arc::new(Campaign::new(id.clone(), spec, dir));
    reg.insert(id, camp.clone());
    drop(reg);
    launch(inner, camp.clone());
    Ok((200, JSON, camp.status_json()))
}

/// Stream status lines until the campaign reaches a terminal state (or
/// the client hangs up, or the server shuts down).
fn watch_stream(inner: &Inner, camp: &Campaign, stream: &mut TcpStream) {
    if start_stream(stream, JSONL).is_err() {
        return;
    }
    loop {
        let (line, terminal) = {
            let st = camp.state.lock().unwrap();
            (camp.status_json_locked(&st), st.status.terminal())
        };
        if writeln!(stream, "{line}").is_err() || stream.flush().is_err() {
            return;
        }
        if terminal || inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_ids_are_stable_and_spec_keyed() {
        let a = CampaignSpec::new(AppKind::Wavetoy).to_json();
        let mut other = CampaignSpec::new(AppKind::Wavetoy);
        other.campaign.seed = 7;
        assert_eq!(campaign_id(&a), campaign_id(&a));
        assert_ne!(campaign_id(&a), campaign_id(&other.to_json()));
        assert!(campaign_id(&a).starts_with('c'));
        assert_eq!(campaign_id(&a).len(), 17);
    }

    #[test]
    fn a_handler_is_free_from_its_start_and_again_before_it_closes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let conn = || TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let handoff = Handoff::new(1);
        // The handler has not asked for work yet; it is free all the same.
        assert!(handoff.offer(conn()).is_ok());
        assert!(
            handoff.offer(conn()).is_err(),
            "one handler, one connection"
        );
        let answered = handoff.next().expect("the waiting connection");
        assert!(handoff.offer(conn()).is_err(), "the handler is busy");
        handoff.served();
        assert!(handoff.offer(conn()).is_ok(), "free before it closes");
        drop(answered);
        handoff.close();
        assert!(handoff.next().is_some(), "what is waiting is still served");
        assert!(handoff.next().is_none());
    }

    #[test]
    fn finished_run_threads_are_joined_at_the_next_launch() {
        let state_dir = std::env::temp_dir().join(format!("fl-serve-reap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&state_dir);
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: state_dir.clone(),
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let runs = || server.inner.runs.lock().unwrap();
        for seed in 0..4 {
            let mut spec = CampaignSpec::new(AppKind::Wavetoy);
            spec.tiny = true;
            spec.classes = vec![fl_inject::TargetClass::RegularReg];
            spec.campaign.injections = 1;
            spec.campaign.seed = seed;
            let id = crate::client::submit(&addr, &spec.to_json()).unwrap();
            // The campaign just launched is the only one held.
            assert_eq!(runs().len(), 1, "campaign {seed}");
            crate::client::wait_done(&addr, &id, Duration::from_secs(300)).unwrap();
            // Its thread ends right after it commits.
            while !runs().iter().all(JoinHandle::is_finished) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        server.shutdown();
        let _ = fs::remove_dir_all(&state_dir);
    }

    #[test]
    fn planned_totals_cover_every_mode() {
        use fl_inject::SpecMode;
        let mut spec = CampaignSpec::new(AppKind::Wavetoy);
        spec.campaign.injections = 10;
        let planned = |spec: &CampaignSpec| {
            let camp = Campaign::new("c0".into(), spec.clone(), PathBuf::new());
            camp.state.into_inner().unwrap().progress.total
        };
        assert_eq!(planned(&spec), 80); // 8 classes x 10
        spec.mode = SpecMode::Ft(fl_inject::FtPolicy::default());
        assert_eq!(planned(&spec), 20); // kills + replicas
        spec.mode = SpecMode::Perturb(fl_inject::PerturbPolicy::default());
        assert_eq!(planned(&spec), 150); // 5 models x 3 detections x 10
    }
}
