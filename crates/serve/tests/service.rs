//! End-to-end tests of the campaign service over a real socket.
//!
//! The centrepiece is the resume invariant: a server killed mid-run
//! (simulated by a state directory holding a prefix of the record
//! stream plus a torn tail) and restarted must finish the campaign with
//! a canonical record stream and metrics **bit-identical** to an
//! uninterrupted run's.

use fl_inject::{
    run_spec, sort_records_jsonl, CampaignSpec, EngineControl, NullSink, Report, SpecOutcome,
    TargetClass, VecSink,
};
use fl_serve::{campaign_id, client, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(300);

fn fresh_state_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fl-serve-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(tag: &str) -> (Server, String, PathBuf) {
    let state_dir = fresh_state_dir(tag);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.clone(),
    })
    .expect("server binds");
    let addr = server.local_addr().to_string();
    (server, addr, state_dir)
}

/// A small observed campaign spec used throughout.
fn tiny_spec(seed: u64, injections: u32) -> CampaignSpec {
    let mut spec = CampaignSpec::new(fl_apps::AppKind::Wavetoy);
    spec.tiny = true;
    spec.classes = vec![TargetClass::RegularReg, TargetClass::Message];
    spec.campaign.injections = injections;
    spec.campaign.seed = seed;
    spec.campaign.threads = 2;
    spec.campaign.obs_capacity = 128;
    spec
}

/// Run the spec in-process and return (canonical records, metrics).
fn reference(spec: &CampaignSpec) -> (String, String) {
    let sink = VecSink::new(spec.app);
    let outcome = run_spec(spec, &sink, &EngineControl::new(), None).expect("reference completes");
    let SpecOutcome::Campaign(result) = outcome else {
        panic!("expected a campaign outcome");
    };
    let metrics = result
        .metrics
        .as_ref()
        .expect("observed campaign has metrics")
        .to_jsonl(spec.app);
    (sort_records_jsonl(&sink.into_lines().join("\n")), metrics)
}

#[test]
fn submit_runs_sharded_and_streams_canonical_records() {
    let (server, addr, _dir) = start("submit");
    let (code, body) = client::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!((code, body.as_str()), (200, "{\"ok\":true}"));

    let spec = tiny_spec(0x51, 5);
    let id = client::submit(&addr, &spec.to_json()).unwrap();
    assert_eq!(id, campaign_id(&spec.to_json()));

    let final_status = client::wait_done(&addr, &id, WAIT).unwrap();
    assert!(final_status.contains("\"done\":10"), "{final_status}");

    let (want_records, want_metrics) = reference(&spec);
    assert_eq!(client::records(&addr, &id).unwrap(), want_records);
    let (code, metrics) =
        client::request(&addr, "GET", &format!("/campaigns/{id}/metrics"), None).unwrap();
    assert_eq!(code, 200);
    assert_eq!(metrics, want_metrics);

    // Resubmitting the identical spec is idempotent: same id, done.
    let again = client::submit(&addr, &spec.to_json()).unwrap();
    assert_eq!(again, id);
    assert_eq!(
        client::status_field(&client::status(&addr, &id).unwrap()),
        "done"
    );

    // The watch stream of a finished campaign yields a terminal line.
    let mut lines = Vec::new();
    client::watch(&addr, &id, |l| lines.push(l.to_string())).unwrap();
    assert!(!lines.is_empty());
    assert!(lines.last().unwrap().contains("\"status\":\"done\""));

    server.shutdown();
}

#[test]
fn killed_server_resumes_bit_identically_on_restart() {
    let spec = tiny_spec(0x5EED, 6);
    let canonical_spec = spec.to_json();
    let id = campaign_id(&canonical_spec);
    let (want_records, want_metrics) = reference(&spec);
    let all_lines: Vec<&str> = want_records.lines().collect();

    // Simulate a server killed mid-campaign: its state dir holds the
    // spec, a prefix of the streamed records, and a torn tail line cut
    // off by the kill.
    let adopted = 7usize;
    assert!(adopted < all_lines.len());
    let state_dir = fresh_state_dir("resume");
    let camp_dir = state_dir.join(&id);
    std::fs::create_dir_all(&camp_dir).unwrap();
    std::fs::write(camp_dir.join("spec.json"), format!("{canonical_spec}\n")).unwrap();
    let mut partial = all_lines[..adopted].join("\n");
    partial.push_str("\n{\"app\":\"wavetoy\",\"class\":\"regu");
    std::fs::write(camp_dir.join("records.jsonl"), partial).unwrap();

    // A fresh server on that state dir must auto-resume and finish.
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir,
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let final_status = client::wait_done(&addr, &id, WAIT).unwrap();
    assert!(
        final_status.contains(&format!("\"resumed\":{adopted}")),
        "adopted trials must be counted, not re-run: {final_status}"
    );

    // Bit-identical to the uninterrupted run: records and metrics.
    assert_eq!(client::records(&addr, &id).unwrap(), want_records);
    let (_, metrics) =
        client::request(&addr, "GET", &format!("/campaigns/{id}/metrics"), None).unwrap();
    assert_eq!(metrics, want_metrics);
    server.shutdown();
}

#[test]
fn mangled_perturb_record_is_rerun_not_adopted_as_zero_slowdown() {
    // A perturb trial's slowdown lives in the tail of its record detail.
    // A state dir whose records are all there, but one of which lost that
    // tail, must re-run that one slot — adopting it would fold a slowdown
    // of 0 into the cell means with no signal.
    let mut spec = tiny_spec(0x601D, 2);
    spec.campaign.obs_capacity = 0;
    spec.mode = fl_inject::SpecMode::Perturb(fl_inject::PerturbPolicy::default());
    let sink = VecSink::new(spec.app);
    let Some(SpecOutcome::Matrix(want)) = run_spec(&spec, &sink, &EngineControl::new(), None)
    else {
        panic!("expected a matrix outcome");
    };
    let want_records = sort_records_jsonl(&sink.into_lines().join("\n"));
    let victim = want_records
        .lines()
        .find(|l| l.contains("\"outcome\":\"degraded\""))
        .expect("a taxed trial finishes degraded");
    let tail = "\u{2030} of clean]";
    let (start, end) = (victim.rfind(" [").unwrap(), victim.rfind(tail).unwrap());
    let cut = format!("{}{}", &victim[..start], &victim[end + tail.len()..]);
    let mangled = want_records.replace(victim, &cut);
    assert_eq!(mangled.lines().count(), want_records.lines().count());
    assert_ne!(mangled, want_records);

    let canonical_spec = spec.to_json();
    let id = campaign_id(&canonical_spec);
    let state_dir = fresh_state_dir("mangled");
    let camp_dir = state_dir.join(&id);
    std::fs::create_dir_all(&camp_dir).unwrap();
    std::fs::write(camp_dir.join("spec.json"), format!("{canonical_spec}\n")).unwrap();
    std::fs::write(camp_dir.join("records.jsonl"), mangled).unwrap();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir,
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let final_status = client::wait_done(&addr, &id, WAIT).unwrap();
    let total = spec.slot_plan().total();
    assert!(
        final_status.contains(&format!("\"resumed\":{}", total - 1)),
        "all but the mangled record are adopted: {final_status}"
    );

    assert_eq!(client::records(&addr, &id).unwrap(), want_records);
    let matrix = std::fs::read_to_string(camp_dir.join("matrix.jsonl")).unwrap();
    assert_eq!(matrix, want.jsonl());
    let (_, metrics) =
        client::request(&addr, "GET", &format!("/campaigns/{id}/metrics"), None).unwrap();
    assert_eq!(metrics, want.metrics().unwrap().to_jsonl(spec.app));
    server.shutdown();
}

#[test]
fn pause_stop_and_resubmit_preserve_the_stream() {
    let (server, addr, state_dir) = start("ctl");
    let spec = tiny_spec(0xC7A1, 24);
    let (want_records, _) = reference(&spec);

    let id = client::submit(&addr, &spec.to_json()).unwrap();
    // Pause, let in-flight trials drain, and check the counter froze.
    client::control(&addr, &id, "pause").unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let frozen = client::status(&addr, &id).unwrap();
    if client::status_field(&frozen) == "paused" {
        std::thread::sleep(Duration::from_millis(200));
        let later = client::status(&addr, &id).unwrap();
        assert_eq!(frozen, later, "paused campaigns must not advance");
    }
    client::control(&addr, &id, "resume").unwrap();

    // Stop, then resubmit the same spec: the relaunch resumes from the
    // streamed records and the final stream is still canonical.
    client::control(&addr, &id, "stop").unwrap();
    client::wait_terminal(&addr, &id, WAIT).unwrap();
    client::submit(&addr, &spec.to_json()).unwrap();
    client::wait_done(&addr, &id, WAIT).unwrap();
    assert_eq!(client::records(&addr, &id).unwrap(), want_records);

    // Shut down and restart on the same state dir: the finished
    // campaign is listed as done and still serves its records.
    server.shutdown();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir,
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    assert_eq!(
        client::status_field(&client::status(&addr, &id).unwrap()),
        "done"
    );
    assert_eq!(client::records(&addr, &id).unwrap(), want_records);
    server.shutdown();
}

#[test]
fn guard_and_ft_specs_run_to_completion() {
    let (server, addr, _dir) = start("modes");
    let mut spec = tiny_spec(0x6A, 3);
    spec.classes = vec![TargetClass::Message];
    spec.mode = fl_inject::SpecMode::Guard(fl_inject::GuardPolicy {
        checkpoint_rounds: 8,
        ..fl_inject::GuardPolicy::default()
    });
    let gid = client::submit(&addr, &spec.to_json()).unwrap();

    let mut ft = tiny_spec(0x6B, 2);
    ft.mode = fl_inject::SpecMode::Ft(fl_inject::FtPolicy::default());
    let fid = client::submit(&addr, &ft.to_json()).unwrap();

    let mut chaos = tiny_spec(0x6C, 1);
    chaos.mode = fl_inject::SpecMode::Chaos(fl_inject::ChaosPolicy::default());
    let cid = client::submit(&addr, &chaos.to_json()).unwrap();

    client::wait_done(&addr, &gid, WAIT).unwrap();
    client::wait_done(&addr, &fid, WAIT).unwrap();
    client::wait_done(&addr, &cid, WAIT).unwrap();
    let grecords = client::records(&addr, &gid).unwrap();
    assert!(grecords.lines().count() >= 3, "coverage records present");
    let frecords = client::records(&addr, &fid).unwrap();
    assert!(
        frecords.lines().count() >= 4,
        "kill + replica records present"
    );
    let crecords = client::records(&addr, &cid).unwrap();
    assert_eq!(
        crecords.lines().count() as u64,
        chaos.slot_plan().total(),
        "one streamed record per model x defense cell"
    );

    // Bad input is rejected, not crashed on.
    let (code, _) =
        client::request(&addr, "POST", "/campaigns", Some("{\"app\":\"nope\"}")).unwrap();
    assert_eq!(code, 400);
    let (code, _) = client::request(&addr, "GET", "/campaigns/cdeadbeef", None).unwrap();
    assert_eq!(code, 404);
    server.shutdown();
}

#[test]
fn null_sink_runs_match_served_runs() {
    // Sanity for the reference helper itself: NullSink and VecSink see
    // the same campaign.
    let spec = tiny_spec(0x51, 5);
    let a = run_spec(&spec, &NullSink, &EngineControl::new(), None).unwrap();
    let b = run_spec(&spec, &NullSink, &EngineControl::new(), None).unwrap();
    let (SpecOutcome::Campaign(a), SpecOutcome::Campaign(b)) = (a, b) else {
        panic!("expected campaign outcomes");
    };
    assert_eq!(a.insns_total, b.insns_total);
    assert_eq!(a.metrics, b.metrics);
}

#[test]
fn hostile_requests_get_a_status_and_register_nothing() {
    use std::io::{Read, Write};
    let (server, addr, _dir) = start("hostile");
    let status_of = |raw: &[u8]| {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream.write_all(raw).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        fl_serve::http::parse_response(&reply).expect(&reply).0
    };
    // A valid spec behind a body length the daemon will not buffer, and
    // behind one it cannot read: refused whole, not truncated or emptied.
    let spec = tiny_spec(0x40571, 1).to_json();
    let oversize = format!("POST /campaigns HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n{spec}");
    assert_eq!(status_of(oversize.as_bytes()), 413);
    let garbage = format!("POST /campaigns HTTP/1.1\r\nContent-Length: lots\r\n\r\n{spec}");
    assert_eq!(status_of(garbage.as_bytes()), 400);
    let mut endless = b"POST /campaigns?".to_vec();
    endless.resize(9000, b'x');
    assert_eq!(status_of(&endless), 413);
    // A body nested past what a handler thread's stack could recurse
    // through is refused, and the daemon keeps answering.
    let deep = "[".repeat(200_000);
    let nested = format!("POST /campaigns HTTP/1.1\r\nContent-Length: 200000\r\n\r\n{deep}");
    assert_eq!(status_of(nested.as_bytes()), 400);

    let (code, body) = client::request(&addr, "GET", "/campaigns", None).unwrap();
    assert_eq!((code, body.as_str()), (200, "[]"), "nothing reached submit");
    server.shutdown();
}

/// The memo plane of the lattice: a plain campaign served right after
/// another whose context fits its own runs on that context, and its
/// records are byte for byte those of its one-shot run. A
/// nondeterministic app's next seed is another schedule, so its pair
/// must not share a context.
#[test]
fn a_campaign_after_one_with_its_context_matches_its_one_shot_run() {
    let (server, addr, _dir) = start("memo");
    let spec = |app, seed, classes: Vec<TargetClass>, injections, threads| {
        let mut spec = CampaignSpec::new(app);
        spec.tiny = true;
        spec.classes = classes;
        spec.campaign.seed = seed;
        spec.campaign.injections = injections;
        spec.campaign.threads = threads;
        spec
    };
    let one_shot = |spec: &CampaignSpec| {
        let sink = VecSink::new(spec.app);
        run_spec(spec, &sink, &EngineControl::new(), None).expect("one-shot run completes");
        sort_records_jsonl(&sink.into_lines().join("\n"))
    };
    use fl_apps::AppKind::{Climsim, Moldyn};
    use TargetClass::{Bss, Message, RegularReg, Stack, Text};
    for app in [Climsim, Moldyn] {
        let a = spec(app, 0xA, vec![RegularReg, Message], 4, 1);
        let b = spec(app, 0xB, vec![Stack, Text, Bss], 3, 2);
        for s in [&a, &b] {
            let id = client::submit(&addr, &s.to_json()).unwrap();
            client::wait_done(&addr, &id, WAIT).unwrap();
        }
        let served = client::records(&addr, &campaign_id(&b.to_json())).unwrap();
        assert_eq!(served, one_shot(&b), "{app}");
    }
    server.shutdown();
}
