//! A daemon whose connection handlers are all busy answers at once
//! instead of hanging, and a daemon that shuts down leaves no thread
//! behind. The only test in its binary, so that the process's thread
//! count is the daemon's alone.

use fl_serve::{client, ServeConfig, Server, HANDLERS};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The daemon's read timeout: how long a connection that sends nothing
/// holds its handler.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

/// Poll `done` until it holds or `within` passes.
fn eventually(within: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + within;
    while !done() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

#[test]
fn a_saturated_daemon_refuses_then_recovers_and_leaves_no_thread() {
    let before = threads();
    let state_dir =
        std::env::temp_dir().join(format!("fl-serve-saturation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.clone(),
    })
    .expect("server binds");
    let addr = server.local_addr().to_string();

    // Connections are accepted in order, so these reach the handlers
    // before the probe does, and each holds one by sending nothing.
    let held: Vec<TcpStream> = (0..HANDLERS)
        .map(|_| TcpStream::connect(&addr).unwrap())
        .collect();
    let asked = Instant::now();
    let (code, _) = client::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(code, 503);
    assert!(asked.elapsed() < READ_TIMEOUT, "{:?}", asked.elapsed());

    drop(held);
    let healthy = || client::request(&addr, "GET", "/healthz", None).unwrap().0 == 200;
    assert!(
        eventually(READ_TIMEOUT, healthy),
        "handlers never came back"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);
    // A joined thread can linger in the task list for a moment.
    assert!(
        eventually(Duration::from_secs(5), || threads() == before),
        "{} threads before the daemon, {} after",
        before,
        threads()
    );
}
