//! Progress-metric hang detection (§7 of the paper).
//!
//! "A considerable fraction of the induced errors lead to execution modes
//! that do not terminate. ... simple progress metrics (e.g., FLOPS,
//! messages per second or loop iterations per minute) can provide some
//! practical detection mechanisms."
//!
//! This example corrupts a message tag so a receive never matches, then
//! watches the cluster with a [`fl_inject::ProgressMonitor`]: the
//! watchdog flags the hang after a few silent windows, long before the
//! instruction-budget timeout would.
//!
//! ```sh
//! cargo run --release --example progress_watchdog
//! ```

use fl_apps::{App, AppKind, AppParams};
use fl_inject::{ProgressMonitor, ProgressSample, ProgressVerdict};
use fl_mpi::Fault;

fn main() {
    let app = App::build(AppKind::Moldyn, AppParams::tiny(AppKind::Moldyn));
    let golden = app.golden(2_000_000_000);
    let budget = golden.insns.iter().max().unwrap() * 3 + 2_000_000;

    // Corrupt byte 12 (the tag field) of an early incoming message on
    // rank 1: the message will never match its receive.
    let mut w = app.world(budget);
    w.arm(Fault::flip(1, 12, 5));

    let nranks = app.params.nranks;
    let mut monitor = ProgressMonitor::new(5);
    let mut rounds: u64 = 0;
    let verdict = loop {
        match w.run_round() {
            Some(exit) => break format!("world exited on its own: {exit:?}"),
            None => {
                rounds += 1;
                let sample = ProgressSample::take(&w, nranks);
                match monitor.observe(sample) {
                    ProgressVerdict::Progressing => {
                        if rounds.is_multiple_of(50) {
                            println!(
                                "round {rounds}: progressing ({} flops, {} MPI calls)",
                                sample.flops, sample.mpi_calls
                            );
                        }
                    }
                    ProgressVerdict::Stalled(n) => {
                        println!(
                            "round {rounds}: no FLOP/MPI progress for {n} window(s) \
                             (instructions still at {})",
                            sample.insns
                        );
                        if monitor.hung() {
                            break format!(
                                "WATCHDOG: hang detected after {rounds} rounds — the \
                                 instruction budget would have needed {budget} instructions"
                            );
                        }
                    }
                }
            }
        }
    };
    println!("\n{verdict}");
    println!(
        "\nThe paper's rule: \"If the application's performance drops below a\n\
         user-defined threshold, it is very likely that the code is in a\n\
         non-terminating mode.\""
    );
}
