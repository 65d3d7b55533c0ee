//! Progress-metric hang detection (§7 of the paper).
//!
//! "A considerable fraction of the induced errors lead to execution modes
//! that do not terminate. ... simple progress metrics (e.g., FLOPS,
//! messages per second or loop iterations per minute) can provide some
//! practical detection mechanisms."
//!
//! This example corrupts a message tag so a receive never matches, then
//! watches the cluster with an [`fl_guard::Watchdog`] sampled every
//! scheduler round: the watchdog flags the hang after a few windows
//! without FLOP or MPI progress, long before the instruction-budget
//! timeout would.
//!
//! ```sh
//! cargo run --release --example progress_watchdog
//! ```

use fl_apps::{App, AppKind, AppParams};
use fl_guard::Watchdog;
use fl_mpi::Fault;

fn main() {
    let app = App::build(AppKind::Moldyn, AppParams::tiny(AppKind::Moldyn));
    let golden = app.golden(2_000_000_000);
    let budget = golden.insns.iter().max().unwrap() * 3 + 2_000_000;

    // Corrupt byte 12 (the tag field) of an early incoming message on
    // rank 1: the message will never match its receive.
    let mut w = app.world(budget);
    w.arm(Fault::flip(1, 12, 5));

    let mut dog = Watchdog::new(3);
    dog.prime(&w);
    let verdict = loop {
        if let Some(exit) = w.run_round() {
            break format!("world exited on its own: {exit:?}");
        }
        if let Some(trip) = dog.observe(&w) {
            break format!(
                "WATCHDOG: no FLOP/MPI progress for {} rounds (blame rank {}, \
                 {} blocks retired) — the instruction budget would have needed \
                 {budget} instructions",
                trip.windows, trip.victim, trip.blocks
            );
        }
    };
    println!("\n{verdict}");
    println!(
        "\nThe paper's rule: \"If the application's performance drops below a\n\
         user-defined threshold, it is very likely that the code is in a\n\
         non-terminating mode.\""
    );
}
