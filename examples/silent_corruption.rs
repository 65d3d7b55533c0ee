//! Silent data corruption and output-format masking (§6.2 of the paper).
//!
//! The paper found that Cactus Wavetoy's *plain-text* output (limited
//! decimal precision) hides small payload perturbations that a *binary*
//! output format would expose: "A binary output format would detect more
//! cases of incorrect output."
//!
//! This example injects the same low-order message-payload bit flip into
//! a wavetoy run and shows (a) the run completes with no error indication
//! — the most dangerous outcome class — and (b) whether the text output
//! even changes, versus the in-memory field values, which do.
//!
//! ```sh
//! cargo run --release --example silent_corruption
//! ```

use fl_apps::{App, AppKind, AppParams};
use fl_mpi::{Fault, WorldExit};

fn main() {
    let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
    let golden = app.golden(2_000_000_000);

    // Target a halo-exchange payload on rank 1. Headers are 48 bytes, so
    // aim well inside a payload region of the byte stream.
    let volume = golden.recv_bytes[1];
    println!("rank 1 receives {volume} bytes over the run");

    let mut masked = 0;
    let mut visible = 0;
    let mut not_clean = 0;
    let trials = 40;
    for k in 0..trials {
        let offset = volume * (k + 1) / (trials + 1);
        // Low-order mantissa bit of whatever f64 the offset lands in:
        // the paper's "faults in low order decimal digits" case.
        let mut w = app.world(2_000_000_000);
        w.arm(Fault::flip(1, offset, 1));
        match w.run() {
            WorldExit::Clean => {
                if app.comparable_output(&w) == golden.output {
                    masked += 1;
                } else {
                    visible += 1;
                }
            }
            _ => not_clean += 1,
        }
    }
    println!(
        "\nlow-order payload bit flips over {trials} offsets:\n\
         \x20 masked by the 4-digit text output : {masked}\n\
         \x20 visible in the text output        : {visible}\n\
         \x20 crashed/hung/detected             : {not_clean}"
    );
    println!(
        "\nEvery 'masked' run silently carried corrupted field values to\n\
         completion — the §5.1 warning: \"this is most dangerous of all\n\
         possible errors because there is little sign during the execution\n\
         that can alert the user.\""
    );

    // Now the same flip in a *high* mantissa / exponent bit: the error is
    // large enough to survive the 4-digit rounding.
    let mut w = app.world(2_000_000_000);
    w.arm(Fault::flip(1, volume / 2, 6));
    let exit = w.run();
    let out = app.comparable_output(&w);
    println!(
        "\nhigh-order flip at byte {}: exit = {:?}, output {}",
        volume / 2,
        exit,
        if out == golden.output {
            "UNCHANGED"
        } else {
            "DIFFERS"
        }
    );
}
