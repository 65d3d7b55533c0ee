//! Quickstart: build an application, run a small fault-injection
//! campaign, and print a paper-style results table.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fl_apps::{App, AppKind, AppParams};
use fl_inject::{
    run_spec, CampaignSpec, EngineControl, NullSink, Report, SpecOutcome, TargetClass,
};

fn main() {
    // 1. Generate and compile the Cactus-Wavetoy analogue: a 2-D wave
    //    equation solver on 3 MPI ranks (tiny configuration for speed).
    let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
    println!(
        "built {} ({}): {} bytes of text, {} symbols",
        app.kind.name(),
        app.kind.paper_name(),
        app.image.text.len(),
        app.image.symbols.len()
    );

    // 2. A fault-free reference run establishes the golden output and the
    //    sampling frame (per-rank instruction counts and message volumes).
    let golden = app.golden(2_000_000_000);
    println!(
        "golden run: {} instructions on rank 0, {} bytes received",
        golden.insns[0], golden.recv_bytes[0]
    );

    // 3. Inject single-bit faults: 60 into the integer registers, 60 into
    //    message payloads — the two most sensitive targets in the paper.
    //    The spec is the whole experiment: `spec.to_json()` is the file
    //    `faultlab run-config` would run to the same table.
    let mut spec = CampaignSpec::new(AppKind::Wavetoy);
    spec.tiny = true;
    spec.classes = vec![TargetClass::RegularReg, TargetClass::Message];
    spec.campaign.injections = 60;
    spec.campaign.seed = 2024;
    let outcome = run_spec(&spec, &NullSink, &EngineControl::new(), None);
    let Some(SpecOutcome::Campaign(result)) = outcome else {
        unreachable!("an uncontrolled plain campaign completes");
    };

    // 4. Print the Table 2-style summary.
    println!();
    print!("{}", result.table(&spec.title()));

    let reg = &result.classes[0].tally;
    println!(
        "\nInteger-register faults manifested {:.0}% of the time — the paper's\n\
         headline observation (38-63% across its three applications).",
        reg.error_rate_percent()
    );
}
