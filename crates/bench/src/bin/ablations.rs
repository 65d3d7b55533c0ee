//! Regenerate the **design-choice ablations** (experiments E11/E12 in
//! DESIGN.md):
//!
//! * **Output format** (§6.2): Wavetoy with plain-text vs binary output —
//!   how many silent message corruptions does each format expose?
//! * **Message checksums** (§6.2/§7): Moldyn with and without checksums —
//!   what do the checksums cost (instruction overhead; the paper measured
//!   three percent) and what fraction of message faults do they catch?
//! * **Control-flow signature checking** (§8.2, experiment E13): how many
//!   register/text faults does the software-signature instrumentation
//!   convert from crashes/silence into App-Detected aborts, and at what
//!   instruction overhead?

use fl_apps::{App, AppKind, AppParams, AppVariant};
use fl_bench::{emit, injections_from_args, BUDGET};
use fl_inject::{classify, Manifestation};
use fl_mpi::Fault;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Message-fault outcome distribution for an app build.
fn message_outcomes(app: &App, trials: u32, seed: u64) -> Vec<Manifestation> {
    let golden = app.golden(BUDGET);
    let budget = golden.insns.iter().max().unwrap() * 3 + 2_000_000;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..trials {
        let rank = rng.gen_range(0..app.params.nranks);
        let off = rng.gen_range(0..golden.recv_bytes[rank as usize].max(1));
        let bit = rng.gen_range(0..8u8);
        let mut cfg = app.world_config(budget);
        cfg.seed = rng.gen();
        let mut w = fl_mpi::MpiWorld::new(&app.image, cfg);
        w.arm(Fault::flip(rank, off, bit));
        let exit = w.run();
        out.push(classify(&exit, &app.comparable_output(&w), &golden.output));
    }
    out
}

fn dist(outcomes: &[Manifestation]) -> String {
    let n = outcomes.len().max(1);
    let count = |m: Manifestation| outcomes.iter().filter(|&&x| x == m).count();
    format!(
        "correct {:.0}%, crash {:.0}%, hang {:.0}%, incorrect {:.0}%, app-det {:.0}%, mpi-det {:.0}%",
        100.0 * count(Manifestation::Correct) as f64 / n as f64,
        100.0 * count(Manifestation::Crash) as f64 / n as f64,
        100.0 * count(Manifestation::Hang) as f64 / n as f64,
        100.0 * count(Manifestation::Incorrect) as f64 / n as f64,
        100.0 * count(Manifestation::AppDetected) as f64 / n as f64,
        100.0 * count(Manifestation::MpiDetected) as f64 / n as f64,
    )
}

fn main() {
    let trials = injections_from_args(150);
    let mut out = String::new();

    // --- E11: output format --------------------------------------------
    let _ = writeln!(
        out,
        "Ablation E11: Wavetoy output format (n = {trials} message faults)"
    );
    let params = AppParams::default_for(AppKind::Wavetoy);
    let text_app = App::build(AppKind::Wavetoy, params);
    let bin_app = App::build_variant(AppKind::Wavetoy, params, AppVariant::BinaryOutput);
    eprintln!("ablation E11: text output ...");
    let text_out = message_outcomes(&text_app, trials, 0xE11A);
    eprintln!("ablation E11: binary output ...");
    let bin_out = message_outcomes(&bin_app, trials, 0xE11A);
    let _ = writeln!(out, "  text (4 digits) : {}", dist(&text_out));
    let _ = writeln!(out, "  binary (full)   : {}", dist(&bin_out));
    let inc = |v: &[Manifestation]| v.iter().filter(|&&m| m == Manifestation::Incorrect).count();
    let _ = writeln!(
        out,
        "  incorrect-output detections: text {} vs binary {} — \"a binary\n\
         \x20 output format would detect more cases of incorrect output\" (§6.2)\n",
        inc(&text_out),
        inc(&bin_out)
    );

    // --- E12: message checksums -----------------------------------------
    let _ = writeln!(
        out,
        "Ablation E12: Moldyn message checksums (n = {trials} message faults)"
    );
    let params = AppParams::default_for(AppKind::Moldyn);
    let with = App::build(AppKind::Moldyn, params);
    let without = App::build_variant(AppKind::Moldyn, params, AppVariant::NoChecksums);
    let g_with = with.golden(BUDGET);
    let g_without = without.golden(BUDGET);
    let i_with: u64 = g_with.insns.iter().sum();
    let i_without: u64 = g_without.insns.iter().sum();
    let overhead = 100.0 * (i_with as f64 - i_without as f64) / i_without as f64;
    let _ = writeln!(
        out,
        "  instruction overhead of checksums: {overhead:.1}% \
         ({i_with} vs {i_without} instructions; paper: ~3%)"
    );
    eprintln!("ablation E12: with checksums ...");
    let o_with = message_outcomes(&with, trials, 0xE12A);
    eprintln!("ablation E12: without checksums ...");
    let o_without = message_outcomes(&without, trials, 0xE12A);
    let _ = writeln!(out, "  with checksums    : {}", dist(&o_with));
    let _ = writeln!(out, "  without checksums : {}", dist(&o_without));
    let det = |v: &[Manifestation]| {
        v.iter()
            .filter(|&&m| m == Manifestation::AppDetected)
            .count()
    };
    let silent = |v: &[Manifestation]| v.iter().filter(|&&m| m == Manifestation::Incorrect).count();
    let _ = writeln!(
        out,
        "  app-detected {} -> {}; silent corruption {} -> {} — removing the\n\
         \x20 checksums converts detected faults into silent or crashing ones.",
        det(&o_with),
        det(&o_without),
        silent(&o_with),
        silent(&o_without)
    );

    // --- E13: control-flow signature checking ----------------------------
    let _ = writeln!(
        out,
        "\nAblation E13: control-flow signature checking (climsim, register+text faults)"
    );
    let params = AppParams::default_for(AppKind::Climsim);
    let plain = App::build(AppKind::Climsim, params);
    let cfc = App::build_variant(AppKind::Climsim, params, AppVariant::ControlFlowChecks);
    let gp: u64 = plain.golden(BUDGET).insns.iter().sum();
    let gc: u64 = cfc.golden(BUDGET).insns.iter().sum();
    let _ = writeln!(
        out,
        "  instruction overhead of signatures: {:.1}% ({gc} vs {gp})",
        100.0 * (gc as f64 - gp as f64) / gp as f64
    );
    use fl_inject::{run_campaign, CampaignConfig, TargetClass};
    let classes = [TargetClass::RegularReg, TargetClass::Text];
    let cfg = CampaignConfig {
        injections: trials,
        seed: 0xE13A,
        ..Default::default()
    };
    eprintln!("ablation E13: plain build ...");
    let r_plain = run_campaign(&plain, &classes, &cfg);
    eprintln!("ablation E13: instrumented build ...");
    let r_cfc = run_campaign(&cfc, &classes, &cfg);
    for class in classes {
        let p = &r_plain.class(class).unwrap().tally;
        let c = &r_cfc.class(class).unwrap().tally;
        let _ = writeln!(
            out,
            "  {:<13} plain: {:>4.1}% errors, {:>2} app-detected | CFC: {:>4.1}% errors, {:>2} app-detected",
            class.label(),
            p.error_rate_percent(),
            p.count(Manifestation::AppDetected),
            c.error_rate_percent(),
            c.count(Manifestation::AppDetected),
        );
    }
    let _ = writeln!(
        out,
        "  Signature checks convert a slice of wild-jump faults into clean\n\
         \x20 aborts — the §8.2 defence, bought with the overhead above."
    );

    emit("ablations.txt", &out);
}
