//! Regenerate the **fault-duration comparison** (experiment E16 in
//! DESIGN.md): transient single-event upsets versus held and stuck-at
//! faults, reproducing the qualitative finding of the hardware study the
//! paper compares against (§8.1): "Transients proved more difficult to
//! detect, whereas longer faults led to application failures."

use fl_apps::AppKind;
use fl_bench::{emit, experiment_app, injections_from_args};
use fl_inject::faultmodel::Duration;
use fl_inject::{compare_models, TargetClass};
use std::fmt::Write as _;

fn main() {
    let trials = injections_from_args(80);
    let app = experiment_app(AppKind::Climsim);
    let mut out = format!(
        "Fault-duration models on climsim (n = {trials} per cell)\n{:<14}",
        "Region"
    );
    for d in Duration::ALL {
        let _ = write!(out, " {:>11}", d.label());
    }
    out.push('\n');
    for class in [
        TargetClass::RegularReg,
        TargetClass::Text,
        TargetClass::Data,
        TargetClass::Bss,
    ] {
        eprintln!("fault models: {class:?} ...");
        let _ = write!(out, "{:<14}", class.label());
        for (_, rate, _) in compare_models(&app, class, trials, 0xE16) {
            let _ = write!(out, " {rate:>10.1}%");
        }
        out.push('\n');
    }
    out.push_str(
        "\nPaper context (§8.1): Constantinescu's stuck-at injections on ASCI\n\
         Red were detected/failing far more often than transients — a held\n\
         bit cannot be overwritten away, so every later access re-reads the\n\
         corruption. Note the pin-level stuck-at-X rows include no-op draws\n\
         (the bit already held X), which dilutes them relative to held-flip.\n",
    );
    emit("fault_models.txt", &out);
}
