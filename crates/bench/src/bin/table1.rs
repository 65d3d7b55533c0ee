//! Regenerate **Table 1**: per-process profiles of the test applications
//! (memory section sizes; message volume and header/user distribution).
//!
//! Paper shape: Wavetoy 6%/94% header/user, NAMD 8%/92%, CAM 63%/37%;
//! heap-dominant Wavetoy and NAMD, data+BSS-dominant CAM; stacks of a
//! few KB on every code.

use fl_apps::AppKind;
use fl_bench::{emit, experiment_app, BUDGET};

fn main() {
    let mut rows = Vec::new();
    for kind in AppKind::PAPER {
        eprintln!("profiling {} ...", kind.name());
        let app = experiment_app(kind);
        let golden = app.golden(BUDGET);
        rows.push((kind.name(), fl_apps::profile(&app, &golden)));
    }
    let mut out = String::from("Table 1: Per-Process Profiles of Test Applications\n\n");
    out.push_str(&fl_apps::render_profile_table(&rows));
    emit("table1.txt", &out);
}
