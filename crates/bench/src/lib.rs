//! # fl-bench — the experiment harness
//!
//! The campaign artifacts — Tables 2–4 and the guard, ft, chaos and
//! interference coverage matrices — are not programs: each is a spec
//! list under `results/specs/`, run by `faultlab run-config`; Table 1 is
//! `faultlab profile` and Tables 5–7 are `faultlab trace`. Three
//! artifacts need a knob no spec has yet, and each has a binary here:
//! the §6.2 message analysis and the design-choice ablations (both run
//! app build variants) and the fault-duration comparison (it varies the
//! duration). Every binary prints its table to stdout and,
//! when a `results/` directory exists at the workspace root, writes a
//! copy there. Timings are not taken here: `benchmark/` at the workspace
//! root is the one harness that measures.
//!
//! ```sh
//! scripts/regenerate-results.sh     # every committed results/* file
//! ```

use fl_apps::{App, AppKind, AppParams};
use std::path::PathBuf;

/// Default instruction budget for golden/traced runs.
pub const BUDGET: u64 = 2_000_000_000;

/// Build an application with its experiment-scale parameters.
pub fn experiment_app(kind: AppKind) -> App {
    App::build(kind, AppParams::default_for(kind))
}

/// The trial count `arg` asks for, `default_n` without one. The paper
/// used 400–500 (d = 4.4–4.9 % at 95 %); on a single-core host smaller
/// counts with a correspondingly larger d keep regeneration to minutes.
pub fn parse_injections(arg: Option<&str>, default_n: u32) -> Result<u32, String> {
    match arg {
        None => Ok(default_n),
        Some(a) => a
            .parse()
            .map_err(|_| format!("expected a trial count, got `{a}`")),
    }
}

/// [`parse_injections`] of the first CLI argument; an argument that is
/// not a count ends the process with exit status 2 rather than running
/// (and overwriting `results/` with) the default.
pub fn injections_from_args(default_n: u32) -> u32 {
    let arg = std::env::args().nth(1);
    parse_injections(arg.as_deref(), default_n).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// The workspace `results/` directory, if present.
pub fn results_dir() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join("results");
        if candidate.is_dir() {
            return Some(candidate);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Print a report and mirror it into `results/<name>`.
pub fn emit(name: &str, content: &str) {
    print!("{content}");
    if let Some(dir) = results_dir() {
        if let Err(e) = std::fs::write(dir.join(name), content) {
            eprintln!("warning: could not write results/{name}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_apps_build() {
        // Building at experiment scale is slow-ish; just check one.
        let app = experiment_app(AppKind::Climsim);
        assert!(
            app.image.text.len() > 50_000,
            "experiment-scale text should be substantial"
        );
    }

    #[test]
    fn injections_default_applies() {
        assert_eq!(parse_injections(None, 123), Ok(123));
        assert_eq!(parse_injections(Some("60"), 123), Ok(60));
        // `6o` used to run the default and overwrite the artifact.
        let err = parse_injections(Some("6o"), 123).unwrap_err();
        assert!(err.contains("`6o`"), "{err}");
    }
}
