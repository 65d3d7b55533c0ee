//! The four workloads, as spec-JSON documents generated from a seed.
//!
//! A workload is a list of campaign specs — the JSON interface the
//! repository keeps byte-stable — so the benchmark drives the system the
//! way a user does and never reaches into engine internals. Every spec
//! pins `threads`, `fastpath`, `epoch_rounds` and `ring`; only the seed
//! varies between runs.

use std::fmt::Write as _;

pub const DEFAULT_SEED: u64 = 20_040_611;

/// Pass `p` of a run draws its faults from `seed + p * PASS_STRIDE`, so a
/// run covers `passes` times as many distinct trials as one pass does and
/// its medians depend less on the luck of one fault draw. Pass `p` of two
/// runs with the same seed is the same input, which is what lets
/// `bench compare` pair them. The stride clears every per-spec offset and
/// per-trial index (both stay below 100).
pub const PASS_STRIDE: u64 = 1000;

pub const ALL_REGIONS: [&str; 8] = [
    "regular-reg",
    "fp-reg",
    "bss",
    "data",
    "stack",
    "text",
    "heap",
    "message",
];

const CHAOS_SLOTS: u64 = 9 * 6; // fault models x defenses
const PERTURB_SLOTS: u64 = 5 * 3; // interference models x detectors

pub struct Workload {
    pub name: &'static str,
    /// One line, at most 200 characters: it is copied into BENCHMARK.json.
    pub why: &'static str,
    /// Campaigns go through a real `fl-serve` daemon instead of `run_spec`.
    pub serve: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tables_det",
        why: "paper-size deterministic apps, all 8 regions: guest execution and epoch fork/restore do nearly all the work, so exec-tier, COW/fork and early-termination changes must show here",
        serve: false,
    },
    Workload {
        name: "tables_nondet",
        why: "paper-size moldyn: nondeterministic arrival order forbids epochs, every trial loads and runs cold, so exec-tier gains show and snapshot/fork gains must show no change",
        serve: false,
    },
    Workload {
        name: "defense_matrix",
        why: "guard, ft, chaos and perturb specs on tiny apps: CRC/retransmit, detectors, replicas and checkpoint capture+rollback; the net under the one-matrix-engine refactors, which must not move it",
        serve: false,
    },
    Workload {
        name: "serve_small",
        why: "48 small campaigns through a real fl-serve daemon: per-campaign setup, record encode, flush-per-trial, state-dir commit and HTTP dominate; an app cache or flush batching shows only here",
        serve: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Variations of a workload's specs that the output checks and the
/// scaling probe need; the timed passes use the default.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Injections divided by four (at least one).
    pub quick: bool,
    pub threads: usize,
    pub fastpath: bool,
}

impl Default for Variant {
    fn default() -> Variant {
        Variant {
            quick: false,
            threads: 1,
            fastpath: true,
        }
    }
}

/// One generated campaign spec with what the benchmark knows about it
/// without asking the engine.
#[derive(Debug, Clone)]
pub struct SpecDoc {
    pub json: String,
    pub app: &'static str,
    pub tiny: bool,
    pub mode: &'static str,
    pub injections: u32,
    /// Trials the campaign must complete.
    pub planned: u64,
    /// Whether the mode streams per-trial records in-process (guard and
    /// ft campaigns only report progress).
    pub streams_records: bool,
}

pub fn spec_doc(
    app: &'static str,
    tiny: bool,
    regions: &[&'static str],
    injections: u32,
    seed: u64,
    mode: &'static str,
    v: Variant,
) -> SpecDoc {
    let injections = if v.quick {
        (injections / 4).max(1)
    } else {
        injections
    };
    let mut json = format!("{{\"app\":\"{app}\",\"tiny\":{tiny},\"regions\":[");
    for (i, r) in regions.iter().enumerate() {
        let _ = write!(json, "{}\"{r}\"", if i > 0 { "," } else { "" });
    }
    let _ = write!(
        json,
        "],\"injections\":{injections},\"seed\":{seed},\"threads\":{},\"epoch_rounds\":16,\"ring\":0,\"fastpath\":{},\"mode\":\"{mode}\"}}",
        v.threads, v.fastpath
    );
    let per_slot = injections as u64;
    let planned = match mode {
        "ft" => 2 * per_slot, // kill trials + replica trials
        "chaos" => CHAOS_SLOTS * per_slot,
        "perturb" => PERTURB_SLOTS * per_slot,
        _ => regions.len() as u64 * per_slot,
    };
    SpecDoc {
        json,
        app,
        tiny,
        mode,
        injections,
        planned,
        streams_records: !matches!(mode, "guard" | "ft"),
    }
}

/// The specs of pass `pass` of `workload`: spec `i` gets seed
/// `seed + pass * PASS_STRIDE + i`.
pub fn specs(workload: &str, seed: u64, pass: u64, v: Variant) -> Vec<SpecDoc> {
    let base = seed.wrapping_add(pass.wrapping_mul(PASS_STRIDE));
    let mut out = Vec::new();
    let mut push = |app, tiny, regions: &[&'static str], injections, mode| {
        let s = base.wrapping_add(out.len() as u64);
        out.push(spec_doc(app, tiny, regions, injections, s, mode, v));
    };
    match workload {
        "tables_det" => {
            for app in ["wavetoy", "climsim", "jacobi3d"] {
                push(app, false, &ALL_REGIONS, 20, "campaign");
            }
        }
        "tables_nondet" => push("moldyn", false, &ALL_REGIONS, 12, "campaign"),
        "defense_matrix" => {
            for app in ["wavetoy", "jacobi3d"] {
                for (mode, injections) in [("guard", 4), ("ft", 4), ("chaos", 2), ("perturb", 4)] {
                    push(app, true, &["message", "regular-reg"], injections, mode);
                }
            }
        }
        "serve_small" => {
            // Seed-major order: two specs of the same app and region pair
            // sit 12 seeds apart, so their 3 trials never share a draw.
            for _seed_slot in 0..4 {
                for app in ["wavetoy", "moldyn", "climsim", "jacobi3d"] {
                    for pair in [
                        ["regular-reg", "message"],
                        ["fp-reg", "heap"],
                        ["stack", "text"],
                    ] {
                        push(app, true, &pair, 3, "campaign");
                    }
                }
            }
        }
        other => panic!("unknown workload `{other}`"),
    }
    out
}

/// The distinct `(app, tiny)` pairs a workload runs, in first-use order.
pub fn apps_of(docs: &[SpecDoc]) -> Vec<(&'static str, bool)> {
    let mut out: Vec<(&'static str, bool)> = Vec::new();
    for d in docs {
        if !out.contains(&(d.app, d.tiny)) {
            out.push((d.app, d.tiny));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_inject::CampaignSpec;

    #[test]
    fn every_generated_spec_parses_and_pins_the_load_shape() {
        for w in &WORKLOADS {
            for d in specs(w.name, DEFAULT_SEED, 0, Variant::default()) {
                let canonical = CampaignSpec::from_json(&d.json).expect(&d.json).to_json();
                let shape = "\"threads\":1,\"epoch_rounds\":16,\"ring\":0,\"fastpath\":true";
                assert!(canonical.contains(shape), "{canonical}");
                assert!(canonical.contains(&format!("\"injections\":{},", d.injections)));
            }
        }
    }

    #[test]
    fn planned_totals_match_the_issue() {
        let total = |w| -> u64 {
            specs(w, 1, 0, Variant::default())
                .iter()
                .map(|d| d.planned)
                .sum()
        };
        assert_eq!(total("tables_det"), 480);
        assert_eq!(total("tables_nondet"), 96);
        assert_eq!(total("defense_matrix"), 2 * (8 + 8 + 108 + 60));
        assert_eq!(total("serve_small"), 288);
        assert_eq!(specs("serve_small", 1, 0, Variant::default()).len(), 48);
    }

    #[test]
    fn same_seed_same_inputs_and_passes_do_not_overlap() {
        let a = specs("serve_small", 7, 2, Variant::default());
        let b = specs("serve_small", 7, 2, Variant::default());
        assert!(a.iter().zip(&b).all(|(x, y)| x.json == y.json));
        let c = specs("serve_small", 7, 3, Variant::default());
        assert!(a.iter().zip(&c).all(|(x, y)| x.json != y.json));
        assert!(a[0]
            .json
            .contains(&format!("\"seed\":{}", 7 + 2 * PASS_STRIDE)));
    }

    #[test]
    fn quick_divides_injections_by_four() {
        let v = Variant {
            quick: true,
            ..Variant::default()
        };
        let d = &specs("tables_det", 1, 0, v)[0];
        assert_eq!(d.injections, 5);
        assert_eq!(specs("serve_small", 1, 0, v)[0].injections, 1);
    }

    #[test]
    fn whys_fit_the_benchmark_file() {
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
