//! `bench compare <a.json> <b.json>`: judge run `b` against run `a`.
//!
//! One row per workload × end-to-end metric, with the metric's bound
//! applied: *improved*, *unchanged*, *regressed*, or *unresolved* when the
//! run-to-run spread is wider than the bound. Pass `p` of two runs with
//! one seed has the same inputs, so samples are compared as per-pass
//! ratios, which cancels the luck of the fault draw. Exact counts are
//! compared for equality, and any rise in `error_share` is a regression.

use crate::json::{self, Json};
use crate::metrics::END_TO_END;
use crate::stats::{median, spread, Summary};
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge samples `b` against `a`. Returns the verdict, the worsening of
/// the median as a share of `a` (negative when better) and the spread it
/// was judged against.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64, f64) {
    let worse = |x: f64, y: f64| if higher_is_better { y < x } else { y > x };
    let (ratio, noise) = if a.len() == b.len() && a.iter().all(|x| *x != 0.0) {
        let ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| y / x).collect();
        (median(&ratios), spread(&ratios))
    } else {
        (median(b) / median(a), spread(a).max(spread(b)))
    };
    let worsening = if higher_is_better {
        1.0 - ratio
    } else {
        ratio - 1.0
    };
    let verdict = if noise > bound {
        // Too noisy to call, unless the two sides do not even overlap.
        let all =
            |pred: &dyn Fn(f64, f64) -> bool| a.iter().all(|x| b.iter().all(|y| pred(*x, *y)));
        if all(&|x, y| worse(x, y)) {
            Verdict::Regressed
        } else if all(&|x, y| worse(y, x)) {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound {
        Verdict::Regressed
    } else if worsening < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, worsening, noise)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn at<'a>(v: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

/// Compare two `results.json` files; `Ok(false)` when anything regressed
/// or an exact count differs.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let seed = |v: &Json| at(v, &["provenance", "seed"]).and_then(Json::as_f64);
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    println!("# a = {path_a}\n# b = {path_b}");
    if !same_seed {
        println!("# seeds differ: exact counts are not comparable and are skipped");
    }
    let mut ok = true;
    for w in &WORKLOADS {
        let e2e = |v| at(v, &["workloads", w.name, "end_to_end"]);
        let (Some(ea), Some(eb)) = (e2e(&a), e2e(&b)) else {
            println!("{:<15} missing from one of the files", w.name);
            ok = false;
            continue;
        };
        for def in &END_TO_END {
            let samples = |v: &Json| {
                at(v, &["metrics", def.name])
                    .and_then(Summary::from_json)
                    .map(|s| s.samples)
                    .unwrap_or_default()
            };
            let (sa, sb) = (samples(ea), samples(eb));
            if sa.is_empty() || sb.is_empty() {
                println!("{:<15} {:<20} missing", w.name, def.name);
                ok = false;
                continue;
            }
            let (verdict, worsening, noise) = judge(&sa, &sb, def.better == "higher", def.bound);
            ok &= verdict != Verdict::Regressed;
            println!(
                "{:<15} {:<20} {:<10} a={:<12.4} b={:<12.4} {:<9} worse by {:+.2}% (bound {:.0}%, spread {:.2}%, n={}/{})",
                w.name,
                def.name,
                verdict.name(),
                median(&sa),
                median(&sb),
                def.unit,
                worsening * 100.0,
                def.bound * 100.0,
                noise * 100.0,
                sa.len(),
                sb.len(),
            );
        }
        let share = |v: &Json| at(v, &["errors", "error_share"]).and_then(Json::as_f64);
        let (xa, xb) = (share(ea).unwrap_or(0.0), share(eb).unwrap_or(0.0));
        let verdict = if xb > xa { "regressed" } else { "unchanged" };
        ok &= xb <= xa;
        println!(
            "{:<15} {:<20} {:<10} a={xa:<12.6} b={xb:<12.6} fraction  (any increase regresses)",
            w.name, "error_share", verdict
        );
        if !same_seed {
            continue;
        }
        let layers = |v| at(v, &["workloads", w.name, "per_layer", "metrics"]);
        let (la, lb) = (layers(&a), layers(&b));
        let mut exact: Vec<(String, Option<String>, Option<String>)> = Vec::new();
        for key in ["records_digest", "insns_total", "trials"] {
            let get = |v: &Json| at(v, &["exact", key]).map(Json::to_line);
            exact.push((key.to_string(), get(ea), get(eb)));
        }
        for key in [
            "exec.block_hits",
            "exec.block_misses",
            "exec.trace_hits",
            "exec.trace_side_exits",
            "exec.demotions",
            "exec.insns_total",
        ] {
            let get = |v: Option<&Json>| v.and_then(|m| at(m, &[key, "value"])).map(Json::to_line);
            exact.push((key.to_string(), get(la), get(lb)));
        }
        for (key, va, vb) in exact {
            let same = va.is_some() && va == vb;
            ok &= same;
            println!(
                "{:<15} {:<20} {:<10} a={} b={}",
                w.name,
                key,
                if same { "equal" } else { "DIFFERENT" },
                va.as_deref().unwrap_or("missing"),
                vb.as_deref().unwrap_or("missing"),
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 102.0, 98.0, 101.0, 99.0];
        let same: Vec<f64> = a.iter().map(|x| x * 1.01).collect();
        assert_eq!(judge(&a, &same, true, 0.05).0, Verdict::Unchanged);
        let slower: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        let (v, worse, _) = judge(&a, &slower, true, 0.05);
        assert_eq!(v, Verdict::Regressed);
        assert!((worse - 0.1).abs() < 1e-9);
        let faster: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&a, &faster, true, 0.05).0, Verdict::Improved);
        // For a lower-is-better metric the same numbers read the other way.
        assert_eq!(judge(&a, &slower, false, 0.05).0, Verdict::Improved);
    }

    #[test]
    fn pairing_cancels_what_the_passes_share() {
        // Passes differ by 30% between themselves (different fault draws)
        // but each moved by exactly 2%.
        let a = [100.0, 130.0, 70.0, 115.0];
        let b: Vec<f64> = a.iter().map(|x| x * 0.98).collect();
        let (v, worse, noise) = judge(&a, &b, true, 0.05);
        assert_eq!(v, Verdict::Unchanged);
        assert!((worse - 0.02).abs() < 1e-9 && noise < 1e-9);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_disjoint() {
        let a = [100.0, 100.0, 100.0, 100.0];
        let noisy = [80.0, 125.0, 90.0, 110.0];
        assert_eq!(judge(&a, &noisy, true, 0.05).0, Verdict::Unresolved);
        let bad = [60.0, 90.0, 70.0, 80.0];
        assert_eq!(judge(&a, &bad, true, 0.05).0, Verdict::Regressed);
        let good = [160.0, 110.0, 130.0, 120.0];
        assert_eq!(judge(&a, &good, true, 0.05).0, Verdict::Improved);
        // Unequal sample counts fall back to each side's own spread.
        assert_eq!(judge(&a, &noisy[..3], true, 0.05).0, Verdict::Unresolved);
    }
}
