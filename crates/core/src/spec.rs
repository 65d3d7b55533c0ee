//! The single-source campaign specification.
//!
//! A [`CampaignSpec`] is everything needed to run a campaign: the
//! application, its size, the target regions, the [`CampaignConfig`]
//! knobs, and the mode (plain, guard-coverage, or fault-tolerance, each
//! with its policy). It is the one description both front ends consume:
//! the `faultlab` one-shot verbs build one from their flags, and the
//! campaign service accepts the same object as JSON over its socket —
//! `faultlab spec` prints the canonical JSON for a given flag set, so a
//! command line can be turned into a submittable document verbatim.
//!
//! Serialization is deliberately canonical: [`CampaignSpec::to_json`]
//! emits one line with a fixed field order, so equal specs are equal
//! bytes (the server keys resumable campaign state on this property).

use crate::campaign::CampaignConfig;
use crate::chaos::ChaosPolicy;
use crate::engine::SlotPlan;
use crate::json::{parse, Json};
use crate::matrix::MatrixMode;
use crate::perturb::PerturbPolicy;
use crate::target::TargetClass;
use fl_apps::AppKind;
use fl_ft::FtPolicy;
use fl_guard::GuardPolicy;
use std::fmt::Write as _;

/// Which experiment family a spec runs, with its policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecMode {
    /// Plain injection campaign (Tables 2–4).
    Campaign,
    /// Guard-off/guard-on detection-coverage campaign.
    Guard(GuardPolicy),
    /// Rank-kill recovery + replication campaign.
    Ft(FtPolicy),
    /// Chaos defense-coverage matrix: every chaos fault model against
    /// every defense column.
    Chaos(ChaosPolicy),
    /// Performance-interference matrix: every perturb fault model (plus
    /// the kill/wedge denominator) against every detection column.
    Perturb(PerturbPolicy),
}

impl SpecMode {
    /// The mode's wire name.
    pub fn name(&self) -> &'static str {
        match self {
            SpecMode::Campaign => "campaign",
            SpecMode::Guard(_) => "guard",
            SpecMode::Ft(_) => "ft",
            SpecMode::Chaos(_) => "chaos",
            SpecMode::Perturb(_) => "perturb",
        }
    }
}

/// A complete, self-contained campaign description.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Which application to inject into.
    pub app: AppKind,
    /// Use the CI-sized app parameters instead of the paper-sized ones.
    pub tiny: bool,
    /// Target regions, in campaign order. Ignored by `ft` mode, which
    /// draws rank kills and message faults instead of region faults.
    pub classes: Vec<TargetClass>,
    /// Execution knobs shared by every mode.
    pub campaign: CampaignConfig,
    /// Experiment family and its policy.
    pub mode: SpecMode,
}

impl CampaignSpec {
    /// A plain campaign of `app` with default knobs over all regions.
    pub fn new(app: AppKind) -> CampaignSpec {
        CampaignSpec {
            app,
            tiny: false,
            classes: TargetClass::ALL.to_vec(),
            campaign: CampaignConfig::default(),
            mode: SpecMode::Campaign,
        }
    }

    /// Serialize as canonical JSON: one line, fixed field order. Equal
    /// specs serialize to equal bytes.
    pub fn to_json(&self) -> String {
        let c = &self.campaign;
        let mut out = format!(
            "{{\"app\":\"{}\",\"tiny\":{},\"regions\":[",
            self.app.name(),
            self.tiny
        );
        for (i, r) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", r.name());
        }
        let _ = write!(
            out,
            "],\"injections\":{},\"seed\":{},\"budget_factor\":{},\"threads\":{},\"epoch_rounds\":{},\"ring\":{},\"fastpath\":{},\"mode\":\"{}\"",
            c.injections,
            c.seed,
            c.budget_factor,
            c.threads,
            c.epoch_rounds,
            c.obs_capacity,
            c.fastpath,
            self.mode.name(),
        );
        match &self.mode {
            SpecMode::Campaign => {}
            SpecMode::Guard(g) => {
                let _ = write!(
                    out,
                    ",\"guard\":{{\"checkpoint_rounds\":{},\"max_restarts\":{},\"window_rounds\":{},\"stall_windows\":{},\"max_retransmits\":{}}}",
                    g.checkpoint_rounds,
                    g.max_restarts,
                    g.window_rounds,
                    g.stall_windows,
                    g.max_retransmits,
                );
            }
            SpecMode::Ft(f) => {
                let _ = write!(
                    out,
                    ",\"ft\":{{\"buddy_rounds\":{},\"max_respawns\":{},\"replicas\":{},\"probe_rounds\":{},\"suspect_rounds\":{}}}",
                    f.buddy_rounds,
                    f.max_respawns,
                    f.replicas,
                    f.detector.probe_rounds,
                    f.detector.suspect_rounds,
                );
            }
            SpecMode::Chaos(p) => {
                let (lo, hi) = p.partition_rounds;
                let _ = write!(
                    out,
                    ",\"chaos\":{{\"partition_lo\":{},\"partition_hi\":{},\"reorder_max_delay\":{},\"burst_max\":{},\"node_ranks\":{},\"checkpoint_rounds\":{},\"max_restarts\":{},\"window_rounds\":{},\"stall_windows\":{},\"max_retransmits\":{},\"buddy_rounds\":{},\"max_respawns\":{},\"replicas\":{},\"probe_rounds\":{},\"suspect_rounds\":{}}}",
                    lo,
                    hi,
                    p.reorder_max_delay,
                    p.burst_max,
                    p.node_ranks,
                    p.guard.checkpoint_rounds,
                    p.guard.max_restarts,
                    p.guard.window_rounds,
                    p.guard.stall_windows,
                    p.guard.max_retransmits,
                    p.ft.buddy_rounds,
                    p.ft.max_respawns,
                    p.ft.replicas,
                    p.ft.detector.probe_rounds,
                    p.ft.detector.suspect_rounds,
                );
            }
            SpecMode::Perturb(p) => {
                let _ = write!(
                    out,
                    ",\"perturb\":{{\"probe_rounds\":{},\"suspect_rounds\":{},\"tax_rounds_lo\":{},\"tax_rounds_hi\":{},\"tax_permille_lo\":{},\"tax_permille_hi\":{},\"hog_share_lo\":{},\"hog_share_hi\":{},\"hog_node_ranks\":{},\"stall_per_access_lo\":{},\"stall_per_access_hi\":{},\"stall_window_per16_lo\":{},\"stall_window_per16_hi\":{},\"degraded_permille\":{}}}",
                    p.probe_rounds,
                    p.suspect_rounds,
                    p.tax_rounds.0,
                    p.tax_rounds.1,
                    p.tax_permille.0,
                    p.tax_permille.1,
                    p.hog_share_permille.0,
                    p.hog_share_permille.1,
                    p.hog_node_ranks,
                    p.stall_per_access.0,
                    p.stall_per_access.1,
                    p.stall_window_per16.0,
                    p.stall_window_per16.1,
                    p.degraded_permille,
                );
            }
        }
        out.push('}');
        out
    }

    /// Parse a spec from JSON. Every field except `app` is optional and
    /// falls back to its default; unknown keys are rejected (the same
    /// typo protection the CLI's flag validation gives).
    pub fn from_json(text: &str) -> Result<CampaignSpec, String> {
        let v = parse(text)?;
        let Json::Obj(map) = &v else {
            return Err("spec must be a JSON object".into());
        };
        const KEYS: [&str; 15] = [
            "app",
            "tiny",
            "regions",
            "injections",
            "seed",
            "budget_factor",
            "threads",
            "epoch_rounds",
            "ring",
            "fastpath",
            "mode",
            "guard",
            "ft",
            "chaos",
            "perturb",
        ];
        for key in map.keys() {
            if !KEYS.contains(&key.as_str()) {
                return Err(crate::suggest::unknown("spec key", key, &KEYS));
            }
        }
        let app: AppKind = v
            .get("app")
            .and_then(Json::as_str)
            .ok_or("spec needs an `app`")?
            .parse()?;
        let mut spec = CampaignSpec::new(app);
        if let Some(t) = v.get("tiny") {
            spec.tiny = t.as_bool().ok_or("`tiny` must be a bool")?;
        }
        if let Some(r) = v.get("regions") {
            spec.classes = r
                .as_arr()
                .ok_or("`regions` must be an array")?
                .iter()
                .map(|x| {
                    x.as_str()
                        .ok_or_else(|| "region names must be strings".to_string())
                        .and_then(|s| s.parse::<TargetClass>())
                })
                .collect::<Result<_, _>>()?;
        }
        let c = &mut spec.campaign;
        c.injections = int(&v, "injections", c.injections)?;
        c.seed = int(&v, "seed", c.seed)?;
        if let Some(n) = v.get("budget_factor") {
            c.budget_factor = n.as_f64().ok_or("`budget_factor` must be a number")?;
        }
        c.threads = int(&v, "threads", c.threads)?;
        c.epoch_rounds = int(&v, "epoch_rounds", c.epoch_rounds)?;
        c.obs_capacity = int(&v, "ring", c.obs_capacity)?;
        if let Some(b) = v.get("fastpath") {
            c.fastpath = b.as_bool().ok_or("`fastpath` must be a bool")?;
        }
        const GUARD_KEYS: [&str; 5] = [
            "checkpoint_rounds",
            "max_restarts",
            "window_rounds",
            "stall_windows",
            "max_retransmits",
        ];
        const FT_KEYS: [&str; 5] = [
            "buddy_rounds",
            "max_respawns",
            "replicas",
            "probe_rounds",
            "suspect_rounds",
        ];
        let mode = v.get("mode").map(|m| m.as_str().unwrap_or("?"));
        spec.mode = match mode {
            None | Some("campaign") => SpecMode::Campaign,
            Some("guard") => {
                let mut g = GuardPolicy::default();
                if let Some(obj) = policy_object(&v, "guard", &GUARD_KEYS)? {
                    guard_fields(obj, &mut g)?;
                }
                SpecMode::Guard(g)
            }
            Some("ft") => {
                let mut f = FtPolicy::default();
                if let Some(obj) = policy_object(&v, "ft", &FT_KEYS)? {
                    ft_fields(obj, &mut f)?;
                }
                SpecMode::Ft(f)
            }
            Some("chaos") => {
                let mut p = ChaosPolicy::default();
                const CHAOS_KEYS: [&str; 15] = [
                    "partition_lo",
                    "partition_hi",
                    "reorder_max_delay",
                    "burst_max",
                    "node_ranks",
                    "checkpoint_rounds",
                    "max_restarts",
                    "window_rounds",
                    "stall_windows",
                    "max_retransmits",
                    "buddy_rounds",
                    "max_respawns",
                    "replicas",
                    "probe_rounds",
                    "suspect_rounds",
                ];
                if let Some(obj) = policy_object(&v, "chaos", &CHAOS_KEYS)? {
                    p.partition_rounds.0 = int(obj, "partition_lo", p.partition_rounds.0)?;
                    p.partition_rounds.1 = int(obj, "partition_hi", p.partition_rounds.1)?;
                    p.reorder_max_delay = int(obj, "reorder_max_delay", p.reorder_max_delay)?;
                    p.burst_max = int(obj, "burst_max", p.burst_max)?;
                    p.node_ranks = int(obj, "node_ranks", p.node_ranks)?;
                    guard_fields(obj, &mut p.guard)?;
                    ft_fields(obj, &mut p.ft)?;
                }
                SpecMode::Chaos(p)
            }
            Some("perturb") => {
                let mut p = PerturbPolicy::default();
                const PERTURB_KEYS: [&str; 14] = [
                    "probe_rounds",
                    "suspect_rounds",
                    "tax_rounds_lo",
                    "tax_rounds_hi",
                    "tax_permille_lo",
                    "tax_permille_hi",
                    "hog_share_lo",
                    "hog_share_hi",
                    "hog_node_ranks",
                    "stall_per_access_lo",
                    "stall_per_access_hi",
                    "stall_window_per16_lo",
                    "stall_window_per16_hi",
                    "degraded_permille",
                ];
                if let Some(obj) = policy_object(&v, "perturb", &PERTURB_KEYS)? {
                    p.probe_rounds = int(obj, "probe_rounds", p.probe_rounds)?;
                    p.suspect_rounds = int(obj, "suspect_rounds", p.suspect_rounds)?;
                    p.tax_rounds.0 = int(obj, "tax_rounds_lo", p.tax_rounds.0)?;
                    p.tax_rounds.1 = int(obj, "tax_rounds_hi", p.tax_rounds.1)?;
                    p.tax_permille.0 = int(obj, "tax_permille_lo", p.tax_permille.0)?;
                    p.tax_permille.1 = int(obj, "tax_permille_hi", p.tax_permille.1)?;
                    p.hog_share_permille.0 = int(obj, "hog_share_lo", p.hog_share_permille.0)?;
                    p.hog_share_permille.1 = int(obj, "hog_share_hi", p.hog_share_permille.1)?;
                    p.hog_node_ranks = int(obj, "hog_node_ranks", p.hog_node_ranks)?;
                    p.stall_per_access.0 = int(obj, "stall_per_access_lo", p.stall_per_access.0)?;
                    p.stall_per_access.1 = int(obj, "stall_per_access_hi", p.stall_per_access.1)?;
                    p.stall_window_per16.0 =
                        int(obj, "stall_window_per16_lo", p.stall_window_per16.0)?;
                    p.stall_window_per16.1 =
                        int(obj, "stall_window_per16_hi", p.stall_window_per16.1)?;
                    p.degraded_permille = int(obj, "degraded_permille", p.degraded_permille)?;
                }
                SpecMode::Perturb(p)
            }
            Some(other) => {
                return Err(format!(
                    "unknown mode `{other}` (expected campaign, guard, ft, chaos or perturb)"
                ))
            }
        };
        Ok(spec)
    }

    /// The matrix-campaign description this spec runs, policies
    /// included; `None` for a plain campaign.
    pub fn matrix(&self) -> Option<MatrixMode> {
        match self.mode {
            SpecMode::Campaign => None,
            SpecMode::Guard(policy) => Some(crate::guarded::mode(&self.classes, policy)),
            SpecMode::Ft(policy) => Some(crate::ft::mode(policy)),
            SpecMode::Chaos(policy) => Some(crate::chaos::mode(policy)),
            SpecMode::Perturb(policy) => Some(crate::perturb::mode(policy)),
        }
    }

    /// The spec's slot space — what the engine schedules, the progress
    /// counters count and a resumed run adopts records against. Plain
    /// campaigns stream one record per `region × injection`; chaos and
    /// perturb campaigns one per cell of their fixed grids; guard and ft
    /// slots hold a whole row's runs and stream nothing.
    pub fn slot_plan(&self) -> SlotPlan {
        let injections = self.campaign.injections;
        match self.matrix() {
            Some(mode) => mode.slot_plan(injections),
            None => SlotPlan::streamed(self.classes.clone(), injections),
        }
    }
}

/// The optional integer field `key` of object `v`, or `default`. A
/// value the field's type cannot hold is an error, never a wrap.
fn int<T: TryFrom<u64>>(v: &Json, key: &str, default: T) -> Result<T, String> {
    let Some(j) = v.get(key) else {
        return Ok(default);
    };
    let n = j
        .as_u64()
        .ok_or_else(|| format!("`{key}` must be an integer"))?;
    T::try_from(n).map_err(|_| format!("`{key}` out of range"))
}

/// The policy object `name` of a spec, if present: an object holding
/// nothing but `keys`.
fn policy_object<'a>(v: &'a Json, name: &str, keys: &[&str]) -> Result<Option<&'a Json>, String> {
    let Some(obj) = v.get(name) else {
        return Ok(None);
    };
    let Json::Obj(map) = obj else {
        return Err(format!("`{name}` must be an object"));
    };
    for key in map.keys() {
        if !keys.contains(&key.as_str()) {
            return Err(crate::suggest::unknown(&format!("{name} key"), key, keys));
        }
    }
    Ok(Some(obj))
}

/// The guard knobs, as the `guard` and `chaos` policy objects spell them.
fn guard_fields(obj: &Json, g: &mut GuardPolicy) -> Result<(), String> {
    g.checkpoint_rounds = int(obj, "checkpoint_rounds", g.checkpoint_rounds)?;
    g.max_restarts = int(obj, "max_restarts", g.max_restarts)?;
    g.window_rounds = int(obj, "window_rounds", g.window_rounds)?;
    g.stall_windows = int(obj, "stall_windows", g.stall_windows)?;
    g.max_retransmits = int(obj, "max_retransmits", g.max_retransmits)?;
    Ok(())
}

/// The ft knobs, as the `ft` and `chaos` policy objects spell them.
fn ft_fields(obj: &Json, f: &mut FtPolicy) -> Result<(), String> {
    f.buddy_rounds = int(obj, "buddy_rounds", f.buddy_rounds)?;
    f.max_respawns = int(obj, "max_respawns", f.max_respawns)?;
    f.replicas = int(obj, "replicas", f.replicas)?;
    f.detector.probe_rounds = int(obj, "probe_rounds", f.detector.probe_rounds)?;
    f.detector.suspect_rounds = int(obj, "suspect_rounds", f.detector.suspect_rounds)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_round_trips() {
        let spec = CampaignSpec::new(AppKind::Wavetoy);
        let json = spec.to_json();
        let back = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), json, "canonical form is a fixed point");
    }

    #[test]
    fn guard_and_ft_modes_round_trip() {
        let mut spec = CampaignSpec::new(AppKind::Moldyn);
        spec.tiny = true;
        spec.classes = vec![TargetClass::Message, TargetClass::Heap];
        spec.campaign.injections = 40;
        spec.campaign.seed = u64::MAX; // full-width seeds must survive
        spec.mode = SpecMode::Guard(GuardPolicy {
            checkpoint_rounds: 8,
            max_restarts: 1,
            ..GuardPolicy::default()
        });
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);

        spec.mode = SpecMode::Ft(FtPolicy {
            replicas: 5,
            ..FtPolicy::default()
        });
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn minimal_spec_uses_defaults() {
        let spec = CampaignSpec::from_json(r#"{"app":"climsim"}"#).unwrap();
        assert_eq!(spec.app, AppKind::Climsim);
        assert_eq!(spec.classes, TargetClass::ALL.to_vec());
        assert_eq!(spec.campaign, CampaignConfig::default());
        assert_eq!(spec.mode, SpecMode::Campaign);
        assert!(!spec.tiny);
    }

    #[test]
    fn partial_policies_keep_defaults() {
        let spec = CampaignSpec::from_json(
            r#"{"app":"wavetoy","mode":"guard","guard":{"max_restarts":9}}"#,
        )
        .unwrap();
        let SpecMode::Guard(g) = spec.mode else {
            panic!("expected guard mode");
        };
        assert_eq!(g.max_restarts, 9);
        assert_eq!(
            g.checkpoint_rounds,
            GuardPolicy::default().checkpoint_rounds
        );

        let spec = CampaignSpec::from_json(r#"{"app":"wavetoy","mode":"ft","ft":{"replicas":2}}"#)
            .unwrap();
        let SpecMode::Ft(f) = spec.mode else {
            panic!("expected ft mode");
        };
        assert_eq!(f.replicas, 2);
        assert_eq!(f.buddy_rounds, FtPolicy::default().buddy_rounds);
    }

    #[test]
    fn chaos_mode_round_trips() {
        let mut spec = CampaignSpec::new(AppKind::Wavetoy);
        spec.tiny = true;
        spec.campaign.injections = 25;
        spec.mode = SpecMode::Chaos(ChaosPolicy {
            partition_rounds: (32, 96),
            burst_max: 2,
            ..ChaosPolicy::default()
        });
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), spec.to_json(), "canonical fixed point");
    }

    #[test]
    fn chaos_spec_golden_json_is_stable() {
        // The canonical one-line wire form — the service keys resumable
        // state on these exact bytes, so the field order is a contract.
        let mut spec = CampaignSpec::new(AppKind::Wavetoy);
        spec.tiny = true;
        spec.classes = vec![TargetClass::Message];
        spec.campaign.injections = 10;
        spec.campaign.seed = 81;
        spec.mode = SpecMode::Chaos(ChaosPolicy::default());
        assert_eq!(
            spec.to_json(),
            "{\"app\":\"wavetoy\",\"tiny\":true,\"regions\":[\"message\"],\
             \"injections\":10,\"seed\":81,\"budget_factor\":3,\"threads\":0,\
             \"epoch_rounds\":16,\"ring\":0,\"fastpath\":true,\"mode\":\"chaos\",\
             \"chaos\":{\"partition_lo\":64,\"partition_hi\":512,\
             \"reorder_max_delay\":64,\"burst_max\":3,\"node_ranks\":2,\
             \"checkpoint_rounds\":64,\"max_restarts\":3,\"window_rounds\":8,\
             \"stall_windows\":24,\"max_retransmits\":3,\"buddy_rounds\":64,\
             \"max_respawns\":3,\"replicas\":3,\"probe_rounds\":8,\
             \"suspect_rounds\":32}}"
        );
        assert_eq!(CampaignSpec::from_json(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn partial_chaos_policies_keep_defaults() {
        let spec = CampaignSpec::from_json(
            r#"{"app":"wavetoy","mode":"chaos","chaos":{"burst_max":5,"partition_hi":2048}}"#,
        )
        .unwrap();
        let SpecMode::Chaos(p) = spec.mode else {
            panic!("expected chaos mode");
        };
        assert_eq!(p.burst_max, 5);
        assert_eq!(p.partition_rounds, (64, 2048));
        assert_eq!(p.node_ranks, ChaosPolicy::default().node_ranks);
        assert_eq!(p.guard, ChaosPolicy::default().guard);

        // Mode alone is enough; the whole policy defaults.
        let spec = CampaignSpec::from_json(r#"{"app":"wavetoy","mode":"chaos"}"#).unwrap();
        assert_eq!(spec.mode, SpecMode::Chaos(ChaosPolicy::default()));
    }

    #[test]
    fn unknown_chaos_keys_are_rejected_with_a_hint() {
        let err =
            CampaignSpec::from_json(r#"{"app":"wavetoy","mode":"chaos","chaos":{"burst_mx":5}}"#)
                .unwrap_err();
        assert_eq!(
            err,
            "unknown chaos key `burst_mx` (did you mean `burst_max`?)"
        );
        let err =
            CampaignSpec::from_json(r#"{"app":"wavetoy","mode":"chaos","chaos":[]}"#).unwrap_err();
        assert!(err.contains("`chaos` must be an object"), "{err}");
        // The guard and ft policy objects are checked the same way.
        for (spec, want) in [
            (
                r#"{"app":"wavetoy","mode":"guard","guard":{"checkpoint_round":3}}"#,
                "unknown guard key `checkpoint_round` (did you mean `checkpoint_rounds`?)",
            ),
            (
                r#"{"app":"wavetoy","mode":"ft","ft":{"replica":5}}"#,
                "unknown ft key `replica` (did you mean `replicas`?)",
            ),
            (
                r#"{"app":"wavetoy","mode":"guard","guard":[]}"#,
                "`guard` must be an object",
            ),
            (
                r#"{"app":"wavetoy","mode":"ft","ft":7}"#,
                "`ft` must be an object",
            ),
        ] {
            assert_eq!(CampaignSpec::from_json(spec).unwrap_err(), want);
        }
    }

    #[test]
    fn perturb_mode_round_trips() {
        let mut spec = CampaignSpec::new(AppKind::Wavetoy);
        spec.tiny = true;
        spec.campaign.injections = 12;
        spec.mode = SpecMode::Perturb(PerturbPolicy {
            tax_permille: (950, 990),
            hog_node_ranks: 4,
            ..PerturbPolicy::default()
        });
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), spec.to_json(), "canonical fixed point");
    }

    #[test]
    fn perturb_spec_golden_json_is_stable() {
        // Same bytes-are-the-key contract as the chaos golden test.
        let mut spec = CampaignSpec::new(AppKind::Wavetoy);
        spec.tiny = true;
        spec.classes = vec![TargetClass::Message];
        spec.campaign.injections = 10;
        spec.campaign.seed = 81;
        spec.mode = SpecMode::Perturb(PerturbPolicy::default());
        assert_eq!(
            spec.to_json(),
            "{\"app\":\"wavetoy\",\"tiny\":true,\"regions\":[\"message\"],\
             \"injections\":10,\"seed\":81,\"budget_factor\":3,\"threads\":0,\
             \"epoch_rounds\":16,\"ring\":0,\"fastpath\":true,\"mode\":\"perturb\",\
             \"perturb\":{\"probe_rounds\":8,\"suspect_rounds\":32,\
             \"tax_rounds_lo\":256,\"tax_rounds_hi\":1024,\
             \"tax_permille_lo\":900,\"tax_permille_hi\":995,\
             \"hog_share_lo\":300,\"hog_share_hi\":900,\"hog_node_ranks\":2,\
             \"stall_per_access_lo\":1,\"stall_per_access_hi\":6,\
             \"stall_window_per16_lo\":2,\"stall_window_per16_hi\":8,\
             \"degraded_permille\":1050}}"
        );
        assert_eq!(CampaignSpec::from_json(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn partial_perturb_policies_keep_defaults() {
        let spec = CampaignSpec::from_json(
            r#"{"app":"wavetoy","mode":"perturb","perturb":{"tax_permille_hi":990,"degraded_permille":1100}}"#,
        )
        .unwrap();
        let SpecMode::Perturb(p) = spec.mode else {
            panic!("expected perturb mode");
        };
        assert_eq!(p.tax_permille, (900, 990));
        assert_eq!(p.degraded_permille, 1100);
        assert_eq!(p.hog_node_ranks, PerturbPolicy::default().hog_node_ranks);

        let spec = CampaignSpec::from_json(r#"{"app":"wavetoy","mode":"perturb"}"#).unwrap();
        assert_eq!(spec.mode, SpecMode::Perturb(PerturbPolicy::default()));
    }

    #[test]
    fn unknown_perturb_keys_are_rejected_with_a_hint() {
        let err = CampaignSpec::from_json(
            r#"{"app":"wavetoy","mode":"perturb","perturb":{"tax_permil_lo":5}}"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            "unknown perturb key `tax_permil_lo` (did you mean `tax_permille_lo`?)"
        );
        let err = CampaignSpec::from_json(r#"{"app":"wavetoy","mode":"perturb","perturb":[]}"#)
            .unwrap_err();
        assert!(err.contains("`perturb` must be an object"), "{err}");
    }

    #[test]
    fn record_slot_space_matches_the_mode() {
        let mut spec = CampaignSpec::new(AppKind::Wavetoy);
        spec.campaign.injections = 7;
        let plan = spec.slot_plan();
        assert_eq!(plan.classes, TargetClass::ALL.to_vec());
        assert_eq!((plan.injections, plan.total()), (7, 8 * 7));

        spec.mode = SpecMode::Chaos(ChaosPolicy::default());
        let plan = spec.slot_plan();
        assert_eq!(plan.classes.len(), 9 * 6, "9 chaos models x 6 defenses");
        assert_eq!((plan.injections, plan.total()), (7, 9 * 6 * 7));

        spec.mode = SpecMode::Perturb(PerturbPolicy::default());
        let plan = spec.slot_plan();
        assert_eq!(plan.classes.len(), 5 * 3, "5 perturb models x 3 detections");
        assert_eq!((plan.injections, plan.total()), (7, 5 * 3 * 7));

        // Guard and ft slots hold every run of one draw and stream none.
        spec.mode = SpecMode::Guard(GuardPolicy::default());
        let plan = spec.slot_plan();
        assert!(!plan.streams());
        assert_eq!(plan.total(), 8 * 7, "regions x injections");
        spec.mode = SpecMode::Ft(FtPolicy::default());
        let plan = spec.slot_plan();
        assert!(!plan.streams());
        assert_eq!(plan.total(), 2 * 7, "kills + message faults");
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(CampaignSpec::from_json("[]").is_err());
        assert!(CampaignSpec::from_json("{}").is_err(), "app is required");
        assert!(CampaignSpec::from_json(r#"{"app":"namd"}"#).is_err());
        assert!(CampaignSpec::from_json(r#"{"app":"wavetoy","mode":"turbo"}"#).is_err());
        assert!(CampaignSpec::from_json(r#"{"app":"wavetoy","regions":["rom"]}"#).is_err());
        let err = CampaignSpec::from_json(r#"{"app":"wavetoy","injetions":5}"#).unwrap_err();
        assert!(err.contains("unknown spec key"), "{err}");
        // An integer its field cannot hold is an error, not a wrap
        // (4294967297 used to submit a 1-trial campaign).
        for (spec, field) in [
            (r#"{"app":"wavetoy","injections":4294967297}"#, "injections"),
            (
                r#"{"app":"wavetoy","epoch_rounds":4294967296}"#,
                "epoch_rounds",
            ),
            (r#"{"app":"wavetoy","ring":99999999999}"#, "ring"),
            (
                r#"{"app":"wavetoy","mode":"guard","guard":{"max_retransmits":256}}"#,
                "max_retransmits",
            ),
            (
                r#"{"app":"wavetoy","mode":"ft","ft":{"replicas":65536}}"#,
                "replicas",
            ),
            (
                r#"{"app":"wavetoy","mode":"chaos","chaos":{"burst_max":65539}}"#,
                "burst_max",
            ),
            (
                r#"{"app":"wavetoy","mode":"perturb","perturb":{"tax_permille_hi":4294968000}}"#,
                "tax_permille_hi",
            ),
        ] {
            let err = CampaignSpec::from_json(spec).unwrap_err();
            assert_eq!(err, format!("`{field}` out of range"), "{spec}");
        }
        let err = CampaignSpec::from_json(r#"{"app":"wavetoy","injections":"many"}"#).unwrap_err();
        assert_eq!(err, "`injections` must be an integer");
    }
}
