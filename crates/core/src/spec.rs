//! The single-source campaign specification.
//!
//! A [`CampaignSpec`] is everything needed to run a campaign: the
//! application, its size, the target regions, the [`CampaignConfig`]
//! knobs, and the mode (plain, guard-coverage, fault-tolerance, chaos or
//! perturb, each with its policy). It is the one description every front
//! end consumes: the `faultlab` one-shot verbs build one from their
//! flags, `faultlab run-config` reads one — or a list, one per line, as
//! the committed `results/specs/*.jsonl` are — from a file, and the
//! campaign service accepts the same object as JSON over its socket —
//! `faultlab spec` prints the canonical JSON for a given flag set, so a
//! command line can be turned into a submittable document verbatim.
//!
//! Every knob is stated once, as a row of a knob table: its JSON key,
//! the CLI flags that set it, and the field it lives in. The JSON codec,
//! the flag parser and the list of flags a mode reads are all walks over
//! those rows.
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
use crate::sampling::estimation_error;
use crate::suggest::unknown;
use crate::target::TargetClass;
use fl_apps::AppKind;
use fl_ft::FtPolicy;
use fl_guard::GuardPolicy;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A CLI flag and whether a word follows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--name <word>`.
    Value(&'static str),
    /// Bare `--name`; sets a bool knob.
    On(&'static str),
    /// Bare `--name`; clears a bool knob.
    Off(&'static str),
}
use Flag::{Off, On, Value};

impl Flag {
    /// The flag's name, without the dashes.
    pub fn name(self) -> &'static str {
        match self {
            Value(name) | On(name) | Off(name) => name,
        }
    }
}

/// Where a knob's value lives: written to and read from spec JSON, and
/// set from a CLI word.
trait Slot {
    fn write(&self, out: &mut String);
    fn read(&mut self, key: &str, j: &Json) -> Result<(), String>;
    fn parse(&mut self, word: &str) -> Result<(), String>;
}

/// The scalar slots. Each names the JSON accessor that reads it and
/// what it is; a value the type cannot hold is an error, never a wrap.
macro_rules! scalar_slots {
    ($($scalar:ty: $as_scalar:ident, $what:literal;)*) => {$(
        impl Slot for $scalar {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read(&mut self, key: &str, j: &Json) -> Result<(), String> {
                let v = j.$as_scalar().ok_or_else(|| format!("`{key}` must be {}", $what))?;
                *self = v.try_into().map_err(|_| format!("`{key}` out of range"))?;
                Ok(())
            }
            fn parse(&mut self, word: &str) -> Result<(), String> {
                let v = word.parse();
                *self = v.map_err(|_| format!("expected {}, got `{word}`", $what))?;
                Ok(())
            }
        }
    )*};
}
scalar_slots! {
    u8: as_u64, "an integer";
    u16: as_u64, "an integer";
    u32: as_u64, "an integer";
    u64: as_u64, "an integer";
    usize: as_u64, "an integer";
    f64: as_f64, "a number";
    bool: as_bool, "a bool";
}

/// One of the eight §4.3 injection regions. The chaos and perturb classes
/// parse as record classes, but nothing draws a bit flip in them.
fn region(name: &str) -> Result<TargetClass, String> {
    let class: TargetClass = name.parse()?;
    if TargetClass::ALL.contains(&class) {
        return Ok(class);
    }
    let regions = TargetClass::ALL.map(TargetClass::name).join(", ");
    Err(format!(
        "`{name}` is a record class, not an injection region (regions: {regions})"
    ))
}

/// A region list: a JSON array of names, or on the command line a
/// comma-separated list or `all`.
impl Slot for Vec<TargetClass> {
    fn write(&self, out: &mut String) {
        let names: Vec<String> = self.iter().map(|r| format!("\"{}\"", r.name())).collect();
        let _ = write!(out, "[{}]", names.join(","));
    }
    fn read(&mut self, key: &str, j: &Json) -> Result<(), String> {
        let names = j
            .as_arr()
            .ok_or_else(|| format!("`{key}` must be an array"))?;
        *self = names
            .iter()
            .map(|x| region(x.as_str().ok_or("region names must be strings")?))
            .collect::<Result<_, String>>()?;
        Ok(())
    }
    fn parse(&mut self, word: &str) -> Result<(), String> {
        *self = match word {
            "all" => TargetClass::ALL.to_vec(),
            list => list.split(',').map(region).collect::<Result<_, _>>()?,
        };
        Ok(())
    }
}

/// One knob of `P`: its JSON key, the CLI flags that set it (none for a
/// JSON-only knob, two for an alias) and the field it lives in.
struct Knob<P: 'static> {
    key: &'static str,
    flags: &'static [Flag],
    slot: fn(&mut P) -> &mut dyn Slot,
}

/// The knob tables: `NAME: Policy { "json_key" [flags] field; ... }`, one
/// knob per row, in wire order.
macro_rules! knobs {
    ($($(#[$doc:meta])* $name:ident: $P:ty {
        $($key:literal [$($flag:expr),*] $($field:tt).+;)*
    })*) => {$(
        $(#[$doc])*
        const $name: &[Knob<$P>] = &[$(Knob {
            key: $key,
            flags: &[$($flag),*],
            slot: |p| &mut p.$($field).+,
        }),*];
    )*};
}

knobs! {
    /// The campaign-level knobs (`app` leads and `mode` trails them on
    /// the wire; both are structural, not knobs).
    SPEC_KNOBS: CampaignSpec {
        "tiny"                  [On("tiny")]                        tiny;
        "regions"               [Value("regions")]                  classes;
        "injections"            [Value("injections")]               campaign.injections;
        "seed"                  [Value("seed")]                     campaign.seed;
        "budget_factor"         []                                  campaign.budget_factor;
        "threads"               [Value("threads"), Value("jobs")]   campaign.threads;
        "epoch_rounds"          [Value("epoch-rounds")]             campaign.epoch_rounds;
        "ring"                  [Value("ring")]                     campaign.obs_capacity;
        "fastpath"              [Off("no-fastpath")]                campaign.fastpath;
    }
    GUARD_KNOBS: GuardPolicy {
        "checkpoint_rounds"     [Value("checkpoint-rounds")]        checkpoint_rounds;
        "max_restarts"          [Value("restarts")]                 max_restarts;
        "window_rounds"         []                                  window_rounds;
        "stall_windows"         []                                  stall_windows;
        "max_retransmits"       [Value("retransmits")]              max_retransmits;
    }
    FT_KNOBS: FtPolicy {
        "buddy_rounds"          [Value("buddy-rounds")]             buddy_rounds;
        "max_respawns"          [Value("respawns")]                 max_respawns;
        "replicas"              [Value("replicas")]                 replicas;
        "probe_rounds"          [Value("probe-rounds")]             detector.probe_rounds;
        "suspect_rounds"        [Value("suspect-rounds")]           detector.suspect_rounds;
    }
    /// Chaos's own knobs; its policy object carries the guard and ft
    /// knobs after them (they configure the defense columns).
    CHAOS_KNOBS: ChaosPolicy {
        "partition_lo"          [Value("partition-lo")]             partition_rounds.0;
        "partition_hi"          [Value("partition-hi")]             partition_rounds.1;
        "reorder_max_delay"     [Value("reorder-delay")]            reorder_max_delay;
        "burst_max"             [Value("burst-max")]                burst_max;
        "node_ranks"            [Value("node-ranks")]               node_ranks;
    }
    PERTURB_KNOBS: PerturbPolicy {
        "probe_rounds"          [Value("probe-rounds")]             probe_rounds;
        "suspect_rounds"        [Value("suspect-rounds")]           suspect_rounds;
        "tax_rounds_lo"         [Value("tax-rounds-lo")]            tax_rounds.0;
        "tax_rounds_hi"         [Value("tax-rounds-hi")]            tax_rounds.1;
        "tax_permille_lo"       [Value("tax-lo")]                   tax_permille.0;
        "tax_permille_hi"       [Value("tax-hi")]                   tax_permille.1;
        "hog_share_lo"          [Value("hog-share-lo")]             hog_share_permille.0;
        "hog_share_hi"          [Value("hog-share-hi")]             hog_share_permille.1;
        "hog_node_ranks"        [Value("hog-node-ranks")]           hog_node_ranks;
        "stall_per_access_lo"   [Value("stall-access-lo")]          stall_per_access.0;
        "stall_per_access_hi"   [Value("stall-access-hi")]          stall_per_access.1;
        "stall_window_per16_lo" [Value("stall-window-lo")]          stall_window_per16.0;
        "stall_window_per16_hi" [Value("stall-window-hi")]          stall_window_per16.1;
        "degraded_permille"     [Value("degraded-permille")]        degraded_permille;
    }
}

/// What a walk over knob rows calls per row.
type Visit<'a> =
    &'a mut dyn FnMut(&'static str, &'static [Flag], &mut dyn Slot) -> Result<(), String>;

fn visit<P>(knobs: &'static [Knob<P>], p: &mut P, f: Visit) -> Result<(), String> {
    knobs
        .iter()
        .try_for_each(|k| f(k.key, k.flags, (k.slot)(p)))
}

/// The `,"key":value` members a walk visits, each led by its comma.
fn write_members(walk: impl FnOnce(Visit) -> Result<(), String>) -> String {
    let mut out = String::new();
    let _ = walk(&mut |key, _, slot| {
        let _ = write!(out, ",\"{key}\":");
        slot.write(&mut out);
        Ok(())
    });
    out
}

/// Reject a member of `obj` that is not one of `keys`.
fn known_keys(what: &str, obj: &BTreeMap<String, Json>, keys: &[&str]) -> Result<(), String> {
    match obj.keys().find(|k| !keys.contains(&k.as_str())) {
        Some(key) => Err(unknown(&format!("{what} key"), key, keys)),
        None => Ok(()),
    }
}

/// Set the knobs a walk visits from the members of `obj` that name them.
fn read_members(obj: &Json, walk: impl FnOnce(Visit) -> Result<(), String>) -> Result<(), String> {
    walk(&mut |key, _, slot| obj.get(key).map_or(Ok(()), |j| slot.read(key, j)))
}

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
    /// Every mode at its default policy, `campaign` first.
    pub fn all() -> [SpecMode; 5] {
        [
            SpecMode::Campaign,
            SpecMode::Guard(GuardPolicy::default()),
            SpecMode::Ft(FtPolicy::default()),
            SpecMode::Chaos(ChaosPolicy::default()),
            SpecMode::Perturb(PerturbPolicy::default()),
        ]
    }

    /// The mode's wire name; a spec's policy object goes by it too.
    pub fn name(&self) -> &'static str {
        match self {
            SpecMode::Campaign => "campaign",
            SpecMode::Guard(_) => "guard",
            SpecMode::Ft(_) => "ft",
            SpecMode::Chaos(_) => "chaos",
            SpecMode::Perturb(_) => "perturb",
        }
    }

    /// The mode called `name`, at its default policy.
    pub fn named(name: &str) -> Option<SpecMode> {
        SpecMode::all().into_iter().find(|m| m.name() == name)
    }

    /// Walk the mode's policy knobs in wire order.
    fn knobs(&mut self, f: Visit) -> Result<(), String> {
        match self {
            SpecMode::Campaign => Ok(()),
            SpecMode::Guard(p) => visit(GUARD_KNOBS, p, f),
            SpecMode::Ft(p) => visit(FT_KNOBS, p, f),
            SpecMode::Chaos(p) => {
                visit(CHAOS_KNOBS, p, f)?;
                visit(GUARD_KNOBS, &mut p.guard, f)?;
                visit(FT_KNOBS, &mut p.ft, f)
            }
            SpecMode::Perturb(p) => visit(PERTURB_KNOBS, p, f),
        }
    }

    /// The `(key, flags)` rows of the mode's policy knobs, in wire order.
    fn rows(&self) -> Vec<(&'static str, &'static [Flag])> {
        let mut rows = Vec::new();
        let _ = { *self }.knobs(&mut |key, flags, _| {
            rows.push((key, flags));
            Ok(())
        });
        rows
    }

    /// The CLI flags a spec of this mode reads: the campaign-level ones,
    /// then its policy's.
    pub fn flags(&self) -> Vec<Flag> {
        let of_spec = SPEC_KNOBS.iter().map(|k| k.flags);
        let of_policy = self.rows().into_iter().map(|(_, flags)| flags);
        of_spec.chain(of_policy).flatten().copied().collect()
    }

    /// The matrix-campaign description this mode runs on `app` over
    /// `classes`, policies included; `None` for a plain campaign.
    pub(crate) fn matrix(&self, app: AppKind, classes: &[TargetClass]) -> Option<MatrixMode> {
        match *self {
            SpecMode::Campaign => None,
            SpecMode::Guard(policy) => Some(crate::guarded::mode(classes, policy)),
            SpecMode::Ft(policy) => Some(crate::ft::mode(policy, app)),
            SpecMode::Chaos(policy) => Some(crate::chaos::mode(policy)),
            SpecMode::Perturb(policy) => Some(crate::perturb::mode(policy)),
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
        // The knob walk hands out mutable slots, so it walks a copy.
        let mut spec = self.clone();
        let mode = self.mode.name();
        let mut out = format!(
            "{{\"app\":\"{}\"{},\"mode\":\"{mode}\"",
            self.app.name(),
            write_members(|f| visit(SPEC_KNOBS, &mut spec, f)),
        );
        if self.mode != SpecMode::Campaign {
            let policy = write_members(|f| spec.mode.knobs(f));
            let _ = write!(out, ",\"{mode}\":{{{}}}", policy.trim_start_matches(','));
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
        let modes = SpecMode::all().map(|m| m.name());
        let mut keys = vec!["app"];
        keys.extend(SPEC_KNOBS.iter().map(|k| k.key));
        keys.push("mode");
        keys.extend(&modes[1..]);
        known_keys("spec", map, &keys)?;
        let app = v.get("app").and_then(Json::as_str);
        let mut spec = CampaignSpec::new(app.ok_or("spec needs an `app`")?.parse()?);
        read_members(&v, |f| visit(SPEC_KNOBS, &mut spec, f))?;
        let mode = v
            .get("mode")
            .map_or(modes[0], |m| m.as_str().unwrap_or("?"));
        spec.mode = SpecMode::named(mode).ok_or_else(|| {
            format!("unknown mode `{mode}` (expected campaign, guard, ft, chaos or perturb)")
        })?;
        if let Some(policy) = v.get(mode) {
            let Json::Obj(map) = policy else {
                return Err(format!("`{mode}` must be an object"));
            };
            let keys: Vec<&str> = spec.mode.rows().iter().map(|row| row.0).collect();
            known_keys(mode, map, &keys)?;
            read_members(policy, |f| spec.mode.knobs(f))?;
        }
        Ok(spec)
    }

    /// Set knobs from parsed CLI flags: `(name, word)` pairs, the word
    /// present for [`Flag::Value`] flags. Flags that are not among this
    /// spec's [`SpecMode::flags`] are the caller's own and are skipped.
    pub fn set_flags(&mut self, given: &[(String, Option<String>)]) -> Result<(), String> {
        let mut set = |_, flags: &'static [Flag], slot: &mut dyn Slot| {
            let mut hits = given.iter().filter_map(|(name, word)| {
                let flag = flags.iter().find(|f| f.name() == name)?;
                Some((flag, word.as_deref()))
            });
            let Some((flag, word)) = hits.next() else {
                return Ok(());
            };
            if let Some((other, _)) = hits.next() {
                return Err(format!(
                    "`--{}` and `--{}` set the same knob; give one",
                    flag.name(),
                    other.name()
                ));
            }
            let word = match flag {
                Value(name) => word.ok_or_else(|| format!("--{name} needs a value"))?,
                On(_) => "true",
                Off(_) => "false",
            };
            slot.parse(word)
                .map_err(|e| format!("--{}: {e}", flag.name()))
        };
        visit(SPEC_KNOBS, self, &mut set)?;
        self.mode.knobs(&mut set)
    }

    /// The first line of the campaign's table. A function of the spec
    /// alone, so a verb and a committed artifact that run the same spec
    /// print the same title.
    pub fn title(&self) -> String {
        let n = self.campaign.injections;
        let (what, sample) = match self.mode {
            SpecMode::Campaign => (
                "Fault Injection Results",
                format!(
                    "n = {n}, d = {:.1}% @95%",
                    estimation_error(0.95, n) * 100.0
                ),
            ),
            SpecMode::Guard(_) => (
                "Detection Coverage",
                format!("n = {n} paired trials per region"),
            ),
            SpecMode::Ft(_) => (
                "Process-Level Fault Tolerance",
                format!("n = {n} per fault kind"),
            ),
            SpecMode::Chaos(_) => ("Chaos Defense-Coverage Matrix", format!("n = {n} per cell")),
            SpecMode::Perturb(_) => (
                "Performance-Interference Detection Matrix",
                format!("n = {n} per cell"),
            ),
        };
        let (app, paper) = (self.app.name(), self.app.paper_name());
        format!("{what} ({app} / {paper} analogue), {sample}")
    }

    /// The matrix-campaign description this spec runs, policies
    /// included; `None` for a plain campaign.
    pub fn matrix(&self) -> Option<MatrixMode> {
        self.mode.matrix(self.app, &self.classes)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// One knob as the table tests see it: the JSON path to it, its
    /// flags, and a value (JSON text and CLI word) that is not its default.
    struct Row {
        policy: Option<&'static str>,
        key: &'static str,
        flags: &'static [Flag],
        json: &'static str,
        word: &'static str,
    }

    impl Row {
        /// A `mode` spec of wavetoy with this knob alone set to `json`.
        fn doc(&self, mode: &str, json: &str) -> String {
            let member = format!("\"{}\":{json}", self.key);
            match self.policy {
                None => format!("{{\"app\":\"wavetoy\",\"mode\":\"{mode}\",{member}}}"),
                Some(p) => {
                    format!("{{\"app\":\"wavetoy\",\"mode\":\"{mode}\",\"{p}\":{{{member}}}}}")
                }
            }
        }
    }

    /// Every knob a spec of `mode` has, campaign-level first.
    fn rows(mode: SpecMode) -> Vec<Row> {
        let mut spec = CampaignSpec::new(AppKind::Wavetoy);
        spec.mode = mode;
        let mut rows = Vec::new();
        let mut row = |key, flags, slot: &mut dyn Slot| {
            let mut default = String::new();
            slot.write(&mut default);
            let (json, word) = match default.as_str() {
                "true" => ("false", ""),
                "false" => ("true", ""),
                "3" if key == "budget_factor" => ("2.5", ""),
                list if list.starts_with('[') => ("[\"heap\"]", "heap"),
                _ => ("7", "7"),
            };
            assert_ne!(default, json, "{key}: the probe value is the default");
            rows.push(Row {
                policy: None,
                key,
                flags,
                json,
                word,
            });
            Ok(())
        };
        visit(SPEC_KNOBS, &mut spec, &mut row).unwrap();
        spec.mode.knobs(&mut row).unwrap();
        for of_policy in &mut rows[SPEC_KNOBS.len()..] {
            of_policy.policy = Some(mode.name());
        }
        rows
    }

    #[test]
    fn every_knob_round_trips_by_json_and_by_each_of_its_flags() {
        for mode in SpecMode::all() {
            let name = mode.name();
            let default =
                CampaignSpec::from_json(&format!("{{\"app\":\"wavetoy\",\"mode\":\"{name}\"}}"))
                    .unwrap();
            assert_eq!(default.mode, mode, "mode alone defaults the whole policy");
            for row in rows(mode) {
                let key = row.key;
                let by_json = CampaignSpec::from_json(&row.doc(name, row.json)).unwrap();
                assert_ne!(by_json, default, "{name}.{key}: nothing was set");
                let json = by_json.to_json();
                let member = format!("\"{key}\":{}", row.json);
                assert!(json.contains(&member), "{name}.{key}: {json}");
                let back = CampaignSpec::from_json(&json).unwrap();
                assert_eq!(back, by_json, "{name}.{key}");
                assert_eq!(back.to_json(), json, "{name}.{key}: canonical fixed point");
                for flag in row.flags {
                    let word = matches!(flag, Value(_)).then(|| row.word.to_string());
                    let mut by_flag = default.clone();
                    by_flag
                        .set_flags(&[(flag.name().to_string(), word)])
                        .unwrap();
                    assert_eq!(by_flag, by_json, "{name}.{key} via --{}", flag.name());
                    assert!(
                        mode.flags().contains(flag),
                        "{name} reads --{}",
                        flag.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_table_rejects_unknown_keys_and_out_of_range_values() {
        for mode in SpecMode::all() {
            let name = mode.name();
            let mut refused = Vec::new();
            for row in rows(mode) {
                let key = row.key;
                // One letter off: an unknown key, with the knob as the hint.
                let typo = Row {
                    key: &key[1..],
                    ..row
                };
                let err = CampaignSpec::from_json(&typo.doc(name, row.json)).unwrap_err();
                let what = row.policy.unwrap_or("spec");
                assert!(
                    err.starts_with(&format!(
                        "unknown {what} key `{}` (did you mean `",
                        &key[1..]
                    )),
                    "{name}.{key}: {err}"
                );
                // 2^32 fits the 64-bit knobs and no other integer knob.
                if row.json == "7" {
                    match CampaignSpec::from_json(&row.doc(name, "4294967296")) {
                        Ok(_) => {}
                        Err(e) => {
                            assert_eq!(e, format!("`{key}` out of range"));
                            refused.push(row.policy);
                        }
                    }
                    let err = CampaignSpec::from_json(&row.doc(name, "\"many\"")).unwrap_err();
                    assert_eq!(err, format!("`{key}` must be an integer"));
                }
            }
            assert!(
                refused.contains(&None),
                "{name}: a campaign-level knob is narrow"
            );
            let policy = (mode != SpecMode::Campaign).then_some(name);
            assert!(
                policy.is_none() || refused.contains(&policy),
                "{name}: a policy knob is narrow"
            );
        }
    }

    #[test]
    fn the_tables_accept_exactly_the_keys_and_flags_of_the_hand_written_codecs() {
        // The lists the pre-table `from_json` and CLI spelled out (PR 16),
        // written out once more here and nowhere else.
        const SPEC: (&str, &str) = (
            "tiny regions injections seed budget_factor threads epoch_rounds ring fastpath",
            "tiny regions injections seed threads jobs epoch-rounds ring no-fastpath",
        );
        const GUARD: (&str, &str) = (
            "checkpoint_rounds max_restarts window_rounds stall_windows max_retransmits",
            "checkpoint-rounds restarts retransmits",
        );
        const FT: (&str, &str) = (
            "buddy_rounds max_respawns replicas probe_rounds suspect_rounds",
            "buddy-rounds respawns replicas probe-rounds suspect-rounds",
        );
        const CHAOS: (&str, &str) = (
            "partition_lo partition_hi reorder_max_delay burst_max node_ranks",
            "partition-lo partition-hi reorder-delay burst-max node-ranks",
        );
        const PERTURB: (&str, &str) = (
            "probe_rounds suspect_rounds tax_rounds_lo tax_rounds_hi tax_permille_lo \
             tax_permille_hi hog_share_lo hog_share_hi hog_node_ranks stall_per_access_lo \
             stall_per_access_hi stall_window_per16_lo stall_window_per16_hi degraded_permille",
            "probe-rounds suspect-rounds tax-rounds-lo tax-rounds-hi tax-lo tax-hi \
             hog-share-lo hog-share-hi hog-node-ranks stall-access-lo stall-access-hi \
             stall-window-lo stall-window-hi degraded-permille",
        );
        let parents: [&[(&str, &str)]; 5] = [
            &[SPEC],
            &[SPEC, GUARD],
            &[SPEC, FT],
            &[SPEC, CHAOS, GUARD, FT],
            &[SPEC, PERTURB],
        ];
        for (mode, parent) in SpecMode::all().into_iter().zip(parents) {
            let rows = rows(mode);
            let keys: Vec<&str> = rows.iter().map(|r| r.key).collect();
            let flags: Vec<&str> = mode.flags().iter().map(|f| f.name()).collect();
            let want = |pick: fn(&(&'static str, &'static str)) -> &'static str| {
                let lists = parent.iter().map(pick).collect::<Vec<_>>().join(" ");
                lists
                    .split_whitespace()
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            };
            assert_eq!(keys, want(|p| p.0), "{} keys, in wire order", mode.name());
            assert_eq!(flags, want(|p| p.1), "{} flags", mode.name());
            // Value flags take a word; only the two bool knobs are switches.
            let switches: Vec<&Flag> = rows
                .iter()
                .flat_map(|r| r.flags)
                .filter(|f| !matches!(f, Value(_)))
                .collect();
            assert_eq!(switches, [&On("tiny"), &Off("no-fastpath")]);
        }
    }

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
        // A record class is not a region: nothing draws a bit flip in it.
        let err = CampaignSpec::from_json(r#"{"app":"wavetoy","regions":["network"]}"#);
        assert!(err.unwrap_err().contains("not an injection region"));
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
