//! Result rendering: the [`Report`] trait unifying every result
//! family's output formats, plus the §6.1.1 register analysis.
//!
//! Each result family — plain injection ([`CampaignResult`]), matrix
//! campaigns ([`crate::matrix::MatrixResult`]) and event metrics
//! ([`MetricsReport`]) — implements [`Report`], so every CLI verb
//! renders through the same three formats (`table`/`tsv`/`jsonl`) and a
//! new mode gets all three for free. [`join_reports`] makes one artifact
//! of several campaigns' views — how every multi-app `results/*` file is
//! assembled.
//!
//! [`render_table`] reproduces the layout of the paper's Tables 2–4: one
//! row per injected region with the error rate and the breakdown of
//! manifestations as percentages *of manifested errors*. Applications
//! without internal checks (Wavetoy) simply show empty App/MPI-Detected
//! columns, as Table 2 does.

use crate::campaign::{CampaignResult, ClassResult, ConvergeStats};
use crate::json::escape;
use crate::obs::CampaignMetrics;
use crate::outcome::Manifestation;
use crate::target::TargetClass;
use fl_apps::AppKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which of the three output formats a consumer asked for — the CLI's
/// `--tsv`/`--jsonl` flag pair, as a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Human-readable table (the default).
    Table,
    /// Tab-separated values for downstream plotting.
    Tsv,
    /// One JSON object per line.
    Jsonl,
}

impl ReportFormat {
    /// Resolve a verb's `--tsv`/`--jsonl` flags (JSONL wins when both
    /// are given, matching the verbs' historical precedence).
    pub fn from_flags(tsv: bool, jsonl: bool) -> ReportFormat {
        if jsonl {
            ReportFormat::Jsonl
        } else if tsv {
            ReportFormat::Tsv
        } else {
            ReportFormat::Table
        }
    }
}

/// One result family's full set of output formats.
///
/// `title` is only consulted by [`Report::table`]; the machine formats
/// identify the campaign in their own fields.
pub trait Report {
    /// Human-readable table.
    fn table(&self, title: &str) -> String;
    /// Tab-separated values, header row first.
    fn tsv(&self) -> String;
    /// One JSON object per line.
    fn jsonl(&self) -> String;

    /// Dispatch on a [`ReportFormat`].
    fn render(&self, format: ReportFormat, title: &str) -> String {
        match format {
            ReportFormat::Table => self.table(title),
            ReportFormat::Tsv => self.tsv(),
            ReportFormat::Jsonl => self.jsonl(),
        }
    }
}

/// One `format` view of several campaigns as a single artifact. `parts`
/// pairs each campaign's app name with its rendered view; a lone part is
/// the artifact as it is. Tables are set apart by a blank line, TSVs
/// share the first one's header behind a leading `app` column, JSONL
/// (every object names its app already) is concatenated.
pub fn join_reports(format: ReportFormat, parts: &[(&str, String)]) -> String {
    if let [(_, only)] = parts {
        return only.clone();
    }
    let views = parts.iter().map(|(_, view)| view.as_str());
    match format {
        ReportFormat::Table => views.collect::<Vec<_>>().join("\n"),
        ReportFormat::Jsonl => views.collect(),
        ReportFormat::Tsv => {
            let mut out = String::new();
            for (i, (app, view)) in parts.iter().enumerate() {
                let mut lines = view.lines();
                if let (0, Some(header)) = (i, lines.next()) {
                    let _ = writeln!(out, "app\t{header}");
                }
                for line in lines {
                    let _ = writeln!(out, "{app}\t{line}");
                }
            }
            out
        }
    }
}

impl Report for CampaignResult {
    fn table(&self, title: &str) -> String {
        render_table(self, title)
    }

    fn tsv(&self) -> String {
        render_tsv(self)
    }

    /// One line per trial with its campaign coordinates. The engine's
    /// live record stream ([`crate::record_line`]) is a superset of
    /// this view — it adds per-trial instruction counts and
    /// observability fields only the running engine knows.
    fn jsonl(&self) -> String {
        let mut out = String::new();
        for (ci, c) in self.classes.iter().enumerate() {
            for (k, t) in c.trials.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{{\"app\":\"{}\",\"class\":\"{}\",\"ci\":{ci},\"k\":{k},\"detail\":\"{}\",\"outcome\":\"{}\"}}",
                    self.app.name(),
                    t.class.name(),
                    escape(&t.detail),
                    t.outcome.slug(),
                );
            }
        }
        out
    }
}

/// [`CampaignMetrics`] paired with the app it measured — the metrics
/// serializers need the app name on every row, and the metrics struct
/// itself does not carry it.
#[derive(Debug, Clone, Copy)]
pub struct MetricsReport<'a> {
    /// Which application the campaign injected into.
    pub app: AppKind,
    /// The event-stream aggregates.
    pub metrics: &'a CampaignMetrics,
    /// Campaign telemetry (exec-cache and early-termination counters),
    /// appended as a trailing TSV/JSONL row when present. `None` leaves
    /// the rendering exactly as before (model campaigns have neither).
    pub telemetry: Option<(&'a fl_machine::ExecStats, &'a ConvergeStats)>,
}

impl Report for MetricsReport<'_> {
    fn table(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "{:<14} {:>7} {:>7} {:>12} {:>11} {:>13} {:>9}",
            "Region", "Trials", "Landed", "Symptomatic", "Events", "Insns", "MeanTTM"
        );
        let _ = writeln!(out, "{}", "-".repeat(79));
        for m in &self.metrics.classes {
            let _ = writeln!(
                out,
                "{:<14} {:>7} {:>7} {:>12} {:>11} {:>13} {:>9.1}",
                m.class.label(),
                m.trials,
                m.landed,
                m.symptomatic,
                m.events_total,
                m.insns_total,
                m.mean_ttm(),
            );
        }
        out
    }

    fn tsv(&self) -> String {
        let mut out = self.metrics.to_tsv(self.app);
        if let Some((exec, converge)) = self.telemetry {
            out.push_str(&crate::obs::exec_cache_tsv(self.app, exec, converge));
        }
        out
    }

    fn jsonl(&self) -> String {
        let mut out = self.metrics.to_jsonl(self.app);
        if let Some((exec, converge)) = self.telemetry {
            out.push_str(&crate::obs::exec_cache_jsonl(self.app, exec, converge));
        }
        out
    }
}

fn pct(v: f64) -> String {
    if v == 0.0 {
        String::new()
    } else {
        format!("{v:.1}")
    }
}

/// Render a campaign as a paper-style table (Tables 2–4).
pub fn render_table(r: &CampaignResult, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>9} | {:>7} {:>6} {:>9} {:>8} {:>8}",
        "Region", "Executions", "Errors(%)", "Crash", "Hang", "Incorrect", "AppDet", "MpiDet"
    );
    let _ = writeln!(out, "{}", "-".repeat(86));
    for c in &r.classes {
        let t = &c.tally;
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>9.1} | {:>7} {:>6} {:>9} {:>8} {:>8}",
            c.class.label(),
            t.executions,
            t.error_rate_percent(),
            pct(t.manifestation_percent(Manifestation::Crash)),
            pct(t.manifestation_percent(Manifestation::Hang)),
            pct(t.manifestation_percent(Manifestation::Incorrect)),
            pct(t.manifestation_percent(Manifestation::AppDetected)),
            pct(t.manifestation_percent(Manifestation::MpiDetected)),
        );
    }
    out
}

/// Render a table as tab-separated values (for downstream plotting).
pub fn render_tsv(r: &CampaignResult) -> String {
    let mut out = String::from(
        "region\texecutions\terror_rate\tcrash\thang\tincorrect\tapp_detected\tmpi_detected\n",
    );
    for c in &r.classes {
        let t = &c.tally;
        let _ = writeln!(
            out,
            "{}\t{}\t{:.2}\t{:.2}\t{:.2}\t{:.2}\t{:.2}\t{:.2}",
            c.class.label(),
            t.executions,
            t.error_rate_percent(),
            t.manifestation_percent(Manifestation::Crash),
            t.manifestation_percent(Manifestation::Hang),
            t.manifestation_percent(Manifestation::Incorrect),
            t.manifestation_percent(Manifestation::AppDetected),
            t.manifestation_percent(Manifestation::MpiDetected),
        );
    }
    out
}

/// Per-register error rates extracted from a register-class result —
/// the §6.1.1 analysis ("ESP/EBP are live in every cycle; most x87
/// special registers are inert").
pub fn register_breakdown(c: &ClassResult) -> BTreeMap<String, (u32, u32)> {
    assert!(matches!(
        c.class,
        TargetClass::RegularReg | TargetClass::FpReg
    ));
    let mut map: BTreeMap<String, (u32, u32)> = BTreeMap::new();
    for t in &c.trials {
        // detail format: "rank R t=N: <reg> bit B"
        let reg = t
            .detail
            .split(": ")
            .nth(1)
            .and_then(|s| s.split(" bit").next())
            .unwrap_or("?")
            .to_string();
        let e = map.entry(reg).or_insert((0, 0));
        e.0 += 1;
        if t.outcome.is_error() {
            e.1 += 1;
        }
    }
    map
}

/// Render the register breakdown as text.
pub fn render_register_breakdown(c: &ClassResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>7} {:>8}",
        "Register", "Trials", "Errors", "Rate(%)"
    );
    for (reg, (n, e)) in register_breakdown(c) {
        let rate = if n > 0 {
            100.0 * e as f64 / n as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "{reg:<8} {n:>6} {e:>7} {rate:>8.1}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_apps::{App, AppKind, AppParams};

    /// A seed-3 campaign of wavetoy-tiny on two workers.
    fn campaign(classes: &[TargetClass], injections: u32, obs_capacity: u32) -> CampaignResult {
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let cfg = crate::CampaignConfig {
            injections,
            seed: 3,
            threads: 2,
            obs_capacity,
            ..Default::default()
        };
        crate::engine::run_campaign(&app, classes, &cfg)
    }

    fn small_result() -> CampaignResult {
        campaign(&[TargetClass::RegularReg, TargetClass::Data], 10, 0)
    }

    #[test]
    fn table_renders_all_rows() {
        let r = small_result();
        let table = render_table(&r, "Table 2: Fault Injection Results (Wavetoy)");
        assert!(table.contains("Regular Reg."));
        assert!(table.contains("Data"));
        assert!(table.contains("Executions"));
        assert!(table.lines().count() >= 5);
    }

    #[test]
    fn tsv_is_machine_readable() {
        let r = small_result();
        let tsv = render_tsv(&r);
        let mut lines = tsv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split('\t').count(), 8);
        for line in lines {
            assert_eq!(line.split('\t').count(), 8, "{line}");
        }
    }

    #[test]
    fn report_trait_unifies_the_formats() {
        let r = small_result();
        assert_eq!(r.table("t"), render_table(&r, "t"));
        assert_eq!(r.tsv(), render_tsv(&r));
        let jsonl = r.jsonl();
        assert_eq!(jsonl.lines().count() as u64, r.trials_total());
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with("{\"app\":\"wavetoy\"") && l.ends_with('}')));
        assert_eq!(r.render(ReportFormat::Table, "t"), r.table("t"));
        assert_eq!(r.render(ReportFormat::Tsv, ""), r.tsv());
        assert_eq!(r.render(ReportFormat::Jsonl, ""), r.jsonl());
    }

    #[test]
    fn joined_reports_tag_tsv_rows_and_keep_a_lone_part_as_it_is() {
        let tsv = |rows: &str| format!("region\terrors\n{rows}");
        let lone = [("wavetoy", tsv("Heap\t1\n"))];
        assert_eq!(join_reports(ReportFormat::Tsv, &lone), lone[0].1);
        let two = [
            ("wavetoy", tsv("Heap\t1\nData\t2\n")),
            ("moldyn", tsv("Heap\t3\n")),
        ];
        assert_eq!(
            join_reports(ReportFormat::Tsv, &two),
            "app\tregion\terrors\nwavetoy\tHeap\t1\nwavetoy\tData\t2\nmoldyn\tHeap\t3\n"
        );
        let tables = [
            ("a", "T1\nrow\n".to_string()),
            ("b", "T2\nrow\n".to_string()),
        ];
        assert_eq!(
            join_reports(ReportFormat::Table, &tables),
            "T1\nrow\n\nT2\nrow\n"
        );
        assert_eq!(
            join_reports(ReportFormat::Jsonl, &tables),
            "T1\nrow\nT2\nrow\n"
        );
    }

    #[test]
    fn report_format_resolves_flag_pairs() {
        assert_eq!(ReportFormat::from_flags(false, false), ReportFormat::Table);
        assert_eq!(ReportFormat::from_flags(true, false), ReportFormat::Tsv);
        assert_eq!(ReportFormat::from_flags(false, true), ReportFormat::Jsonl);
        assert_eq!(ReportFormat::from_flags(true, true), ReportFormat::Jsonl);
    }

    #[test]
    fn metrics_report_renders_all_formats() {
        let r = campaign(&[TargetClass::RegularReg], 4, 256);
        let metrics = r.metrics.as_ref().unwrap();
        let view = MetricsReport {
            app: r.app,
            metrics,
            telemetry: None,
        };
        let table = view.table("metrics demo");
        assert!(table.contains("Regular Reg."));
        assert!(table.contains("MeanTTM"));
        assert_eq!(view.tsv(), metrics.to_tsv(r.app));
        assert_eq!(view.jsonl(), metrics.to_jsonl(r.app));

        // With telemetry attached, the per-class rows stay untouched and
        // the exec-cache counters land as a trailing row/object.
        let telem = MetricsReport {
            app: r.app,
            metrics,
            telemetry: Some((&r.exec_stats, &r.converge)),
        };
        assert!(telem.tsv().starts_with(&metrics.to_tsv(r.app)));
        assert!(telem.tsv().contains("# exec_cache"));
        assert!(telem.jsonl().starts_with(&metrics.to_jsonl(r.app)));
        assert!(telem.jsonl().contains("\"telemetry\":\"exec_cache\""));
        assert!(telem.jsonl().contains("\"block_hits\":"));
        assert!(telem
            .tsv()
            .contains("\ttrials_converged\tepoch_compares\tgranules_excused\tdecided_at_draw\tforked_at_round\tended_between_epochs\n"));
        assert!(telem
            .jsonl()
            .contains("\"trials_converged\":0,\"epoch_compares\":0"));
        assert!(telem
            .jsonl()
            .contains("\"forked_at_round\":0,\"ended_between_epochs\":0}"));
    }

    #[test]
    fn register_breakdown_parses_details() {
        let r = small_result();
        let c = r.class(TargetClass::RegularReg).unwrap();
        let map = register_breakdown(c);
        let total: u32 = map.values().map(|&(n, _)| n).sum();
        assert_eq!(total, 10);
        // Register names must be recognisable.
        for reg in map.keys() {
            assert!(
                reg == "eip"
                    || reg == "eflags"
                    || ["eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"]
                        .contains(&reg.as_str()),
                "unexpected register {reg}"
            );
        }
        let rendered = render_register_breakdown(c);
        assert!(rendered.contains("Register"));
    }
}
