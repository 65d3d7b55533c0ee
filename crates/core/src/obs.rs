//! Trial-level and campaign-level aggregation of `fl-obs` event
//! streams, plus the JSONL/TSV sinks.
//!
//! The machine and MPI layers record *what happened*; this module turns
//! those per-rank ring buffers into the telemetry the FINJ-style
//! observability direction asks for:
//!
//! * [`TrialTrace`] — one trial's record plus its per-rank event
//!   streams and merged timeline (`faultlab events`);
//! * [`TrialMetrics`] — derived per-trial numbers: when the fault
//!   landed, when the first symptom appeared, the latency between them
//!   in blocks, and a per-kind event histogram;
//! * [`ClassMetrics`] / [`CampaignMetrics`] — per-region aggregates
//!   folded trial-by-trial so memory stays bounded no matter how many
//!   injections the campaign runs (`faultlab metrics`).
//!
//! All serialization is hand-rolled line-oriented text, in the same
//! style as the `report` module's tables: JSONL for machine consumers,
//! TSV for spreadsheets.

use crate::campaign::{ConvergeStats, TrialRecord};
use crate::outcome::Manifestation;
use crate::target::TargetClass;
use fl_apps::AppKind;
use fl_machine::ExecStats;
use fl_obs::{merge_ranks, Event, EventKind, EventLog};
use std::fmt::Write as _;

/// Number of event kinds (histogram width).
pub const KIND_COUNT: usize = EventKind::NAMES.len();

/// Log₂ buckets for the time-to-manifestation histogram: bucket 0 is
/// latency 0, bucket i ≥ 1 covers [2^(i-1), 2^i) blocks, the last
/// bucket absorbs everything larger.
pub const TTM_BUCKETS: usize = 24;

/// One trial's full telemetry: the outcome record plus the event
/// streams every rank retained.
#[derive(Debug, Clone)]
pub struct TrialTrace {
    /// What was injected and what happened.
    pub record: TrialRecord,
    /// The rank the fault targeted.
    pub rank: u16,
    /// Guest instructions retired across all ranks by trial end.
    pub insns: u64,
    /// What early termination did to this one trial
    /// ([`ConvergeStats::ended`] says it in words).
    pub converge: ConvergeStats,
    /// The scheduler round the trial's world stood at when it ended.
    pub round: u64,
    /// Retained events per rank (index = rank), oldest first.
    pub streams: Vec<Vec<Event>>,
}

impl TrialTrace {
    /// The merged global timeline, ordered by (clock, rank, seq).
    pub fn timeline(&self) -> Vec<(u16, Event)> {
        merge_ranks(&self.streams)
    }

    /// Serialize the merged timeline as JSONL, one event per line.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for (rank, e) in self.timeline() {
            out.push_str(&EventLog::jsonl_line(rank, &e));
            out.push('\n');
        }
        out
    }

    /// Derive the per-trial metrics from the streams.
    pub fn metrics(&self) -> TrialMetrics {
        trial_metrics(&self.record, self.rank, &self.streams, self.insns)
    }
}

/// Derived per-trial numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialMetrics {
    /// The trial's outcome.
    pub outcome: Manifestation,
    /// Block clock (on the victim rank) at which the injection landed:
    /// the `fault_fired` / `msg_fault_hit` event. `None` when the fault
    /// never fired (e.g. a message offset the run never reached) or
    /// recording was off.
    pub injection_clock: Option<u64>,
    /// Block clock of the first symptom event (`signal` or `mpi_error`,
    /// on any rank) — absent for silent outcomes (correct, incorrect
    /// output, hang).
    pub first_symptom_clock: Option<u64>,
    /// Time to manifestation in blocks: symptom clock − injection
    /// clock. Symptoms on a non-victim rank use that rank's own block
    /// clock, so cross-rank latencies are consistent interleaving time,
    /// not a true global order.
    pub blocks_to_manifestation: Option<u64>,
    /// Events recorded (across all ranks) between the injection and the
    /// first symptom, exclusive of both endpoints.
    pub events_to_symptom: Option<u64>,
    /// Total events retained across all ranks.
    pub events_total: u64,
    /// Guest instructions retired across all ranks by trial end.
    pub insns: u64,
    /// Retained events per kind, indexed like [`EventKind::NAMES`].
    pub kind_counts: [u64; KIND_COUNT],
}

/// Whether an event is a symptom: the moment some layer *noticed* —
/// including the guard's channel CRC and progress watchdog.
fn is_symptom(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::SignalRaised { .. }
            | EventKind::MpiError { .. }
            | EventKind::CrcReject { .. }
            | EventKind::WatchdogTrip { .. }
    )
}

/// Whether an event marks the injection landing.
fn is_injection(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::FaultFired { .. } | EventKind::MessageFaultHit { .. }
    )
}

/// Compute [`TrialMetrics`] from a trial's record, event streams, and
/// retired-instruction total.
pub fn trial_metrics(
    record: &TrialRecord,
    rank: u16,
    streams: &[Vec<Event>],
    insns: u64,
) -> TrialMetrics {
    let mut kind_counts = [0u64; KIND_COUNT];
    let mut events_total = 0u64;
    for s in streams {
        for e in s {
            kind_counts[e.kind.index()] += 1;
            events_total += 1;
        }
    }
    let injection_clock = streams
        .get(rank as usize)
        .and_then(|s| s.iter().find(|e| is_injection(e.kind)))
        .map(|e| e.clock);
    // The golden prefix is symptom-free, so the first symptom anywhere
    // is attributable to the injection.
    let first_symptom_clock = streams
        .iter()
        .flatten()
        .filter(|e| is_symptom(e.kind))
        .map(|e| e.clock)
        .min();
    let blocks_to_manifestation = match (injection_clock, first_symptom_clock) {
        (Some(i), Some(s)) => Some(s.saturating_sub(i)),
        _ => None,
    };
    let events_to_symptom = match (injection_clock, first_symptom_clock) {
        (Some(i), Some(s)) => Some(
            streams
                .iter()
                .flatten()
                .filter(|e| e.clock > i && e.clock < s && !is_symptom(e.kind))
                .count() as u64,
        ),
        _ => None,
    };
    TrialMetrics {
        outcome: record.outcome,
        injection_clock,
        first_symptom_clock,
        blocks_to_manifestation,
        events_to_symptom,
        events_total,
        insns,
        kind_counts,
    }
}

/// Aggregated metrics for one target class, folded trial-by-trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassMetrics {
    /// The injected class.
    pub class: TargetClass,
    /// Trials folded in.
    pub trials: u32,
    /// Trials whose injection observably landed.
    pub landed: u32,
    /// Trials with a symptom event (crash/MPI-detected style).
    pub symptomatic: u32,
    /// Sum of retained events over all trials.
    pub events_total: u64,
    /// Sum of guest instructions retired over all trials.
    pub insns_total: u64,
    /// Per-kind event totals, indexed like [`EventKind::NAMES`].
    pub kind_counts: [u64; KIND_COUNT],
    /// Log₂ histogram of blocks-to-manifestation (see [`TTM_BUCKETS`]).
    pub ttm_log2: [u32; TTM_BUCKETS],
    /// Sum of blocks-to-manifestation over symptomatic trials.
    pub ttm_sum: u64,
    /// Sum of events-between-injection-and-symptom.
    pub events_to_symptom_sum: u64,
    /// Sum of measured slowdown over correct-output trials, in permille
    /// of the fault-free reference (fl-perturb campaigns; 0 elsewhere).
    pub slowdown_permille_sum: u64,
    /// Trials contributing to [`ClassMetrics::slowdown_permille_sum`].
    pub slowdown_trials: u32,
    /// Trials that missed their deadline outright — hung or exhausted
    /// their budget (fl-perturb campaigns; 0 elsewhere).
    pub deadline_misses: u32,
}

impl ClassMetrics {
    /// An empty accumulator for `class`.
    pub fn new(class: TargetClass) -> ClassMetrics {
        ClassMetrics {
            class,
            trials: 0,
            landed: 0,
            symptomatic: 0,
            events_total: 0,
            insns_total: 0,
            kind_counts: [0; KIND_COUNT],
            ttm_log2: [0; TTM_BUCKETS],
            ttm_sum: 0,
            events_to_symptom_sum: 0,
            slowdown_permille_sum: 0,
            slowdown_trials: 0,
            deadline_misses: 0,
        }
    }

    /// Fold one correct-output trial's measured slowdown in (fl-perturb).
    pub fn fold_slowdown(&mut self, permille: u64) {
        self.slowdown_permille_sum += permille;
        self.slowdown_trials += 1;
    }

    /// Mean slowdown factor over contributing trials (1.0 = clean pace;
    /// 0.0 with no contributing trials).
    pub fn mean_slowdown_x(&self) -> f64 {
        if self.slowdown_trials == 0 {
            0.0
        } else {
            self.slowdown_permille_sum as f64 / (1000.0 * self.slowdown_trials as f64)
        }
    }

    /// Fold one trial's metrics in.
    pub fn fold(&mut self, m: &TrialMetrics) {
        self.trials += 1;
        if m.injection_clock.is_some() {
            self.landed += 1;
        }
        self.events_total += m.events_total;
        self.insns_total += m.insns;
        for (acc, n) in self.kind_counts.iter_mut().zip(m.kind_counts) {
            *acc += n;
        }
        if let Some(ttm) = m.blocks_to_manifestation {
            self.symptomatic += 1;
            self.ttm_sum += ttm;
            self.ttm_log2[ttm_bucket(ttm)] += 1;
        }
        if let Some(n) = m.events_to_symptom {
            self.events_to_symptom_sum += n;
        }
    }

    /// Mean blocks-to-manifestation over symptomatic trials.
    pub fn mean_ttm(&self) -> f64 {
        if self.symptomatic == 0 {
            0.0
        } else {
            self.ttm_sum as f64 / self.symptomatic as f64
        }
    }
}

/// The log₂ bucket index for a latency value.
pub fn ttm_bucket(ttm: u64) -> usize {
    if ttm == 0 {
        0
    } else {
        (64 - ttm.leading_zeros() as usize).min(TTM_BUCKETS - 1)
    }
}

/// A whole campaign's event metrics: one [`ClassMetrics`] per requested
/// class, in request order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignMetrics {
    /// Per-class aggregates.
    pub classes: Vec<ClassMetrics>,
}

impl CampaignMetrics {
    /// The metrics row for a class, if present.
    pub fn class(&self, c: TargetClass) -> Option<&ClassMetrics> {
        self.classes.iter().find(|m| m.class == c)
    }

    /// Serialize as JSONL: one object per class.
    pub fn to_jsonl(&self, app: AppKind) -> String {
        let mut out = String::new();
        for m in &self.classes {
            let _ = write!(
                out,
                "{{\"app\":\"{}\",\"class\":\"{}\",\"trials\":{},\"landed\":{},\"symptomatic\":{},\"events_total\":{},\"insns_total\":{},\"mean_ttm_blocks\":{:.1},\"events_to_symptom\":{}",
                app.name(),
                m.class.name(),
                m.trials,
                m.landed,
                m.symptomatic,
                m.events_total,
                m.insns_total,
                m.mean_ttm(),
                m.events_to_symptom_sum,
            );
            let _ = write!(
                out,
                ",\"slowdown_mean_x\":{:.3},\"slowdown_trials\":{},\"deadline_misses\":{}",
                m.mean_slowdown_x(),
                m.slowdown_trials,
                m.deadline_misses,
            );
            out.push_str(",\"events\":{");
            for (i, name) in EventKind::NAMES.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{name}\":{}", m.kind_counts[i]);
            }
            out.push_str("},\"ttm_log2\":[");
            for (i, n) in m.ttm_log2.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{n}");
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Serialize as TSV: a header row, then one row per class.
    pub fn to_tsv(&self, app: AppKind) -> String {
        let mut out = String::from("app\tclass\ttrials\tlanded\tsymptomatic\tevents_total\tinsns_total\tmean_ttm_blocks\tevents_to_symptom\tslowdown_mean_x\tslowdown_trials\tdeadline_misses");
        for name in EventKind::NAMES {
            let _ = write!(out, "\t{name}");
        }
        out.push('\n');
        for m in &self.classes {
            let _ = write!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.1}\t{}",
                app.name(),
                m.class.name(),
                m.trials,
                m.landed,
                m.symptomatic,
                m.events_total,
                m.insns_total,
                m.mean_ttm(),
                m.events_to_symptom_sum,
            );
            let _ = write!(
                out,
                "\t{:.3}\t{}\t{}",
                m.mean_slowdown_x(),
                m.slowdown_trials,
                m.deadline_misses,
            );
            for n in m.kind_counts {
                let _ = write!(out, "\t{n}");
            }
            out.push('\n');
        }
        out
    }
}

/// Campaign telemetry as one trailing TSV row (a `#`-prefixed header
/// plus a `#`-prefixed value row, so per-class data rows parse
/// unchanged): the exec-cache counters, then what convergence-aware
/// termination skipped. Telemetry is campaign-wide and (the exec half)
/// execution-path-dependent — it never enters the per-class rows, which
/// stay byte-identical across the trace, block, and slow paths.
pub fn exec_cache_tsv(app: AppKind, s: &ExecStats, c: &ConvergeStats) -> String {
    format!(
        "# exec_cache\tapp\tblock_hits\tblock_misses\ttrace_hits\ttrace_side_exits\tdemotions\ttrials_converged\tepoch_compares\tgranules_excused\tdecided_at_draw\tforked_at_round\tended_between_epochs\n\
         # exec_cache\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        app.name(),
        s.block_hits,
        s.block_misses,
        s.trace_hits,
        s.trace_side_exits,
        s.demotions,
        c.trials_converged,
        c.epoch_compares,
        c.granules_excused,
        c.decided_at_draw,
        c.forked_at_round,
        c.ended_between_epochs,
    )
}

/// Campaign telemetry as one trailing JSONL object, tagged with a
/// `"telemetry"` discriminator so class-row consumers can skip it.
pub fn exec_cache_jsonl(app: AppKind, s: &ExecStats, c: &ConvergeStats) -> String {
    format!(
        "{{\"telemetry\":\"exec_cache\",\"app\":\"{}\",\"block_hits\":{},\"block_misses\":{},\"trace_hits\":{},\"trace_side_exits\":{},\"demotions\":{},\"trials_converged\":{},\"epoch_compares\":{},\"granules_excused\":{},\"decided_at_draw\":{},\"forked_at_round\":{},\"ended_between_epochs\":{}}}\n",
        app.name(),
        s.block_hits,
        s.block_misses,
        s.trace_hits,
        s.trace_side_exits,
        s.demotions,
        c.trials_converged,
        c.epoch_compares,
        c.granules_excused,
        c.decided_at_draw,
        c.forked_at_round,
        c.ended_between_epochs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_obs::SigKind;

    fn ev(seq: u64, clock: u64, kind: EventKind) -> Event {
        Event { seq, clock, kind }
    }

    fn record() -> TrialRecord {
        TrialRecord {
            class: TargetClass::RegularReg,
            detail: "rank 0 t=10: eax bit 3".into(),
            outcome: Manifestation::Crash,
        }
    }

    #[test]
    fn metrics_measure_injection_to_symptom_latency() {
        let streams = vec![
            vec![
                ev(
                    0,
                    5,
                    EventKind::MsgSend {
                        to: 1,
                        tag: 0,
                        bytes: 8,
                    },
                ),
                ev(1, 10, EventKind::FaultFired { at_insns: 1000 }),
                ev(
                    2,
                    12,
                    EventKind::MallocCall {
                        size: 64,
                        ptr: 4096,
                    },
                ),
                ev(
                    3,
                    20,
                    EventKind::SignalRaised {
                        signal: SigKind::Segv,
                        addr: 0x1234,
                    },
                ),
            ],
            vec![ev(0, 11, EventKind::SyscallTrap { num: 40 })],
        ];
        let m = trial_metrics(&record(), 0, &streams, 12_345);
        assert_eq!(m.injection_clock, Some(10));
        assert_eq!(m.first_symptom_clock, Some(20));
        assert_eq!(m.blocks_to_manifestation, Some(10));
        // Between clock 10 and 20, exclusive: the malloc (12) and the
        // other rank's syscall (11).
        assert_eq!(m.events_to_symptom, Some(2));
        assert_eq!(m.events_total, 5);
        assert_eq!(m.insns, 12_345);
        assert_eq!(
            m.kind_counts[EventKind::FaultFired { at_insns: 0 }.index()],
            1
        );
    }

    #[test]
    fn fault_that_never_lands_yields_no_latency() {
        let streams = vec![vec![ev(0, 3, EventKind::SyscallTrap { num: 40 })]];
        let m = trial_metrics(&record(), 0, &streams, 100);
        assert_eq!(m.injection_clock, None);
        assert_eq!(m.blocks_to_manifestation, None);
        assert_eq!(m.events_total, 1);
    }

    #[test]
    fn ttm_buckets_are_log2() {
        assert_eq!(ttm_bucket(0), 0);
        assert_eq!(ttm_bucket(1), 1);
        assert_eq!(ttm_bucket(2), 2);
        assert_eq!(ttm_bucket(3), 2);
        assert_eq!(ttm_bucket(4), 3);
        assert_eq!(ttm_bucket(u64::MAX), TTM_BUCKETS - 1);
    }

    #[test]
    fn class_metrics_fold_and_serialize() {
        let streams = vec![vec![
            ev(0, 10, EventKind::FaultFired { at_insns: 50 }),
            ev(
                1,
                14,
                EventKind::SignalRaised {
                    signal: SigKind::Ill,
                    addr: 0,
                },
            ),
        ]];
        let tm = trial_metrics(&record(), 0, &streams, 500);
        let mut cm = ClassMetrics::new(TargetClass::RegularReg);
        cm.fold(&tm);
        cm.fold(&tm);
        assert_eq!(cm.trials, 2);
        assert_eq!(cm.landed, 2);
        assert_eq!(cm.symptomatic, 2);
        assert_eq!(cm.insns_total, 1000);
        assert!((cm.mean_ttm() - 4.0).abs() < 1e-9);

        let all = CampaignMetrics { classes: vec![cm] };
        let jsonl = all.to_jsonl(AppKind::Wavetoy);
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"class\":\"regular-reg\""));
        assert!(jsonl.contains("\"insns_total\":1000"));
        assert!(jsonl.contains("\"signal\":2"));
        let tsv = all.to_tsv(AppKind::Wavetoy);
        assert_eq!(tsv.lines().count(), 2);
        assert!(tsv.starts_with("app\tclass\t"));
        assert!(tsv.contains("\tinsns_total\t"));
    }
}
