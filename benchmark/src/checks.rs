//! Output checks. Every operation — one trial, or one HTTP request — is
//! counted as attempted, and as failed when its output is missing, does
//! not survive the codec, or disagrees with a cross-check. `error_share`
//! is `failed / attempted`.

use crate::pass::{run_pass_inproc, PassRun};
use crate::workloads::{self, apps_of, spec_doc, SpecDoc, Variant, Workload};
use fl_inject::{parse_record_line, record_line};

#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, count: u64, note: impl FnOnce() -> String) {
        if count > 0 {
            self.failed += count;
            if self.notes.len() < 8 {
                self.notes.push(note());
            }
        }
    }

    /// Count one operation.
    pub fn op(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        self.fail(u64::from(!ok), note);
    }

    /// Count one HTTP request; an error or a non-2xx answer fails it.
    pub fn request<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(1, || format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn error_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Lines that are not byte-identical between two record streams.
fn mismatched_lines(a: &str, b: &str) -> u64 {
    let (la, lb): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    let differing = la.iter().zip(&lb).filter(|(x, y)| x != y).count();
    (differing + la.len().abs_diff(lb.len())) as u64
}

/// Check what one pass produced against its plan: every request answered,
/// every planned trial completed, and — where the mode streams records —
/// one record per trial, each surviving `parse_record_line` →
/// `record_line` unchanged.
pub fn check_pass(tally: &mut Tally, pass: &PassRun, docs: &[SpecDoc], serve: bool) {
    for (c, doc) in pass.campaigns.iter().zip(docs) {
        tally.attempted += c.requests + doc.planned;
        tally.fail(c.request_errors, || {
            format!(
                "{}: {}",
                doc.app,
                c.error.as_deref().unwrap_or("request failed")
            )
        });
        if c.request_errors == 0 {
            if let Some(e) = &c.error {
                tally.fail(doc.planned, || format!("{} {}: {e}", doc.app, doc.mode));
                continue;
            }
        }
        let missing = doc.planned.abs_diff(c.done) + doc.planned.abs_diff(c.total);
        tally.fail(missing, || {
            format!(
                "{} {}: planned {} trials, engine reports {}/{}",
                doc.app, doc.mode, doc.planned, c.done, c.total
            )
        });
        if !(doc.streams_records || serve) {
            continue;
        }
        let app = doc.app.parse().expect("workload apps are known");
        let mut lines = 0;
        let mut broken = 0;
        for line in c.records.lines() {
            lines += 1;
            match parse_record_line(line) {
                Ok(t) if record_line(app, &t) == line => {}
                _ => broken += 1,
            }
        }
        tally.fail(doc.planned.abs_diff(lines), || {
            format!("{}: planned {} records, got {lines}", doc.app, doc.planned)
        });
        tally.fail(broken, || {
            format!(
                "{}: {broken} record lines do not survive the codec",
                doc.app
            )
        });
    }
}

/// Compare the record streams of two passes over the same campaigns.
fn check_identical(tally: &mut Tally, what: &str, a: &PassRun, b: &PassRun, docs: &[SpecDoc]) {
    for ((x, y), doc) in a.campaigns.iter().zip(&b.campaigns).zip(docs) {
        tally.attempted += doc.planned;
        let diff = mismatched_lines(&x.records, &y.records) + x.done.abs_diff(y.done);
        tally.fail(diff, || format!("{what}: {} {} differs", doc.app, doc.mode));
    }
}

/// The cross-checks, run once per workload outside the timed passes, on
/// the quick-sized specs of pass 0. `reference` is a pass over those specs
/// in the workload's own mode at one worker — the warm-up pass, so nothing
/// runs twice. Records must be byte-identical at 1 and 2 worker threads;
/// what the daemon serves must equal what `run_spec` produces in-process;
/// and one small campaign per app must be byte-identical with the fast
/// path off.
pub fn cross_checks(tally: &mut Tally, w: &Workload, seed: u64, reference: &PassRun) {
    let quick = Variant {
        quick: true,
        ..Variant::default()
    };
    let docs = workloads::specs(w.name, seed, 0, quick);
    check_pass(tally, reference, &docs, w.serve);
    let in_process;
    let one = if w.serve {
        in_process = run_pass_inproc(&docs, false);
        check_pass(tally, &in_process, &docs, false);
        check_identical(tally, "daemon vs in-process", &in_process, reference, &docs);
        &in_process
    } else {
        reference
    };
    let docs2 = workloads::specs(
        w.name,
        seed,
        0,
        Variant {
            threads: 2,
            ..quick
        },
    );
    let two = run_pass_inproc(&docs2, false);
    check_identical(tally, "threads 1 vs 2", one, &two, &docs);
    let small = |fastpath| -> Vec<SpecDoc> {
        apps_of(&docs)
            .into_iter()
            .map(|(app, _)| {
                let v = Variant {
                    fastpath,
                    ..Variant::default()
                };
                spec_doc(
                    app,
                    true,
                    &["regular-reg", "message"],
                    3,
                    seed,
                    "campaign",
                    v,
                )
            })
            .collect()
    };
    let (fast_docs, slow_docs) = (small(true), small(false));
    let fast = run_pass_inproc(&fast_docs, false);
    check_pass(tally, &fast, &fast_docs, false);
    let slow = run_pass_inproc(&slow_docs, false);
    check_identical(tally, "fastpath on vs off", &fast, &slow, &fast_docs);
}

/// FNV-1a 64 over a record stream: an exact fingerprint of a pass's
/// output that two runs of one seed must share.
pub fn fnv1a(text: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{run_campaign_serve, Daemon};
    use std::time::Instant;

    fn tiny_docs() -> Vec<SpecDoc> {
        vec![spec_doc(
            "wavetoy",
            true,
            &["regular-reg", "message"],
            2,
            5,
            "campaign",
            Variant::default(),
        )]
    }

    #[test]
    fn a_clean_pass_has_no_errors_and_a_corrupted_record_raises_error_share() {
        let docs = tiny_docs();
        let mut pass = run_pass_inproc(&docs, false);
        let mut clean = Tally::default();
        check_pass(&mut clean, &pass, &docs, false);
        assert_eq!((clean.attempted, clean.failed), (4, 0), "{:?}", clean.notes);
        assert_eq!(clean.error_share(), 0.0);

        let clean_records = pass.campaigns[0].records.clone();
        pass.campaigns[0].records = clean_records.replacen("\"outcome\":\"", "\"outcome\":\"x", 1);
        let mut bad = Tally::default();
        check_pass(&mut bad, &pass, &docs, false);
        assert_eq!(bad.failed, 1, "{:?}", bad.notes);
        assert!(bad.error_share() > 0.0);

        // A moved field still parses but does not re-encode to the same bytes.
        let first = clean_records.lines().next().unwrap();
        let moved = first.replacen("{\"app\":\"wavetoy\",", "{", 1).replacen(
            "\"metrics\":null}",
            "\"metrics\":null,\"app\":\"wavetoy\"}",
            1,
        );
        assert_ne!(moved, first);
        pass.campaigns[0].records = clean_records.replacen(first, &moved, 1);
        let mut reordered = Tally::default();
        check_pass(&mut reordered, &pass, &docs, false);
        assert_eq!(reordered.failed, 1, "{:?}", reordered.notes);
    }

    #[test]
    fn a_missing_trial_raises_error_share() {
        let docs = tiny_docs();
        let mut pass = run_pass_inproc(&docs, false);
        let c = &mut pass.campaigns[0];
        c.records = c
            .records
            .lines()
            .skip(1)
            .map(|l| format!("{l}\n"))
            .collect();
        let mut t = Tally::default();
        check_pass(&mut t, &pass, &docs, false);
        assert_eq!(t.failed, 1, "{:?}", t.notes);
    }

    #[test]
    fn a_404_and_a_rejected_submit_raise_error_share() {
        let dir = crate::out_dir().join("test").join("http-errors");
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = Daemon::start(&dir).unwrap();
        let mut t = Tally::default();
        assert!(t
            .request(
                "status",
                fl_serve::client::status(&daemon.addr, "c0000000000000000")
            )
            .is_none());
        assert_eq!((t.attempted, t.failed), (1, 1));
        assert!(t.notes[0].contains("404"), "{:?}", t.notes);

        let mut doc = tiny_docs().remove(0);
        doc.json = doc.json.replace("\"app\"", "\"apq\"");
        let run = run_campaign_serve(&daemon.addr, &doc, Instant::now(), false);
        assert_eq!((run.requests, run.request_errors), (1, 1));
        let pass = PassRun {
            origin: Instant::now(),
            wall_s: 1.0,
            campaigns: vec![run],
        };
        let mut t = Tally::default();
        check_pass(&mut t, &pass, &[doc], true);
        assert!(t.failed >= 1 && t.error_share() > 0.0);
    }

    #[test]
    fn stream_comparison_counts_lines() {
        assert_eq!(mismatched_lines("a\nb\n", "a\nb\n"), 0);
        assert_eq!(mismatched_lines("a\nb\n", "a\nc\n"), 1);
        assert_eq!(mismatched_lines("a\nb\n", "a\n"), 1);
        assert_eq!(fnv1a(""), "cbf29ce484222325");
    }
}
