//! # fl-trace — Valgrind-style working-set analysis
//!
//! The paper used Valgrind to instrument each x86 instruction and record
//! text accesses (executed instructions) and data accesses (loads in
//! Data/BSS/Heap), then plotted the *working set size at time t* — the
//! fraction of each section accessed **since** block count t, a
//! non-increasing function of t (Tables 5–7). Those curves explain the
//! low memory-injection error rates: faults outside the (small, shrinking)
//! working set cannot manifest.
//!
//! Here the machine itself records, per 4-byte granule, when it was last
//! read: a traced run ([`fl_machine::MachineConfig::trace`]) stamps every
//! read with the retired-block clock + 1 in the same [`ReadStamps`] that
//! convergence-aware termination reads (no binary rewriting needed), and
//! this crate turns one rank's stamps into the paper's curves and summary
//! statistics. A read is what the stamps count: a guest load, an
//! instruction word the program consumed, or the host reading on the
//! guest's behalf (the MPI library copying a send buffer, the allocator
//! checking a chunk header) — in the paper's processes those are loads
//! MPICH and glibc execute. As in the paper (§6.1.2 footnote), the data
//! comes from a single instrumented process — rank 1, an interior rank
//! with typical communication behaviour — and the run is slower than
//! normal, which is why tracing is off for injection campaigns.

use fl_apps::App;
use fl_machine::{Mapping, ReadStamps, Region};
use fl_mpi::WorldExit;
use std::fmt::Write as _;

/// One working-set curve: WS(t)/section-size at sampled block counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// Sampled block counts (the time axis of Tables 5–7).
    pub times: Vec<u64>,
    /// Working-set percentage of the section size at each sample.
    pub percent: Vec<f64>,
}

impl Curve {
    /// WS percentage at time 0 — the "fraction ever accessed".
    pub fn at_start(&self) -> f64 {
        self.percent.first().copied().unwrap_or(0.0)
    }

    /// WS percentage in the computation phase (sampled at 60 % of the
    /// run, safely past initialisation).
    pub fn in_compute_phase(&self) -> f64 {
        let idx = (self.percent.len() as f64 * 0.6) as usize;
        self.percent
            .get(idx)
            .copied()
            .or_else(|| self.percent.last().copied())
            .unwrap_or(0.0)
    }

    /// Curves are non-increasing by construction; expose the check for
    /// tests and sanity assertions.
    pub fn is_nonincreasing(&self) -> bool {
        self.percent.windows(2).all(|w| w[0] >= w[1] - 1e-9)
    }
}

/// The full memory trace of one application run (one rank).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Application name.
    pub app: String,
    /// Rank that was instrumented.
    pub rank: u16,
    /// Total basic blocks retired by that rank.
    pub total_blocks: u64,
    /// Text (instruction fetch) working set.
    pub text: Curve,
    /// Data-section load working set.
    pub data: Curve,
    /// BSS load working set.
    pub bss: Curve,
    /// Heap load working set (relative to the peak heap size).
    pub heap: Curve,
    /// Combined Data+BSS+Heap working set (the paper's right-hand plots).
    pub combined: Curve,
    /// Section sizes in bytes: (text, data, bss, peak heap).
    pub section_bytes: (u64, u64, u64, u64),
}

/// Run `app` in trace mode and compute its working-set curves with
/// `samples` points along the block-count axis — at most one per block
/// the traced rank retired, plus time 0.
///
/// # Panics
///
/// Panics if `budget` is 2^32 instructions or more (read stamps are
/// `u32`, and the block clock never exceeds the instruction count), or
/// if the traced (fault-free) run does not complete cleanly.
pub fn trace_app(app: &App, budget: u64, samples: usize) -> TraceReport {
    assert!(samples >= 2);
    assert!(budget < 1 << 32, "block clock must fit a u32 stamp");
    let mut w = app.traced_world(budget);
    let exit = w.run();
    assert_eq!(exit, WorldExit::Clean, "traced run must be clean");
    // Instrument an interior rank (the paper instrumented one randomly
    // selected process; rank 1 has both neighbours on every app).
    let rank: u16 = if app.params.nranks > 1 { 1 } else { 0 };
    let stamps = w
        .machine_mut(rank)
        .take_read_stamps()
        .expect("a traced run stamps reads");
    let m = w.machine(rank);
    let total_blocks = m.counters.blocks;
    let (text_sz, data_sz, bss_sz) = app.image.section_sizes();
    let heap_sz = m.heap.peak_bytes() as u64;

    // A curve has at most one distinct point per retired block.
    let samples = (samples as u64).min(total_blocks.saturating_add(1));
    let times: Vec<u64> = (0..samples)
        .map(|i| total_blocks * i / (samples - 1).max(1))
        .collect();

    let curve = |region: Region, size: u64| -> Curve {
        let last = section_stamps(&stamps, m.mem.map().region(region));
        let percent = times
            .iter()
            .map(|&t| {
                // Bytes of the granules last read after block count t.
                let ws = 4 * (last.len() - last.partition_point(|&s| u64::from(s) <= t)) as u64;
                if size == 0 {
                    0.0
                } else {
                    100.0 * ws as f64 / size as f64
                }
            })
            .collect();
        Curve {
            times: times.clone(),
            percent,
        }
    };

    let text = curve(Region::Text, text_sz as u64);
    let data = curve(Region::Data, data_sz as u64);
    let bss = curve(Region::Bss, bss_sz as u64);
    let heap = curve(Region::Heap, heap_sz);
    let combined_size = data_sz as u64 + bss_sz as u64 + heap_sz;
    let combined_percent: Vec<f64> = times
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let ws = data.percent[i] / 100.0 * data_sz as f64
                + bss.percent[i] / 100.0 * bss_sz as f64
                + heap.percent[i] / 100.0 * heap_sz as f64;
            if combined_size == 0 {
                0.0
            } else {
                100.0 * ws / combined_size as f64
            }
        })
        .collect();
    let combined = Curve {
        times: times.clone(),
        percent: combined_percent,
    };

    TraceReport {
        app: app.kind.name().to_string(),
        rank,
        total_blocks,
        text,
        data,
        bss,
        heap,
        combined,
        section_bytes: (text_sz as u64, data_sz as u64, bss_sz as u64, heap_sz),
    }
}

/// The read stamps of the granules inside `section` (the heap at its
/// final extent), sorted so WS(t) is one binary search per sample.
fn section_stamps(stamps: &ReadStamps, section: Option<&Mapping>) -> Vec<u32> {
    let Some(section) = section else {
        return Vec::new();
    };
    let mut last: Vec<u32> = stamps
        .iter()
        .filter(|&(addr, _)| section.contains(addr))
        .map(|(_, stamp)| stamp)
        .collect();
    last.sort_unstable();
    last
}

/// Render the report as tab-separated values matching the plots of
/// Tables 5–7: block count, then text / data / bss / heap / combined
/// working-set percentages.
pub fn render_tsv(r: &TraceReport) -> String {
    let mut out = String::from("blocks\ttext_ws\tdata_ws\tbss_ws\theap_ws\tcombined_ws\n");
    for i in 0..r.text.times.len() {
        let _ = writeln!(
            out,
            "{}\t{:.2}\t{:.2}\t{:.2}\t{:.2}\t{:.2}",
            r.text.times[i],
            r.text.percent[i],
            r.data.percent[i],
            r.bss.percent[i],
            r.heap.percent[i],
            r.combined.percent[i],
        );
    }
    out
}

/// Render the paper-style summary: WS at time 0 vs in the compute phase,
/// per section — the numbers §6.1.2 quotes from the plots.
pub fn render_summary(r: &TraceReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Memory trace of {} (rank {}, {} blocks)",
        r.app, r.rank, r.total_blocks
    );
    let (t, d, b, h) = r.section_bytes;
    let _ = writeln!(
        out,
        "  sections: text {} KB, data {} KB, bss {} KB, heap {} KB",
        t / 1024,
        d / 1024,
        b / 1024,
        h / 1024
    );
    let _ = writeln!(
        out,
        "  {:<18} {:>10} {:>14}",
        "section", "WS(t=0) %", "compute-phase %"
    );
    for (name, c) in [
        ("Text", &r.text),
        ("Data", &r.data),
        ("BSS", &r.bss),
        ("Heap", &r.heap),
        ("Data+BSS+Heap", &r.combined),
    ] {
        let _ = writeln!(
            out,
            "  {:<18} {:>10.1} {:>14.1}",
            name,
            c.at_start(),
            c.in_compute_phase()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_apps::{AppKind, AppParams};

    fn report(kind: AppKind) -> TraceReport {
        let app = App::build(kind, AppParams::tiny(kind));
        trace_app(&app, 2_000_000_000, 50)
    }

    #[test]
    fn curves_are_nonincreasing_and_bounded() {
        for kind in AppKind::ALL {
            let r = report(kind);
            for c in [&r.text, &r.data, &r.bss, &r.heap, &r.combined] {
                assert!(c.is_nonincreasing(), "{kind:?}");
                assert!(
                    c.percent.iter().all(|&p| (0.0..=100.0).contains(&p)),
                    "{kind:?}"
                );
            }
            assert!(r.total_blocks > 0);
        }
    }

    #[test]
    fn text_working_set_is_small_and_shrinks() {
        // §6.1.2: WS(0) 15-30 %, compute phase 8-13 % for the real codes.
        // With generated cold text the same shape must hold: well under
        // half the text ever runs, and the compute phase is smaller still.
        for kind in AppKind::ALL {
            let r = report(kind);
            assert!(
                r.text.at_start() < 60.0,
                "{kind:?}: text WS(0) = {:.1}%",
                r.text.at_start()
            );
            assert!(
                r.text.in_compute_phase() < r.text.at_start(),
                "{kind:?}: compute-phase text WS must shrink"
            );
        }
    }

    #[test]
    fn data_bss_heap_working_set_shrinks_after_init() {
        for kind in AppKind::ALL {
            let r = report(kind);
            assert!(
                r.combined.in_compute_phase() <= r.combined.at_start(),
                "{kind:?}"
            );
            // Most of Data+BSS+Heap is never loaded after init (paper:
            // 12-22 % in the compute phase).
            assert!(
                r.combined.in_compute_phase() < 70.0,
                "{kind:?}: combined compute-phase WS = {:.1}%",
                r.combined.in_compute_phase()
            );
        }
    }

    #[test]
    fn tsv_and_summary_render() {
        let r = report(AppKind::Wavetoy);
        let tsv = render_tsv(&r);
        assert_eq!(tsv.lines().count(), 51);
        assert!(tsv.starts_with("blocks\t"));
        let summary = render_summary(&r);
        assert!(summary.contains("Data+BSS+Heap"));
        assert!(summary.contains("wavetoy"));
    }

    #[test]
    fn heap_sized_by_peak() {
        let r = report(AppKind::Wavetoy);
        let (_, _, _, heap) = r.section_bytes;
        assert!(heap > 0, "wavetoy allocates its grids on the heap");
    }
}
