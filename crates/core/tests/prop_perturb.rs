//! Perturb determinism, test-enforced: any perturb spec — whatever its
//! tax severity, hog share, stall window, detector cadence or seed —
//! must produce a byte-identical record stream at 1 worker and 4
//! workers, and across a kill + resume from an arbitrary prefix of the
//! streamed file (the same durability contract `prop_chaos.rs` pins
//! for chaos campaigns). Interference faults bend *time*, so this is
//! the direct check that they draw on the deterministic clocks and
//! never on wall time.

use fl_inject::{
    run_spec, sort_records_jsonl, CampaignSpec, CompletedSlots, EngineControl, PerturbPolicy,
    SpecMode, SpecOutcome, VecSink,
};
use proptest::prelude::*;

fn spec_with(policy: PerturbPolicy, seed: u64, threads: usize) -> CampaignSpec {
    let mut spec = CampaignSpec::new(fl_apps::AppKind::Wavetoy);
    spec.tiny = true;
    spec.campaign.injections = 1;
    spec.campaign.seed = seed;
    spec.campaign.threads = threads;
    spec.mode = SpecMode::Perturb(policy);
    spec
}

/// Run the spec, returning (completion-order lines, canonical stream,
/// total guest instructions).
fn run(spec: &CampaignSpec, resume: Option<CompletedSlots>) -> (Vec<String>, String, u64) {
    let sink = VecSink::new(spec.app);
    let out = run_spec(spec, &sink, &EngineControl::new(), resume)
        .expect("uncontrolled perturb runs always complete");
    let SpecOutcome::Matrix(result) = out else {
        panic!("a matrix spec must produce a matrix outcome");
    };
    let lines = sink.into_lines();
    let canonical = sort_records_jsonl(&(lines.join("\n") + "\n"));
    (lines, canonical, result.insns_total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// One worker, four workers, and a resumed run killed at an
    /// arbitrary slot boundary (possibly with a torn tail line) all
    /// land on the same canonical record bytes and instruction totals.
    #[test]
    fn any_perturb_spec_is_deterministic_and_resumable(
        seed in 0u64..1 << 48,
        tax_lo in 900u32..960,
        tax_span in 1u32..35,
        tax_rounds_lo in 64u64..512,
        tax_rounds_span in 1u64..512,
        hog_lo in 300u32..700,
        hog_span in 1u32..200,
        hog_node_ranks in 1u16..3,
        stall_hi in 2u64..8,
        suspect_rounds in 16u64..48,
        cut in 0usize..16,
        torn in any::<bool>(),
    ) {
        let policy = PerturbPolicy {
            suspect_rounds,
            tax_permille: (tax_lo, tax_lo + tax_span),
            tax_rounds: (tax_rounds_lo, tax_rounds_lo + tax_rounds_span),
            hog_share_permille: (hog_lo, hog_lo + hog_span),
            hog_node_ranks,
            stall_per_access: (1, stall_hi),
            ..PerturbPolicy::default()
        };
        let spec1 = spec_with(policy, seed, 1);
        let (lines, canonical, insns) = run(&spec1, None);
        prop_assert_eq!(lines.len() as u64, spec1.slot_plan().total());

        let spec4 = spec_with(policy, seed, 4);
        let (_, canonical4, insns4) = run(&spec4, None);
        prop_assert_eq!(&canonical4, &canonical, "4-worker stream diverged");
        prop_assert_eq!(insns4, insns);

        // Kill after `cut` completed trials and resume from the
        // surviving file, as the campaign service would.
        let cut = cut.min(lines.len());
        let mut file = lines[..cut].join("\n");
        if cut > 0 {
            file.push('\n');
        }
        if torn {
            file.push_str("{\"app\":\"wavetoy\",\"class\":\"sch");
        }
        let (slots, _kept, _skipped) = spec4.slot_plan().adopt(&file);
        prop_assert_eq!(slots.len(), cut, "every surviving line must be adopted");
        let (fresh, _, insns_r) = run(&spec4, Some(slots));
        let mut all = String::new();
        for line in file.lines() {
            if fl_inject::parse_record_line(line).is_ok() {
                all.push_str(line);
                all.push('\n');
            }
        }
        for line in fresh {
            all.push_str(&line);
            all.push('\n');
        }
        prop_assert_eq!(&sort_records_jsonl(&all), &canonical,
            "record stream diverged after resume from {} lines (torn={})", cut, torn);
        prop_assert_eq!(insns_r, insns, "adopted slots must not re-execute");
    }
}
