//! Statistical-shape integration tests: with moderate sample sizes, the
//! qualitative results of the paper's Tables 2–4 and §6 analysis must
//! hold. These are the repository's "does the reproduction reproduce"
//! tests; EXPERIMENTS.md records the quantitative comparison.

use fl_apps::{App, AppKind, AppParams};
use fl_inject::{run_campaign, CampaignConfig, CampaignResult, Manifestation, TargetClass};

fn campaign(kind: AppKind, classes: &[TargetClass], n: u32) -> CampaignResult {
    let app = App::build(kind, AppParams::tiny(kind));
    let cfg = CampaignConfig {
        injections: n,
        seed: 0x5AFE,
        ..Default::default()
    };
    run_campaign(&app, classes, &cfg)
}

#[test]
fn registers_dominate_memory_regions() {
    // §6.1.1 + §6.1.2: regular registers 38-63%; memory regions mostly
    // under ~15%.
    let r = campaign(
        AppKind::Wavetoy,
        &[
            TargetClass::RegularReg,
            TargetClass::Data,
            TargetClass::Bss,
            TargetClass::Heap,
        ],
        70,
    );
    let reg = r
        .class(TargetClass::RegularReg)
        .unwrap()
        .tally
        .error_rate_percent();
    for mem in [TargetClass::Data, TargetClass::Bss, TargetClass::Heap] {
        let m = r.class(mem).unwrap().tally.error_rate_percent();
        assert!(
            reg > m,
            "{mem:?} rate {m:.1}% must be below register rate {reg:.1}%"
        );
    }
    assert!(
        reg >= 25.0,
        "register rate {reg:.1}% below the paper's band"
    );
}

#[test]
fn fp_registers_are_least_sensitive_register_class() {
    // §6.1.1: FP register error rate 4-8% vs 38-63% for integer regs.
    let r = campaign(
        AppKind::Moldyn,
        &[TargetClass::RegularReg, TargetClass::FpReg],
        70,
    );
    let reg = r
        .class(TargetClass::RegularReg)
        .unwrap()
        .tally
        .error_rate_percent();
    let fp = r
        .class(TargetClass::FpReg)
        .unwrap()
        .tally
        .error_rate_percent();
    assert!(fp < reg / 2.0, "FP {fp:.1}% vs regular {reg:.1}%");
}

#[test]
fn moldyn_detects_message_faults_wavetoy_does_not() {
    // §6.2: NAMD detects 46% of manifest message errors via checksums;
    // Wavetoy (no checks) detects none.
    let m = campaign(AppKind::Moldyn, &[TargetClass::Message], 80);
    let w = campaign(AppKind::Wavetoy, &[TargetClass::Message], 80);
    let m_tally = &m.class(TargetClass::Message).unwrap().tally;
    let w_tally = &w.class(TargetClass::Message).unwrap().tally;
    assert!(
        m_tally.count(Manifestation::AppDetected) > 0,
        "moldyn checksums never fired"
    );
    assert_eq!(
        w_tally.count(Manifestation::AppDetected),
        0,
        "wavetoy has no checks to fire"
    );
    assert_eq!(
        w_tally.count(Manifestation::MpiDetected),
        0,
        "wavetoy registers no handler"
    );
}

#[test]
fn wavetoy_message_rate_is_lowest() {
    // Table 2 vs 3/4: Cactus 3.1% message error rate vs NAMD 38% and
    // CAM 24.2% — data payloads of near-zero floats plus text output
    // mask most payload flips.
    let w = campaign(AppKind::Wavetoy, &[TargetClass::Message], 80)
        .class(TargetClass::Message)
        .unwrap()
        .tally
        .error_rate_percent();
    let m = campaign(AppKind::Moldyn, &[TargetClass::Message], 80)
        .class(TargetClass::Message)
        .unwrap()
        .tally
        .error_rate_percent();
    assert!(
        w < m,
        "wavetoy message rate {w:.1}% must be below moldyn's {m:.1}%"
    );
}

#[test]
fn only_checked_apps_report_detections() {
    // Table 2 has no App/MPI-Detected columns at all; Tables 3 and 4 do.
    let w = campaign(
        AppKind::Wavetoy,
        &[TargetClass::Stack, TargetClass::Heap, TargetClass::Message],
        50,
    );
    for c in &w.classes {
        assert_eq!(
            c.tally.count(Manifestation::MpiDetected),
            0,
            "{:?}",
            c.class
        );
        assert_eq!(
            c.tally.count(Manifestation::AppDetected),
            0,
            "{:?}",
            c.class
        );
    }
}

#[test]
fn crashes_dominate_manifested_memory_faults() {
    // Tables 3-4: the Crash column dominates for memory regions on the
    // checked apps (62-95% of manifestations).
    let r = campaign(AppKind::Climsim, &[TargetClass::RegularReg], 70);
    let t = &r.class(TargetClass::RegularReg).unwrap().tally;
    let crash_share = t.manifestation_percent(Manifestation::Crash);
    assert!(
        crash_share >= 40.0,
        "crash share of register manifestations {crash_share:.1}% too low"
    );
}

#[test]
fn error_rates_roughly_independent_of_section_size() {
    // §6.1.2: "the error rate is largely independent of memory region
    // size" — climsim's data section is ~30x wavetoy's, yet both rates
    // stay in the same low band.
    let w = campaign(AppKind::Wavetoy, &[TargetClass::Data], 70)
        .class(TargetClass::Data)
        .unwrap()
        .tally
        .error_rate_percent();
    let c = campaign(AppKind::Climsim, &[TargetClass::Data], 70)
        .class(TargetClass::Data)
        .unwrap()
        .tally
        .error_rate_percent();
    assert!(
        w <= 40.0 && c <= 40.0,
        "data-region rates must stay low: {w:.1}% / {c:.1}%"
    );
}
