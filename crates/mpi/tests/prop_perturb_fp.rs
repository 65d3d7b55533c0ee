//! Accrual-detector false-positive immunity, test-enforced (fl-perturb).
//!
//! The degradation-aware detector's whole claim is that *slow is not
//! dead*: a compute-bound rank that keeps progressing — however badly a
//! scheduler tax starves it — must never be declared failed. This pins
//! that claim as a property over arbitrary quantum-tax schedules
//! (victim rank, onset clock, window length, severity up to the 995‰
//! cap) and arbitrary detector cadences, on both executor paths. A
//! companion property keeps the detector honest in the other direction:
//! under the very same accrual settings, a genuinely wedged or killed
//! rank is still converted into an explicit failure verdict, never a
//! silent hang.

use fl_lang::compile;
use fl_machine::{MachineConfig, ProgramImage};
use fl_mpi::{FailureDetector, Fault, MpiWorld, WorldConfig, WorldEffect, WorldExit};
use proptest::prelude::*;

/// A ring exchange with a compute phase between communications — the
/// shape most exposed to a scheduling tax: long stretches where the
/// taxed rank is silent on the wire because it is (slowly) computing.
fn ring_compute_program(iters: u32, work: u32) -> String {
    format!(
        "global float buf[16];
         fn main() {{
             var int me;
             var int n;
             var int i;
             var int j;
             var int right;
             var int left;
             mpi_init();
             me = mpi_rank();
             n = mpi_size();
             right = me + 1;
             if (right == n) {{ right = 0; }}
             left = me - 1;
             if (left < 0) {{ left = n - 1; }}
             for (i = 0; i < {iters}; i = i + 1) {{
                 for (j = 0; j < {work}; j = j + 1) {{
                     buf[0] = buf[0] + 1.0;
                 }}
                 mpi_send(addr(buf), 32, right, i);
                 mpi_recv(addr(buf), 32, left, i);
             }}
             print_flt(buf[0], 1);
             mpi_finalize();
         }}"
    )
}

fn accrual_world(
    img: &ProgramImage,
    nranks: u16,
    probe_rounds: u64,
    suspect_rounds: u64,
    fastpath: bool,
) -> MpiWorld {
    MpiWorld::new(
        img,
        WorldConfig {
            nranks,
            ft: FailureDetector {
                enabled: true,
                probe_rounds,
                suspect_rounds,
                accrual: true,
            },
            machine: MachineConfig {
                budget: 50_000_000,
                fastpath,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No quantum-tax schedule — whatever the victim, onset, window or
    /// severity — makes the accrual detector suspect a progressing
    /// rank: the run completes Clean on both executor paths, with
    /// byte-identical console output.
    #[test]
    fn accrual_detector_never_suspects_a_taxed_rank(
        nranks in 2u16..5,
        iters in 2u32..7,
        work in 10u32..400,
        victim in 0u16..5,
        at_blocks in 0u64..4_000,
        rounds in 16u64..2_048,
        tax_permille in 500u32..996,
        probe_rounds in 4u64..16,
        suspect_rounds in 8u64..64,
    ) {
        let img = compile(&ring_compute_program(iters, work)).expect("compiles");
        let tax = WorldEffect::Tax {
            permille: tax_permille,
            rounds,
        };
        let mut outcomes = Vec::new();
        for fastpath in [false, true] {
            let mut w = accrual_world(&img, nranks, probe_rounds, suspect_rounds, fastpath);
            w.arm(Fault::new(victim % nranks, at_blocks, tax));
            let exit = w.run();
            prop_assert_eq!(
                &exit,
                &WorldExit::Clean,
                "tax {:?} must not be read as a failure (fastpath={})",
                tax,
                fastpath
            );
            let console: Vec<String> = (0..nranks)
                .map(|r| w.machine(r).console_text().to_string())
                .collect();
            outcomes.push((console, w.plan().starved));
        }
        prop_assert_eq!(&outcomes[0], &outcomes[1], "executor paths diverged");
    }

    /// The same accrual settings still catch real process failures: a
    /// rank wedged or killed at an arbitrary clock yields an explicit
    /// RankFailed verdict (or, if it dies after its last communication,
    /// a Clean finish) — never an undiagnosed hang.
    #[test]
    fn accrual_detector_still_catches_real_failures(
        nranks in 2u16..5,
        iters in 2u32..7,
        work in 10u32..200,
        victim in 0u16..5,
        at_blocks in 0u64..3_000,
        wedge in any::<bool>(),
        probe_rounds in 4u64..16,
        suspect_rounds in 8u64..64,
        fastpath in any::<bool>(),
    ) {
        let img = compile(&ring_compute_program(iters, work)).expect("compiles");
        let mut w = accrual_world(&img, nranks, probe_rounds, suspect_rounds, fastpath);
        w.arm(Fault::kill(victim % nranks, at_blocks, wedge));
        let exit = w.run();
        let fired = w.plan().armed().is_empty();
        match exit {
            WorldExit::RankFailed { rank, .. } => {
                prop_assert!(fired, "verdict without a fired kill");
                prop_assert_eq!(rank, victim % nranks);
            }
            WorldExit::Clean => {
                // Legitimate only when the kill landed after (or never
                // reached) the victim's last observable communication.
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "kill/wedge misdiagnosed as {other:?} (fired={fired}, wedge={wedge})"
                )));
            }
        }
    }
}
