//! Property tests for the fl-ulfm API (PR 7), in two families:
//!
//! * **Ft-off bit-identity** — a program that merely *compiles* the new
//!   builtins behind a never-taken branch behaves bit-identically, in an
//!   ft-off world, to the same program with a stub recovery function —
//!   i.e. to the exact program a pre-ulfm build would have produced.
//!   Exit, per-rank console output, retired instruction counts and the
//!   recorded event streams must all match: the new API must cost
//!   nothing until a run actually reaches it.
//! * **Agree/shrink semantics at arbitrary kill clocks** — a
//!   shrink-recovering program is subjected to a rank kill at an
//!   arbitrary retired-block clock, on both executor paths (fastpath on
//!   and off). Both paths must agree exactly, and whatever the clock,
//!   the world ends in a defensible state: recovered-and-shrunk, or
//!   honestly hung when the failure lands where the app can no longer
//!   observe it. A kill must never be misread as an application crash.

use fl_lang::compile;
use fl_machine::MachineConfig;
use fl_mpi::{FailureDetector, Fault, MpiWorld, WorldConfig, WorldEffect, WorldExit};
use proptest::prelude::*;

const OBS_CAPACITY: u32 = 256;

/// A ring-shift program whose main guards a call to `recover()` behind
/// a condition no rank satisfies. `recovery_body` is either the full
/// ulfm repertoire or an inert stub; main is identical either way.
fn ring_program(iters: u32, recovery_body: &str) -> String {
    format!(
        "global float buf[16];
         fn recover() -> int {{
             {recovery_body}
         }}
         fn main() {{
             var int me;
             var int n;
             var int i;
             var int r;
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
                 buf[0] = buf[0] + 1.0;
                 mpi_send(addr(buf), 32, right, i);
                 mpi_recv(addr(buf), 32, left, i);
                 if (me == 0 - 1) {{ r = recover(); }}
             }}
             print_flt(buf[0], 1);
             mpi_finalize();
         }}"
    )
}

const ULFM_RECOVERY: &str = "var int r;
             r = mpix_comm_failure_ack();
             r = mpix_comm_failure_get_acked();
             r = mpix_comm_agree(r);
             r = mpix_comm_shrink();
             r = fl_ckpt_save(addr(buf), 16);
             r = fl_ckpt_restore(addr(buf), 16);
             return r;";

const STUB_RECOVERY: &str = "return 0;";

/// Run `src` in a plain ft-off world (no ulfm, no detector) and return
/// everything observable about the run.
#[allow(clippy::type_complexity)]
fn observe_ft_off(
    src: &str,
    nranks: u16,
) -> (WorldExit, Vec<String>, Vec<u64>, Vec<Vec<fl_obs::Event>>) {
    let img = compile(src).expect("compiles");
    let mut w = MpiWorld::new(
        &img,
        WorldConfig {
            nranks,
            machine: MachineConfig {
                budget: 50_000_000,
                obs_capacity: OBS_CAPACITY,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let exit = w.run();
    let console = (0..nranks)
        .map(|r| w.machine(r).console_text().to_string())
        .collect();
    let insns = (0..nranks).map(|r| w.machine(r).counters.insns).collect();
    (exit, console, insns, w.event_streams())
}

/// A 3-rank program in which every rank repeatedly agrees and, on a
/// poisoned agreement, acks the failure and shrinks — the canonical
/// ulfm recovery loop.
const SHRINK_LOOP: &str = "fn main() {
         var int r;
         var int i;
         mpi_init();
         for (i = 0; i < 6; i = i + 1) {
             r = mpix_comm_agree(0);
             if (r != 0) {
                 r = mpix_comm_failure_ack();
                 r = mpix_comm_shrink();
             }
         }
         mpi_finalize();
     }";

struct KillRun {
    exit: WorldExit,
    fired: bool,
    nranks: u16,
    shrinks: u32,
    failed_mask: u32,
}

fn run_shrink_loop(kill: Fault<WorldEffect>, fastpath: bool) -> KillRun {
    let img = compile(SHRINK_LOOP).expect("compiles");
    let mut w = MpiWorld::new(
        &img,
        WorldConfig {
            nranks: 3,
            ulfm: true,
            ft: FailureDetector {
                enabled: true,
                ..Default::default()
            },
            machine: MachineConfig {
                budget: 50_000_000,
                fastpath,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    w.arm(kill);
    let exit = w.run();
    KillRun {
        exit,
        fired: w.plan().armed().is_empty(),
        nranks: w.nranks(),
        shrinks: w.app_shrinks(),
        failed_mask: w.ulfm_failed_mask(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// An ft-off world running the ulfm-capable binary is bit-identical
    /// to one running the stub binary (= the pre-ulfm program): same
    /// exit, console bytes, retired instruction counts and event
    /// streams, across ring sizes and iteration counts.
    #[test]
    fn ft_off_worlds_ignore_compiled_but_unreached_builtins(
        nranks in 2u16..5,
        iters in 1u32..8,
    ) {
        let with = observe_ft_off(&ring_program(iters, ULFM_RECOVERY), nranks);
        let without = observe_ft_off(&ring_program(iters, STUB_RECOVERY), nranks);
        prop_assert_eq!(&with.0, &without.0, "exit diverged");
        prop_assert_eq!(&with.1, &without.1, "console output diverged");
        prop_assert_eq!(&with.2, &without.2, "retired insns diverged");
        prop_assert_eq!(&with.3, &without.3, "event streams diverged");
        prop_assert_eq!(with.0, WorldExit::Clean);
    }

    /// Agree/shrink semantics hold at every kill clock, and the two
    /// executor paths are indistinguishable.
    #[test]
    fn shrink_recovery_is_sound_at_arbitrary_kill_clocks(
        victim in 0u16..3,
        at_blocks in prop_oneof![1u64..400, Just(100_000u64)],
        wedge in any::<bool>(),
    ) {
        let kill = Fault::kill(victim, at_blocks, wedge);
        let fast = run_shrink_loop(kill, true);
        let slow = run_shrink_loop(kill, false);

        // Both executor paths tell the same story.
        prop_assert_eq!(&fast.exit, &slow.exit, "exec paths diverged on exit");
        prop_assert_eq!(fast.fired, slow.fired);
        prop_assert_eq!(fast.nranks, slow.nranks);
        prop_assert_eq!(fast.shrinks, slow.shrinks);
        prop_assert_eq!(fast.failed_mask, slow.failed_mask);

        // A process kill is never an application crash or abort.
        prop_assert!(
            matches!(fast.exit, WorldExit::Clean | WorldExit::Hung { .. }),
            "kill at block {} misclassified: {:?}", at_blocks, fast.exit
        );

        if !fast.fired {
            // The clock landed beyond the run: nothing may change.
            prop_assert_eq!(&fast.exit, &WorldExit::Clean);
            prop_assert_eq!(fast.nranks, 3);
            prop_assert_eq!(fast.shrinks, 0);
        } else if fast.exit == WorldExit::Clean {
            // Two defensible clean endings: the app observed the failure
            // and shrank around the victim (consuming the failure
            // knowledge), or the kill landed only once the victim had
            // already exited, leaving nothing to recover.
            if fast.shrinks > 0 {
                prop_assert_eq!(fast.nranks, 2);
                prop_assert_eq!(fast.failed_mask, 0, "shrink must clear the mask");
            } else {
                prop_assert_eq!(fast.nranks, 3, "unshrunk world lost a rank");
            }
        }
        // Hung is legitimate only for a fired kill the app could no
        // longer observe (e.g. after its last agreement); fired=false
        // hangs are caught by the branch above.
    }
}
