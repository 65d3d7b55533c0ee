//! End-to-end tests of the MPI world running compiled FL programs.

use fl_lang::compile;
use fl_machine::{MachineConfig, SyscallFaultKind};
use fl_mpi::{Effect, FailureDetector, Fault, MpiWorld, WorldConfig, WorldEffect, WorldExit};

fn world(src: &str, nranks: u16) -> MpiWorld {
    let img = compile(src).expect("compiles");
    MpiWorld::new(
        &img,
        WorldConfig {
            nranks,
            machine: MachineConfig {
                budget: 50_000_000,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

#[test]
fn single_rank_init_finalize() {
    let mut w = world(
        r#"fn main() { mpi_init(); print_str("alone\n"); mpi_finalize(); }"#,
        1,
    );
    assert_eq!(w.run(), WorldExit::Clean);
    assert_eq!(w.machine(0).console_text(), "alone\n");
}

#[test]
fn rank_and_size() {
    let mut w = world(
        "fn main() {
             mpi_init();
             print_int(mpi_rank()); print_str(\"/\"); print_int(mpi_size());
             mpi_finalize();
         }",
        3,
    );
    assert_eq!(w.run(), WorldExit::Clean);
    assert_eq!(w.machine(0).console_text(), "0/3");
    assert_eq!(w.machine(2).console_text(), "2/3");
}

#[test]
fn eager_ping_pong() {
    let mut w = world(
        "global float buf[4];
         fn main() {
             var int me;
             mpi_init();
             me = mpi_rank();
             if (me == 0) {
                 buf[0] = 12.5;
                 mpi_send(addr(buf), 32, 1, 7);
                 mpi_recv(addr(buf), 32, 1, 8);
                 print_flt(buf[0], 1);
             } else {
                 mpi_recv(addr(buf), 32, 0, 7);
                 buf[0] = buf[0] * 2.0;
                 mpi_send(addr(buf), 32, 0, 8);
             }
             mpi_finalize();
         }",
        2,
    );
    assert_eq!(w.run(), WorldExit::Clean);
    assert_eq!(w.machine(0).console_text(), "25.0");
}

#[test]
fn rendezvous_large_message() {
    // 4096-byte payload exceeds the 1024-byte eager threshold.
    let mut w = world(
        "global float big[512];
         fn main() {
             var int me;
             var int i;
             mpi_init();
             me = mpi_rank();
             if (me == 0) {
                 for (i = 0; i < 512; i = i + 1) { big[i] = float(i); }
                 mpi_send(addr(big), 4096, 1, 3);
             } else {
                 mpi_recv(addr(big), 4096, 0, 3);
                 print_flt(big[511], 1);
             }
             mpi_finalize();
         }",
        2,
    );
    assert_eq!(w.run(), WorldExit::Clean);
    assert_eq!(w.machine(1).console_text(), "511.0");
    // Rendezvous generated control traffic: rank 0 received a CTS,
    // rank 1 received an RTS.
    assert!(w.profile(0).control_msgs >= 1);
    assert!(w.profile(1).control_msgs >= 1);
    assert_eq!(w.profile(1).data_msgs, 1);
}

#[test]
fn any_source_receive() {
    let mut w = world(
        "global float v[1];
         fn main() {
             var int me;
             var int i;
             var float total;
             mpi_init();
             me = mpi_rank();
             if (me == 0) {
                 total = 0.0;
                 for (i = 1; i < 4; i = i + 1) {
                     mpi_recv(addr(v), 8, -1, 5);
                     total = total + v[0];
                 }
                 print_flt(total, 1);
             } else {
                 v[0] = float(me);
                 mpi_send(addr(v), 8, 0, 5);
             }
             mpi_finalize();
         }",
        4,
    );
    assert_eq!(w.run(), WorldExit::Clean);
    assert_eq!(w.machine(0).console_text(), "6.0");
}

#[test]
fn barrier_synchronises() {
    for n in [2u16, 3, 4, 8] {
        let mut w = world(
            "fn main() { mpi_init(); mpi_barrier(); mpi_barrier(); mpi_finalize(); }",
            n,
        );
        assert_eq!(w.run(), WorldExit::Clean, "n={n}");
        // Barrier traffic is pure control messages.
        for r in 0..n {
            assert!(w.profile(r).control_msgs > 0);
            assert_eq!(w.profile(r).data_msgs, 0);
        }
    }
}

#[test]
fn bcast_delivers_to_all() {
    let mut w = world(
        "global float arr[8];
         fn main() {
             var int i;
             mpi_init();
             if (mpi_rank() == 0) {
                 for (i = 0; i < 8; i = i + 1) { arr[i] = float(i) * 3.0; }
             }
             mpi_bcast(addr(arr), 64, 0);
             print_flt(arr[7], 1);
             mpi_finalize();
         }",
        4,
    );
    assert_eq!(w.run(), WorldExit::Clean);
    for r in 0..4 {
        assert_eq!(w.machine(r).console_text(), "21.0", "rank {r}");
    }
}

#[test]
fn reduce_sums_to_root() {
    let mut w = world(
        "global float part[2];
         global float out[2];
         fn main() {
             var int me;
             mpi_init();
             me = mpi_rank();
             part[0] = float(me);
             part[1] = 1.0;
             mpi_reduce(addr(part), 2, 0, addr(out));
             if (me == 0) { print_flt(out[0], 1); print_str(\" \"); print_flt(out[1], 1); }
             mpi_finalize();
         }",
        4,
    );
    assert_eq!(w.run(), WorldExit::Clean);
    assert_eq!(w.machine(0).console_text(), "6.0 4.0");
}

#[test]
fn allreduce_sums_everywhere() {
    let mut w = world(
        "global float part[1];
         global float out[1];
         fn main() {
             mpi_init();
             part[0] = float(mpi_rank() + 1);
             mpi_allreduce(addr(part), 1, addr(out));
             print_flt(out[0], 1);
             mpi_finalize();
         }",
        4,
    );
    assert_eq!(w.run(), WorldExit::Clean);
    for r in 0..4 {
        assert_eq!(w.machine(r).console_text(), "10.0", "rank {r}");
    }
}

#[test]
fn mismatched_recv_deadlocks() {
    let mut w = world(
        "global float b[1];
         fn main() {
             mpi_init();
             if (mpi_rank() == 0) { mpi_recv(addr(b), 8, 1, 99); }
             mpi_finalize();
         }",
        2,
    );
    assert!(matches!(w.run(), WorldExit::Hung { .. }));
}

#[test]
fn invalid_dest_without_handler_crashes() {
    let mut w = world(
        "global float b[1];
         fn main() { mpi_init(); mpi_send(addr(b), 8, 77, 1); mpi_finalize(); }",
        2,
    );
    let e = w.run();
    assert!(
        matches!(&e, WorldExit::Crashed { reason, .. } if reason.contains("invalid rank")),
        "{e:?}"
    );
}

#[test]
fn invalid_dest_with_handler_is_mpi_detected() {
    let mut w = world(
        "global float b[1];
         fn main() {
             mpi_init();
             mpi_errhandler_set(1);
             mpi_send(addr(b), 8, 77, 1);
             mpi_finalize();
         }",
        2,
    );
    let e = w.run();
    assert!(matches!(&e, WorldExit::MpiDetected { .. }), "{e:?}");
}

#[test]
fn invalid_buffer_detected() {
    let mut w = world(
        // Address 64 is unmapped.
        "fn main() { mpi_init(); mpi_errhandler_set(1); mpi_send(64, 8, 1, 1); mpi_finalize(); }",
        2,
    );
    assert!(matches!(w.run(), WorldExit::MpiDetected { .. }));
}

#[test]
fn exit_before_finalize_crashes_job() {
    let mut w = world(
        "fn main() {
             mpi_init();
             if (mpi_rank() == 1) { } else { mpi_barrier(); }
         }",
        2,
    );
    // Rank 1 returns from main without finalize -> job abort.
    let e = w.run();
    assert!(
        matches!(&e, WorldExit::Crashed { reason, .. } if reason.contains("before MPI_Finalize")),
        "{e:?}"
    );
}

#[test]
fn message_fault_in_payload_corrupts_silently() {
    let src = "global float buf[1];
         fn main() {
             mpi_init();
             if (mpi_rank() == 0) {
                 buf[0] = 1.0;
                 mpi_send(addr(buf), 8, 1, 2);
             } else {
                 mpi_recv(addr(buf), 8, 0, 2);
                 print_flt(buf[0], 6);
             }
             mpi_finalize();
         }";
    // Golden run.
    let mut w = world(src, 2);
    assert_eq!(w.run(), WorldExit::Clean);
    let golden = w.machine(1).console_text();
    // Faulted run: flip a high mantissa bit of the payload's f64
    // (payload starts after the 48-byte header).
    let mut w = world(src, 2);
    w.arm(Fault::flip(1, 48 + 6, 4));
    assert_eq!(w.run(), WorldExit::Clean);
    assert_ne!(
        w.machine(1).console_text(),
        golden,
        "payload corruption must show"
    );
}

#[test]
fn message_fault_in_header_magic_crashes() {
    let src = "global float buf[1];
         fn main() {
             mpi_init();
             if (mpi_rank() == 0) { buf[0] = 1.0; mpi_send(addr(buf), 8, 1, 2); }
             else { mpi_recv(addr(buf), 8, 0, 2); }
             mpi_finalize();
         }";
    let mut w = world(src, 2);
    w.arm(Fault::flip(1, 1, 3));
    let e = w.run();
    assert!(
        matches!(&e, WorldExit::Crashed { reason, .. } if reason.contains("MPICH internal error")),
        "{e:?}"
    );
}

#[test]
fn message_fault_in_tag_hangs() {
    let src = "global float buf[1];
         fn main() {
             mpi_init();
             if (mpi_rank() == 0) { buf[0] = 1.0; mpi_send(addr(buf), 8, 1, 2); }
             else { mpi_recv(addr(buf), 8, 0, 2); }
             mpi_finalize();
         }";
    let mut w = world(src, 2);
    // Byte 12 is the tag field.
    w.arm(Fault::flip(1, 12, 6));
    assert!(matches!(w.run(), WorldExit::Hung { .. }));
}

#[test]
fn app_abort_is_app_detected() {
    let mut w = world(
        r#"fn main() { mpi_init(); assert(mpi_size() == 99, "wrong world"); mpi_finalize(); }"#,
        2,
    );
    assert!(matches!(w.run(), WorldExit::AppAborted { msg, .. } if msg == "wrong world"));
}

#[test]
fn nondet_changes_any_source_order_but_reduction_stays_stable() {
    // Sum of contributions is order-independent; the arrival order of the
    // individual messages is not. Both worlds must produce the same total.
    let src = "global float v[1];
         fn main() {
             var int i;
             var float total;
             mpi_init();
             if (mpi_rank() == 0) {
                 total = 0.0;
                 for (i = 1; i < 6; i = i + 1) { mpi_recv(addr(v), 8, -1, 4); total = total + v[0]; }
                 print_flt(total, 2);
             } else {
                 v[0] = 1.0 / float(mpi_rank());
                 mpi_send(addr(v), 8, 0, 4);
             }
             mpi_finalize();
         }";
    let img = compile(src).unwrap();
    let mut outputs = Vec::new();
    for seed in 0..4 {
        let mut w = MpiWorld::new(
            &img,
            WorldConfig {
                nranks: 6,
                nondet: true,
                seed,
                machine: MachineConfig {
                    budget: 50_000_000,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        assert_eq!(w.run(), WorldExit::Clean);
        outputs.push(w.machine(0).console_text());
    }
    assert!(
        outputs.windows(2).all(|w| w[0] == w[1]),
        "totals must agree: {outputs:?}"
    );
}

#[test]
fn traffic_profile_counts_messages() {
    let mut w = world(
        "global float b[16];
         fn main() {
             mpi_init();
             if (mpi_rank() == 0) { mpi_send(addr(b), 128, 1, 1); }
             else { mpi_recv(addr(b), 128, 0, 1); }
             mpi_barrier();
             mpi_finalize();
         }",
        2,
    );
    assert_eq!(w.run(), WorldExit::Clean);
    let p1 = *w.profile(1);
    assert_eq!(p1.data_msgs, 1);
    assert_eq!(p1.payload_bytes, 128);
    assert!(p1.control_msgs >= 1); // barrier token
    assert!(p1.header_percent() > 0.0 && p1.header_percent() < 100.0);
    assert!(w.received_bytes(1) >= p1.total_bytes());
}

#[test]
fn truncated_receive_raises_handler() {
    // Receiver's capacity is smaller than the payload: MPI_ERR_TRUNCATE
    // raises the registered handler (MPI Detected path).
    let mut w = world(
        "global float big[8];
         global float small[1];
         fn main() {
             mpi_init();
             mpi_errhandler_set(1);
             if (mpi_rank() == 0) { mpi_send(addr(big), 64, 1, 5); }
             else { mpi_recv(addr(small), 8, 0, 5); }
             mpi_finalize();
         }",
        2,
    );
    let e = w.run();
    assert!(
        matches!(&e, WorldExit::MpiDetected { what, .. } if what.contains("truncated")),
        "{e:?}"
    );
}

#[test]
fn send_to_self_matches_own_receive() {
    let mut w = world(
        "global float b[1];
         fn main() {
             mpi_init();
             b[0] = 7.5;
             mpi_send(addr(b), 8, mpi_rank(), 3);
             b[0] = 0.0;
             mpi_recv(addr(b), 8, mpi_rank(), 3);
             print_flt(b[0], 1);
             mpi_finalize();
         }",
        2,
    );
    assert_eq!(w.run(), WorldExit::Clean);
    assert_eq!(w.machine(0).console_text(), "7.5");
}

#[test]
fn single_rank_collectives_are_identity() {
    let mut w = world(
        "global float v[2];
         global float o[2];
         fn main() {
             mpi_init();
             v[0] = 3.0; v[1] = 4.0;
             mpi_bcast(addr(v), 16, 0);
             mpi_reduce(addr(v), 2, 0, addr(o));
             mpi_allreduce(addr(v), 2, addr(o));
             mpi_barrier();
             print_flt(o[0] + o[1], 1);
             mpi_finalize();
         }",
        1,
    );
    assert_eq!(w.run(), WorldExit::Clean);
    assert_eq!(w.machine(0).console_text(), "7.0");
}

#[test]
fn back_to_back_collectives_do_not_cross_match() {
    // Two consecutive bcasts with different payloads: collective
    // sequence numbers keep them apart even though src/root coincide.
    let mut w = world(
        "global float a[1];
         global float b[1];
         fn main() {
             mpi_init();
             if (mpi_rank() == 0) { a[0] = 1.0; b[0] = 2.0; }
             mpi_bcast(addr(a), 8, 0);
             mpi_bcast(addr(b), 8, 0);
             print_flt(a[0], 0); print_flt(b[0], 0);
             mpi_finalize();
         }",
        3,
    );
    assert_eq!(w.run(), WorldExit::Clean);
    for r in 0..3 {
        assert_eq!(w.machine(r).console_text(), "12", "rank {r}");
    }
}

#[test]
fn allreduce_twice_accumulates_independently() {
    let mut w = world(
        "global float v[1];
         global float o[1];
         fn main() {
             mpi_init();
             v[0] = 1.0;
             mpi_allreduce(addr(v), 1, addr(o));
             v[0] = o[0];
             mpi_allreduce(addr(v), 1, addr(o));
             print_flt(o[0], 0);
             mpi_finalize();
         }",
        3,
    );
    assert_eq!(w.run(), WorldExit::Clean);
    // 3 -> 9 across two allreduces on 3 ranks.
    for r in 0..3 {
        assert_eq!(w.machine(r).console_text(), "9", "rank {r}");
    }
}

#[test]
fn message_fault_hit_reports_location() {
    let src = "global float buf[4];
         fn main() {
             mpi_init();
             if (mpi_rank() == 0) { mpi_send(addr(buf), 32, 1, 2); }
             else { mpi_recv(addr(buf), 32, 0, 2); }
             mpi_finalize();
         }";
    // Header hit.
    let mut w = world(src, 2);
    w.arm(Fault::flip(1, 30, 0));
    let _ = w.run();
    let hit = w.plan().hit.expect("fault fired");
    assert!(hit.in_header);
    assert_eq!(hit.offset_in_msg, 30);
    // Payload hit.
    let mut w = world(src, 2);
    w.arm(Fault::flip(1, 60, 0));
    let _ = w.run();
    let hit = w.plan().hit.expect("fault fired");
    assert!(!hit.in_header);
    assert_eq!(hit.msg_len, 48 + 32);
}

#[test]
fn corrupted_src_field_crashes_instead_of_panicking() {
    // A rendezvous RTS whose src field is corrupted to a nonexistent
    // rank: granting the CTS must fail like MPICH (job abort), not
    // panic the simulator. Byte 6 is the low byte of the src field.
    let src = "global float big[256];
         fn main() {
             mpi_init();
             if (mpi_rank() == 0) { mpi_send(addr(big), 2048, 1, 3); }
             else { mpi_recv(addr(big), 2048, 0, 3); }
             mpi_finalize();
         }";
    let mut w = world(src, 2);
    w.arm(Fault::flip(1, 6, 5));
    let e = w.run();
    assert!(
        matches!(&e, WorldExit::Crashed { .. } | WorldExit::Hung { .. }),
        "{e:?}"
    );
}

// --- process-level faults (fl-ft substrate) -------------------------------

/// Two ranks ping-ponging many times: plenty of mid-run block clocks for
/// a rank kill to land on, and the survivor deadlocks without help.
const PING_LOOP: &str = "global float b[1];
     fn main() {
         var int i;
         mpi_init();
         for (i = 0; i < 40; i = i + 1) {
             if (mpi_rank() == 0) {
                 b[0] = float(i);
                 mpi_send(addr(b), 8, 1, 4);
                 mpi_recv(addr(b), 8, 1, 5);
             } else {
                 mpi_recv(addr(b), 8, 0, 4);
                 b[0] = b[0] + 0.5;
                 mpi_send(addr(b), 8, 0, 5);
             }
         }
         mpi_finalize();
     }";

fn mid_run_blocks(src: &str, nranks: u16, rank: u16) -> u64 {
    let mut w = world(src, nranks);
    assert_eq!(w.run(), WorldExit::Clean);
    w.machine(rank).counters.blocks / 2
}

#[test]
fn rank_kill_without_detector_strands_peers() {
    let at = mid_run_blocks(PING_LOOP, 2, 1);
    for wedge in [false, true] {
        let mut w = world(PING_LOOP, 2);
        w.arm(Fault::kill(1, at, wedge));
        assert!(
            matches!(w.run(), WorldExit::Hung { .. }),
            "killed rank must strand rank 0 (wedge={wedge})"
        );
        assert!(w.plan().armed().is_empty(), "the kill disarms after firing");
    }
}

#[test]
fn detector_turns_rank_kill_into_typed_failure() {
    let at = mid_run_blocks(PING_LOOP, 2, 1);
    for wedge in [false, true] {
        let img = compile(PING_LOOP).unwrap();
        let mut w = MpiWorld::new(
            &img,
            WorldConfig {
                nranks: 2,
                ft: FailureDetector {
                    enabled: true,
                    ..Default::default()
                },
                machine: MachineConfig {
                    budget: 50_000_000,
                    obs_capacity: 256,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        w.arm(Fault::kill(1, at, wedge));
        let e = w.run();
        assert!(
            matches!(e, WorldExit::RankFailed { rank: 1, .. }),
            "wedge={wedge}: {e:?}"
        );
        // The kill is recorded on the victim; the suspicion lands on its
        // ring buddy (rank 0 in a 2-rank world).
        let streams = w.event_streams();
        assert!(streams[1]
            .iter()
            .any(|e| matches!(e.kind, fl_obs::EventKind::RankKilled { wedge: we } if we == wedge)));
        assert!(streams[0]
            .iter()
            .any(|e| matches!(e.kind, fl_obs::EventKind::RankSuspected { rank: 1, .. })));
        assert!(streams[0]
            .iter()
            .any(|e| matches!(e.kind, fl_obs::EventKind::HeartbeatProbe { to: 1, .. })));
    }
}

#[test]
fn detector_does_not_false_positive_on_long_blocked_rank() {
    // Rank 0 computes for far longer than the suspicion threshold before
    // sending; rank 1 sits blocked in recv the whole time. An alive rank
    // answers probes even while blocked, so the job must finish clean.
    let src = "global float b[1];
         global float acc[1];
         fn main() {
             var int i;
             mpi_init();
             if (mpi_rank() == 0) {
                 acc[0] = 0.0;
                 for (i = 0; i < 300000; i = i + 1) { acc[0] = acc[0] + 1.0; }
                 b[0] = acc[0];
                 mpi_send(addr(b), 8, 1, 9);
             } else {
                 mpi_recv(addr(b), 8, 0, 9);
                 print_flt(b[0], 1);
             }
             mpi_finalize();
         }";
    let img = compile(src).unwrap();
    let mut w = MpiWorld::new(
        &img,
        WorldConfig {
            nranks: 2,
            ft: FailureDetector {
                enabled: true,
                probe_rounds: 4,
                suspect_rounds: 16,
                accrual: false,
            },
            machine: MachineConfig {
                budget: 50_000_000,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    assert_eq!(w.run(), WorldExit::Clean);
    assert_eq!(w.machine(1).console_text(), "300000.0");
}

#[test]
fn kill_after_exit_is_a_missed_fault() {
    // A fault due beyond its rank's lifetime never fires: the rank exits
    // cleanly first and the job completes. Until it fires it also does no
    // guest-visible work — every rank retires the instructions, the world
    // takes the rounds and rank 0 prints the bytes of the unarmed run.
    // The program allocates, touches the heap and exchanges messages, so
    // each effect's per-call / per-access / per-byte / per-round check runs.
    const SRC: &str = "global float b[1];
         fn main() {
             var int i;
             var int p;
             mpi_init();
             p = malloc(8);
             storef(p, 0.5);
             for (i = 0; i < 40; i = i + 1) {
                 if (mpi_rank() == 0) {
                     b[0] = float(i);
                     mpi_send(addr(b), 8, 1, 4);
                     mpi_recv(addr(b), 8, 1, 5);
                 } else {
                     mpi_recv(addr(b), 8, 0, 4);
                     b[0] = b[0] + loadf(p);
                     mpi_send(addr(b), 8, 0, 5);
                 }
             }
             if (mpi_rank() == 0) { print_flt(b[0], 1); }
             mpi_finalize();
         }";
    use Effect::{Stall, Syscall, World};
    use WorldEffect::*;
    let idle = |rank: u16| -> [(&str, Effect); 7] {
        // Rank sets name the *other* rank, so a set that fired early would
        // show on a rank the trigger's own exit cannot excuse.
        let other = 1 << (1 - rank);
        [
            ("corrupt", World(Wire(NetFaultKind::Corrupt))),
            (
                "cut",
                World(Cut {
                    mask: other,
                    rounds: 256,
                }),
            ),
            (
                "node kill",
                World(Kill {
                    mates: other,
                    wedge: false,
                }),
            ),
            (
                "malloc",
                Syscall {
                    kind: SyscallFaultKind::Malloc,
                    persist: false,
                },
            ),
            (
                "tax",
                World(Tax {
                    permille: 990,
                    rounds: 256,
                }),
            ),
            (
                "hog",
                World(Hog {
                    mask: other,
                    permille: 500,
                    rounds: 256,
                }),
            ),
            (
                "stall",
                Stall {
                    window_insns: 1024,
                    per_access: 4,
                },
            ),
        ]
    };
    let observe = |w: &mut MpiWorld| {
        assert_eq!(w.run(), WorldExit::Clean);
        let insns: Vec<u64> = (0..w.nranks())
            .map(|r| w.machine(r).counters.insns)
            .collect();
        (insns, w.round(), w.machine(0).console_text())
    };
    let unarmed = observe(&mut world(SRC, 2));
    assert_eq!(unarmed.2, "39.5", "the probe program prints its last echo");
    for rank in 0..2 {
        for (name, effect) in idle(rank) {
            let mut w = world(SRC, 2);
            w.arm(Fault::new(rank, u64::MAX, effect));
            assert!(w.fault_pending(), "{name} armed on rank {rank} is pending");
            assert_eq!(observe(&mut w), unarmed, "{name} armed on rank {rank}");
            let plan = w.plan();
            assert!(plan.hit.is_none(), "{name}: no wire strike");
            assert_eq!(plan.starved, 0, "{name}: nobody starved");
            assert!(
                plan.armed().iter().all(|f| matches!(f.effect, Wire(_))),
                "{name}: a missed block-clock fault disarms (a wire fault waits on)"
            );
        }
    }
}

#[test]
fn out_digests_deterministic_and_sensitive_to_corruption() {
    let img = compile(PING_LOOP).unwrap();
    let cfg = WorldConfig {
        nranks: 2,
        track_digests: true,
        machine: MachineConfig {
            budget: 50_000_000,
            ..Default::default()
        },
        ..Default::default()
    };
    let digests = |w: &MpiWorld| (w.out_digest(0), w.out_digest(1));
    let mut a = MpiWorld::new(&img, cfg);
    assert_eq!(a.run(), WorldExit::Clean);
    let mut b = MpiWorld::new(&img, cfg);
    assert_eq!(b.run(), WorldExit::Clean);
    assert_eq!(
        digests(&a),
        digests(&b),
        "identical runs, identical digests"
    );
    assert_ne!(digests(&a).0, 0, "traffic must fold into the digest");
    // Corrupt a payload byte of rank 1's inbound traffic: its *outbound*
    // echo diverges, so its digest — the replica voting key — moves.
    let mut c = MpiWorld::new(&img, cfg);
    // Byte 7 of the f64 payload holds sign/exponent bits: the corrupted
    // value survives rank 1's arithmetic and changes what it echoes back.
    c.arm(Fault::flip(1, 48 + 7, 6));
    assert_eq!(c.run(), WorldExit::Clean);
    assert_ne!(
        digests(&a).1,
        digests(&c).1,
        "corrupt echo must move rank 1's digest"
    );
}

#[test]
fn ft_off_world_is_bit_identical_to_pre_ft_config() {
    // The detector and digest knobs default off; a default-config world
    // must behave — and trace — exactly like one that never heard of
    // them, and no ft event kinds may appear in its stream.
    let img = compile(PING_LOOP).unwrap();
    let mk = |cfg: WorldConfig| {
        let mut w = MpiWorld::new(&img, cfg);
        let exit = w.run();
        (
            exit,
            w.event_streams(),
            w.machine(0).console_text().to_string(),
        )
    };
    let base = WorldConfig {
        nranks: 2,
        machine: MachineConfig {
            budget: 50_000_000,
            obs_capacity: 512,
            ..Default::default()
        },
        ..Default::default()
    };
    let explicit = WorldConfig {
        ft: FailureDetector {
            enabled: false,
            probe_rounds: 8,
            suspect_rounds: 32,
            accrual: false,
        },
        track_digests: false,
        ..base
    };
    let (ea, sa, ca) = mk(base);
    let (eb, sb, cb) = mk(explicit);
    assert_eq!(ea, eb);
    assert_eq!(ca, cb);
    assert_eq!(sa, sb, "ft-off event streams must be bit-identical");
    let ft_kinds = [
        "rank_killed",
        "heartbeat_probe",
        "rank_suspected",
        "world_shrunk",
        "rank_respawned",
        "replica_vote",
    ];
    for stream in &sa {
        for ev in stream {
            assert!(
                !ft_kinds.contains(&ev.kind.name()),
                "ft event {:?} leaked into an ft-off run",
                ev.kind
            );
        }
    }
}

// --- fl-ulfm: app-visible fault tolerance ------------------------------

/// A world in ulfm mode: failures become app-visible error returns
/// instead of terminating the run, and the detector is on so suspicion
/// can mature into failure knowledge.
fn ulfm_world(src: &str, nranks: u16) -> MpiWorld {
    let img = fl_lang::compile(src).expect("compiles");
    MpiWorld::new(
        &img,
        WorldConfig {
            nranks,
            ulfm: true,
            ft: FailureDetector {
                enabled: true,
                ..Default::default()
            },
            machine: MachineConfig {
                budget: 50_000_000,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

#[test]
fn ulfm_agree_is_the_or_of_all_flags() {
    // One dissenting rank poisons everyone's agreement result.
    let mut w = ulfm_world(
        "fn main() {
             var int r;
             mpi_init();
             r = mpix_comm_agree(mpi_rank() == 1);
             print_int(r);
             r = mpix_comm_agree(0);
             print_int(r);
             mpi_finalize();
         }",
        3,
    );
    assert_eq!(w.run(), WorldExit::Clean);
    for r in 0..3 {
        assert_eq!(w.machine(r).console_text(), "10", "rank {r}");
    }
}

#[test]
fn ulfm_ckpt_save_restore_roundtrip() {
    // fl_ckpt is a plain per-rank byte stash: restore is non-consuming
    // and an empty stash restores zero bytes.
    let mut w = ulfm_world(
        r#"global float a[4];
         fn main() {
             var int r;
             mpi_init();
             r = fl_ckpt_restore(addr(a), 32);
             assert(r == 0, "no checkpoint yet");
             a[0] = 42.0;
             r = fl_ckpt_save(addr(a), 32);
             assert(r == 32, "save length");
             a[0] = 7.0;
             r = fl_ckpt_restore(addr(a), 32);
             assert(r == 32, "restore length");
             assert(a[0] == 42.0, "restored value");
             r = fl_ckpt_restore(addr(a), 32);
             assert(r == 32, "restore is non-consuming");
             mpi_finalize();
         }"#,
        1,
    );
    assert_eq!(w.run(), WorldExit::Clean);
}

#[test]
fn ulfm_peer_death_errors_the_recv_and_shrink_renumbers() {
    // The full recovery sequence from FL: a blocked recv completes with
    // MPIX_ERR_PROC_FAILED, ack/get_acked surface the failure mask, and
    // shrink renumbers the survivors contiguously.
    let mut w = ulfm_world(
        r#"global float buf[16];
         fn main() {
             var int r;
             mpi_init();
             if (mpi_rank() == 2) {
                 r = mpi_recv(addr(buf), 8, 0, 7);
             } else {
                 r = mpi_recv(addr(buf), 8, 2, 7);
                 assert(r + 1 == 0, "peer death must error the recv");
                 r = mpix_comm_failure_ack();
                 r = mpix_comm_failure_get_acked();
                 assert(r != 0, "acked mask must name the dead rank");
                 r = mpix_comm_shrink();
                 print_int(r); print_str("/"); print_int(mpi_size());
             }
             mpi_finalize();
         }"#,
        3,
    );
    w.arm(Fault::kill(2, 1, false));
    assert_eq!(w.run(), WorldExit::Clean);
    assert_eq!(w.nranks(), 2);
    assert_eq!(w.app_shrinks(), 1);
    assert_eq!(w.ulfm_failed_mask(), 0, "shrink clears failure knowledge");
    assert_eq!(w.machine(0).console_text(), "0/2");
    assert_eq!(w.machine(1).console_text(), "1/2");
}

#[test]
fn ulfm_failure_poisons_an_agreement_in_flight() {
    // A participant that dies mid-agreement forces result bit 0 on the
    // survivors once its suspicion matures — agreement never succeeds
    // over unstable failure knowledge.
    let mut w = ulfm_world(
        r#"fn main() {
             var int r;
             var int i;
             var int s;
             mpi_init();
             if (mpi_rank() == 1) {
                 s = 0;
                 for (i = 0; i < 1000000; i = i + 1) { s = s + i; }
                 r = mpix_comm_agree(s == 0 - 1);
             } else {
                 r = mpix_comm_agree(0);
                 assert(r != 0, "a dead participant must poison the agreement");
                 r = mpix_comm_failure_ack();
                 r = mpix_comm_shrink();
             }
             mpi_finalize();
         }"#,
        3,
    );
    w.arm(Fault::kill(1, 50, false));
    assert_eq!(w.run(), WorldExit::Clean);
    assert_eq!(w.nranks(), 2);
    assert_eq!(w.app_shrinks(), 1);
}

#[test]
fn ulfm_failure_revokes_p2p_with_live_peers() {
    // The classic ULFM revoke problem: rank 0 waits on *live* rank 1,
    // which has already left for the agreement after seeing the failure
    // of rank 2. A known failure must error every p2p call — not only
    // those naming the dead peer — or rank 0 never reaches recovery.
    let mut w = ulfm_world(
        r#"global float buf[16];
         fn main() {
             var int r;
             var int i;
             var int s;
             mpi_init();
             if (mpi_rank() == 2) {
                 s = 0;
                 for (i = 0; i < 1000000; i = i + 1) { s = s + i; }
                 print_int(s);
             } else {
                 if (mpi_rank() == 0) {
                     r = mpi_recv(addr(buf), 8, 1, 5);
                     assert(r + 1 == 0, "revoked recv from a live peer must error");
                 }
                 r = mpix_comm_agree(0);
                 assert(r != 0, "agreement must report the failure");
                 r = mpix_comm_failure_ack();
                 r = mpix_comm_shrink();
             }
             mpi_finalize();
         }"#,
        3,
    );
    w.arm(Fault::kill(2, 50, false));
    assert_eq!(w.run(), WorldExit::Clean);
    assert_eq!(w.nranks(), 2);
}

#[test]
fn ulfm_wedged_rank_is_shrunk_like_a_dead_one() {
    let mut w = ulfm_world(
        r#"global float buf[16];
         fn main() {
             var int r;
             mpi_init();
             if (mpi_rank() == 1) {
                 r = mpi_recv(addr(buf), 8, 0, 7);
             } else {
                 r = mpi_recv(addr(buf), 8, 1, 7);
                 assert(r + 1 == 0, "wedged peer must error the recv");
                 r = mpix_comm_failure_ack();
                 r = mpix_comm_shrink();
                 print_int(r); print_str("/"); print_int(mpi_size());
             }
             mpi_finalize();
         }"#,
        2,
    );
    w.arm(Fault::kill(1, 1, true));
    assert_eq!(w.run(), WorldExit::Clean);
    assert_eq!(w.nranks(), 1);
    assert_eq!(w.machine(0).console_text(), "0/1");
}

#[test]
fn ulfm_unhandled_failure_hangs_instead_of_terminating() {
    // An app that ignores the error return and simply exits leaves the
    // dead rank unresolved: the world cannot end Clean and must report a
    // hang once the idle bound trips — ulfm never invents a recovery.
    let mut w = ulfm_world(
        r#"global float buf[16];
         fn main() {
             var int r;
             mpi_init();
             if (mpi_rank() == 1) {
                 r = mpi_recv(addr(buf), 8, 0, 7);
             } else {
                 r = mpi_recv(addr(buf), 8, 1, 7);
             }
             mpi_finalize();
         }"#,
        2,
    );
    w.arm(Fault::kill(1, 1, false));
    match w.run() {
        WorldExit::Hung { reason } => assert!(reason.contains("ulfm"), "{reason}"),
        other => panic!("expected Hung, got {other:?}"),
    }
}

// --- fl-chaos: network, partition, node, burst faults --------------------

use fl_mpi::{ChannelGuard, FaultPlan, Health, NetFaultKind};

/// One-shot send with the receiver printing what it got — the unguarded
/// corrupt-in-flight probe.
const ONE_SEND: &str = "global float buf[1];
     fn main() {
         mpi_init();
         if (mpi_rank() == 0) {
             buf[0] = 1.0;
             mpi_send(addr(buf), 8, 1, 2);
         } else {
             mpi_recv(addr(buf), 8, 0, 2);
             print_flt(buf[0], 6);
         }
         mpi_finalize();
     }";

fn mid_run_recv_bytes(src: &str, nranks: u16, rank: u16) -> u64 {
    let mut w = world(src, nranks);
    assert_eq!(w.run(), WorldExit::Clean);
    w.received_bytes(rank) / 2
}

#[test]
fn net_drop_strands_the_receiver() {
    let at = mid_run_recv_bytes(PING_LOOP, 2, 0);
    let mut w = world(PING_LOOP, 2);
    w.arm(Fault::new(0, at, WorldEffect::Wire(NetFaultKind::Drop)));
    assert!(matches!(w.run(), WorldExit::Hung { .. }));
    assert!(w.plan().hit.is_some());
    assert!(w.plan().hit.is_some(), "strike location recorded");
}

#[test]
fn net_duplicate_still_completes() {
    // The duplicated echo matches a later same-tag receive; every recv
    // still finds a message, so the lockstep loop runs to completion.
    let at = mid_run_recv_bytes(PING_LOOP, 2, 0);
    let mut w = world(PING_LOOP, 2);
    w.arm(Fault::new(
        0,
        at,
        WorldEffect::Wire(NetFaultKind::Duplicate),
    ));
    assert_eq!(w.run(), WorldExit::Clean);
    assert!(w.plan().hit.is_some());
}

#[test]
fn net_reorder_only_delays_a_serialized_exchange() {
    // Ping-pong is fully serialized: deferring one echo stalls both
    // ranks until the delay elapses, then the run finishes clean.
    let at = mid_run_recv_bytes(PING_LOOP, 2, 0);
    let mut w = world(PING_LOOP, 2);
    w.arm(Fault::new(
        0,
        at,
        WorldEffect::Wire(NetFaultKind::Reorder { delay_rounds: 64 }),
    ));
    assert_eq!(w.run(), WorldExit::Clean);
    assert!(w.plan().hit.is_some());
}

#[test]
fn net_reorder_past_what_the_budget_allows_hangs_at_once() {
    // Idle rounds retire no instruction, so the budget never ends a wait
    // on a deferred message. A delay longer than the world may take
    // rounds (budget / quantum) ends it `Hung` at once, naming the round
    // the message was due; a shorter one is only a delay.
    let at = mid_run_recv_bytes(PING_LOOP, 2, 0);
    let bound = 50_000_000 / WorldConfig::default().quantum;
    for (delay, hangs) in [(bound / 2, false), (10_000_000_000, true), (u64::MAX, true)] {
        let mut w = world(PING_LOOP, 2);
        let reorder = NetFaultKind::Reorder {
            delay_rounds: delay,
        };
        w.arm(Fault::new(0, at, WorldEffect::Wire(reorder)));
        let exit = w.run();
        assert!(w.plan().hit.is_some(), "delay {delay}");
        if !hangs {
            assert_eq!(exit, WorldExit::Clean, "delay {delay}");
            assert!(w.round() > delay, "delay {delay}: {} rounds", w.round());
            continue;
        }
        let WorldExit::Hung { reason } = exit else {
            panic!("delay {delay}: {exit:?}");
        };
        assert!(w.round() < bound, "delay {delay}: {} rounds", w.round());
        // The message was deferred at some round in 1..=now.
        let due: u64 = reason
            .split("due at round ")
            .nth(1)
            .and_then(|tail| tail.split(',').next()?.parse().ok())
            .unwrap_or_else(|| panic!("no due round in {reason:?}"));
        assert!(due > delay || due == u64::MAX, "{reason}");
        assert!(due <= w.round().saturating_add(delay), "{reason}");
    }
}

#[test]
fn net_corrupt_unguarded_reaches_the_user_buffer() {
    let mut g = world(ONE_SEND, 2);
    assert_eq!(g.run(), WorldExit::Clean);
    let golden = g.machine(1).console_text();
    let mut w = world(ONE_SEND, 2);
    w.arm(Fault::new(1, 54, WorldEffect::Wire(NetFaultKind::Corrupt)));
    assert_eq!(w.run(), WorldExit::Clean);
    assert!(w.plan().hit.is_some());
    assert_ne!(
        w.machine(1).console_text(),
        golden,
        "an inverted payload byte must show in the output"
    );
}

#[test]
fn net_corrupt_guarded_is_caught_and_retransmitted() {
    let img = compile(ONE_SEND).unwrap();
    let cfg = WorldConfig {
        nranks: 2,
        guard: ChannelGuard {
            enabled: true,
            max_retransmits: 3,
        },
        machine: MachineConfig {
            budget: 50_000_000,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut g = MpiWorld::new(&img, cfg);
    assert_eq!(g.run(), WorldExit::Clean);
    let golden = g.machine(1).console_text();
    let mut w = MpiWorld::new(&img, cfg);
    w.arm(Fault::new(1, 54, WorldEffect::Wire(NetFaultKind::Corrupt)));
    assert_eq!(w.run(), WorldExit::Clean);
    assert!(w.plan().hit.is_some());
    assert!(w.retransmits() >= 1, "the CRC guard must NACK the flip");
    assert_eq!(
        w.machine(1).console_text(),
        golden,
        "the retransmitted pristine copy masks the corruption"
    );
}

#[test]
fn partition_severs_cross_traffic_and_hangs_the_job() {
    let at = mid_run_blocks(PING_LOOP, 2, 0);
    let mut w = world(PING_LOOP, 2);
    w.arm(Fault::new(
        0,
        at,
        WorldEffect::Cut {
            mask: 0b10,
            rounds: 1_000_000,
        },
    ));
    assert!(matches!(w.run(), WorldExit::Hung { .. }));
    assert!(w.plan().cut_drops >= 1, "the cut must drop real traffic");
}

#[test]
fn partition_within_one_group_cuts_nothing() {
    // Both ranks on the same side of the cut: no channel is severed.
    let at = mid_run_blocks(PING_LOOP, 2, 0);
    let mut w = world(PING_LOOP, 2);
    w.arm(Fault::new(
        0,
        at,
        WorldEffect::Cut {
            mask: 0b11,
            rounds: 1_000_000,
        },
    ));
    assert_eq!(w.run(), WorldExit::Clean);
    assert_eq!(w.plan().cut_drops, 0);
}

/// Four ranks in a barrier loop: group faults strand the survivors.
const BARRIER_LOOP: &str = "fn main() {
         var int i;
         mpi_init();
         for (i = 0; i < 40; i = i + 1) { mpi_barrier(); }
         mpi_finalize();
     }";

#[test]
fn node_kill_takes_the_whole_group_at_once() {
    let at = mid_run_blocks(BARRIER_LOOP, 4, 2);
    let mut w = world(BARRIER_LOOP, 4);
    w.arm(Fault::new(
        2,
        at,
        WorldEffect::Kill {
            mates: 0b1100,
            wedge: false,
        },
    ));
    assert!(matches!(w.run(), WorldExit::Hung { .. }));
    assert_eq!(w.health(2), Health::Dead);
    assert_eq!(w.health(3), Health::Dead);
    assert_eq!(w.health(0), Health::Alive);
    assert_eq!(w.health(1), Health::Alive);
}

#[test]
fn burst_kills_fire_on_their_own_clocks() {
    let a1 = mid_run_blocks(BARRIER_LOOP, 4, 1);
    let a3 = mid_run_blocks(BARRIER_LOOP, 4, 3);
    let mut w = world(BARRIER_LOOP, 4);
    w.arm(Fault::kill(1, a1, false));
    // Both clocks sit at the same barrier round of the lockstep loop, so
    // both victims cross their thresholds before either stall bites.
    w.arm(Fault::kill(3, a3, true));
    assert!(matches!(w.run(), WorldExit::Hung { .. }));
    assert_eq!(w.health(1), Health::Dead);
    assert_eq!(w.health(3), Health::Wedged);
}

#[test]
fn disarm_clears_every_process_fault() {
    let mut w = world(BARRIER_LOOP, 4);
    w.arm(Fault::kill(1, 1, false));
    w.arm(Fault::new(2, 1, kill(0b1100, false)));
    w.arm(Fault::new(0, 1, CUT_NOTHING));
    w.disarm(|f| matches!(f.effect, WorldEffect::Kill { .. }));
    assert_eq!(w.plan().armed().len(), 1, "only what was selected goes");
    assert_eq!(w.run(), WorldExit::Clean, "disarmed faults never fire");
}

#[test]
fn a_kill_leaves_an_already_dead_rank_alone() {
    // Every kill skips victims that are already dead or wedged: no
    // second `RankKilled`, no Dead -> Wedged flip.
    let img = compile(PING_LOOP).unwrap();
    let mut cfg = WorldConfig {
        nranks: 2,
        ..Default::default()
    };
    cfg.machine.obs_capacity = 256;
    let mut w = MpiWorld::new(&img, cfg);
    w.arm(Fault::kill(1, mid_run_blocks(PING_LOOP, 2, 1), false));
    assert!(matches!(w.run(), WorldExit::Hung { .. }));
    w.arm(Fault::kill(1, 1, true));
    let _ = w.run_round();
    assert!(w.plan().armed().is_empty(), "the second kill came due");
    assert_eq!(w.health(1), Health::Dead);
    let killed = |e: &&fl_obs::Event| matches!(e.kind, fl_obs::EventKind::RankKilled { .. });
    assert_eq!(w.event_streams()[1].iter().filter(killed).count(), 1);
}

#[test]
#[should_panic(expected = "on a 2-rank world")]
fn arm_rejects_a_mask_naming_a_rank_that_does_not_exist() {
    world(PING_LOOP, 2).arm(Fault::new(0, 1, kill(0b100, false)));
}

fn kill(mates: u32, wedge: bool) -> WorldEffect {
    WorldEffect::Kill { mates, wedge }
}

/// A cut with every rank on one side: opens its window, severs nothing.
const CUT_NOTHING: WorldEffect = WorldEffect::Cut {
    mask: 0b1111,
    rounds: 1_000_000,
};

/// What a finished world shows of itself, for exact comparison.
fn fingerprint(w: &MpiWorld, exit: WorldExit) -> impl PartialEq + std::fmt::Debug {
    let ranks: Vec<_> = (0..w.nranks())
        .map(|r| {
            let m = w.machine(r);
            (m.counters.insns, m.counters.blocks, m.console_text())
        })
        .collect();
    (exit, w.round(), ranks, w.plan().clone())
}

#[test]
fn chaos_faults_ride_snapshots() {
    // Every world-level fault kind, snapshotted while armed or while
    // its window is open: the restored world replays the straight run.
    use NetFaultKind::*;
    use WorldEffect::*;
    let recv = mid_run_recv_bytes(PING_LOOP, 2, 0);
    let ping = |r| mid_run_blocks(PING_LOOP, 2, r);
    let bar = |r| mid_run_blocks(BARRIER_LOOP, 4, r);
    let armed = |_: &MpiWorld| true;
    let fired = |w: &MpiWorld| w.plan().armed().is_empty();
    type Ready = fn(&MpiWorld) -> bool;
    let wire = |kind| (PING_LOOP, 2, vec![(0, recv, Wire(kind))], armed as Ready);
    let cases = [
        ("flip", wire(Flip { bit: 3 })),
        ("drop", wire(Drop)),
        ("duplicate", wire(Duplicate)),
        ("reorder", wire(Reorder { delay_rounds: 64 })),
        ("corrupt", wire(Corrupt)),
        (
            "kill",
            (PING_LOOP, 2, vec![(1, ping(1), kill(0, false))], armed),
        ),
        (
            "wedge",
            (PING_LOOP, 2, vec![(1, ping(1), kill(0, true))], armed),
        ),
        (
            "burst",
            (
                BARRIER_LOOP,
                4,
                vec![(1, bar(1), kill(0, false)), (3, bar(3), kill(0, true))],
                armed,
            ),
        ),
        (
            "node kill",
            (
                BARRIER_LOOP,
                4,
                vec![(2, bar(2), kill(0b1100, false))],
                armed,
            ),
        ),
        (
            "partition, armed",
            (
                PING_LOOP,
                2,
                vec![(
                    0,
                    ping(0),
                    Cut {
                        mask: 0b10,
                        rounds: 1_000_000,
                    },
                )],
                armed,
            ),
        ),
        (
            "partition, mid-cut",
            (
                PING_LOOP,
                2,
                vec![(
                    0,
                    ping(0),
                    Cut {
                        mask: 0b10,
                        rounds: 1_000_000,
                    },
                )],
                |w: &MpiWorld| w.plan().cut_drops > 0,
            ),
        ),
        (
            "tax, mid-window",
            (
                PING_LOOP,
                2,
                vec![(
                    1,
                    ping(1),
                    Tax {
                        permille: 900,
                        rounds: 64,
                    },
                )],
                |w: &MpiWorld| w.plan().starved != 0,
            ),
        ),
        (
            "hog, mid-window",
            (
                PING_LOOP,
                2,
                vec![(
                    0,
                    ping(0),
                    Hog {
                        mask: 0b11,
                        permille: 500,
                        rounds: 64,
                    },
                )],
                fired,
            ),
        ),
    ];
    for (name, (src, nranks, faults, ready)) in cases {
        let mut w = world(src, nranks);
        for (rank, at, effect) in faults {
            w.arm(Fault::new(rank, at, effect));
        }
        while !ready(&w) {
            assert_eq!(w.run_round(), None, "{name}: ended before the snapshot");
        }
        assert_ne!(
            *w.plan(),
            FaultPlan::default(),
            "{name}: armed or mid-window"
        );
        let mut r = w.snapshot().restore();
        let straight = w.run();
        let restored = r.run();
        assert_eq!(
            fingerprint(&r, restored),
            fingerprint(&w, straight),
            "{name}"
        );
    }
}

#[test]
fn a_world_with_a_fault_armed_or_a_window_open_never_converges() {
    // Convergence compares the whole plan: against a fault-free golden
    // snapshot, any armed entry and any open window is a difference —
    // even one that changes nothing the guest can see. Only the strike
    // bookkeeping of a spent wire fault is excused.
    const AT: u64 = 8;
    let golden = |w: &mut MpiWorld| {
        for r in 0..w.nranks() {
            w.machine_mut(r).set_read_stamp(1);
        }
        while w.round() < AT {
            assert_eq!(w.run_round(), None);
        }
    };
    let mut g = world(BARRIER_LOOP, 4);
    golden(&mut g);
    let snap = g.snapshot();
    assert_eq!(g.run(), WorldExit::Clean);
    let stamps: Vec<_> = (0..4)
        .map(|r| g.machine_mut(r).take_read_stamps().unwrap())
        .collect();
    let converged = |w: &MpiWorld| w.converged_on(&snap, &stamps, 1).is_some();
    assert!(converged(&snap.restore()), "the golden run is itself");

    // Armed, not yet due: every kind.
    let late = u64::MAX;
    let armed = [
        WorldEffect::Wire(NetFaultKind::Flip { bit: 0 }),
        WorldEffect::Wire(NetFaultKind::Drop),
        kill(0, false),
        kill(0b1100, true),
        CUT_NOTHING,
        WorldEffect::Tax {
            permille: 900,
            rounds: 4,
        },
        WorldEffect::Hog {
            mask: 0b11,
            permille: 500,
            rounds: 4,
        },
    ];
    for effect in armed {
        let mut w = snap.restore();
        w.arm(Fault::new(2, late, effect));
        assert!(!converged(&w), "{effect:?} is still armed");
    }
    let mut w = snap.restore();
    w.arm(Fault::once(2, late, |_| {}));
    assert!(!converged(&w), "a machine action is still armed");

    // Fired at the first round, window open at the boundary, and built
    // to change nothing: nobody is cut off, taxed or robbed.
    let open = [
        CUT_NOTHING,
        WorldEffect::Tax {
            permille: 0,
            rounds: 1_000_000,
        },
        WorldEffect::Hog {
            mask: 0,
            permille: 500,
            rounds: 1_000_000,
        },
    ];
    for effect in open {
        let mut w = world(BARRIER_LOOP, 4);
        w.arm(Fault::new(0, 0, effect));
        golden(&mut w);
        assert!(w.plan().armed().is_empty(), "{effect:?} fired");
        assert!(!converged(&w), "{effect:?} holds its window open");
    }

    // A flip in the reserved tail of a header is consumed with its
    // message and leaves only `hit` behind: that world converges.
    let mut w = world(BARRIER_LOOP, 4);
    w.arm(Fault::flip(1, 40, 5));
    golden(&mut w);
    assert!(w.plan().hit.is_some() && w.plan().armed().is_empty());
    assert!(converged(&w), "`hit` is the one excused field");
}

// --- read stamping: host-side reads on the guest's behalf -------------------

/// Run `src` to a clean end with read stamping on and return, for each
/// rank, the stamp of every 4-byte granule of global `sym`. The programs
/// below only ever *store* to their buffers, so any stamp is the MPI
/// layer's own read of the buffer.
fn buffer_stamps(src: &str, nranks: u16, ulfm: bool, sym: &str) -> Vec<Vec<u32>> {
    const STAMP: u32 = 7;
    let img = compile(src).expect("compiles");
    let mut cfg = WorldConfig {
        nranks,
        ulfm,
        machine: MachineConfig {
            budget: 50_000_000,
            ..Default::default()
        },
        ..Default::default()
    };
    cfg.ft.enabled = ulfm;
    let mut w = MpiWorld::new(&img, cfg);
    for r in 0..nranks {
        w.machine_mut(r).set_read_stamp(STAMP);
    }
    assert_eq!(w.run(), WorldExit::Clean);
    let s = img
        .symbols
        .iter()
        .find(|s| s.name == sym)
        .expect("symbol exists");
    (0..nranks)
        .map(|r| {
            let stamps = w.machine_mut(r).take_read_stamps().unwrap();
            (0..s.size / 4)
                .map(|g| stamps.get(s.addr + 4 * g))
                .collect()
        })
        .collect()
}

#[test]
fn eager_send_buffer_is_stamped_as_read() {
    let stamps = buffer_stamps(
        "global float buf[6];
         global float got[4];
         fn main() {
             mpi_init();
             if (mpi_rank() == 0) {
                 buf[0] = 1.0; buf[3] = 4.0;
                 mpi_send(addr(buf), 32, 1, 7);
             } else {
                 mpi_recv(addr(got), 32, 0, 7);
             }
             mpi_finalize();
         }",
        2,
        false,
        "buf",
    );
    // 32 bytes sent out of a 48-byte buffer: exactly those 8 granules.
    assert_eq!(stamps[0], [7, 7, 7, 7, 7, 7, 7, 7, 0, 0, 0, 0]);
    assert!(stamps[1].iter().all(|&s| s == 0), "receiver never sends");
}

#[test]
fn rendezvous_send_buffer_is_stamped_as_read() {
    // 2048 bytes exceed the 1024-byte eager threshold: the payload is
    // captured at send time on the RTS path.
    let stamps = buffer_stamps(
        "global float big[260];
         global float got[256];
         fn main() {
             mpi_init();
             if (mpi_rank() == 0) {
                 big[5] = 2.5;
                 mpi_send(addr(big), 2048, 1, 3);
             } else {
                 mpi_recv(addr(got), 2048, 0, 3);
             }
             mpi_finalize();
         }",
        2,
        false,
        "big",
    );
    assert!(stamps[0][..512].iter().all(|&s| s == 7));
    assert!(stamps[0][512..].iter().all(|&s| s == 0));
}

#[test]
fn bcast_and_reduce_buffers_are_stamped_as_read() {
    let src = "global float arr[4];
         global float part[2];
         global float out[2];
         fn main() {
             mpi_init();
             if (mpi_rank() == 0) { arr[1] = 3.0; }
             mpi_bcast(addr(arr), 32, 0);
             part[0] = 1.0;
             mpi_reduce(addr(part), 2, 0, addr(out));
             mpi_finalize();
         }";
    // Bcast: only the root's buffer is read (the others are written).
    let arr = buffer_stamps(src, 3, false, "arr");
    assert_eq!(arr[0], [7; 8]);
    assert_eq!(arr[1], [0; 8]);
    // Reduce: every rank's contribution is read — the root's into the
    // accumulator, the others' onto the wire.
    let part = buffer_stamps(src, 3, false, "part");
    for (r, p) in part.iter().enumerate() {
        assert_eq!(p[..], [7; 4], "rank {r}");
    }
    let out = buffer_stamps(src, 3, false, "out");
    assert!(
        out.iter().flatten().all(|&s| s == 0),
        "recvbuf is write-only"
    );
}

#[test]
fn ckpt_save_buffer_is_stamped_as_read() {
    let stamps = buffer_stamps(
        "global float a[6];
         fn main() {
             var int r;
             mpi_init();
             a[0] = 42.0;
             r = fl_ckpt_save(addr(a), 32);
             mpi_finalize();
         }",
        1,
        true,
        "a",
    );
    assert_eq!(stamps[0], [7, 7, 7, 7, 7, 7, 7, 7, 0, 0, 0, 0]);
}

// --- injections fire inside the quantum --------------------------------------

#[test]
fn a_fault_that_changes_nothing_leaves_the_schedule_alone() {
    // The victim runs to the fire point, takes the fault and finishes the
    // same quantum, so every round boundary — not just the final state —
    // is the golden run's. (Clipping the quantum at the fire point and
    // firing a round later would shift the victim's phase for good.)
    let src = "global float buf[4];
         fn main() {
             var int i;
             var int me;
             mpi_init();
             me = mpi_rank();
             for (i = 0; i < 40; i = i + 1) {
                 buf[0] = buf[0] + float(i);
                 if (me == 0) {
                     mpi_send(addr(buf), 32, 1, 7);
                     mpi_recv(addr(buf), 32, 1, 8);
                 } else {
                     mpi_recv(addr(buf), 32, 0, 7);
                     mpi_send(addr(buf), 32, 0, 8);
                 }
             }
             mpi_finalize();
         }";
    let img = compile(src).expect("compiles");
    let cfg = WorldConfig {
        nranks: 2,
        quantum: 97,
        machine: MachineConfig {
            budget: 50_000_000,
            ..Default::default()
        },
        ..Default::default()
    };
    let injections: [fn() -> Fault; 2] = [
        || Fault::once(1, 1234, |_| {}),
        || Fault::persistent(0, 555, 40, |_| {}),
    ];
    for make in injections {
        let mut golden = MpiWorld::new(&img, cfg);
        let mut faulted = MpiWorld::new(&img, cfg);
        faulted.arm(make());
        let mut rounds = 0;
        loop {
            let (g, f) = (golden.run_round(), faulted.run_round());
            assert_eq!(g, f, "round {rounds}");
            assert!(
                golden.snapshot() == faulted.snapshot(),
                "worlds differ after round {rounds}"
            );
            rounds += 1;
            if g.is_some() {
                assert_eq!(g, Some(WorldExit::Clean));
                break;
            }
        }
        assert!(rounds > 20, "the quantum is small enough to matter");
    }
}

#[test]
fn an_injection_fires_at_exactly_its_instruction_count() {
    let img = compile(
        "fn main() { var int i; mpi_init(); for (i = 0; i < 500; i = i + 1) { } mpi_finalize(); }",
    )
    .expect("compiles");
    let cfg = WorldConfig {
        nranks: 1,
        quantum: 100,
        ..Default::default()
    };
    let fired = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let log = fired.clone();
    let mut w = MpiWorld::new(&img, cfg);
    w.arm(Fault::persistent(0, 250, 130, move |m| {
        log.lock().unwrap().push(m.counters.insns)
    }));
    assert_eq!(w.run(), WorldExit::Clean);
    let fired = fired.lock().unwrap();
    // Mid-quantum (250), then every 130 instructions whatever the
    // quantum boundaries are doing.
    assert_eq!(fired[..4], [250, 380, 510, 640]);
    assert!(w.fault_pending(), "a persistent fault stays armed");
}
