//! Fault-semantics integration tests: specific injected faults must
//! produce the specific failure modes the paper attributes to them.

use fl_apps::{App, AppKind, AppParams};
use fl_isa::{FpuSpecial, Gpr, RegisterName};
use fl_lang::compile;
use fl_machine::{Exit, Machine, MachineConfig, Signal};
use fl_mpi::{Fault, MpiWorld, WorldConfig, WorldExit};

fn single_machine(src: &str) -> Machine {
    Machine::load(
        &compile(src).unwrap(),
        MachineConfig {
            budget: 50_000_000,
            ..Default::default()
        },
    )
}

#[test]
fn esp_high_bit_flip_crashes() {
    // A flipped stack pointer lands outside the stack mapping: SIGSEGV on
    // the next push — the dominant register-fault outcome.
    let mut m = single_machine(
        "fn f(int x) -> int { if (x > 0) { return f(x - 1) + 1; } return 0; }
         fn main() { print_int(f(50)); }",
    );
    for _ in 0..100 {
        assert!(m.step().is_none());
    }
    m.flip_register_bit(RegisterName::Gpr(Gpr::Esp), 27);
    assert!(matches!(
        m.run(1_000_000),
        Exit::Signal(Signal::Segv { .. })
    ));
}

#[test]
fn eip_flip_crashes_or_wanders() {
    let mut m = single_machine("fn main() { var int i; for (i = 0; i < 1000; i = i + 1) { } }");
    for _ in 0..50 {
        assert!(m.step().is_none());
    }
    m.flip_register_bit(RegisterName::Eip, 29);
    // Out of any mapping: SIGSEGV at fetch.
    assert!(matches!(
        m.run(1_000_000),
        Exit::Signal(Signal::Segv { .. })
    ));
}

#[test]
fn loop_counter_flip_can_hang() {
    // Flip a high bit of the loop counter right as the loop runs: the
    // bound check `i < 1000` sees a huge negative/positive value. With a
    // negative value the loop runs ~2^31 iterations: budget exhaustion.
    let src = "fn main() { var int i; for (i = 0; i < 1000; i = i + 1) { } }";
    let mut hangs = 0;
    for warm in [200u64, 400, 800] {
        let mut m = single_machine(src);
        for _ in 0..warm {
            if m.step().is_some() {
                break;
            }
        }
        // The loop variable lives in the frame at EBP-4 (little-endian);
        // its sign bit is bit 7 of the byte at EBP-1.
        let ebp = m.cpu.get(Gpr::Ebp);
        m.flip_mem_bit(ebp.wrapping_sub(1), 7);
        if matches!(m.run(u64::MAX), Exit::Budget) {
            hangs += 1;
        }
    }
    assert!(hangs > 0, "no loop-counter flip hung");
}

#[test]
fn twd_flip_produces_nan_results() {
    // §6.1.1: "Changing one bit [of TWD] can turn a valid number into NaN
    // or zero." Flip a tag while a live float sits on the FPU stack.
    let src = "fn main() {
                   var float a;
                   a = 1.5;
                   a = a * 2.0 + 1.0;
                   print_flt(a, 3);
               }";
    let img = compile(src).unwrap();
    // Find a step at which the FPU stack is non-empty, then corrupt TWD.
    let mut nan_seen = false;
    for steps in 1..200 {
        let mut m = Machine::load(&img, MachineConfig::default());
        let mut alive = true;
        for _ in 0..steps {
            if m.step().is_some() {
                alive = false;
                break;
            }
        }
        if !alive || m.cpu.fpu.depth() == 0 {
            continue;
        }
        // Flip both bits of st0's tag (valid 00 -> empty 11).
        let p = m.cpu.fpu.phys(0) as u32;
        m.flip_register_bit(RegisterName::FpuSpecial(FpuSpecial::Twd), 2 * p);
        m.flip_register_bit(RegisterName::FpuSpecial(FpuSpecial::Twd), 2 * p + 1);
        if let Exit::Halted(_) = m.run(1_000_000) {
            if m.console_text().contains("NaN") {
                nan_seen = true;
                break;
            }
        }
    }
    assert!(nan_seen, "no TWD flip produced a NaN in the output");
}

#[test]
fn fpu_pointer_registers_are_inert() {
    // §6.1.1: "most special-purpose register injections did not induce
    // errors" — FIP/FCS/FOO/FOS are written, never read.
    let src = "fn main() {
                   var float a;
                   var int i;
                   a = 0.0;
                   for (i = 0; i < 50; i = i + 1) { a = a + sqrt(float(i)); }
                   print_flt(a, 6);
               }";
    let img = compile(src).unwrap();
    let mut clean = Machine::load(&img, MachineConfig::default());
    assert!(matches!(clean.run(10_000_000), Exit::Halted(0)));
    let golden = clean.console_text();
    for special in [
        FpuSpecial::Fip,
        FpuSpecial::Fcs,
        FpuSpecial::Foo,
        FpuSpecial::Fos,
    ] {
        for bit in [0u32, 7, 13] {
            let mut m = Machine::load(&img, MachineConfig::default());
            for _ in 0..300 {
                assert!(m.step().is_none());
            }
            m.flip_register_bit(RegisterName::FpuSpecial(special), bit);
            assert!(
                matches!(m.run(10_000_000), Exit::Halted(0)),
                "{special:?} bit {bit}"
            );
            assert_eq!(
                m.console_text(),
                golden,
                "{special:?} bit {bit} changed output"
            );
        }
    }
}

#[test]
fn cold_text_faults_do_not_manifest() {
    // A bit flip in a never-executed function changes nothing — the
    // §6.1.2 explanation for low text error rates.
    let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
    let golden = app.golden(2_000_000_000);
    // Find a cold function's symbol.
    let cold = app
        .image
        .symbols
        .iter()
        .find(|s| s.name.starts_with("wt_cold_"))
        .expect("cold symbols exist");
    let addr = cold.addr + cold.size / 2;
    let mut w = app.world(2_000_000_000);
    w.arm(Fault::once(0, 1000, move |m| m.flip_mem_bit(addr, 3)));
    assert_eq!(w.run(), WorldExit::Clean);
    assert_eq!(app.comparable_output(&w), golden.output);
}

#[test]
fn hot_text_faults_usually_manifest() {
    // Corrupt the opcode byte of an instruction inside the stepping
    // kernel: with odd-valued opcodes, flipping bit 0 guarantees an
    // illegal instruction once that code executes again.
    let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
    let step_fn = app
        .image
        .symbols
        .iter()
        .find(|s| s.name == "step_field")
        .expect("step_field symbol");
    let addr = step_fn.addr + 16; // early instruction of the kernel
    let mut w = app.world(2_000_000_000);
    w.arm(Fault::once(1, 1000, move |m| m.flip_mem_bit(addr, 0)));
    let exit = w.run();
    assert!(
        matches!(&exit, WorldExit::Crashed { reason, .. } if reason.contains("SIGILL")),
        "{exit:?}"
    );
}

#[test]
fn stack_return_address_corruption_crashes() {
    // Corrupt a return address on the stack at an MPI trap: the RET jumps
    // into the weeds.
    let src = "fn leaf() -> int { return mpi_rank(); }
               fn mid() -> int { return leaf() + 1; }
               fn main() { mpi_init(); print_int(mid()); mpi_finalize(); }";
    let img = compile(src).unwrap();
    let mut w = MpiWorld::new(
        &img,
        WorldConfig {
            nranks: 1,
            machine: MachineConfig {
                budget: 10_000_000,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    w.arm(Fault::once(0, 20, |m| {
        let frames = fl_machine::walk(m);
        let f = frames.iter().find(|f| f.app_context).expect("app frame");
        // Flip a high bit of the stored return address.
        m.flip_mem_bit(f.ebp + 4 + 3, 6); // byte 3, bit 6 => bit 30
    }));
    let exit = w.run();
    assert!(matches!(exit, WorldExit::Crashed { .. }), "{exit:?}");
}

#[test]
fn heap_user_chunk_corruption_flows_into_output() {
    // Flip a high mantissa bit of a grid cell on the heap mid-run: the
    // PDE propagates it into the final text output (Incorrect), or the
    // value dies before output (Correct) — never a detection, since
    // wavetoy has no checks.
    let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
    let golden = app.golden(2_000_000_000);
    // Most of the heap is the cold grid-hierarchy reserve, so many draws
    // are needed before one lands in a live grid plane.
    let mut incorrect = 0;
    for k in 0..48u64 {
        let mut w = app.world(2_000_000_000);
        w.arm(Fault::once(0, golden.insns[0] / 2, move |m| {
            if let Some(addr) = fl_inject::resolve_heap_target(m, k * 7919 + 13, 1) {
                m.flip_mem_bit(addr, 6);
            }
        }));
        let exit = w.run();
        let out = app.comparable_output(&w);
        match fl_inject::classify(&exit, &out, &golden.output) {
            fl_inject::Manifestation::Incorrect => incorrect += 1,
            fl_inject::Manifestation::Correct => {}
            fl_inject::Manifestation::Crash | fl_inject::Manifestation::Hang => {}
            other => panic!("wavetoy cannot detect: {other}"),
        }
    }
    assert!(incorrect > 0, "no heap fault reached the output");
}
