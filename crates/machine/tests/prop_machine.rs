//! Property tests: the machine is *total* — no guest program and no
//! injected fault may ever panic the host. This is the core soundness
//! property a fault injector depends on: every corruption must land in
//! one of the defined exits (halt, signal, abort, trap, budget), never in
//! UB or a crash of the simulator itself.

use fl_isa::{FpuSpecial, Gpr, Opcode, RegisterName};
use fl_machine::fpu::TAG_EMPTY;
use fl_machine::{
    Cpu, Exit, Fpu, Machine, MachineConfig, ProgramImage, ReadStamps, F80, TEXT_BASE,
};
use proptest::prelude::*;

/// A hand-assembled program: a counted loop with frame, FPU use and
/// stores to data — enough live state for flips to matter.
fn loop_program() -> ProgramImage {
    use fl_isa::insn::{AluOp, FpuBinOp};
    use fl_isa::{Cond, Insn};
    let data_base = image_from_bytes(vec![0; 4]).data_base();
    let insns = [
        Insn::Enter { frame: 16 }, // 2w @ +0
        Insn::MovI {
            rd: Gpr::Ecx,
            imm: 0,
        }, // 2w @ +8
        // loop: @ +16
        Insn::St {
            rb: Gpr::Ecx,
            base: Gpr::Ebp,
            off: -4,
        }, // 1w
        Insn::Push { rs: Gpr::Ecx }, // 1w
        Insn::Pop { rd: Gpr::Edx },  // 1w
        Insn::Alu {
            op: AluOp::Add,
            rd: Gpr::Eax,
            ra: Gpr::Ecx,
            rb: Gpr::Edx,
        }, // 1w
        Insn::StG {
            rs: Gpr::Eax,
            addr: data_base,
        }, // 2w
        Insn::FildR { rs: Gpr::Eax }, // 1w
        Insn::Fld1,                  // 1w
        Insn::Fbinp { op: FpuBinOp::Add }, // 1w
        Insn::FistpR { rd: Gpr::Esi }, // 1w
        Insn::AddI {
            rd: Gpr::Ecx,
            ra: Gpr::Ecx,
            imm: 1,
        }, // 2w
        Insn::CmpI {
            ra: Gpr::Ecx,
            imm: 4000,
        }, // 2w
        Insn::J {
            cond: Cond::Lt,
            target: TEXT_BASE + 16,
        }, // 2w
        Insn::Leave,                 // 1w
        Insn::Halt,                  // 1w
    ];
    let mut text = Vec::new();
    for i in &insns {
        text.extend(fl_isa::encode(i).to_bytes());
    }
    image_from_bytes(text)
}

/// Build an image whose text is arbitrary bytes.
fn image_from_bytes(text: Vec<u8>) -> ProgramImage {
    ProgramImage {
        text,
        data: vec![0u8; 256],
        bss_size: 256,
        lib_text: fl_isa::encode(&fl_isa::Insn::Ret).to_bytes(),
        lib_data: vec![0u8; 64],
        entry: TEXT_BASE,
        symbols: Vec::new(),
        heap_reserve: 4096,
    }
}

/// Every register the injector can name, with the width of the field
/// behind it (`flip_register_bit` wraps a bit index at that width).
fn all_registers() -> Vec<(RegisterName, u32)> {
    let special = |s| match s {
        FpuSpecial::Fip | FpuSpecial::Foo => 32,
        _ => 16,
    };
    let gprs = Gpr::ALL.iter().map(|&g| (RegisterName::Gpr(g), 32));
    gprs.chain([(RegisterName::Eip, 32), (RegisterName::Eflags, 32)])
        .chain((0..8).map(|i| (RegisterName::St(i), 80)))
        .chain(FpuSpecial::ALL.map(|s| (RegisterName::FpuSpecial(s), special(s))))
        .collect()
}

/// An FPU in an arbitrary state — tags need not match values, as after
/// an injection.
fn noisy_fpu(noise: &[u64]) -> Fpu {
    let mut f = Fpu::new();
    for (p, r) in f.regs.iter_mut().enumerate() {
        *r = F80::from_bits(
            noise[p],
            (noise[8] >> (8 * p)) as u16 ^ (noise[9] >> p) as u16,
        );
    }
    // Half the tag pairs forced empty, so both kinds of slot occur.
    let empties = (0..8).fold(0u16, |m, p| {
        m | ((noise[10] >> p & 1) as u16 * 3) << (2 * p)
    });
    f.twd = noise[10].rotate_right(8) as u16 | empties;
    f.cwd = noise[11] as u16;
    f.swd = (noise[11] >> 16) as u16;
    f.fip = (noise[11] >> 32) as u32;
    f.fcs = noise[12] as u16;
    f.foo = (noise[12] >> 16) as u32;
    f.fos = (noise[12] >> 48) as u16;
    f
}

/// Change everything about `cpu` an instruction cannot read, as `noise`
/// says: the bits [`Cpu::can_read`] denies, the contents of empty x87
/// slots, and which non-empty class a non-empty tag names.
fn scramble_unreadable(cpu: &mut Cpu, noise: &[u64]) {
    let was = cpu.clone();
    let mut m = Machine::load(&image_from_bytes(vec![0; 4]), MachineConfig::default());
    m.cpu = was.clone();
    for (i, (reg, width)) in all_registers().into_iter().enumerate() {
        for bit in (0..width).filter(|&b| !Cpu::can_read(reg, b)) {
            if noise[i % noise.len()] >> (bit % 64) & 1 == 1 {
                m.flip_register_bit(reg, bit);
            }
        }
    }
    let f = &mut m.cpu.fpu;
    for p in 0..8 {
        let n = noise[(p + 3) % noise.len()];
        if f.tag(p) == TAG_EMPTY {
            f.regs[p] = F80::from_bits(n, (n >> 23) as u16);
        } else {
            f.twd = f.twd & !(3 << (2 * p)) | ((n % 3) as u16) << (2 * p);
        }
    }
    *cpu = m.cpu;
    assert!(cpu.observably_eq(&was), "scrambling touched a readable bit");
}

/// One instruction of opcode `op` with arbitrary operand fields, then
/// `halt`s. Registers and the immediate point mostly at mapped memory
/// and displacements are short, so that most loads, stores, pushes,
/// calls and returns go through instead of faulting.
fn one_insn_machine(op: Opcode, fields: u32, imm: u32, noise: &[u64], fastpath: bool) -> Machine {
    // aux12: a syscall number in 0..40 (every defined one and a few
    // undefined), else a displacement in -32..32.
    let aux = match op {
        Opcode::Sys => (fields >> 20) % 40,
        _ => ((fields >> 20) % 64).wrapping_sub(32) & 0xfff,
    };
    let word = op as u32 | fields & 0x000f_ff00 | aux << 20;
    let halt = fl_isa::encode(&fl_isa::Insn::Halt).to_bytes();
    let probe = image_from_bytes(vec![0; 64]);
    let frame = Machine::load(&probe, MachineConfig::default())
        .cpu
        .get(Gpr::Esp)
        - 4096;
    let somewhere = |n: u64| match n % 4 {
        0 => probe.data_base() + 32 + (n >> 8) as u32 % 184,
        1 => frame + ((n >> 8) as u32 % 64) * 4,
        2 => TEXT_BASE + ((n >> 8) as u32 % 8) * 4,
        _ => (n >> 8) as u32,
    };
    let mut text = word.to_le_bytes().to_vec();
    if op.has_imm_word() {
        text.extend(somewhere(imm as u64 | noise[13] << 32).to_le_bytes());
    }
    for _ in 0..16 {
        text.extend(&halt);
    }
    let cfg = MachineConfig {
        budget: 12,
        fastpath,
        ..Default::default()
    };
    let mut m = Machine::load(&image_from_bytes(text), cfg);
    for (i, g) in Gpr::ALL.into_iter().enumerate() {
        m.cpu.set(g, somewhere(noise[i].rotate_left(7)));
    }
    if !noise[14].is_multiple_of(4) {
        // A frame whose return address and saved EBP lead somewhere.
        m.cpu.set(Gpr::Esp, frame);
        m.cpu.set(Gpr::Ebp, frame + 32);
        m.poke_mem(frame, &(TEXT_BASE + 8).to_le_bytes());
        m.poke_mem(frame + 36, &(TEXT_BASE + 12).to_le_bytes());
    }
    m.cpu.eflags = noise[14].rotate_left(32) as u32;
    m.cpu.fpu = noisy_fpu(noise);
    m
}

fn run_to_exit(m: &mut Machine) -> Exit {
    loop {
        let e = m.run(5);
        if e != Exit::Quantum {
            return e;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Non-interference, the soundness of [`Cpu::observably_eq`]: nothing
    /// an instruction cannot read influences what it does. For every
    /// opcode, with arbitrary operands and machine state, on the
    /// per-instruction path and on the block path: two machines equal in
    /// memory and in every readable CPU bit, different in the unreadable
    /// ones, reach the same exit (signal and address, syscall number)
    /// with the same memory, console, output file, heap records and
    /// counters, and CPUs that are again equal in every readable bit —
    /// syscall arguments, which are GPRs, included.
    #[test]
    fn unreadable_cpu_state_never_interferes(
        fields in proptest::collection::vec(any::<u32>(), 2 * Opcode::ALL.len()),
        noise in proptest::collection::vec(any::<u64>(), 16),
        scramble in proptest::collection::vec(any::<u64>(), 12),
    ) {
        for (i, op) in Opcode::ALL.into_iter().enumerate() {
            for fastpath in [false, true] {
                let mut a = one_insn_machine(op, fields[2 * i], fields[2 * i + 1], &noise, fastpath);
                let mut b = a.snapshot().to_machine();
                scramble_unreadable(&mut b.cpu, &scramble);
                let (exit_a, exit_b) = (run_to_exit(&mut a), run_to_exit(&mut b));
                prop_assert_eq!(&exit_a, &exit_b, "{:?} fastpath {}", op, fastpath);
                // Everything but the CPU exactly, no granule excused; the
                // CPU up to what can be read.
                let same = b.converged_on(&a.snapshot(), &ReadStamps::default(), 0);
                prop_assert_eq!(same, Some(0), "{:?} fastpath {} -> {:?}", op, fastpath, exit_a);
                if fastpath {
                    let dispatched = a.exec_stats.block_hits + a.exec_stats.block_misses;
                    prop_assert!(dispatched > 0, "{:?} never took the block path", op);
                }
            }
        }
    }

    /// The same for the x87 stack operations every FPU instruction is
    /// made of: equal answers, and states equal in every readable bit.
    #[test]
    fn fpu_stack_ops_read_only_the_readable(
        noise in proptest::collection::vec(any::<u64>(), 16),
        scramble in proptest::collection::vec(any::<u64>(), 12),
        ops in proptest::collection::vec((0u8..5, 0u8..8, any::<u64>()), 1..24),
    ) {
        let mut cpu = Machine::load(&image_from_bytes(vec![0; 4]), MachineConfig::default()).cpu;
        cpu.fpu = noisy_fpu(&noise);
        let mut twin = cpu.clone();
        scramble_unreadable(&mut twin, &scramble);
        let (a, b) = (&mut cpu.fpu, &mut twin.fpu);
        for (op, i, bits) in ops {
            let v = F80::from_bits(bits, (bits >> 29) as u16);
            match op {
                0 => { a.push(v); b.push(v) }
                1 => prop_assert_eq!(a.pop(), b.pop()),
                2 => prop_assert_eq!(a.read_st(i), b.read_st(i)),
                3 => { a.write_st(i, v); b.write_st(i, v) }
                _ => { a.fxch(i); b.fxch(i) }
            }
            prop_assert!(a.observably_eq(b), "after op {} on st{}", op, i);
        }
    }

    /// The table and the compare agree, bit by bit: a flip the table
    /// calls unreadable is invisible to `observably_eq`; a flip of a GPR,
    /// EIP, condition-flag or TOP bit is visible; a data-register flip is
    /// visible iff the slot is not empty, and a tag flip iff it changes
    /// whether the slot is.
    #[test]
    fn readable_table_agrees_with_the_compare(
        noise in proptest::collection::vec(any::<u64>(), 16),
    ) {
        let mut m = Machine::load(&image_from_bytes(vec![0; 4]), MachineConfig::default());
        for (i, g) in Gpr::ALL.into_iter().enumerate() {
            m.cpu.set(g, noise[i] as u32);
        }
        m.cpu.eflags = noise[14] as u32;
        m.cpu.fpu = noisy_fpu(&noise);
        let before = m.cpu.clone();
        let empty = |cpu: &Cpu, p: usize| cpu.fpu.tag(p) == TAG_EMPTY;
        for (reg, width) in all_registers() {
            for bit in 0..width {
                m.flip_register_bit(reg, bit);
                let visible = Cpu::can_read(reg, bit) && match reg {
                    RegisterName::St(p) => !empty(&before, p as usize),
                    RegisterName::FpuSpecial(FpuSpecial::Twd) => {
                        let p = bit as usize / 2;
                        empty(&before, p) != empty(&m.cpu, p)
                    }
                    _ => true,
                };
                prop_assert_eq!(!m.cpu.observably_eq(&before), visible, "{} bit {}", reg, bit);
                m.flip_register_bit(reg, bit);
                prop_assert_eq!(&m.cpu, &before);
            }
        }
    }

    /// Arbitrary bytes as text: the machine must terminate with a defined
    /// exit, never panic.
    #[test]
    fn random_text_never_panics(bytes in proptest::collection::vec(any::<u8>(), 16..512)) {
        let img = image_from_bytes(bytes);
        let mut m = Machine::load(&img, MachineConfig { budget: 20_000, ..Default::default() });
        let exit = m.run(u64::MAX);
        prop_assert!(!matches!(exit, Exit::Quantum));
    }

    /// Random valid instructions (re-encoded from random words when they
    /// decode) still terminate within budget.
    #[test]
    fn random_decodable_text_never_panics(words in proptest::collection::vec(any::<u32>(), 8..128)) {
        let mut text = Vec::new();
        for w in &words {
            if let Ok((insn, _)) = fl_isa::decode(&[*w, 0]) {
                text.extend(fl_isa::encode(&insn).to_bytes());
            }
        }
        if text.is_empty() {
            return Ok(());
        }
        let img = image_from_bytes(text);
        let mut m = Machine::load(&img, MachineConfig { budget: 50_000, ..Default::default() });
        let _ = m.run(u64::MAX);
    }

    /// Any single register bit flip at any point of a real program leaves
    /// the machine runnable to a defined exit.
    #[test]
    fn register_flips_never_panic(
        warm in 0u64..500,
        reg_idx in 0usize..10,
        bit in 0u32..32,
    ) {
        let img = loop_program();
        let mut m = Machine::load(&img, MachineConfig { budget: 200_000, ..Default::default() });
        for _ in 0..warm {
            if m.step().is_some() {
                break;
            }
        }
        let regs: Vec<RegisterName> = Gpr::ALL
            .iter()
            .map(|&g| RegisterName::Gpr(g))
            .chain([RegisterName::Eip, RegisterName::Eflags])
            .collect();
        m.flip_register_bit(regs[reg_idx], bit);
        let _ = m.run(u64::MAX);
    }

    /// Any single memory bit flip anywhere in the mapped image likewise.
    #[test]
    fn memory_flips_never_panic(
        warm in 0u64..500,
        region_pick in 0u8..4,
        offset in 0u32..4096,
        bit in 0u8..8,
    ) {
        let img = loop_program();
        let mut m = Machine::load(&img, MachineConfig { budget: 200_000, ..Default::default() });
        for _ in 0..warm {
            if m.step().is_some() {
                break;
            }
        }
        let addr = match region_pick {
            0 => TEXT_BASE + offset % (img.text.len() as u32),
            1 => img.data_base() + offset % (img.data.len().max(4) as u32),
            2 => img.bss_base() + offset % img.bss_size.max(4),
            _ => 0xBFFF_0000 + offset % 0xF000, // stack area
        };
        m.flip_mem_bit(addr, bit);
        let _ = m.run(u64::MAX);
    }

    /// The execution-fast-path correctness bar: for a random injection
    /// plan — warm-up length, register flip, memory flip, text poke,
    /// quantum schedule, budget — running with the software TLB + block
    /// dispatch and with them disabled must be bit-identical: same exit
    /// sequence, same counters, same architectural snapshot. A mid-plan
    /// snapshot fork/restore boundary is included, because that is where
    /// stale TLB entries or checked-out blocks would show up (the
    /// restored machine shares pages COW with its origin).
    #[test]
    fn fastpath_is_bit_identical_to_slowpath(
        warm in 0u64..600,
        reg_idx in 0usize..10,
        rbit in 0u32..32,
        region_pick in 0u8..4,
        offset in 0u32..4096,
        mbit in 0u8..8,
        poke_off in 0u32..64,
        poke_byte in any::<u8>(),
        quantum in 3u64..900,
        budget in 20_000u64..150_000,
    ) {
        let img = loop_program();
        let text_len = img.text.len() as u32;
        let drive = |fastpath: bool| {
            let cfg = MachineConfig { budget, fastpath, ..Default::default() };
            let mut m = Machine::load(&img, cfg);
            let mut exits = Vec::new();
            // Warm up in fixed quanta so block boundaries land mid-plan.
            while m.counters.insns < warm {
                let e = m.run(quantum);
                if e != Exit::Quantum {
                    exits.push(e);
                    break;
                }
            }
            // The injection plan: one register flip, one memory flip,
            // one multi-byte text poke (exercises the poked set's bypass
            // of stale words, blocks and superblocks, and the TLB's poke
            // contract).
            let regs: Vec<RegisterName> = Gpr::ALL
                .iter()
                .map(|&g| RegisterName::Gpr(g))
                .chain([RegisterName::Eip, RegisterName::Eflags])
                .collect();
            m.flip_register_bit(regs[reg_idx], rbit);
            let addr = match region_pick {
                0 => TEXT_BASE + offset % text_len,
                1 => img.data_base() + offset % (img.data.len().max(4) as u32),
                2 => img.bss_base() + offset % img.bss_size.max(4),
                _ => 0xBFFF_0000 + offset % 0xF000,
            };
            m.flip_mem_bit(addr, mbit);
            m.poke_mem(TEXT_BASE + (poke_off * 4) % text_len, &[poke_byte; 4]);
            // Fork/restore boundary: continue the origin AND a machine
            // restored from its snapshot; both must finish identically.
            let snap = m.snapshot();
            let mut restored = snap.to_machine();
            for mach in [&mut m, &mut restored] {
                loop {
                    let e = mach.run(quantum);
                    if e != Exit::Quantum {
                        exits.push(e);
                        break;
                    }
                }
            }
            (exits, m.snapshot(), restored.snapshot())
        };
        let (fast_exits, fast_end, fast_restored) = drive(true);
        let (slow_exits, slow_end, slow_restored) = drive(false);
        prop_assert_eq!(fast_exits, slow_exits);
        prop_assert_eq!(&fast_end, &slow_end);
        prop_assert_eq!(&fast_restored, &slow_restored);
        // And the fork itself must be invisible: the restored run ends
        // exactly where its origin does.
        prop_assert_eq!(&fast_end, &fast_restored);
    }

    /// Poke text *inside* a promoted, actively-running superblock: the
    /// bank must bypass the superblock and the blocks over the poke and
    /// keep retiring bit-identically with a slow twin, fork/restore
    /// included.
    #[test]
    fn poke_inside_hot_trace_matches_slow(
        warm_iters in 20u64..120,
        poke_word in 0u32..16,
        poke_byte in any::<u8>(),
        quantum in 7u64..900,
    ) {
        let img = loop_program();
        let body = TEXT_BASE + 16; // loop body: 16 words from here
        let drive = |fastpath: bool| {
            let cfg = MachineConfig { budget: 150_000, fastpath, ..Default::default() };
            let mut m = Machine::load(&img, cfg);
            let mut exits = Vec::new();
            // ~16 insns per iteration: past the promotion threshold the
            // loop runs as a superblock (on the fast side).
            let warm = warm_iters * 16;
            while m.counters.insns < warm {
                let e = m.run(quantum);
                if e != Exit::Quantum {
                    exits.push(e);
                    break;
                }
            }
            m.poke_mem(body + 4 * poke_word, &[poke_byte; 4]);
            let snap = m.snapshot();
            let mut restored = snap.to_machine();
            for mach in [&mut m, &mut restored] {
                loop {
                    let e = mach.run(quantum);
                    if e != Exit::Quantum {
                        exits.push(e);
                        break;
                    }
                }
            }
            (exits, m.snapshot(), restored.snapshot(), m.exec_stats)
        };
        let (fast_exits, fast_end, fast_restored, stats) = drive(true);
        let (slow_exits, slow_end, slow_restored, _) = drive(false);
        prop_assert_eq!(fast_exits, slow_exits);
        prop_assert_eq!(&fast_end, &slow_end);
        prop_assert_eq!(&fast_restored, &slow_restored);
        // The poke hit a pristine bank, so it counts as a demotion.
        prop_assert!(stats.demotions >= 1, "text poke must demote the shared bank");
    }

    /// A machine attached to a store another machine already warmed
    /// (superblocks promoted), a cold machine that pre-decodes its own
    /// fresh store, and the slow interpreter must agree exactly: same
    /// exits, same architectural snapshot, same counters.
    #[test]
    fn warm_shared_store_matches_cold_and_slow(
        quantum in 3u64..900,
        budget in 30_000u64..150_000,
    ) {
        let img = loop_program();
        let code = img.pre_decode();
        let cfg = |fastpath| MachineConfig { budget, fastpath, ..Default::default() };
        let run_to_end = |m: &mut Machine| {
            loop {
                let e = m.run(quantum);
                if e != Exit::Quantum {
                    return e;
                }
            }
        };
        // Warm the store: one full run promotes the hot loop.
        let mut warmer = Machine::load_shared(&img, cfg(true), Some(&code));
        let exit_warming = run_to_end(&mut warmer);
        let mut warm = Machine::load_shared(&img, cfg(true), Some(&code));
        let exit_warm = run_to_end(&mut warm);
        let mut cold = Machine::load(&img, cfg(true));
        let exit_cold = run_to_end(&mut cold);
        let mut slow = Machine::load(&img, cfg(false));
        let exit_slow = run_to_end(&mut slow);
        prop_assert_eq!(exit_warming, exit_warm);
        prop_assert_eq!(exit_warm, exit_cold);
        prop_assert_eq!(exit_cold, exit_slow);
        prop_assert_eq!(warm.snapshot(), cold.snapshot());
        prop_assert_eq!(cold.snapshot(), slow.snapshot());
        prop_assert_eq!(warm.counters.insns, slow.counters.insns);
        prop_assert_eq!(warm.counters.blocks, slow.counters.blocks);
        // The warm machine really did enter promoted superblocks — when
        // the quantum leaves room for a whole pass at all (a pass is only
        // admitted when it fits under the quantum headroom).
        if quantum >= 64 {
            prop_assert!(warm.exec_stats.trace_hits > 0, "warm store must serve traces");
        }
    }

    /// F80 conversion total and idempotent through f64.
    #[test]
    fn f80_total(bits in any::<u64>(), se in any::<u16>(), flip in 0u32..80) {
        let f = F80::from_bits(bits, se);
        let v1 = f.to_f64();
        let f2 = F80::from_f64(v1);
        let v2 = f2.to_f64();
        // Conversion through f64 must be stable after one normalisation.
        prop_assert!(v1.is_nan() && v2.is_nan() || v1.to_bits() == v2.to_bits());
        let _ = f.flip_bit(flip).to_f64();
        let _ = f.classify();
    }
}
