//! The fault models, each stated once: what a matrix row draws
//! ([`Draw`]) and how long a §4.3 bit flip lasts ([`Duration`]).
//!
//! A [`Draw`] has one variant per drawable fault — the paper's bit flip,
//! fl-ft's rank kill, fl-chaos's network, syscall and correlated faults,
//! fl-perturb's interference — each carrying the draw ranges its mode's
//! policy gives it. Its label, its record class and its draw are one arm
//! each of an exhaustive `match`, so a new model is a compile error
//! until every one of them names it.
//!
//! The paper injects *transient* single-bit flips; the hardware study it
//! compares against (Constantinescu's ASCI Red experiments, §8.1)
//! injected *stuck-at-0/1* faults at the IC pin level and found that
//! "transients proved more difficult to detect, whereas longer faults led
//! to application failures". A [`Duration`] is an argument of the §4.3
//! draw: a held or stuck-at fault re-asserts its bit periodically for the
//! rest of the run, so the program cannot simply overwrite it and move
//! on, and [`compare_models`] runs the comparison on the campaign's own
//! trial path.

use crate::campaign::{draw_fault, CampaignConfig, Dictionaries, TrialContext};
use crate::target::TargetClass;
use fl_apps::{App, Golden};
use fl_machine::{Machine, SyscallFaultKind};
use fl_mpi::{Action, Effect, Fault, MpiWorld, NetFaultKind, WorldEffect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// How long a §4.3 register or static-memory bit flip lasts (§8.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Duration {
    /// A single-event upset: the bit is flipped once (the paper's model).
    Transient,
    /// The bit is flipped once and the corrupted value is *held* for the
    /// rest of the run — a long-duration fault. Strictly at least as
    /// severe as the same transient, since overwrites cannot clear it.
    Held,
    /// The bit is forced to 0 and held there (§8.1's pin-level hardware
    /// model; a no-op when the bit was already 0).
    StuckAt0,
    /// The bit is forced to 1 and held there.
    StuckAt1,
}

/// Re-assertion period of a held or stuck-at bit, in instructions. Small
/// enough that the program cannot make meaningful progress between
/// assertions.
const REASSERT_PERIOD: u64 = 500;

impl Duration {
    /// Every duration, transient first: the columns of the comparison.
    pub const ALL: [Duration; 4] = [
        Duration::Transient,
        Duration::Held,
        Duration::StuckAt0,
        Duration::StuckAt1,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Duration::Transient => "transient",
            Duration::Held => "held-flip",
            Duration::StuckAt0 => "stuck-at-0",
            Duration::StuckAt1 => "stuck-at-1",
        }
    }

    /// The action that makes one bit last this long, and how often it
    /// re-fires: `read` reads the bit, `force` sets it. A held bit is
    /// forced to the complement of what it read at the first firing.
    pub(crate) fn action(
        self,
        read: impl Fn(&Machine) -> bool + Send + 'static,
        force: impl Fn(&mut Machine, bool) + Send + 'static,
    ) -> (Action, Option<u64>) {
        let period = Some(REASSERT_PERIOD);
        match self {
            Duration::Transient => (Box::new(move |m: &mut Machine| force(m, !read(m))), None),
            Duration::Held => {
                let mut held = None;
                let action = move |m: &mut Machine| {
                    let v = *held.get_or_insert_with(|| !read(m));
                    force(m, v)
                };
                (Box::new(action), period)
            }
            Duration::StuckAt0 => (Box::new(move |m: &mut Machine| force(m, false)), period),
            Duration::StuckAt1 => (Box::new(move |m: &mut Machine| force(m, true)), period),
        }
    }
}

/// What a matrix row draws from each trial seed: one variant per
/// drawable fault, carrying the draw ranges its mode's policy gives it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Draw {
    /// One transient §4.3 bit flip in the class ([`crate::campaign`]'s
    /// draw).
    Bit(TargetClass),
    /// One rank dies at a drawn block clock — or, wedged, stays resident
    /// but silent (fl-ft's `RankKill`); `None` draws which.
    Kill {
        /// Wedged, killed, or drawn.
        wedge: Option<bool>,
    },
    /// One drawn in-flight message is silently dropped at the channel
    /// layer (fl-chaos).
    NetDrop,
    /// One drawn message is delivered twice.
    NetDup,
    /// One drawn message is delayed a bounded number of rounds before
    /// delivery (reordering past later traffic).
    NetReorder {
        /// Largest delay, in scheduler rounds.
        max_delay: u64,
    },
    /// One payload byte of a drawn message is corrupted in flight — the
    /// class the channel CRC provably covers.
    NetCorrupt,
    /// A rank-set partition severs all channels between two groups for a
    /// window of rounds.
    Partition {
        /// Window draw range, in scheduler rounds (inclusive).
        rounds: (u64, u64),
    },
    /// A drawn `malloc` call returns NULL, exercising the application's
    /// allocation error path.
    SyscallMalloc,
    /// A drawn write/print I/O call returns an error.
    SyscallWrite,
    /// One MTBF-style arrival process kills several ranks within a burst
    /// window, each on its own block clock.
    Burst {
        /// Most ranks one burst may kill (clamped to leave a survivor).
        max: u16,
    },
    /// A whole rank group (a "node") dies at once — FINJ's node-level
    /// model.
    NodeKill {
        /// Ranks per node.
        node_ranks: u16,
    },
    /// A multiplicative tax on one rank's scheduling quantum over a
    /// window of rounds — the rank computes correctly but is starved of
    /// CPU time (fl-perturb).
    QuantumTax {
        /// Window draw range, in scheduler rounds (inclusive).
        rounds: (u64, u64),
        /// Severity draw range, in permille of the victim's quantum.
        permille: (u32, u32),
    },
    /// A co-scheduled hog steals a share of every round's quantum from a
    /// whole node group.
    HogRank {
        /// Ranks per node.
        node_ranks: u16,
        /// Window draw range, in scheduler rounds (inclusive).
        rounds: (u64, u64),
        /// Share draw range, in permille of each hogged rank's quantum.
        share_permille: (u32, u32),
    },
    /// Every retired load/store in a window pays a latency surcharge in
    /// retired-insn accounting — contended memory bandwidth.
    MemStall {
        /// Surcharge draw range, in retired insns per access (inclusive).
        per_access: (u64, u64),
        /// Window draw range, in sixteenths of the victim's golden
        /// instruction count (inclusive).
        window_per16: (u64, u64),
    },
}

impl Draw {
    /// The model's name, as a matrix row shows it.
    pub fn label(&self) -> &'static str {
        match *self {
            Draw::Bit(class) => class.label(),
            Draw::Kill { wedge: None } => "rank-kill",
            Draw::Kill { wedge: Some(false) } => "kill-rank",
            Draw::Kill { wedge: Some(true) } => "wedge-rank",
            Draw::NetDrop => "net-drop",
            Draw::NetDup => "net-dup",
            Draw::NetReorder { .. } => "net-reorder",
            Draw::NetCorrupt => "net-corrupt",
            Draw::Partition { .. } => "partition",
            Draw::SyscallMalloc => "syscall-malloc",
            Draw::SyscallWrite => "syscall-write",
            Draw::Burst { .. } => "burst-kill",
            Draw::NodeKill { .. } => "node-kill",
            Draw::QuantumTax { .. } => "quantum-tax",
            Draw::HogRank { .. } => "hog-rank",
            Draw::MemStall { .. } => "mem-stall",
        }
    }

    /// The class its records carry.
    pub fn class(&self) -> TargetClass {
        match *self {
            Draw::Bit(class) => class,
            Draw::NetDrop
            | Draw::NetDup
            | Draw::NetReorder { .. }
            | Draw::NetCorrupt
            | Draw::Partition { .. } => TargetClass::Network,
            Draw::SyscallMalloc | Draw::SyscallWrite => TargetClass::Syscall,
            Draw::Kill { .. } | Draw::Burst { .. } | Draw::NodeKill { .. } => TargetClass::Process,
            Draw::QuantumTax { .. } | Draw::HogRank { .. } | Draw::MemStall { .. } => {
                TargetClass::Sched
            }
        }
    }

    /// Draw the fault for one trial seed: the faults to arm (one, or one
    /// per victim of a burst) and the record detail. Fully determined by
    /// the golden run, the fault dictionaries (bit flips), the fault-free
    /// syscall counts (syscall faults), the seed and the rank count, so
    /// it is recomputable from the campaign coordinates and every column
    /// of a row faces the identical draw.
    pub fn draw(
        &self,
        golden: &Golden,
        dicts: Option<&Dictionaries>,
        sys: Option<&SyscallCounts>,
        seed: u64,
        nranks: u16,
    ) -> (Vec<Fault>, String) {
        let mut s = Stream {
            rng: StdRng::seed_from_u64(seed),
            golden,
            nranks,
        };
        let one = |fault: Fault, detail| (vec![fault], detail);
        let counts = || sys.expect("syscall rows read the fault-free syscall counts");
        match *self {
            Draw::Bit(class) => {
                let dicts = dicts.expect("bit-flip rows read the fault dictionaries");
                let (fault, detail, _) =
                    draw_fault(golden, dicts, class, Duration::Transient, seed, nranks);
                one(fault, detail)
            }
            Draw::Kill { wedge } => {
                let (rank, at_blocks) = s.victim();
                let wedge = wedge.unwrap_or_else(|| s.coin());
                let what = if wedge { "wedge" } else { "kill" };
                let detail = format!("{what} rank {rank} @ block {at_blocks}");
                one(Fault::kill(rank, at_blocks, wedge).into(), detail)
            }
            Draw::NetDrop => s.wire(NetFaultKind::Drop, "drop"),
            Draw::NetDup => s.wire(NetFaultKind::Duplicate, "duplicate"),
            Draw::NetReorder { max_delay } => {
                let (rank, at) = s.receiver();
                let delay = s.window((1, max_delay));
                let kind = NetFaultKind::Reorder {
                    delay_rounds: delay,
                };
                wire(rank, at, kind, &format!("reorder +{delay} rounds"))
            }
            Draw::NetCorrupt => s.wire(NetFaultKind::Corrupt, "corrupt"),
            Draw::Partition { rounds } => {
                // Any mask in (0, 2^n - 1) splits the ranks into two
                // non-empty groups.
                let mask = s.rng.gen_range(1..(1u32 << nranks) - 1);
                let (trigger_rank, at_blocks) = s.victim();
                let rounds = s.window(rounds);
                let cut = WorldEffect::Cut { mask, rounds };
                let detail = format!(
                    "partition mask {mask:#06b} for {rounds} rounds @ rank {trigger_rank} \
                     block {at_blocks}"
                );
                one(Fault::new(trigger_rank, at_blocks, cut).into(), detail)
            }
            Draw::SyscallMalloc => s.denied(SyscallFaultKind::Malloc, &counts().mallocs, "malloc"),
            Draw::SyscallWrite => s.denied(SyscallFaultKind::Write, &counts().io_writes, "write"),
            Draw::Burst { max } => {
                // One arrival process emits K kills across distinct ranks.
                // Integer pseudo-MTBF: successive gaps of mtbf/2 + U[0,mtbf)
                // block clocks, no survivor-free bursts.
                let hi = max.min(nranks.saturating_sub(1)).max(1);
                let lo = 2u16.min(hi);
                let k = s.rng.gen_range(lo as u32..hi as u32 + 1) as u16;
                let mut pool: Vec<u16> = (0..nranks).collect();
                let mut kills = Vec::with_capacity(k as usize);
                let mut detail = String::from("burst:");
                let first = pool.remove(s.rng.gen_range(0..pool.len()));
                let blocks = |r: u16| golden.blocks[r as usize];
                let mtbf = (blocks(first) / 8).max(4);
                let mut t = s.mid_run(first);
                for i in 0..k {
                    let victim = if i == 0 {
                        first
                    } else {
                        pool.remove(s.rng.gen_range(0..pool.len()))
                    };
                    let wedge = s.coin();
                    let at_blocks = t.clamp(1, blocks(victim).max(2) - 1);
                    kills.push(Fault::kill(victim, at_blocks, wedge).into());
                    let what = if wedge { "wedge" } else { "kill" };
                    let _ = write!(detail, " {what} r{victim}@{at_blocks}");
                    t += mtbf / 2 + s.rng.gen_range(0..mtbf);
                }
                (kills, detail)
            }
            Draw::NodeKill { node_ranks } => {
                let (node, mut mates) = s.node(node_ranks);
                if mates.count_ones() == u32::from(nranks) {
                    mates &= !(1 << (nranks - 1)); // leave one rank alive
                }
                let trigger_rank = mates.trailing_zeros() as u16;
                let at_blocks = s.mid_run(trigger_rank);
                let wedge = s.coin();
                let kill = WorldEffect::Kill { mates, wedge };
                let detail = format!(
                    "node {node} down (mask {mates:#06b}) @ block {at_blocks}{}",
                    if wedge { ", wedged" } else { "" }
                );
                one(Fault::new(trigger_rank, at_blocks, kill).into(), detail)
            }
            Draw::QuantumTax { rounds, permille } => {
                let (rank, at_blocks) = s.victim();
                let rounds = s.window(rounds);
                let permille = s.permille(permille);
                let tax = WorldEffect::Tax { permille, rounds };
                let detail = format!(
                    "tax {permille}\u{2030} on rank {rank} for {rounds} rounds @ block {at_blocks}"
                );
                one(Fault::new(rank, at_blocks, tax).into(), detail)
            }
            Draw::HogRank {
                node_ranks,
                rounds,
                share_permille,
            } => {
                let (node, mask) = s.node(node_ranks);
                let trigger_rank = mask.trailing_zeros() as u16;
                let at_blocks = s.mid_run(trigger_rank);
                let rounds = s.window(rounds);
                let permille = s.permille(share_permille);
                let hog = WorldEffect::Hog {
                    mask,
                    permille,
                    rounds,
                };
                let detail = format!(
                    "hog steals {permille}\u{2030} from node {node} (mask {mask:#06b}) \
                     for {rounds} rounds @ block {at_blocks}"
                );
                one(Fault::new(trigger_rank, at_blocks, hog).into(), detail)
            }
            Draw::MemStall {
                per_access,
                window_per16,
            } => {
                let rank = s.rng.gen_range(0..nranks);
                let insns = golden.insns[rank as usize].max(16);
                let at_insns = s.rng.gen_range(1..insns);
                let per16 = s.window(window_per16).min(16);
                let window_insns = (insns * per16 / 16).max(1);
                let per_access = s.window(per_access);
                let stall = Effect::Stall {
                    window_insns,
                    per_access,
                };
                let detail = format!(
                    "stall +{per_access}/access on rank {rank} for {window_insns} insns @ t={at_insns}"
                );
                one(Fault::new(rank, at_insns, stall), detail)
            }
        }
    }
}

/// One draw's random stream over the golden run's clocks. The order of
/// its calls is part of every record.
struct Stream<'a> {
    rng: StdRng,
    golden: &'a Golden,
    nranks: u16,
}

impl Stream<'_> {
    /// A block clock inside `rank`'s golden run, so the fault lands
    /// mid-run.
    fn mid_run(&mut self, rank: u16) -> u64 {
        self.rng
            .gen_range(1..self.golden.blocks[rank as usize].max(2))
    }

    /// A rank, and a block clock inside its run.
    fn victim(&mut self) -> (u16, u64) {
        let rank = self.rng.gen_range(0..self.nranks);
        (rank, self.mid_run(rank))
    }

    fn coin(&mut self) -> bool {
        self.rng.gen_range(0..2u32) == 1
    }

    /// A value of the inclusive range, at least 1. A bound at `u64::MAX`
    /// draws as one below it: the draw's range is half-open.
    fn window(&mut self, (lo, hi): (u64, u64)) -> u64 {
        let lo = lo.clamp(1, u64::MAX - 1);
        self.rng.gen_range(lo..hi.max(lo).saturating_add(1))
    }

    /// A share of the inclusive range, capped at 999‰.
    fn permille(&mut self, (lo, hi): (u32, u32)) -> u32 {
        let lo = lo.min(u32::MAX - 1);
        self.rng
            .gen_range(lo..hi.max(lo).saturating_add(1))
            .min(999)
    }

    /// One of the contiguous groups of `per` ranks (the "nodes"): its
    /// index and its rank mask.
    fn node(&mut self, per: u16) -> (u16, u32) {
        let per = per.clamp(1, self.nranks);
        let node = self.rng.gen_range(0..self.nranks.div_ceil(per));
        let ranks = node * per..((node + 1) * per).min(self.nranks);
        (node, ranks.fold(0, |mask, r| mask | 1 << r))
    }

    /// A rank that receives traffic, and an offset into what it
    /// receives.
    fn receiver(&mut self) -> (u16, u64) {
        let recv = &self.golden.recv_bytes;
        let eligible: Vec<u16> = (0..self.nranks).filter(|&r| recv[r as usize] > 0).collect();
        let rank = eligible[self.rng.gen_range(0..eligible.len())];
        (rank, self.rng.gen_range(0..recv[rank as usize]))
    }

    /// A network fault of `kind` on a drawn receiver.
    fn wire(&mut self, kind: NetFaultKind, what: &str) -> (Vec<Fault>, String) {
        let (rank, at) = self.receiver();
        wire(rank, at, kind, what)
    }

    /// The `at`-th of a drawn rank's fault-free `counts` calls denied,
    /// once or from then on.
    fn denied(
        &mut self,
        kind: SyscallFaultKind,
        counts: &[u64],
        what: &str,
    ) -> (Vec<Fault>, String) {
        let rank = self.rng.gen_range(0..self.nranks);
        let at_call = self.rng.gen_range(1..counts[rank as usize].max(1) + 1);
        let persist = self.coin();
        let detail = format!(
            "{what} denied on rank {rank} @ call {at_call}{}",
            if persist { " (persistent)" } else { "" }
        );
        let fault = Fault::new(rank, at_call, Effect::Syscall { kind, persist });
        (vec![fault], detail)
    }
}

/// The network fault `kind` striking `rank`'s received byte `at`.
fn wire(rank: u16, at: u64, kind: NetFaultKind, what: &str) -> (Vec<Fault>, String) {
    let fault = Fault::new(rank, at, WorldEffect::Wire(kind)).into();
    (
        vec![fault],
        format!("{what} into rank {rank} @ recv byte {at}"),
    )
}

/// Fault-free per-rank syscall activity — the draw denominators for the
/// syscall failure models, read off the clean golden-configuration run
/// (the [`Golden`] profile predates these counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallCounts {
    /// `malloc` calls served per rank.
    pub mallocs: Vec<u64>,
    /// Output syscalls issued per rank.
    pub io_writes: Vec<u64>,
}

impl SyscallCounts {
    /// The counts of a finished fault-free world. Deterministic in the
    /// app and configuration, so every campaign recomputes the same
    /// denominators.
    pub fn of(w: &MpiWorld) -> SyscallCounts {
        let counters = |r| w.machine(r).counters;
        SyscallCounts {
            mallocs: (0..w.nranks()).map(|r| counters(r).mallocs).collect(),
            io_writes: (0..w.nranks()).map(|r| counters(r).io_writes).collect(),
        }
    }
}

/// Error-rate comparison of the durations over one register or static
/// class: per [`Duration`], the error rate in percent and the error
/// count over `trials` trials. Trial `k` draws from `seed + k`; each
/// duration's trials are planned and run as a one-worker campaign of
/// `class` runs its trials — forked from epoch or round checkpoints and
/// ended early where provably golden.
///
/// # Panics
///
/// Panics unless `class` is a register or static-memory class — heap and
/// stack targets are resolved when a fault fires, and a message flip
/// strikes the wire once.
pub fn compare_models(
    app: &App,
    class: TargetClass,
    trials: u32,
    seed: u64,
) -> Vec<(Duration, f64, u32)> {
    use TargetClass::{Bss, Data, FpReg, RegularReg, Text};
    assert!(
        matches!(class, RegularReg | FpReg | Text | Data | Bss),
        "durations hold a register or static-memory bit, not {class}"
    );
    let cfg = CampaignConfig {
        seed,
        injections: trials,
        ..Default::default()
    };
    let ctx = TrialContext::build(app.clone(), &cfg);
    Duration::ALL
        .iter()
        .map(|&d| {
            let mut held = None;
            let plan = ctx.plan(&[class], &cfg, d, &|_, _| false);
            let errors = plan
                .iter()
                .filter(|p| ctx.run_planned(p, &mut held).0.record.outcome.is_error())
                .count() as u32;
            (d, 100.0 * errors as f64 / trials.max(1) as f64, errors)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::trial_seed;
    use crate::outcome::{classify, Manifestation};
    use crate::target::{regular_registers, FaultDictionary};
    use fl_apps::{AppKind, AppParams};

    /// The cold model-trial loop `compare_models` ran before durations
    /// joined the campaign trial path: a fresh world per trial, the draw
    /// restated, a held bit read back after the flip. The reference the
    /// trial path must match.
    fn run_model_trial(
        app: &App,
        golden: &Golden,
        class: TargetClass,
        duration: Duration,
        trial_seed: u64,
        budget: u64,
    ) -> (Manifestation, String) {
        let mut rng = StdRng::seed_from_u64(trial_seed);
        let rank = rng.gen_range(0..app.params.nranks);
        let at_insns = rng.gen_range(1..golden.insns[rank as usize].max(2));
        let mut cfg = app.world_config(budget);
        cfg.seed = trial_seed;
        let mut world = MpiWorld::new(&app.image, cfg);
        let stuck = match duration {
            Duration::StuckAt0 => Some(false),
            Duration::StuckAt1 => Some(true),
            Duration::Transient | Duration::Held => None,
        };
        let (injection, what) = match class {
            TargetClass::RegularReg => {
                let regs = regular_registers();
                let reg = regs[rng.gen_range(0..regs.len())];
                let bit = rng.gen_range(0..reg.width_bits());
                let mut forced: Option<bool> = None;
                let fault = match (duration, stuck) {
                    (Duration::Transient, _) => Fault::once(rank, at_insns, move |m| {
                        m.flip_register_bit(reg, bit);
                    }),
                    (_, Some(v)) => Fault::persistent(rank, at_insns, REASSERT_PERIOD, move |m| {
                        m.set_register_bit(reg, bit, v);
                    }),
                    (_, None) => {
                        Fault::persistent(rank, at_insns, REASSERT_PERIOD, move |m| match forced {
                            None => {
                                m.flip_register_bit(reg, bit);
                                forced = Some(m.register_bit(reg, bit));
                            }
                            Some(v) => m.set_register_bit(reg, bit, v),
                        })
                    }
                };
                (fault, format!("{reg} bit {bit}"))
            }
            _ => {
                let region = class.region().expect("a static class");
                let dict = FaultDictionary::build(&app.image, region);
                let addr = dict.pick(&mut rng).expect("region has symbols");
                let bit = rng.gen_range(0..8u8);
                let mut forced: Option<bool> = None;
                let fault = match (duration, stuck) {
                    (Duration::Transient, _) => Fault::once(rank, at_insns, move |m| {
                        m.flip_mem_bit(addr, bit);
                    }),
                    (_, Some(v)) => Fault::persistent(rank, at_insns, REASSERT_PERIOD, move |m| {
                        m.set_mem_bit(addr, bit, v);
                    }),
                    (_, None) => {
                        Fault::persistent(rank, at_insns, REASSERT_PERIOD, move |m| match forced {
                            None => {
                                m.flip_mem_bit(addr, bit);
                                forced = Some(m.mem.peek_u8(addr) >> (bit & 7) & 1 == 1);
                            }
                            Some(v) => {
                                m.set_mem_bit(addr, bit, v);
                            }
                        })
                    }
                };
                (fault, format!("{} {addr:#010x} bit {bit}", class.label()))
            }
        };
        world.arm(injection);
        let exit = world.run();
        let output = app.comparable_output(&world);
        let m = classify(&exit, &output, &golden.output);
        (m, format!("rank {rank} t={at_insns}: {what}"))
    }

    #[test]
    fn durations_on_the_trial_path_match_the_cold_loop() {
        // Every duration on a register class and the three static
        // classes, planned and run as `compare_models` runs them — forked
        // from epoch or round checkpoints and ended early where provably
        // golden — against the cold loop: the same detail and the same
        // manifestation, trial by trial.
        use TargetClass::{Bss, Data, RegularReg, Text};
        let mut lasting_forked_at_round = 0;
        for kind in [AppKind::Climsim, AppKind::Wavetoy] {
            let app = App::build(kind, AppParams::tiny(kind));
            let cfg = CampaignConfig {
                seed: 0xD0,
                injections: 10,
                ..Default::default()
            };
            let ctx = TrialContext::build(app.clone(), &cfg);
            let mut errors = [0; 4];
            for class in [RegularReg, Text, Data, Bss] {
                for (d, &duration) in Duration::ALL.iter().enumerate() {
                    let mut held = None;
                    for p in ctx.plan(&[class], &cfg, duration, &|_, _| false) {
                        let run = ctx.run_planned(&p, &mut held).0;
                        let cold = run_model_trial(
                            &app,
                            &ctx.golden,
                            class,
                            duration,
                            p.seed,
                            ctx.world.machine.budget,
                        );
                        let got = (run.record.outcome, run.record.detail);
                        let what = format!("{kind} {class} {} trial {}", duration.label(), p.k);
                        assert_eq!(got, cold, "{what}");
                        errors[d] += u32::from(got.0.is_error());
                        if duration != Duration::Transient {
                            lasting_forked_at_round += run.converge.forked_at_round;
                        }
                    }
                }
            }
            // Not vacuous: every duration manifests somewhere.
            assert!(errors.iter().all(|&e| e > 0), "{kind}: {errors:?}");
        }
        // Held and stuck-at faults sweep too.
        assert!(lasting_forked_at_round > 0);
    }

    #[test]
    fn held_faults_are_at_least_as_severe_as_transients() {
        // §8.1's qualitative finding: long-duration faults manifest more
        // (they cannot be overwritten away). The held model applies the
        // exact same flips as the transient model, then keeps them.
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let rows = compare_models(&app, TargetClass::RegularReg, 30, 0x517C);
        let rate = |m: Duration| rows.iter().find(|(x, _, _)| *x == m).unwrap().1;
        let transient = rate(Duration::Transient);
        let held = rate(Duration::Held);
        assert!(
            held + 7.0 >= transient,
            "held ({held:.0}%) must not be materially below transient ({transient:.0}%)"
        );
    }

    #[test]
    fn stuck_at_register_bit_stays_forced() {
        // A stuck-at fault re-arms after every assertion: it is still
        // pending when the run ends, where a transient is spent.
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let ctx = TrialContext::build(app.clone(), &CampaignConfig::default());
        let pending = |duration| {
            let (fault, _, _) = draw_fault(
                &ctx.golden,
                &ctx.dicts,
                TargetClass::RegularReg,
                duration,
                7,
                app.params.nranks,
            );
            let mut world = app.world(ctx.world.machine.budget);
            world.arm(fault);
            world.run();
            world.fault_pending()
        };
        assert!(pending(Duration::StuckAt1));
        assert!(!pending(Duration::Transient));
    }

    #[test]
    fn range_knobs_at_their_type_maximum_still_draw() {
        // Every chaos and perturb draw-range knob at the largest value
        // its type holds, set through the flag its verb reads: every row
        // of the matrix still draws its fault: a top at the type's
        // maximum must not wrap the half-open draw range to empty.
        let knobs = [
            ("chaos", "partition-lo", u64::MAX.to_string()),
            ("chaos", "partition-hi", u64::MAX.to_string()),
            ("chaos", "reorder-delay", u64::MAX.to_string()),
            ("chaos", "burst-max", u16::MAX.to_string()),
            ("chaos", "node-ranks", u16::MAX.to_string()),
            ("perturb", "tax-rounds-lo", u64::MAX.to_string()),
            ("perturb", "tax-rounds-hi", u64::MAX.to_string()),
            ("perturb", "tax-lo", u32::MAX.to_string()),
            ("perturb", "tax-hi", u32::MAX.to_string()),
            ("perturb", "hog-share-lo", u32::MAX.to_string()),
            ("perturb", "hog-share-hi", u32::MAX.to_string()),
            ("perturb", "hog-node-ranks", u16::MAX.to_string()),
            ("perturb", "stall-access-lo", u64::MAX.to_string()),
            ("perturb", "stall-access-hi", u64::MAX.to_string()),
            ("perturb", "stall-window-lo", u64::MAX.to_string()),
            ("perturb", "stall-window-hi", u64::MAX.to_string()),
        ];
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let mut clean = app.world(2_000_000_000);
        let exit = clean.run();
        let (golden, sys) = (app.golden_of(&clean, &exit), SyscallCounts::of(&clean));
        for (mode, flag, max) in knobs {
            let mut spec = crate::spec::CampaignSpec::new(app.kind);
            spec.mode = crate::spec::SpecMode::named(mode).expect("a matrix mode");
            spec.set_flags(&[(flag.into(), Some(max.clone()))])
                .unwrap_or_else(|e| panic!("--{flag} {max}: {e}"));
            for (r, row) in spec.matrix().expect("a matrix").rows.iter().enumerate() {
                for k in 0..4 {
                    let seed = trial_seed(1, r, k);
                    let (faults, detail) =
                        row.draw
                            .draw(&golden, None, Some(&sys), seed, app.params.nranks);
                    assert!(
                        !faults.is_empty(),
                        "--{flag} {max}, {}: {detail}",
                        row.label
                    );
                }
            }
        }
    }

    #[test]
    fn model_labels() {
        assert_eq!(Duration::Transient.label(), "transient");
        assert_eq!(Duration::Held.label(), "held-flip");
        assert_eq!(Duration::StuckAt0.label(), "stuck-at-0");
        let kill = |wedge| Draw::Kill { wedge }.label();
        assert_eq!(kill(Some(false)), "kill-rank");
        assert_eq!(kill(Some(true)), "wedge-rank");
        assert_eq!(kill(None), "rank-kill");
        assert_eq!(Draw::Bit(TargetClass::Bss).label(), "BSS");
    }

    #[test]
    fn registries_partition_the_model_space() {
        // The matrix rows that draw a model, plus the durations: eighteen
        // models, no label twice, each carrying its own record class.
        let rows = |mode: crate::matrix::MatrixMode| mode.rows.into_iter().map(|r| r.draw);
        let chaos: Vec<Draw> = rows(crate::chaos::mode(Default::default())).collect();
        let perturb: Vec<Draw> = rows(crate::perturb::mode(Default::default())).collect();
        let mut labels: Vec<&str> = Duration::ALL.iter().map(|d| d.label()).collect();
        labels.extend(chaos.iter().chain(&perturb).map(Draw::label));
        assert_eq!(labels.len(), 18);
        for (i, a) in labels.iter().enumerate() {
            assert!(!labels[i + 1..].contains(a), "{a} listed twice");
        }
        use TargetClass::{Network, Process, Sched, Syscall};
        for d in &chaos {
            assert!(matches!(d.class(), Network | Syscall | Process), "{d:?}");
        }
        let classes: Vec<TargetClass> = perturb.iter().map(Draw::class).collect();
        assert_eq!(classes, [Sched, Sched, Sched, Process, Process]);
    }
}
