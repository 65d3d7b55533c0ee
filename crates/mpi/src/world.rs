//! The MPI world: N simulated processes, a cooperative scheduler, and the
//! ADI-level semantics of MPI-1.1 point-to-point and collective calls.
//!
//! Semantics reproduced from the paper:
//!
//! * **Error handlers (§6.2).** MPICH (and LAM/LA-MPI) raise the
//!   user-registered error handler *only* when argument checks fail —
//!   e.g. a non-existent destination rank, which is exactly what a stack
//!   fault that corrupts an argument produces. Abnormal termination of a
//!   peer aborts the whole application without invoking the handler.
//! * **Crash containment (§5.1).** A signal in any rank aborts the whole
//!   job (MPICH handles SIGSEGV/SIGBUS and terminates); so do malformed
//!   wire messages ("MPICH internal error").
//! * **Hangs.** A corrupted tag or source strands a receive forever; the
//!   scheduler detects global quiescence (deadlock) immediately, and a
//!   spinning rank runs out of its instruction budget — the deterministic
//!   version of the paper's wait-one-minute rule.
//! * **Eager vs rendezvous.** Payloads up to the eager threshold travel as
//!   one data message; larger ones handshake RTS/CTS in control messages,
//!   which is where much of a control-dominated application's header
//!   traffic comes from.
//! * **Nondeterminism (§4.2.2).** With `nondet` scheduling the per-round
//!   rank order is shuffled, so arrival order — and thus ANY_SOURCE
//!   matching order — varies across runs, reproducing NAMD's
//!   nondeterministic execution.

use crate::message::{CtlOp, Header, MsgKind, WireMsg, MAX_PAYLOAD};
use crate::profile::TrafficProfile;
use fl_isa::syscall::SYS_ARGS;
use fl_isa::Syscall;
use fl_machine::{
    ExecStats, Exit, Machine, MachineConfig, MachineSnapshot, MemStall, ProgramImage, SharedCode,
    SyscallFault, SyscallFaultKind,
};
use fl_obs::EventKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};

/// Maximum user tag value (larger tags are reserved for collectives).
pub const MAX_USER_TAG: u32 = 0xFFFF;
/// ANY_SOURCE wildcard as passed by applications (-1).
pub const ANY_SOURCE: i32 = -1;
/// Tag base for collective operations.
const COLL_TAG_BASE: u32 = 0x4000_0000;
/// Tag base for barrier tokens.
const BARRIER_TAG_BASE: u32 = 0x4100_0000;
/// Largest application checkpoint fl_ckpt_save accepts (16 MiB).
const MAX_CKPT_BYTES: u32 = 16 << 20;

/// The error class an MPI call returns (in EAX) after a peer's process
/// failure, when the world runs in app-visible ULFM mode. FL programs
/// test it as `ret + 1 == 0`, the wrapping equivalent of `ret == -1`.
pub const MPIX_ERR_PROC_FAILED: u32 = 0xFFFF_FFFF;

/// Channel-level integrity guard (fl-guard's wire detector). Default-off:
/// with `enabled == false` the world's behaviour — and every event it
/// emits — is bit-identical to the pre-guard scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelGuard {
    /// Verify the per-message CRC at the receiving ADI and NACK failures
    /// back to the sender's retransmit queue.
    pub enabled: bool,
    /// Redeliveries allowed per sequence number before the guard declares
    /// the channel unrecoverable ([`WorldExit::GuardDetected`]).
    pub max_retransmits: u8,
}

impl Default for ChannelGuard {
    fn default() -> Self {
        ChannelGuard {
            enabled: false,
            max_retransmits: 3,
        }
    }
}

/// Heartbeat failure detector (fl-ft's process-failure layer).
/// Default-off: with `enabled == false` the scheduler takes no new code
/// paths and the world's behaviour — and every event it emits — is
/// bit-identical to the pre-ft scheduler.
///
/// Liveness is piggybacked on normal traffic: a rank is "heard" whenever
/// it retires a quantum or one of its messages is ingested anywhere.
/// Quiet ranks are probed explicitly every `probe_rounds`; an alive rank
/// answers even while blocked, so only a dead or wedged process can stay
/// silent long enough to cross `suspect_rounds` and raise
/// [`WorldExit::RankFailed`] — instead of stranding its peers in a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureDetector {
    /// Run the detector (and suppress the instant-deadlock verdict while
    /// a failed rank quiesces its peers, so suspicion can mature).
    pub enabled: bool,
    /// Rounds of silence before an explicit liveness probe (re-sent
    /// every `probe_rounds` while the silence lasts).
    pub probe_rounds: u64,
    /// Rounds of silence before the rank is declared failed.
    pub suspect_rounds: u64,
    /// Accrual mode (fl-perturb): instead of the fixed `suspect_rounds`
    /// deadline, suspicion matures at `max(8 * suspect_rounds, 256, 4 *
    /// max_gap)` where `max_gap` is the longest silence the rank has
    /// ever recovered from (the 256-round floor clears the credit
    /// scheduler's 200-round worst-case starvation gap for any
    /// cadence). A rank that is merely *slow* — starved by a
    /// scheduling tax but still progressing — keeps teaching the
    /// detector its worst-case gap and is never declared failed, while
    /// a dead or wedged process stays silent past any learned gap and
    /// is still caught. Default off: threshold arithmetic is
    /// bit-identical to the fixed detector.
    pub accrual: bool,
}

impl Default for FailureDetector {
    fn default() -> Self {
        FailureDetector {
            enabled: false,
            probe_rounds: 8,
            suspect_rounds: 32,
            accrual: false,
        }
    }
}

/// Process-level liveness of a rank (fl-ft's rank-kill fault model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Health {
    /// Executing and responsive.
    #[default]
    Alive,
    /// Resident but silent: never scheduled, answers no probes, sends
    /// nothing (the "wedged" kill variant).
    Wedged,
    /// Gone: never scheduled; messages addressed to it are dropped at
    /// the channel.
    Dead,
}

/// What a wire fault does to the struck in-flight message. Every kind
/// targets exactly one message — the one whose wire bytes cover the
/// fault's cumulative receive offset — so all of them share one draw
/// space: the per-rank traffic volume of the golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// One bit of the struck byte flips (§3.3, the paper's message
    /// fault): header or payload, wherever the offset lands.
    Flip {
        /// Bit index 0–7.
        bit: u8,
    },
    /// The message vanishes at the channel (a lossy link).
    Drop,
    /// The message is delivered, then delivered again one round later
    /// (a duplicating link; no receiver-side dedup exists below the
    /// guard, exactly like raw datagrams).
    Duplicate,
    /// Delivery is deferred by `delay_rounds` scheduler rounds, letting
    /// later traffic overtake it (bounded-delay reordering).
    Reorder {
        /// Rounds the message waits before delivery.
        delay_rounds: u64,
    },
    /// One wire byte is XOR-inverted in flight: a payload byte when the
    /// message has one (which the CRC covers — the guard's provable
    /// catch), else the CRC field itself of a header-only message.
    Corrupt,
}

/// The deterministic clock of the trigger rank a fault waits on — fixed
/// by the fault's effect ([`Effect::clock`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Rank-local retired instructions (fires inside the quantum).
    Insns,
    /// Rank-local retired basic blocks (checked between rounds, like an
    /// external `kill -9` landing between quanta).
    Blocks,
    /// The rank's cumulative incoming byte stream (checked per message).
    RecvBytes,
    /// Matching syscalls the rank issues after arming (1-based).
    Calls,
}

/// One fault: once `rank`'s clock (the one `effect` waits on) reaches
/// `at`, `effect` happens. [`MpiWorld::arm`] is the one way to plant it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault<E = Effect> {
    /// The rank whose clock triggers the fault — and the victim, for
    /// every effect that has a single one.
    pub rank: u16,
    /// The clock value at which it fires.
    pub at: u64,
    /// What happens.
    pub effect: E,
}

/// The state mutation a machine fault applies when it fires.
pub type Action = Box<dyn FnMut(&mut Machine) + Send>;

/// What an armed [`Fault`] does.
pub enum Effect {
    /// Corrupt the victim's registers or memory — the injector-daemon
    /// wakeup of §3.1. The action runs at fire time, so heap scans and
    /// stack walks see the live state; `FnMut`, so persistent faults can
    /// re-assert. A closure is neither `Clone` nor comparable: this is
    /// the one effect a [`WorldSnapshot`] does not carry.
    Action {
        /// The corruption to apply.
        action: Action,
        /// `None` fires once (a transient upset). `Some(p)` re-fires
        /// every `p` instructions — the stuck-at / long-duration fault
        /// model of the §8.1 hardware studies.
        period: Option<u64>,
    },
    /// The `at`-th matching syscall fails instead of being serviced
    /// (held in the victim machine's [`SyscallFault`] slot).
    Syscall {
        /// Which family of syscalls fails.
        kind: SyscallFaultKind,
        /// True: every later matching call fails too.
        persist: bool,
    },
    /// Every checked data access costs `per_access` extra retired
    /// instructions for `window_insns` (held in the victim machine's
    /// [`MemStall`] slot).
    Stall {
        /// Window length on the instruction clock.
        window_insns: u64,
        /// Surcharge per load/store.
        per_access: u64,
    },
    /// A channel- or scheduler-level effect, held in the [`FaultPlan`].
    World(WorldEffect),
}

/// The effects the world itself applies. Plain data: an armed one rides
/// inside [`WorldSnapshot`]s, so a recovery path restoring a pre-fire
/// checkpoint replays it unless it [`MpiWorld::disarm`]s it first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldEffect {
    /// Strike the in-flight message covering receive offset `at`.
    Wire(NetFaultKind),
    /// The trigger rank and every rank in `mates` (the ranks sharing
    /// its node; bit r = rank r) die at once — or, with `wedge`, stay
    /// resident but silent. Ranks already exited, dead or wedged are
    /// left as they are.
    Kill {
        /// Ranks that share the trigger rank's fate (0 = none).
        mates: u32,
        /// True: wedged. False: gone outright.
        wedge: bool,
    },
    /// Every channel between the `mask` group and its complement is
    /// severed for `rounds` scheduler rounds: all cross-partition
    /// traffic (including guard redeliveries) silently vanishes.
    Cut {
        /// Ranks on one side of the cut (bit r = rank r).
        mask: u32,
        /// Scheduler rounds the cut lasts.
        rounds: u64,
    },
    /// A tax of `permille`/1000 on the trigger rank's quantum for
    /// `rounds` rounds, accounted as *starvation credit*: the rank
    /// accrues `1000 - permille` credit per round and runs a full
    /// quantum only when 1000 has accrued — a 900‰ tax schedules it
    /// once every 10 rounds, the cadence an external CPU hog
    /// co-scheduled on its core would impose.
    Tax {
        /// Share of each round's quantum taken (capped 999).
        permille: u32,
        /// Scheduler rounds the tax lasts.
        rounds: u64,
    },
    /// A co-scheduled hog steals `permille`/1000 of *every* round's
    /// quantum from every rank in `mask` for `rounds` rounds. Unlike
    /// [`WorldEffect::Tax`] every victim still runs every round — just
    /// slower — so the group degrades without ever going silent.
    Hog {
        /// Ranks sharing the hogged node (bit r = rank r).
        mask: u32,
        /// Share of each victim's quantum stolen (capped 999).
        permille: u32,
        /// Scheduler rounds the hog stays.
        rounds: u64,
    },
}

impl Effect {
    /// The clock a fault with this effect waits on.
    pub fn clock(&self) -> Clock {
        match self {
            Effect::Action { .. } | Effect::Stall { .. } => Clock::Insns,
            Effect::Syscall { .. } => Clock::Calls,
            Effect::World(WorldEffect::Wire(_)) => Clock::RecvBytes,
            Effect::World(_) => Clock::Blocks,
        }
    }
}

impl std::fmt::Debug for Effect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Effect::Action { period, .. } => write!(f, "Action {{ period: {period:?} }}"),
            Effect::Syscall { kind, persist } => write!(f, "Syscall {{ {kind:?}, {persist} }}"),
            Effect::Stall {
                window_insns,
                per_access,
            } => write!(f, "Stall {{ {window_insns}, {per_access} }}"),
            Effect::World(e) => e.fmt(f),
        }
    }
}

impl Fault {
    /// A one-shot (transient) register/memory injection.
    pub fn once(
        rank: u16,
        at_insns: u64,
        action: impl FnMut(&mut Machine) + Send + 'static,
    ) -> Fault {
        let (action, period) = (Box::new(action), None);
        Fault::new(rank, at_insns, Effect::Action { action, period })
    }

    /// A persistent injection re-asserted every `period` instructions.
    pub fn persistent(
        rank: u16,
        at_insns: u64,
        period: u64,
        action: impl FnMut(&mut Machine) + Send + 'static,
    ) -> Fault {
        let (action, period) = (Box::new(action), Some(period.max(1)));
        Fault::new(rank, at_insns, Effect::Action { action, period })
    }
}

impl<E> Fault<E> {
    /// `effect` once `rank`'s clock reaches `at`.
    pub fn new(rank: u16, at: u64, effect: E) -> Fault<E> {
        Fault { rank, at, effect }
    }
}

impl Fault<WorldEffect> {
    /// The §3.3 message fault: flip `bit` of the byte at cumulative
    /// received-volume offset `at_recv_byte` on `rank`.
    pub fn flip(rank: u16, at_recv_byte: u64, bit: u8) -> Self {
        Fault::new(
            rank,
            at_recv_byte,
            WorldEffect::Wire(NetFaultKind::Flip { bit }),
        )
    }

    /// Kill (or wedge) `rank` alone at its `at_blocks`-th retired block.
    pub fn kill(rank: u16, at_blocks: u64, wedge: bool) -> Self {
        Fault::new(rank, at_blocks, WorldEffect::Kill { mates: 0, wedge })
    }
}

impl From<Fault<WorldEffect>> for Fault {
    fn from(f: Fault<WorldEffect>) -> Fault {
        Fault::new(f.rank, f.at, Effect::World(f.effect))
    }
}

/// Every fault the world holds and what became of the fired ones: the
/// armed entries, the windows that fired entries opened, and the
/// outcome counters. Plain data — it rides [`WorldSnapshot`]s whole.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Armed and not yet fired or missed, in arming order.
    armed: Vec<Fault<WorldEffect>>,
    /// Round before which the active cut holds (0 = none) and its mask.
    cut_until: u64,
    cut_mask: u32,
    /// Round before which the active tax holds (0 = none), its victim,
    /// its per-round levy, and the starvation credit accrued (the rank
    /// runs at 1000).
    tax_until: u64,
    tax_rank: u16,
    tax_permille: u32,
    tax_credit: u64,
    /// Round before which the active hog holds (0 = none), its victims
    /// and the share it steals.
    hog_until: u64,
    hog_mask: u32,
    hog_permille: u32,
    /// Ranks the active tax starved *this round*, as a bitmask
    /// (recomputed every round before detection, so the detector knows
    /// a silent rank was denied its quantum rather than dead).
    pub starved: u32,
    /// Cross-partition messages the active (or expired) cut silently
    /// dropped — 0 means no cut ever triggered or it cut no traffic.
    pub cut_drops: u64,
    /// Where the last wire fault struck (`None`: none has fired).
    pub hit: Option<MessageFaultHit>,
}

impl FaultPlan {
    /// The armed world-level faults that have neither fired nor missed.
    pub fn armed(&self) -> &[Fault<WorldEffect>] {
        &self.armed
    }
}

/// Pristine wire images a sender keeps for retransmission (per rank).
const SENT_HISTORY_CAP: usize = 16;

/// A NACKed message waiting out its backoff before redelivery.
#[derive(Debug, Clone, PartialEq)]
struct Redelivery {
    due_round: u64,
    src: u16,
    dst: u16,
    msg: WireMsg,
}

/// World configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldConfig {
    /// Number of ranks.
    pub nranks: u16,
    /// Instructions per scheduling slice.
    pub quantum: u64,
    /// RNG seed (scheduling shuffle in nondet mode).
    pub seed: u64,
    /// Shuffle rank scheduling order each round (NAMD-style arrival
    /// nondeterminism).
    pub nondet: bool,
    /// Per-rank machine configuration (budget = hang bound).
    pub machine: MachineConfig,
    /// Payloads larger than this use the RTS/CTS rendezvous protocol.
    pub eager_threshold: u32,
    /// Channel-level CRC verification + retransmit (default off).
    pub guard: ChannelGuard,
    /// Heartbeat process-failure detection (default off).
    pub ft: FailureDetector,
    /// Fold every outbound wire message into a per-rank rolling CRC32
    /// digest (replica voting's comparison key; default off).
    pub track_digests: bool,
    /// App-visible ULFM-style fault tolerance (fl-ulfm). When on, a
    /// matured failure suspicion does **not** end the world with
    /// [`WorldExit::RankFailed`]; instead it becomes failure knowledge
    /// the application can observe: blocked operations involving the
    /// failed process complete with [`MPIX_ERR_PROC_FAILED`], and the
    /// `MPIX_Comm_*` fault-tolerance calls (ack / get_acked / agree /
    /// shrink) operate over the survivor set. Default off — the
    /// scheduler takes no new code paths and stays bit-identical.
    pub ulfm: bool,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            nranks: 4,
            quantum: 10_000,
            seed: 0x5EED,
            nondet: false,
            machine: MachineConfig::default(),
            eager_threshold: 1024,
            guard: ChannelGuard::default(),
            ft: FailureDetector::default(),
            track_digests: false,
            ulfm: false,
        }
    }
}

/// Why a blocked rank is blocked.
#[derive(Debug, Clone, PartialEq)]
enum Blocked {
    Recv {
        buf: u32,
        cap: u32,
        src: i32,
        tag: u32,
    },
    SendRts {
        dst: u16,
        tag: u32,
        payload: Vec<u8>,
        seq: u32,
    },
    Barrier {
        round: u32,
        seq: u32,
    },
    ReduceRoot {
        acc: Vec<f64>,
        remaining: u32,
        recvbuf: u32,
        tag: u32,
    },
    /// Blocked in MPIX_Comm_agree carrying the caller's contribution;
    /// completes once every surviving participant has arrived.
    Agree {
        flag: u32,
    },
    /// Blocked in MPIX_Comm_shrink; completes when the survivor set is
    /// stable and fully assembled, yielding the caller's new rank.
    Shrink,
}

/// Scheduler-visible rank state.
#[derive(Debug, Clone, PartialEq, Default)]
enum Status {
    #[default]
    Ready,
    Blocked(Blocked),
    Finalized,
    Exited,
}

/// One simulated process: the machine plus its bookkeeping.
struct Rank {
    machine: Machine,
    st: RankState,
}

/// Everything the scheduler and channel keep per rank, apart from the
/// machine. Stated once: a [`WorldSnapshot`] holds it by value, and two
/// ranks are in the same state iff these compare equal.
#[derive(Clone, PartialEq, Default)]
struct RankState {
    status: Status,
    errhandler: bool,
    /// Arrived, parsed, unmatched messages.
    arrived: VecDeque<(Header, WireMsg)>,
    /// Cumulative bytes ingested at the channel level.
    received_bytes: u64,
    /// Per-sender sequence counter.
    send_seq: u32,
    /// Collective sequence counter (MPI requires identical collective
    /// order on every rank).
    coll_seq: u32,
    profile: TrafficProfile,
    /// Sender-side retransmit queue: pristine wire images of recent sends,
    /// keyed by sequence number. Populated only when the guard is on.
    sent_history: VecDeque<(u32, WireMsg)>,
    /// Process-level liveness (always `Alive` unless a rank kill fired).
    health: Health,
    /// Last scheduler round this rank showed life (executed, or had a
    /// message ingested, or answered a probe). Detector bookkeeping;
    /// frozen at 0 when the detector is off.
    last_heard: u64,
    /// Longest silence (in rounds) this rank has ever recovered from —
    /// the accrual detector's learned progress-rate floor. Frozen at 0
    /// when the detector is off.
    max_gap: u64,
    /// Rolling CRC32 over every outbound wire message (replica voting's
    /// comparison key). Frozen at 0 unless `cfg.track_digests`.
    out_digest: u32,
    /// Application-level in-memory checkpoint (fl_ckpt_save's buffer
    /// copy). Survives a shrink, which is the whole point.
    ckpt: Option<Vec<u8>>,
    /// Failure knowledge this rank has acknowledged
    /// (MPIX_Comm_failure_ack), as a bitmask of dead ranks.
    acked: u32,
}

/// Where an armed wire fault actually landed — recorded when it
/// strikes, for the §6.2 header-vs-payload analysis ("perturbing
/// the headers has about a 40 percent probability of corrupting the
/// Cactus execution").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageFaultHit {
    /// Byte offset within the struck message.
    pub offset_in_msg: usize,
    /// True if the byte was in the 48-byte header.
    pub in_header: bool,
    /// Total wire length of the struck message.
    pub msg_len: usize,
}

/// Final disposition of a world run — raw material for the §5.1
/// manifestation classification done in `fl-inject`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldExit {
    /// Every rank reached MPI_Finalize and exited 0.
    Clean,
    /// Abnormal termination: signal, heap corruption, malformed wire
    /// message, nonzero exit, exit before finalize, or MPI_Abort.
    Crashed { rank: u16, reason: String },
    /// An application internal check aborted (abort_msg / assert).
    AppAborted { rank: u16, msg: String },
    /// The user-registered MPI error handler fired (argument check).
    MpiDetected { rank: u16, what: String },
    /// Deadlock or instruction budget exhaustion.
    Hung { reason: String },
    /// The channel guard detected an unrecoverable fault (CRC retransmit
    /// budget exhausted, or the pristine image was no longer available).
    GuardDetected { rank: u16, what: String },
    /// The heartbeat failure detector declared `rank` dead or wedged
    /// after its suspicion threshold of silent rounds — the typed
    /// notification fl-ft recovery paths act on instead of a hang.
    RankFailed { rank: u16, round: u64 },
}

/// The simulated cluster.
pub struct MpiWorld {
    ranks: Vec<Rank>,
    st: WorldState,
    /// The armed [`Effect::Action`] fault, beside the state that rides
    /// snapshots (its closure can be neither cloned nor compared).
    injection: Option<Fault>,
}

/// Everything the world keeps apart from its ranks and the armed
/// machine action. Stated once: a [`WorldSnapshot`] holds it by value,
/// and two worlds are in the same state iff these (and their ranks)
/// compare equal.
#[derive(Clone, PartialEq)]
struct WorldState {
    /// Scheduler rounds completed (drives retransmit backoff timing).
    round: u64,
    cfg: WorldConfig,
    rng: StdRng,
    plan: FaultPlan,
    /// Set once a fatal event is recorded.
    fatal: Option<WorldExit>,
    /// NACKed messages waiting out their backoff (guard-on only).
    pending_redelivery: VecDeque<Redelivery>,
    /// Redelivery attempts per (sender, sequence number).
    retx_attempts: HashMap<(u16, u32), u8>,
    /// ULFM mode: bitmask of ranks whose failure suspicion has matured
    /// since the last shrink — the world's app-visible failure
    /// knowledge. Frozen at 0 unless `cfg.ulfm`.
    known_failed: u32,
    /// ULFM mode: MPIX_Comm_shrink rebuilds performed.
    shrinks: u32,
    /// ULFM mode: consecutive rounds with no runnable rank (bounds the
    /// replacement for the instant-deadlock verdict).
    idle_rounds: u64,
    /// Rounds the failure detector held back a deadlock verdict: no rank
    /// runnable, one of them dead or wedged. Always 0 with detection off.
    held_rounds: u64,
}

/// One image loaded once, to launch many worlds from: the pristine
/// just-loaded machine — epoch 0 of every world — with the handles of
/// the decoded-code store it was loaded against. [`Launch::world`] builds
/// a world of copy-on-write clones of it, so every rank of every world
/// shares the pages it never writes and the blocks and superblocks any
/// of them decoded or promoted. A campaign holds one per image and
/// machine configuration and drops it when it ends.
#[derive(Clone)]
pub struct Launch {
    pristine: MachineSnapshot,
    /// What `pristine` was loaded under; each world brings its own budget.
    machine: MachineConfig,
}

impl Launch {
    /// Load `image` once under `machine`. `code` must have been built
    /// from `image`; with `None` a fresh store is built
    /// ([`Machine::load_shared`]).
    pub fn new(image: &ProgramImage, machine: MachineConfig, code: Option<&SharedCode>) -> Launch {
        Launch {
            pristine: Machine::load_shared(image, machine, code).snapshot(),
            machine,
        }
    }

    /// A world of `cfg.nranks` pristine processes, each under
    /// `cfg.machine.budget`.
    ///
    /// # Panics
    /// If `cfg.machine` differs from what the image was loaded under in
    /// more than its budget.
    pub fn world(&self, cfg: WorldConfig) -> MpiWorld {
        assert!(cfg.nranks >= 1);
        if cfg.ulfm {
            assert!(
                cfg.nranks <= 32,
                "ulfm mode carries failure knowledge as a 32-bit rank mask"
            );
        }
        let budget = cfg.machine.budget;
        assert_eq!(
            cfg.machine,
            MachineConfig {
                budget,
                ..self.machine
            },
            "a launch serves one machine configuration"
        );
        let ranks = (0..cfg.nranks)
            .map(|_| {
                let mut machine = self.pristine.to_machine();
                machine.set_budget(budget);
                Rank {
                    machine,
                    st: RankState::default(),
                }
            })
            .collect();
        MpiWorld {
            ranks,
            st: WorldState {
                round: 0,
                cfg,
                rng: StdRng::seed_from_u64(cfg.seed),
                plan: FaultPlan::default(),
                fatal: None,
                pending_redelivery: VecDeque::new(),
                retx_attempts: HashMap::new(),
                known_failed: 0,
                shrinks: 0,
                idle_rounds: 0,
                held_rounds: 0,
            },
            injection: None,
        }
    }
}

impl MpiWorld {
    /// Create a world of `cfg.nranks` processes all running `image`: the
    /// one-shot [`Launch`]. The image is loaded and pre-decoded once and
    /// every rank is a copy-on-write clone of that one machine; a caller
    /// that starts more than one world from an image keeps the `Launch`.
    pub fn new(image: &ProgramImage, cfg: WorldConfig) -> MpiWorld {
        MpiWorld::new_with_code(image, cfg, None)
    }

    /// Like [`MpiWorld::new`], but attach an existing [`SharedCode`]
    /// store (which must have been built from `image`) instead of
    /// pre-decoding a fresh one.
    pub fn new_with_code(
        image: &ProgramImage,
        cfg: WorldConfig,
        code: Option<&SharedCode>,
    ) -> MpiWorld {
        Launch::new(image, cfg.machine, code).world(cfg)
    }

    /// Arm a fault — the one way in, for every kind. World-level faults
    /// join the [`FaultPlan`] (any number, each on its own clock);
    /// syscall and stall faults go to the victim machine's slot; a
    /// machine action takes the one injection slot, replacing any armed
    /// one.
    ///
    /// # Panics
    /// If the trigger rank or a masked rank does not exist, or a fault
    /// that keeps rank sets is armed on a world of more than 32 ranks
    /// (rank sets are 32-bit masks).
    pub fn arm(&mut self, fault: impl Into<Fault>) {
        let (fault, n) = (fault.into(), self.ranks.len());
        // The rank set the fault names or, once fired, keeps (a tax marks
        // its victim in `starved`); a lone kill has none and fits any world.
        let mask = match fault.effect {
            Effect::World(WorldEffect::Kill { mates: m, .. }) => (m != 0).then_some(m),
            Effect::World(WorldEffect::Cut { mask: m, .. } | WorldEffect::Hog { mask: m, .. }) => {
                Some(m)
            }
            Effect::World(WorldEffect::Tax { .. }) => Some(0),
            _ => None,
        };
        assert!(
            (fault.rank as usize) < n && mask.is_none_or(|m| n <= 32 && (m as u64) >> n == 0),
            "cannot arm {fault:?} on a {n}-rank world: every rank it names must exist, \
             and rank sets are 32-bit masks"
        );
        let Fault { rank, at, effect } = fault;
        match effect {
            Effect::Action { .. } => self.injection = Some(Fault { rank, at, effect }),
            Effect::Syscall { kind, persist } => {
                self.machine_mut(rank).set_syscall_fault(SyscallFault {
                    kind,
                    at_call: at,
                    persist,
                })
            }
            Effect::Stall {
                window_insns,
                per_access,
            } => self.machine_mut(rank).set_mem_stall(MemStall {
                at_insns: at,
                window_insns,
                per_access,
            }),
            Effect::World(effect) => self.st.plan.armed.push(Fault { rank, at, effect }),
        }
    }

    /// Disarm every armed world-level fault `doomed` selects. A recovery
    /// path restoring a pre-fire checkpoint calls this so the faults it
    /// means to survive do not re-fire on re-execution (they ride the
    /// snapshot — see [`MpiWorld::snapshot`]).
    pub fn disarm(&mut self, mut doomed: impl FnMut(&Fault<WorldEffect>) -> bool) {
        self.st.plan.armed.retain(|f| !doomed(f));
    }

    /// Disarm and return the armed machine action, if any. The guarded
    /// runner uses this to carry a not-yet-fired injection across a
    /// rollback (snapshots cannot capture the boxed action — see
    /// [`MpiWorld::snapshot`]) and [`MpiWorld::arm`]s it again.
    pub fn take_injection(&mut self) -> Option<Fault> {
        self.injection.take()
    }

    /// The armed world-level faults, the windows the fired ones opened
    /// and what they did.
    pub fn plan(&self) -> &FaultPlan {
        &self.st.plan
    }

    /// Whether any armed fault of any kind has yet to fire — a machine
    /// action, a world-level fault, or a syscall fault or stall window on
    /// a rank's machine (a persistent one stays pending for good, a stall
    /// until its window closes).
    pub fn fault_pending(&self) -> bool {
        self.injection.is_some()
            || !self.st.plan.armed.is_empty()
            || self.ranks.iter().any(|r| r.machine.fault_armed())
    }

    /// A rank's process-level liveness.
    pub fn health(&self, rank: u16) -> Health {
        self.ranks[rank as usize].st.health
    }

    /// A rank's rolling outbound-message digest (0 unless
    /// `cfg.track_digests` — replica voting's comparison key).
    pub fn out_digest(&self, rank: u16) -> u32 {
        self.ranks[rank as usize].st.out_digest
    }

    /// Direct access to a rank's machine (profiling, output collection).
    pub fn machine(&self, rank: u16) -> &Machine {
        &self.ranks[rank as usize].machine
    }

    /// Mutable access (used by the injector for immediate faults).
    pub fn machine_mut(&mut self, rank: u16) -> &mut Machine {
        &mut self.ranks[rank as usize].machine
    }

    /// Decoded-code cache effectiveness counters summed over all ranks
    /// (telemetry — campaign throughput reporting, never records).
    pub fn exec_stats(&self) -> ExecStats {
        let mut total = ExecStats::default();
        for r in &self.ranks {
            total.add(&r.machine.exec_stats);
        }
        total
    }

    /// A rank's channel-level traffic profile.
    pub fn profile(&self, rank: u16) -> &TrafficProfile {
        &self.ranks[rank as usize].st.profile
    }

    /// Total bytes received by a rank so far (the paper's per-process
    /// message volume, used to draw the injection offset).
    pub fn received_bytes(&self, rank: u16) -> u64 {
        self.ranks[rank as usize].st.received_bytes
    }

    /// Number of ranks in the world.
    pub fn nranks(&self) -> u16 {
        self.ranks.len() as u16
    }

    /// ULFM mode: bitmask of ranks whose failure the world currently
    /// knows about (matured suspicions since the last shrink). Always 0
    /// when `cfg.ulfm` is off.
    pub fn ulfm_failed_mask(&self) -> u32 {
        self.st.known_failed
    }

    /// ULFM mode: number of app-driven MPIX_Comm_shrink rebuilds this
    /// world has performed (0 unless the application recovered itself).
    pub fn app_shrinks(&self) -> u32 {
        self.st.shrinks
    }

    /// Copy out every rank's retained event stream (index = rank).
    pub fn event_streams(&self) -> Vec<Vec<fl_obs::Event>> {
        self.ranks.iter().map(|r| r.machine.obs.to_vec()).collect()
    }

    /// Scheduler rounds completed so far.
    pub fn round(&self) -> u64 {
        self.st.round
    }

    /// Rounds in which the failure detector held back the deadlock
    /// verdict a world without detection would have reached: no rank
    /// runnable and one of them dead or wedged, so the world waited for
    /// suspicion to mature instead. 0 with detection off.
    pub fn held_rounds(&self) -> u64 {
        self.st.held_rounds
    }

    /// Total redelivery attempts the channel guard has charged (0 when
    /// the guard is off or no CRC failure was ever detected).
    pub fn retransmits(&self) -> u32 {
        self.st.retx_attempts.values().map(|&a| a as u32).sum()
    }

    /// Whether `rank` has exited (reached MPI_Finalize and returned 0).
    pub fn rank_exited(&self, rank: u16) -> bool {
        matches!(self.ranks[rank as usize].st.status, Status::Exited)
    }

    /// Capture a complete deterministic checkpoint of the world.
    ///
    /// Everything that influences future execution is captured: every
    /// rank's machine (registers, FPU, copy-on-write memory pages, heap),
    /// scheduler status, unmatched in-flight messages, channel byte
    /// counters, sequence counters and traffic profile, plus the world's
    /// scheduling RNG and the whole [`FaultPlan`] — armed entries, open
    /// windows and counters. Restoring a pre-fire checkpoint therefore
    /// re-arms those faults, and a recovery path that means to survive
    /// one must [`MpiWorld::disarm`] it after the restore.
    ///
    /// The one exception is an armed [`Effect::Action`]: its action is a
    /// boxed `FnMut` closure and cannot be cloned. Snapshot the golden
    /// world *before* arming an injection and re-arm after
    /// [`WorldSnapshot::restore`] — which is the order the campaign fast
    /// path uses. A snapshot taken while an injection is armed simply does
    /// not carry it.
    pub fn snapshot(&self) -> WorldSnapshot {
        WorldSnapshot {
            ranks: self
                .ranks
                .iter()
                .map(|r| RankSnapshot {
                    machine: r.machine.snapshot(),
                    st: r.st.clone(),
                })
                .collect(),
            st: self.st.clone(),
        }
    }

    /// Is this world the golden run at epoch boundary `k` again?
    ///
    /// `snap` is the golden world captured at the boundary; `stamps[r]`
    /// rank `r`'s read stamps from the same golden run, stamped with
    /// epoch-interval indices. Every rank's CPU, counters, allocator and
    /// I/O buffers, every queue, sequence number, status and detector
    /// clock, the RNG, the round and the whole fault plan must equal
    /// the snapshot exactly; memory may differ in granules the golden
    /// run never reads after the boundary
    /// ([`fl_machine::Memory::converged_on`]). If so, whatever this world
    /// reads from here on, it reads the values the golden run read — so
    /// it *is* the golden run, and the returned count says how many
    /// dead granules were excused. Only the bookkeeping of the spent
    /// fault ([`FaultPlan::hit`]) is ignored; a fault still pending
    /// never converges.
    pub fn converged_on(
        &self,
        snap: &WorldSnapshot,
        stamps: &[fl_machine::ReadStamps],
        k: u32,
    ) -> Option<u64> {
        // Only a world whose wire fault struck differs in `hit`, and only
        // it pays for a copy to compare the rest; the derived `==` cannot
        // skip a field.
        let same = if self.st.plan.hit == snap.st.plan.hit {
            self.st == snap.st
        } else {
            let mut world = self.st.clone();
            world.plan.hit = snap.st.plan.hit;
            world == snap.st
        };
        if self.injection.is_some()
            || !same
            || self.ranks.len() != snap.ranks.len()
            || self.ranks.len() != stamps.len()
        {
            return None;
        }
        let mut excused = 0;
        for ((r, s), st) in self.ranks.iter().zip(&snap.ranks).zip(stamps) {
            if r.st != s.st {
                return None;
            }
            excused += r.machine.converged_on(&s.machine, st, k)?;
        }
        Some(excused)
    }

    fn fatal(&mut self, e: WorldExit) {
        if self.st.fatal.is_none() {
            self.st.fatal = Some(e);
        }
    }

    /// Detector bookkeeping: `rank` showed life this round. Records the
    /// silence it just ended into the rank's learned `max_gap` (the
    /// accrual detector's progress-rate floor) before stamping
    /// `last_heard`.
    fn heard(&mut self, i: usize) {
        let round = self.st.round;
        let r = &mut self.ranks[i];
        let gap = round - r.st.last_heard;
        if gap > r.st.max_gap {
            r.st.max_gap = gap;
        }
        r.st.last_heard = round;
    }

    // --- observability -----------------------------------------------------

    /// Record an event on `rank`'s log, clocked by that rank's retired
    /// block count. One branch when recording is disabled.
    fn obs_record(&mut self, rank: usize, kind: EventKind) {
        let m = &mut self.ranks[rank].machine;
        m.obs.record(m.counters.blocks, kind);
    }

    /// Out-of-band marker: a world checkpoint was captured. Recorded on
    /// every rank. Intended for the recovery paths; the campaign fork
    /// fast path must NOT call this (forked and cold trials could no
    /// longer emit bit-identical streams).
    pub fn note_snapshot_captured(&mut self, round: u64) {
        for i in 0..self.ranks.len() {
            self.obs_record(i, EventKind::SnapshotCaptured { round });
        }
    }

    /// Out-of-band marker: the progress watchdog declared `rank` stalled
    /// after `window` consecutive no-progress windows. Guard paths only.
    pub fn note_watchdog_trip(&mut self, rank: u16, window: u32) {
        self.obs_record(rank as usize, EventKind::WatchdogTrip { window });
    }

    /// Out-of-band marker: the guard rolled this world back to the
    /// checkpoint taken at `round` and is re-executing (`restart` is
    /// 1-based). Recorded on every rank. Guard paths only.
    pub fn note_guard_restart(&mut self, restart: u32, round: u64) {
        for i in 0..self.ranks.len() {
            self.obs_record(i, EventKind::GuardRestart { restart, round });
        }
    }

    /// Out-of-band marker: this world was rebuilt over the survivors of
    /// `failed` (ULFM-style shrink). Recorded on every rank of the
    /// survivor world. fl-ft recovery paths only.
    pub fn note_world_shrunk(&mut self, failed: u16, survivors: u16) {
        for i in 0..self.ranks.len() {
            self.obs_record(i, EventKind::WorldShrunk { failed, survivors });
        }
    }

    /// Out-of-band marker: `rank` was respawned from its buddy
    /// checkpoint taken at scheduler round `round`. Recorded on every
    /// rank. fl-ft recovery paths only.
    pub fn note_rank_respawned(&mut self, rank: u16, round: u64) {
        for i in 0..self.ranks.len() {
            self.obs_record(i, EventKind::RankRespawned { rank, round });
        }
    }

    /// Out-of-band marker: replica voting excluded replica `excluded`,
    /// leaving `live` replicas. Recorded on every rank of this (surviving)
    /// replica. fl-ft recovery paths only.
    pub fn note_replica_vote(&mut self, excluded: u16, live: u16) {
        for i in 0..self.ranks.len() {
            self.obs_record(i, EventKind::ReplicaVote { excluded, live });
        }
    }

    // --- channel ---------------------------------------------------------

    /// Ingest a message at `dst`'s channel level: apply any armed fault
    /// whose offset falls inside this message, account traffic, verify
    /// integrity when the guard is on, parse. `src` is the true sending
    /// rank (scheduler knowledge, not trusted wire bytes — a flip can
    /// corrupt the header's src field).
    fn ingest(&mut self, src: u16, dst: u16, mut msg: WireMsg) {
        let plan = &mut self.st.plan;
        if self.st.round < plan.cut_until
            && (plan.cut_mask >> (src as u32) ^ plan.cut_mask >> (dst as u32)) & 1 == 1
        {
            // An active partition severs the channel before anything else
            // sees the bytes: no traffic accounting, and — crucially — no
            // piggybacked heartbeat, so a cut also silences liveness
            // evidence exactly like a real switch failure.
            plan.cut_drops += 1;
            return;
        }
        if self.st.cfg.ft.enabled {
            // Piggybacked heartbeat: traffic from a rank proves it alive.
            self.heard(src as usize);
        }
        if !matches!(self.ranks[dst as usize].st.health, Health::Alive) {
            // A dead process's channel is gone; a wedged one services
            // nothing. Either way the bytes vanish, exactly like a send
            // to a crashed peer on a real cluster.
            return;
        }
        // The true sequence number, read from the pristine image before
        // any fault lands (the wire copy of it may get corrupted).
        let wire_seq = u32::from_le_bytes(msg.raw[16..20].try_into().unwrap());
        if self.st.cfg.guard.enabled {
            let hist = &mut self.ranks[src as usize].st.sent_history;
            if hist.len() == SENT_HISTORY_CAP {
                hist.pop_front();
            }
            hist.push_back((wire_seq, msg.clone()));
        }
        let r = &mut self.ranks[dst as usize];
        let start = r.st.received_bytes;
        r.st.received_bytes += msg.len() as u64;
        if !self.st.plan.armed.is_empty() {
            let Some(m) = self.strike(src, dst, start, msg) else {
                return;
            };
            msg = m;
        }
        if self.st.cfg.guard.enabled && !msg.crc_ok() {
            return self.nack(src, dst, wire_seq);
        }
        match msg.header() {
            Ok(h) => {
                self.obs_record(
                    dst as usize,
                    EventKind::MsgDeliver {
                        from: h.src,
                        tag: h.tag,
                        bytes: h.payload_len,
                    },
                );
                let r = &mut self.ranks[dst as usize];
                r.st.profile.record(&h);
                r.st.arrived.push_back((h, msg));
            }
            Err(e) => {
                // Malformed packet: MPICH internal error, fatal to the job.
                self.fatal(WorldExit::Crashed {
                    rank: dst,
                    reason: format!("MPICH internal error: {e}"),
                });
            }
        }
    }

    /// Apply every armed wire fault whose offset falls inside `msg`,
    /// which occupies `start..` of `dst`'s incoming byte stream. Returns
    /// the message to deliver now — `None` if a fault took it out of the
    /// channel (dropped, or deferred to a later round).
    fn strike(&mut self, src: u16, dst: u16, start: u64, mut msg: WireMsg) -> Option<WireMsg> {
        use crate::message::{CRC_OFFSET, HEADER_SIZE};
        let span = start..start + msg.len() as u64;
        let struck = |f: &Fault<WorldEffect>| match f.effect {
            WorldEffect::Wire(kind) if f.rank == dst && span.contains(&f.at) => Some(kind),
            _ => None,
        };
        while let Some((i, kind)) =
            (self.st.plan.armed.iter().enumerate()).find_map(|(i, f)| Some((i, struck(f)?)))
        {
            let off = (self.st.plan.armed.remove(i).at - start) as usize;
            let in_header = off < HEADER_SIZE;
            self.st.plan.hit = Some(MessageFaultHit {
                offset_in_msg: off,
                in_header,
                msg_len: msg.len(),
            });
            let offset = off as u32;
            self.obs_record(
                dst as usize,
                EventKind::MessageFaultHit { offset, in_header },
            );
            // A copy re-enters the channel later like any redelivery.
            let later = |rounds: u64, msg| Redelivery {
                due_round: self.st.round.saturating_add(rounds),
                src,
                dst,
                msg,
            };
            match kind {
                NetFaultKind::Flip { bit } => msg.flip_bit(off, bit),
                NetFaultKind::Drop => return None,
                NetFaultKind::Duplicate => {
                    let copy = later(1, msg.clone());
                    self.st.pending_redelivery.push_back(copy);
                }
                NetFaultKind::Reorder { delay_rounds } => {
                    // Defer delivery so later traffic overtakes it.
                    let deferred = later(delay_rounds.max(1), msg);
                    self.st.pending_redelivery.push_back(deferred);
                    return None;
                }
                NetFaultKind::Corrupt => {
                    // Invert a CRC-covered payload byte when there is
                    // one; a header-only message gets its CRC field
                    // inverted instead (harmless unguarded, caught
                    // guarded — either way the flip is in the wire).
                    let at = if msg.len() > HEADER_SIZE {
                        HEADER_SIZE + off % (msg.len() - HEADER_SIZE)
                    } else {
                        CRC_OFFSET
                    };
                    msg.raw[at] ^= 0xFF;
                }
            }
        }
        Some(msg)
    }

    /// Receiver-side NACK for a CRC-rejected message: out-of-band to the
    /// simulator (a real channel would send a control frame), it charges
    /// one retransmit attempt against `(src, seq)` and schedules the
    /// pristine image from `src`'s retransmit queue for redelivery after
    /// an exponential backoff. Budget exhaustion — or a pristine image
    /// already evicted from the queue — is an unrecoverable channel
    /// fault, surfaced as [`WorldExit::GuardDetected`].
    fn nack(&mut self, src: u16, dst: u16, seq: u32) {
        self.obs_record(dst as usize, EventKind::CrcReject { from: src, seq });
        let used = self.st.retx_attempts.get(&(src, seq)).copied().unwrap_or(0);
        if used >= self.st.cfg.guard.max_retransmits {
            return self.fatal(WorldExit::GuardDetected {
                rank: dst,
                what: format!(
                    "CRC retransmit budget exhausted for seq {seq} from rank {src} \
                     after {used} redeliveries"
                ),
            });
        }
        let attempt = used + 1;
        self.st.retx_attempts.insert((src, seq), attempt);
        let pristine = self.ranks[src as usize]
            .st
            .sent_history
            .iter()
            .rev()
            .find(|(s, _)| *s == seq)
            .map(|(_, m)| m.clone());
        let Some(msg) = pristine else {
            return self.fatal(WorldExit::GuardDetected {
                rank: dst,
                what: format!("retransmit queue miss for seq {seq} from rank {src}"),
            });
        };
        self.obs_record(
            src as usize,
            EventKind::Retransmit {
                to: dst,
                seq,
                attempt,
            },
        );
        self.st.pending_redelivery.push_back(Redelivery {
            due_round: self.st.round + (1 << attempt.min(16)),
            src,
            dst,
            msg,
        });
    }

    /// Deliver NACKed messages whose backoff has elapsed.
    fn drain_redeliveries(&mut self) {
        let mut due = Vec::new();
        self.st.pending_redelivery.retain(|r| {
            if r.due_round <= self.st.round {
                due.push(r.clone());
                false
            } else {
                true
            }
        });
        for r in due {
            if self.st.fatal.is_some() {
                return;
            }
            self.ingest(r.src, r.dst, r.msg);
        }
    }

    /// Fold an outbound wire image into `rank`'s rolling digest: the
    /// CRC32 of the previous digest chained with the full message bytes.
    /// Replicas of a deterministic rank fold identical sequences, so a
    /// digest mismatch pinpoints the first divergent send.
    fn fold_digest(&mut self, rank: u16, msg: &WireMsg) {
        let r = &mut self.ranks[rank as usize];
        let chain = r.st.out_digest.to_le_bytes();
        r.st.out_digest = crate::message::crc32(&[&chain, &msg.raw[..]]);
    }

    /// Guard for destinations computed from *parsed wire headers*: a
    /// corrupted src field can name a rank that does not exist. Real
    /// MPICH fails trying to reach the nonexistent peer and aborts the
    /// job — model that rather than indexing out of range.
    fn check_wire_dst(&mut self, from: u16, dst: u16) -> bool {
        if (dst as usize) < self.ranks.len() {
            return true;
        }
        self.fatal(WorldExit::Crashed {
            rank: from,
            reason: format!("MPICH internal error: no route to rank {dst}"),
        });
        false
    }

    fn send_data(&mut self, src: u16, dst: u16, tag: u32, payload: &[u8]) {
        if !self.check_wire_dst(src, dst) {
            return;
        }
        let seq = self.ranks[src as usize].st.send_seq;
        self.ranks[src as usize].st.send_seq += 1;
        self.obs_record(
            src as usize,
            EventKind::MsgSend {
                to: dst,
                tag,
                bytes: payload.len() as u32,
            },
        );
        let m = WireMsg::data(src, dst, tag, seq, payload);
        if self.st.cfg.track_digests {
            self.fold_digest(src, &m);
        }
        self.ingest(src, dst, m);
    }

    /// Send `len` bytes straight out of `src`'s guest memory at `buf`:
    /// the wire image is allocated once and the payload peeked directly
    /// into it, with no intermediate copy (the allocation-free eager
    /// path; [`MpiWorld::send_data`] remains for host-side payloads).
    fn send_data_from_mem(&mut self, src: u16, dst: u16, tag: u32, buf: u32, len: u32) {
        if !self.check_wire_dst(src, dst) {
            return;
        }
        let seq = self.ranks[src as usize].st.send_seq;
        self.ranks[src as usize].st.send_seq += 1;
        self.obs_record(
            src as usize,
            EventKind::MsgSend {
                to: dst,
                tag,
                bytes: len,
            },
        );
        let mem = &mut self.ranks[src as usize].machine.mem;
        let m = WireMsg::data_with(src, dst, tag, seq, len, |b| mem.guest_read(buf, b));
        if self.st.cfg.track_digests {
            self.fold_digest(src, &m);
        }
        self.ingest(src, dst, m);
    }

    fn send_control(&mut self, op: CtlOp, src: u16, dst: u16, tag: u32) {
        if !self.check_wire_dst(src, dst) {
            return;
        }
        let seq = self.ranks[src as usize].st.send_seq;
        self.ranks[src as usize].st.send_seq += 1;
        self.obs_record(
            src as usize,
            EventKind::MsgSend {
                to: dst,
                tag,
                bytes: 0,
            },
        );
        let m = WireMsg::control(op, src, dst, tag, seq);
        if self.st.cfg.track_digests {
            self.fold_digest(src, &m);
        }
        self.ingest(src, dst, m);
    }

    // --- MPI error path ---------------------------------------------------

    /// An MPI-level error on `rank` (bad argument, truncation). Raises the
    /// registered handler (→ MpiDetected) or aborts (→ Crash), per §6.2.
    fn mpi_error(&mut self, rank: u16, what: String) {
        let handled = self.ranks[rank as usize].st.errhandler;
        self.obs_record(rank as usize, EventKind::MpiError { handled });
        if handled {
            self.fatal(WorldExit::MpiDetected { rank, what });
        } else {
            self.fatal(WorldExit::Crashed {
                rank,
                reason: format!("MPI error: {what}"),
            });
        }
    }

    fn valid_rank(&self, r: i32) -> bool {
        r >= 0 && (r as usize) < self.ranks.len()
    }

    /// Validate a buffer range is mapped and writable/readable.
    fn valid_buffer(&mut self, rank: u16, buf: u32, len: u32, write: bool) -> bool {
        if len == 0 {
            return true;
        }
        let m = &self.ranks[rank as usize].machine;
        let Some(mapping) = m.mem.map().lookup(buf) else {
            return false;
        };
        if write && !mapping.perms.write || !write && !mapping.perms.read {
            return false;
        }
        match buf.checked_add(len) {
            Some(end) => end <= mapping.end,
            None => false,
        }
    }

    // --- syscall servicing -------------------------------------------------

    /// Service the MPI syscall `rank` trapped on. Arguments are in the
    /// registers, marshalled there by the library wrappers.
    fn service(&mut self, rank: u16, call: Syscall) {
        let c = &self.ranks[rank as usize].machine.cpu;
        let [eax, ecx, edx, ebx] = SYS_ARGS.map(|r| c.get(r));
        match call {
            Syscall::MpiInit => {
                // MPICH allocates internal unexpected-message buffers at
                // init; they land in the shared heap tagged MPI, which is
                // exactly what the §3.2 chunk-identifier scheme exists to
                // exclude from injection.
                let m = &mut self.ranks[rank as usize].machine;
                for sz in [1024u32, 512, 2048] {
                    let _ = m.heap.alloc(&mut m.mem, sz, fl_machine::AllocTag::Mpi);
                }
                self.complete(rank, None)
            }
            Syscall::MpiCommRank => self.complete(rank, Some(rank as u32)),
            Syscall::MpiCommSize => self.complete(rank, Some(self.ranks.len() as u32)),
            Syscall::MpiErrhandlerSet => {
                self.ranks[rank as usize].st.errhandler = eax != 0;
                self.complete(rank, Some(0));
            }
            Syscall::MpiFinalize => {
                self.ranks[rank as usize].st.status = Status::Finalized;
                self.ranks[rank as usize].machine.mpi_complete(None);
            }
            Syscall::MpiAbort => {
                self.fatal(WorldExit::Crashed {
                    rank,
                    reason: "MPI_Abort called".into(),
                });
            }
            Syscall::MpiSend => {
                let (buf, len, dst, tag) = (eax, ecx, edx as i32, ebx);
                if !self.valid_rank(dst) {
                    return self.mpi_error(rank, format!("MPI_Send: invalid rank {dst}"));
                }
                if tag > MAX_USER_TAG {
                    return self.mpi_error(rank, format!("MPI_Send: invalid tag {tag}"));
                }
                if len > MAX_PAYLOAD || !self.valid_buffer(rank, buf, len, false) {
                    return self
                        .mpi_error(rank, format!("MPI_Send: invalid buffer {buf:#x}+{len}"));
                }
                if self.st.cfg.ulfm && self.st.known_failed != 0 {
                    // ULFM: a known failure revokes the communicator
                    // until the application shrinks it — every
                    // point-to-point call errors, so ranks with no dead
                    // neighbour still converge on the recovery path
                    // instead of stranding in pairwise traffic with a
                    // peer that already left for MPIX_Comm_agree.
                    return self.complete(rank, Some(MPIX_ERR_PROC_FAILED));
                }
                if len <= self.st.cfg.eager_threshold {
                    // Eager: peek the payload straight into the wire image.
                    self.send_data_from_mem(rank, dst as u16, tag, buf, len);
                    self.complete(rank, None);
                } else {
                    // Rendezvous: RTS now, data after CTS. MPI_Send's
                    // buffer-reuse semantics require capturing the
                    // payload at send time, so this path keeps an owned
                    // copy in the blocked state.
                    let mut payload = vec![0u8; len as usize];
                    self.ranks[rank as usize]
                        .machine
                        .mem
                        .guest_read(buf, &mut payload);
                    let seq = self.ranks[rank as usize].st.send_seq;
                    self.send_control(CtlOp::Rts, rank, dst as u16, tag);
                    self.ranks[rank as usize].st.status = Status::Blocked(Blocked::SendRts {
                        dst: dst as u16,
                        tag,
                        payload,
                        seq,
                    });
                }
            }
            Syscall::MpiRecv => {
                let (buf, cap, src, tag) = (eax, ecx, edx as i32, ebx);
                if src != ANY_SOURCE && !self.valid_rank(src) {
                    return self.mpi_error(rank, format!("MPI_Recv: invalid rank {src}"));
                }
                if tag > MAX_USER_TAG {
                    return self.mpi_error(rank, format!("MPI_Recv: invalid tag {tag}"));
                }
                if cap > MAX_PAYLOAD || !self.valid_buffer(rank, buf, cap, true) {
                    return self
                        .mpi_error(rank, format!("MPI_Recv: invalid buffer {buf:#x}+{cap}"));
                }
                if self.st.cfg.ulfm && self.st.known_failed != 0 {
                    // ULFM: revoked until shrink (see MPI_Send above);
                    // the buffer is left untouched.
                    return self.complete(rank, Some(MPIX_ERR_PROC_FAILED));
                }
                self.ranks[rank as usize].st.status =
                    Status::Blocked(Blocked::Recv { buf, cap, src, tag });
            }
            Syscall::MpiBarrier => {
                if self.st.cfg.ulfm && self.st.known_failed != 0 {
                    // ULFM: collectives over a communicator with a known
                    // failure raise the process-failure class at every
                    // caller, without consuming a collective slot — the
                    // application must agree + shrink before any
                    // collective can succeed again.
                    return self.complete(rank, Some(MPIX_ERR_PROC_FAILED));
                }
                let seq = self.ranks[rank as usize].st.coll_seq;
                self.ranks[rank as usize].st.coll_seq += 1;
                if self.ranks.len() == 1 {
                    return self.complete(rank, None);
                }
                self.barrier_send(rank, 0, seq);
                self.ranks[rank as usize].st.status =
                    Status::Blocked(Blocked::Barrier { round: 0, seq });
            }
            Syscall::MpiBcast => {
                if self.st.cfg.ulfm && self.st.known_failed != 0 {
                    return self.complete(rank, Some(MPIX_ERR_PROC_FAILED));
                }
                let (buf, len, root) = (eax, ecx, edx as i32);
                if !self.valid_rank(root) {
                    return self.mpi_error(rank, format!("MPI_Bcast: invalid root {root}"));
                }
                let seq = self.ranks[rank as usize].st.coll_seq;
                self.ranks[rank as usize].st.coll_seq += 1;
                let ctag = COLL_TAG_BASE + seq;
                let is_root = rank as i32 == root;
                if len > MAX_PAYLOAD || !self.valid_buffer(rank, buf, len, !is_root) {
                    return self
                        .mpi_error(rank, format!("MPI_Bcast: invalid buffer {buf:#x}+{len}"));
                }
                if is_root {
                    for d in 0..self.ranks.len() as u16 {
                        if d != rank {
                            self.send_data_from_mem(rank, d, ctag, buf, len);
                        }
                    }
                    self.complete(rank, None);
                } else {
                    self.ranks[rank as usize].st.status = Status::Blocked(Blocked::Recv {
                        buf,
                        cap: len,
                        src: root,
                        tag: ctag,
                    });
                }
            }
            Syscall::MpiReduce | Syscall::MpiAllreduce => {
                // Reduce(sum of f64): EAX=sendbuf, ECX=count, EDX=root (or
                // recvbuf for allreduce), EBX=recvbuf (or unused).
                let allreduce = call == Syscall::MpiAllreduce;
                if self.st.cfg.ulfm && self.st.known_failed != 0 {
                    return self.complete(rank, Some(MPIX_ERR_PROC_FAILED));
                }
                let (sendbuf, count) = (eax, ecx);
                let (root, recvbuf) = if allreduce {
                    (0i32, edx)
                } else {
                    (edx as i32, ebx)
                };
                if !self.valid_rank(root) {
                    return self.mpi_error(rank, format!("MPI_Reduce: invalid root {root}"));
                }
                let bytes = count.saturating_mul(8);
                if count > MAX_PAYLOAD / 8 || !self.valid_buffer(rank, sendbuf, bytes, false) {
                    return self
                        .mpi_error(rank, format!("MPI_Reduce: invalid sendbuf {sendbuf:#x}"));
                }
                let is_root = rank as i32 == root;
                if is_root && !self.valid_buffer(rank, recvbuf, bytes, true) {
                    return self
                        .mpi_error(rank, format!("MPI_Reduce: invalid recvbuf {recvbuf:#x}"));
                }
                if allreduce && !is_root && !self.valid_buffer(rank, recvbuf, bytes, true) {
                    return self
                        .mpi_error(rank, format!("MPI_Allreduce: invalid recvbuf {recvbuf:#x}"));
                }
                let seq = self.ranks[rank as usize].st.coll_seq;
                // Allreduce consumes two collective slots (reduce+bcast).
                self.ranks[rank as usize].st.coll_seq += if allreduce { 2 } else { 1 };
                let ctag = COLL_TAG_BASE + seq;
                if is_root {
                    let mem = &mut self.ranks[rank as usize].machine.mem;
                    let acc: Vec<f64> = (0..count)
                        .map(|i| {
                            let mut b = [0u8; 8];
                            mem.guest_read(sendbuf + i * 8, &mut b);
                            f64::from_le_bytes(b)
                        })
                        .collect();
                    if self.ranks.len() == 1 {
                        self.finish_reduce(rank, &acc, recvbuf, allreduce, ctag);
                    } else {
                        self.ranks[rank as usize].st.status =
                            Status::Blocked(Blocked::ReduceRoot {
                                acc,
                                remaining: self.ranks.len() as u32 - 1,
                                recvbuf,
                                tag: ctag,
                            });
                    }
                } else {
                    self.send_data_from_mem(rank, root as u16, ctag, sendbuf, bytes);
                    if allreduce {
                        // Wait for the broadcast of the result.
                        self.ranks[rank as usize].st.status = Status::Blocked(Blocked::Recv {
                            buf: recvbuf,
                            cap: bytes,
                            src: root,
                            tag: ctag + 1,
                        });
                    } else {
                        self.complete(rank, None);
                    }
                }
            }
            // --- ULFM extensions (fl-ulfm) ------------------------------
            Syscall::MpixFailureAck => {
                // Acknowledge everything the world currently knows;
                // returns how many failures were newly acknowledged.
                let newly = self.st.known_failed & !self.ranks[rank as usize].st.acked;
                self.ranks[rank as usize].st.acked = self.st.known_failed;
                self.complete(rank, Some(newly.count_ones()));
            }
            Syscall::MpixFailureGetAcked => {
                let acked = self.ranks[rank as usize].st.acked;
                self.complete(rank, Some(acked));
            }
            Syscall::MpixAgree => {
                self.ranks[rank as usize].st.status = Status::Blocked(Blocked::Agree { flag: eax });
                self.try_complete_agree();
            }
            Syscall::MpixShrink => {
                self.ranks[rank as usize].st.status = Status::Blocked(Blocked::Shrink);
                self.try_shrink();
            }
            Syscall::CkptSave => {
                let (buf, len) = (eax, ecx);
                if len > MAX_CKPT_BYTES || !self.valid_buffer(rank, buf, len, false) {
                    return self
                        .mpi_error(rank, format!("fl_ckpt_save: invalid buffer {buf:#x}+{len}"));
                }
                let mut data = vec![0u8; len as usize];
                self.ranks[rank as usize]
                    .machine
                    .mem
                    .guest_read(buf, &mut data);
                self.ranks[rank as usize].st.ckpt = Some(data);
                self.obs_record(
                    rank as usize,
                    EventKind::SnapshotCaptured {
                        round: self.st.round,
                    },
                );
                self.complete(rank, Some(len));
            }
            Syscall::CkptRestore => {
                let (buf, cap) = (eax, ecx);
                if cap > MAX_CKPT_BYTES || !self.valid_buffer(rank, buf, cap, true) {
                    return self.mpi_error(
                        rank,
                        format!("fl_ckpt_restore: invalid buffer {buf:#x}+{cap}"),
                    );
                }
                // The checkpoint is copied back, not consumed: a second
                // failure can roll back to the same control point.
                let data = match &self.ranks[rank as usize].st.ckpt {
                    None => Vec::new(),
                    Some(d) => d[..d.len().min(cap as usize)].to_vec(),
                };
                if !data.is_empty() {
                    self.ranks[rank as usize].machine.mem.poke(buf, &data);
                    self.obs_record(
                        rank as usize,
                        EventKind::SnapshotRestored {
                            round: self.st.round,
                        },
                    );
                }
                self.complete(rank, Some(data.len() as u32));
            }
            other => {
                // A non-MPI syscall should never trap here.
                self.fatal(WorldExit::Crashed {
                    rank,
                    reason: format!("unexpected trap {other:?}"),
                });
            }
        }
    }

    /// Root finished accumulating a reduce: deposit and, for allreduce,
    /// broadcast the result.
    fn finish_reduce(&mut self, rank: u16, acc: &[f64], recvbuf: u32, allreduce: bool, ctag: u32) {
        // Deposit element-wise (no flattened scratch buffer); for
        // allreduce, broadcast straight out of the freshly-written
        // recvbuf.
        let mem = &mut self.ranks[rank as usize].machine.mem;
        for (i, v) in acc.iter().enumerate() {
            mem.poke(recvbuf + 8 * i as u32, &v.to_le_bytes());
        }
        if allreduce {
            let len = (acc.len() * 8) as u32;
            for d in 0..self.ranks.len() as u16 {
                if d != rank {
                    self.send_data_from_mem(rank, d, ctag + 1, recvbuf, len);
                }
            }
        }
        self.complete(rank, None);
    }

    fn complete(&mut self, rank: u16, ret: Option<u32>) {
        let r = &mut self.ranks[rank as usize];
        r.machine.mpi_complete(ret);
        r.st.status = Status::Ready;
    }

    // --- barrier (dissemination) -------------------------------------------

    fn barrier_rounds(&self) -> u32 {
        let n = self.ranks.len() as u32;
        32 - (n - 1).leading_zeros() // ceil(log2(n)) for n >= 2
    }

    fn barrier_send(&mut self, rank: u16, round: u32, seq: u32) {
        let n = self.ranks.len() as u32;
        let peer = ((rank as u32) + (1 << round)) % n;
        let tag = BARRIER_TAG_BASE + (seq << 6) + round;
        self.send_control(CtlOp::Barrier, rank, peer as u16, tag);
    }

    // --- matching / progress -------------------------------------------------

    /// Try to unblock `rank`; returns true if its status changed.
    fn try_unblock(&mut self, rank: usize) -> bool {
        if !matches!(self.ranks[rank].st.health, Health::Alive) {
            return false;
        }
        let blocked = match &self.ranks[rank].st.status {
            Status::Blocked(b) => b.clone(),
            _ => return false,
        };
        match blocked {
            Blocked::Recv { buf, cap, src, tag } => {
                let pos = self.ranks[rank].st.arrived.iter().position(|(h, _)| {
                    h.tag == tag
                        && (src == ANY_SOURCE || h.src as i32 == src)
                        && (h.kind == MsgKind::Data
                            || (h.kind == MsgKind::Control && h.ctl_op == CtlOp::Rts))
                });
                let Some(pos) = pos else { return false };
                let (h, msg) = self.ranks[rank].st.arrived.remove(pos).unwrap();
                match h.kind {
                    MsgKind::Control => {
                        // An RTS: grant a CTS and keep waiting for data.
                        self.send_control(CtlOp::Cts, rank as u16, h.src, h.tag);
                        false
                    }
                    MsgKind::Data => {
                        if h.payload_len > cap {
                            self.mpi_error(
                                rank as u16,
                                format!("MPI_Recv: message truncated ({} > {cap})", h.payload_len),
                            );
                            return true;
                        }
                        self.obs_record(
                            rank,
                            EventKind::MsgRecvMatch {
                                from: h.src,
                                tag: h.tag,
                                bytes: h.payload_len,
                            },
                        );
                        // `msg` is owned here: deposit its payload
                        // directly, no intermediate copy.
                        self.ranks[rank].machine.mem.poke(buf, msg.payload());
                        self.complete(rank as u16, Some(h.payload_len));
                        true
                    }
                }
            }
            Blocked::SendRts {
                dst,
                tag,
                payload,
                seq: _,
            } => {
                let pos = self.ranks[rank].st.arrived.iter().position(|(h, _)| {
                    h.kind == MsgKind::Control
                        && h.ctl_op == CtlOp::Cts
                        && h.src == dst
                        && h.tag == tag
                });
                let Some(pos) = pos else { return false };
                self.ranks[rank].st.arrived.remove(pos);
                self.send_data(rank as u16, dst, tag, &payload);
                self.complete(rank as u16, None);
                true
            }
            Blocked::Barrier { round, seq } => {
                let n = self.ranks.len() as u32;
                let expect_from = ((rank as u32) + n - (1 << round) % n) % n;
                let tag = BARRIER_TAG_BASE + (seq << 6) + round;
                let pos = self.ranks[rank].st.arrived.iter().position(|(h, _)| {
                    h.kind == MsgKind::Control
                        && h.ctl_op == CtlOp::Barrier
                        && h.tag == tag
                        && h.src as u32 == expect_from
                });
                let Some(pos) = pos else { return false };
                self.ranks[rank].st.arrived.remove(pos);
                let next = round + 1;
                if next >= self.barrier_rounds() {
                    self.complete(rank as u16, None);
                } else {
                    self.barrier_send(rank as u16, next, seq);
                    self.ranks[rank].st.status =
                        Status::Blocked(Blocked::Barrier { round: next, seq });
                }
                true
            }
            Blocked::ReduceRoot {
                mut acc,
                mut remaining,
                recvbuf,
                tag,
            } => {
                let mut changed = false;
                loop {
                    let pos = self.ranks[rank]
                        .st
                        .arrived
                        .iter()
                        .position(|(h, _)| h.kind == MsgKind::Data && h.tag == tag);
                    let Some(pos) = pos else { break };
                    let (_, msg) = self.ranks[rank].st.arrived.remove(pos).unwrap();
                    for (i, c) in msg.payload().chunks_exact(8).enumerate() {
                        if let Some(slot) = acc.get_mut(i) {
                            *slot += f64::from_le_bytes(c.try_into().unwrap());
                        }
                    }
                    remaining -= 1;
                    changed = true;
                    if remaining == 0 {
                        self.finish_reduce_root(rank as u16, &acc, recvbuf, tag);
                        return true;
                    }
                }
                if changed {
                    self.ranks[rank].st.status = Status::Blocked(Blocked::ReduceRoot {
                        acc,
                        remaining,
                        recvbuf,
                        tag,
                    });
                }
                changed
            }
            // The fault-aware collectives never unblock on message
            // traffic — their completion is a world-level decision made
            // by `ulfm_progress` once the survivor set has assembled.
            Blocked::Agree { .. } | Blocked::Shrink => false,
        }
    }

    /// Root completion for reduce/allreduce: the allreduce flag is
    /// recovered from whether any peer awaits `tag + 1`.
    fn finish_reduce_root(&mut self, rank: u16, acc: &[f64], recvbuf: u32, tag: u32) {
        // Allreduce peers block on Recv(tag+1); a plain reduce has none.
        let allreduce = self.ranks.iter().any(
            |r| matches!(&r.st.status, Status::Blocked(Blocked::Recv { tag: t, .. }) if *t == tag + 1),
        );
        self.finish_reduce(rank, acc, recvbuf, allreduce, tag);
    }

    /// Run matching to fixpoint.
    fn progress(&mut self) {
        loop {
            let mut any = false;
            for i in 0..self.ranks.len() {
                if self.st.fatal.is_some() {
                    return;
                }
                any |= self.try_unblock(i);
            }
            if !any {
                return;
            }
        }
    }

    // --- process failure: kill + heartbeat detector -----------------------

    /// The one verdict on an armed block-clock fault, taken between
    /// rounds (like an external `kill -9` landing between quanta):
    /// `Some(true)` — the trigger rank's retired-block clock has reached
    /// it, fire; `Some(false)` — the rank finished first, the fault
    /// missed; `None` — keep waiting. Wire faults wait for their message
    /// in [`MpiWorld::strike`] instead.
    fn due(&self, f: &Fault<WorldEffect>) -> Option<bool> {
        let r = &self.ranks[f.rank as usize];
        match f.effect {
            WorldEffect::Wire(_) => None,
            _ if matches!(r.st.status, Status::Exited) => Some(false),
            _ => (r.machine.counters.blocks >= f.at).then_some(true),
        }
    }

    /// Take every due or missed entry out of the plan, firing the due.
    fn fire_due(&mut self) {
        let mut armed = std::mem::take(&mut self.st.plan.armed);
        armed.retain(|f| match self.due(f) {
            Some(fire) => {
                if fire {
                    self.fire(*f);
                }
                false
            }
            None => true,
        });
        self.st.plan.armed = armed;
    }

    /// Apply a due block-clock fault: kill its victims, or open its
    /// window for the drawn number of rounds.
    fn fire(&mut self, f: Fault<WorldEffect>) {
        let (plan, round) = (&mut self.st.plan, self.st.round);
        match f.effect {
            WorldEffect::Wire(_) => unreachable!("wire faults fire in strike()"),
            WorldEffect::Kill { mates, wedge } => {
                for i in 0..self.ranks.len() {
                    let r = &self.ranks[i].st;
                    if (i == f.rank as usize || i < 32 && mates >> i & 1 == 1)
                        && !matches!(r.status, Status::Exited)
                        && matches!(r.health, Health::Alive)
                    {
                        self.obs_record(i, EventKind::RankKilled { wedge });
                        self.ranks[i].st.health = if wedge { Health::Wedged } else { Health::Dead };
                    }
                }
            }
            WorldEffect::Cut { mask, rounds } => {
                plan.cut_mask = mask;
                plan.cut_until = round + rounds.max(1);
            }
            WorldEffect::Tax { permille, rounds } => {
                plan.tax_until = round + rounds.max(1);
                plan.tax_rank = f.rank;
                plan.tax_permille = permille.min(999);
                plan.tax_credit = 0;
            }
            WorldEffect::Hog {
                mask,
                permille,
                rounds,
            } => {
                plan.hog_until = round + rounds.max(1);
                plan.hog_mask = mask;
                plan.hog_permille = permille.min(999);
            }
        }
    }

    /// Per-round starvation accounting for the active quantum tax. The
    /// taxed rank accrues `1000 - tax` credit each round and runs only
    /// on rounds where a full quantum's worth has accrued; every other
    /// round it is *starved* — denied its slice exactly as if an
    /// external hog held the core. Recomputed before failure detection
    /// so the detector can tell "starved" from "silent".
    fn account_starvation(&mut self) {
        let plan = &mut self.st.plan;
        plan.starved = 0;
        if self.st.round >= plan.tax_until {
            return;
        }
        let r = &mut self.ranks[plan.tax_rank as usize];
        if matches!(r.st.status, Status::Exited) || !matches!(r.st.health, Health::Alive) {
            return;
        }
        plan.tax_credit += 1000 - plan.tax_permille as u64;
        if plan.tax_credit >= 1000 {
            plan.tax_credit -= 1000;
        } else {
            plan.starved |= 1 << (plan.tax_rank as u32);
            r.machine.exec_stats.quanta_starved += 1;
        }
    }

    /// One detector pass: probe quiet ranks, declare a rank failed after
    /// the suspicion threshold. Probes and suspicions are charged to the
    /// rank's ring buddy `(r + 1) % n` — the same partner that stores its
    /// buddy checkpoint in the fl-ft recovery model.
    fn detect_failures(&mut self) -> Option<WorldExit> {
        let probe = self.st.cfg.ft.probe_rounds.max(1);
        let suspect = self.st.cfg.ft.suspect_rounds.max(1);
        for i in 0..self.ranks.len() {
            if matches!(self.ranks[i].st.status, Status::Exited) {
                continue; // departed cleanly, not a failure
            }
            let quiet = self.st.round - self.ranks[i].st.last_heard;
            let buddy = (i + 1) % self.ranks.len();
            if self.st.cfg.ulfm && self.st.known_failed >> (i as u32) & 1 == 1 {
                continue; // already app-visible knowledge; stop probing
            }
            // Fixed mode: silence matures at the static deadline.
            // Accrual mode: the deadline is calibrated from the rank's
            // observed progress rate — at least 8x the static deadline
            // and never below 256 rounds (the credit scheduler bounds a
            // starved rank's silence at 1000/(1000-tax) <= 200 rounds
            // for the 995‰ severity cap, so no first-ever starvation
            // gap can trip it whatever cadence the user picked),
            // extended to 4x the longest silence the rank has ever
            // recovered from. A taxed rank keeps ending its gaps and
            // keeps the threshold above them; only a dead or wedged
            // process stays silent past every learned gap.
            let deadline = if self.st.cfg.ft.accrual {
                (suspect * 8)
                    .max(256)
                    .max(self.ranks[i].st.max_gap.saturating_mul(4))
            } else {
                suspect
            };
            if quiet >= deadline {
                let rank = i as u16;
                self.obs_record(
                    buddy,
                    EventKind::RankSuspected {
                        rank,
                        unheard: quiet,
                    },
                );
                if self.st.cfg.ulfm {
                    // App-visible mode: a matured suspicion becomes
                    // failure knowledge the application acts on, not a
                    // world-terminating verdict.
                    self.st.known_failed |= 1 << (i as u32);
                    continue;
                }
                return Some(WorldExit::RankFailed {
                    rank,
                    round: self.st.round,
                });
            }
            if quiet >= probe {
                if quiet.is_multiple_of(probe) {
                    self.obs_record(
                        buddy,
                        EventKind::HeartbeatProbe {
                            to: i as u16,
                            quiet,
                        },
                    );
                }
                if matches!(self.ranks[i].st.health, Health::Alive)
                    && self.st.plan.starved >> (i as u32) & 1 == 0
                {
                    // An alive, scheduled rank answers the (re-sent)
                    // probe even while blocked — only a dead, wedged or
                    // starved process stays silent. (Without a tax,
                    // silence resets exactly at the probe cadence, so
                    // answering on every quiet round past the probe is
                    // bit-identical to answering on the cadence.)
                    self.heard(i);
                }
            }
        }
        None
    }

    // --- ULFM (fl-ulfm): app-visible fault tolerance -----------------------

    /// One ULFM pass per scheduler round: surface failure knowledge to
    /// blocked MPI operations as [`MPIX_ERR_PROC_FAILED`] completions,
    /// then try to conclude the fault-aware collectives whose surviving
    /// participant set has fully assembled.
    fn ulfm_progress(&mut self) {
        if self.st.known_failed != 0 {
            self.ulfm_fail_blocked_ops();
        }
        self.try_complete_agree();
        self.try_shrink();
    }

    /// Error-complete every blocked MPI operation once a failure is
    /// known: one missing participant strands every in-progress
    /// collective (ULFM's "collectives raise MPI_ERR_PROC_FAILED at
    /// every member"), and the world treats a known failure as revoking
    /// point-to-point traffic too, so every rank — dead neighbour or
    /// not — gets an error it can turn into the recovery path instead
    /// of a hang. Only the fault-aware collectives themselves (agree,
    /// shrink) keep blocking.
    fn ulfm_fail_blocked_ops(&mut self) {
        for i in 0..self.ranks.len() {
            if !matches!(self.ranks[i].st.health, Health::Alive) {
                continue;
            }
            let Status::Blocked(b) = &self.ranks[i].st.status else {
                continue;
            };
            let doomed = !matches!(b, Blocked::Agree { .. } | Blocked::Shrink);
            if doomed {
                self.complete(i as u16, Some(MPIX_ERR_PROC_FAILED));
            }
        }
    }

    /// Conclude MPIX_Comm_agree once every surviving participant has
    /// arrived. Participants are the ranks not yet known failed and not
    /// cleanly exited; a dead-but-undetected process therefore holds the
    /// agreement until its suspicion matures — agreement is only reached
    /// over *stable* failure knowledge. The result is the OR of every
    /// contributed flag, with bit 0 forced when any failure is known.
    fn try_complete_agree(&mut self) {
        let mut result = if self.st.known_failed != 0 { 1u32 } else { 0 };
        let mut arrived = Vec::new();
        for i in 0..self.ranks.len() {
            if self.st.known_failed >> (i as u32) & 1 == 1 {
                continue;
            }
            if matches!(self.ranks[i].st.status, Status::Exited) {
                continue;
            }
            match &self.ranks[i].st.status {
                Status::Blocked(Blocked::Agree { flag }) => {
                    result |= *flag;
                    arrived.push(i as u16);
                }
                _ => return,
            }
        }
        if arrived.is_empty() {
            return;
        }
        for r in arrived {
            self.complete(r, Some(result));
        }
    }

    /// Conclude MPIX_Comm_shrink once (a) every not-known-failed,
    /// not-exited rank is blocked in it and (b) failure knowledge is
    /// complete — every dead or wedged process has been detected — so
    /// the survivor set is stable before the world is rebuilt over it.
    fn try_shrink(&mut self) {
        let mut any_blocked = false;
        for i in 0..self.ranks.len() {
            let known = self.st.known_failed >> (i as u32) & 1 == 1;
            if !matches!(self.ranks[i].st.health, Health::Alive) && !known {
                return; // a failure the detector has not matured yet
            }
            if known || matches!(self.ranks[i].st.status, Status::Exited) {
                continue;
            }
            if !matches!(self.ranks[i].st.status, Status::Blocked(Blocked::Shrink)) {
                return;
            }
            any_blocked = true;
        }
        if any_blocked {
            self.compact_world();
        }
    }

    /// Rebuild the world over the survivors: failed processes are
    /// dropped, survivors keep their relative order and are renumbered
    /// contiguously, and — exactly like MPIX_Comm_shrink handing back a
    /// brand-new communicator — all stale traffic and sequence state of
    /// the old world is discarded. Application checkpoints
    /// (`fl_ckpt_save`) survive; that is the point of them.
    fn compact_world(&mut self) {
        let dead: Vec<u16> = (0..self.ranks.len() as u16)
            .filter(|&i| !matches!(self.ranks[i as usize].st.health, Health::Alive))
            .collect();
        let survivors = std::mem::take(&mut self.ranks)
            .into_iter()
            .filter(|r| matches!(r.st.health, Health::Alive))
            .collect::<Vec<_>>();
        self.ranks = survivors;
        let new_n = self.ranks.len() as u16;
        // Armed faults were drawn against the old numbering: follow
        // surviving ranks through the renumbering; a fault triggered by
        // a dropped rank dies with it.
        let remap = |r: u16| -> Option<u16> {
            if dead.contains(&r) {
                return None;
            }
            Some(r - dead.iter().filter(|&&d| d < r).count() as u16)
        };
        let remap_mask = |mask: u32| -> u32 {
            let mut m = 0;
            for old in 0..32u16 {
                if mask >> old & 1 == 1 {
                    if let Some(new) = remap(old) {
                        m |= 1 << new;
                    }
                }
            }
            m
        };
        let plan = &mut self.st.plan;
        plan.armed = std::mem::take(&mut plan.armed)
            .into_iter()
            .filter_map(|mut f| {
                f.rank = remap(f.rank)?;
                match &mut f.effect {
                    WorldEffect::Kill { mates: m, .. }
                    | WorldEffect::Cut { mask: m, .. }
                    | WorldEffect::Hog { mask: m, .. } => *m = remap_mask(*m),
                    WorldEffect::Wire(_) | WorldEffect::Tax { .. } => {}
                }
                Some(f)
            })
            .collect();
        plan.cut_mask = remap_mask(plan.cut_mask);
        if self.st.round < plan.tax_until {
            match remap(plan.tax_rank) {
                Some(nr) => plan.tax_rank = nr,
                None => {
                    // The taxed rank died with the old world.
                    plan.tax_until = 0;
                    plan.tax_credit = 0;
                }
            }
        }
        plan.hog_mask = remap_mask(plan.hog_mask);
        plan.starved = remap_mask(plan.starved);
        self.st.shrinks += 1;
        self.st.known_failed = 0;
        self.st.idle_rounds = 0;
        self.st.pending_redelivery.clear();
        self.st.retx_attempts.clear();
        let round = self.st.round;
        for r in &mut self.ranks {
            r.st.arrived.clear();
            r.st.sent_history.clear();
            r.st.send_seq = 0;
            r.st.coll_seq = 0;
            r.st.acked = 0;
            r.st.last_heard = round;
        }
        for f in dead {
            self.note_world_shrunk(f, new_n);
        }
        for i in 0..self.ranks.len() {
            if matches!(self.ranks[i].st.status, Status::Blocked(Blocked::Shrink)) {
                self.complete(i as u16, Some(i as u32));
            }
        }
    }

    // --- the scheduler ----------------------------------------------------

    /// Run the world to completion and classify the outcome.
    pub fn run(&mut self) -> WorldExit {
        loop {
            if let Some(e) = self.run_round() {
                return e;
            }
        }
    }

    /// Run one scheduler round (each runnable rank gets one quantum).
    /// Returns the outcome when the world finishes; `None` to continue.
    /// Exposed so external monitors — e.g. the §7 progress-metric
    /// watchdog — can sample counters between rounds.
    pub fn run_round(&mut self) -> Option<WorldExit> {
        self.st.round += 1;
        if let Some(f) = self.st.fatal.take() {
            return Some(f);
        }
        if !self.st.plan.armed.is_empty() {
            self.fire_due();
        }
        // Starvation state must be current *before* detection runs, so
        // the detector knows a silent rank was denied its quantum this
        // round rather than dead.
        self.account_starvation();
        if self.st.cfg.ft.enabled {
            if let Some(e) = self.detect_failures() {
                return Some(e);
            }
        }
        if self.st.cfg.ulfm {
            self.ulfm_progress();
            if let Some(f) = self.st.fatal.take() {
                return Some(f);
            }
        }
        if !self.st.pending_redelivery.is_empty() {
            self.drain_redeliveries();
            if let Some(f) = self.st.fatal.take() {
                return Some(f);
            }
        }
        self.progress();
        if let Some(f) = self.st.fatal.take() {
            return Some(f);
        }
        if self
            .ranks
            .iter()
            .all(|r| matches!(r.st.status, Status::Exited))
        {
            return Some(WorldExit::Clean);
        }
        let mut order: Vec<usize> = (0..self.ranks.len())
            .filter(|&i| {
                matches!(self.ranks[i].st.status, Status::Ready | Status::Finalized)
                    && matches!(self.ranks[i].st.health, Health::Alive)
                    && self.st.plan.starved >> (i as u32) & 1 == 0
            })
            .collect();
        // Finalized ranks still need to run to their exit.
        if order.is_empty() {
            // A starved rank is interference, not deadlock: its credit
            // keeps accruing and it runs again within the tax cadence.
            if self.st.plan.starved != 0 {
                return None;
            }
            // A redelivery still waiting out its backoff is traffic: let
            // rounds elapse until it becomes due, this is not a deadlock —
            // unless it is due further ahead than a world may take rounds
            // that retire a full quantum each before its budget runs out.
            // Idle rounds retire nothing, so the budget would never end
            // the wait.
            if let Some(due) = self.st.pending_redelivery.iter().map(|r| r.due_round).min() {
                let cfg = &self.st.cfg;
                let bound = cfg.machine.budget / cfg.quantum.max(1);
                if due.saturating_sub(self.st.round) > bound {
                    return Some(WorldExit::Hung {
                        reason: format!(
                            "no runnable rank, and the next redelivery is due at round \
                             {due}, more than {bound} rounds (budget / quantum) ahead"
                        ),
                    });
                }
                return None;
            }
            // App-visible mode replaces the instant deadlock verdict with
            // a bounded idle window: the application may be legitimately
            // waiting for suspicion to mature, or for the survivor set of
            // an agree/shrink to assemble. A world that stays wedged past
            // the bound really is hung.
            if self.st.cfg.ulfm {
                self.st.idle_rounds += 1;
                let bound = self.st.cfg.ft.suspect_rounds.max(1) * 4 + 64;
                if self.st.idle_rounds > bound {
                    return Some(WorldExit::Hung {
                        reason: format!(
                            "ulfm: no runnable rank for {} rounds \
                             (failure knowledge {:#x})",
                            self.st.idle_rounds, self.st.known_failed
                        ),
                    });
                }
                return None;
            }
            // A dead or wedged rank quiesces its peers; with the failure
            // detector on, rounds keep elapsing until suspicion matures
            // into `RankFailed` instead of an instant deadlock verdict.
            if self.st.cfg.ft.enabled
                && self
                    .ranks
                    .iter()
                    .any(|r| !matches!(r.st.health, Health::Alive))
            {
                self.st.held_rounds += 1;
                return None;
            }
            // Everyone blocked or exited, and progress() found nothing:
            // deadlock.
            let blocked: Vec<u16> = (0..self.ranks.len() as u16)
                .filter(|&i| matches!(self.ranks[i as usize].st.status, Status::Blocked(_)))
                .collect();
            let clocks: Vec<u64> = self
                .ranks
                .iter()
                .map(|r| r.machine.counters.blocks)
                .collect();
            return Some(WorldExit::Hung {
                reason: format!(
                    "deadlock: ranks {blocked:?} blocked with no traffic \
                     (block clocks {clocks:?})"
                ),
            });
        }
        self.st.idle_rounds = 0;
        if self.st.cfg.nondet {
            order.shuffle(&mut self.st.rng);
        }
        for i in order {
            if self.st.fatal.is_some() {
                break;
            }
            if !matches!(self.ranks[i].st.status, Status::Ready | Status::Finalized) {
                continue;
            }
            self.step_rank(i);
            self.progress();
        }
        None
    }

    fn step_rank(&mut self, i: usize) {
        let mut quantum = self.st.cfg.quantum;
        // An active hog steals its share of every victim's quantum.
        let plan = &self.st.plan;
        if self.st.round < plan.hog_until && plan.hog_mask >> (i as u32) & 1 == 1 {
            quantum = (quantum * (1000 - plan.hog_permille as u64) / 1000).max(1);
        }
        {
            // fl-perturb effective-quantum telemetry: what the scheduler
            // actually handed out after hog scaling.
            let st = &mut self.ranks[i].machine.exec_stats;
            st.quanta_granted += 1;
            st.quantum_insns_granted += quantum;
        }
        // A pending injection on this rank fires *inside* the quantum:
        // run to the fire point, apply the fault, run the remainder. The
        // rank's quanta therefore end where the golden run's end, so a
        // fault that leaves the instruction path alone leaves the whole
        // schedule alone (every later round boundary is a golden one).
        let stop_at = self.ranks[i].machine.counters.insns.saturating_add(quantum);
        let exit = loop {
            let done = self.ranks[i].machine.counters.insns;
            let mut slice = stop_at.saturating_sub(done);
            if let Some(Fault {
                at,
                effect: Effect::Action { action, period },
                ..
            }) = self.injection.as_mut().filter(|f| f.rank as usize == i)
            {
                if done >= *at {
                    action(&mut self.ranks[i].machine);
                    // Persistent faults re-arm for the next assertion;
                    // transient ones are spent.
                    match *period {
                        Some(p) => *at = done + p,
                        None => self.injection = None,
                    }
                    self.obs_record(i, EventKind::FaultFired { at_insns: done });
                    continue;
                }
                slice = slice.min(*at - done);
            }
            if slice == 0 {
                break Exit::Quantum;
            }
            let exit = self.ranks[i].machine.run(slice);
            if exit != Exit::Quantum {
                break exit;
            }
        };
        if self.st.cfg.ft.enabled {
            // Executing a quantum is life (piggybacked heartbeat).
            self.heard(i);
        }
        let rank = i as u16;
        match exit {
            Exit::Quantum => {}
            Exit::Mpi(call) => {
                if matches!(self.ranks[i].st.status, Status::Finalized) && call != Syscall::MpiAbort
                {
                    self.fatal(WorldExit::Crashed {
                        rank,
                        reason: format!("{call:?} after MPI_Finalize"),
                    });
                } else {
                    self.service(rank, call);
                }
            }
            Exit::Halted(code) => {
                let finalized = matches!(self.ranks[i].st.status, Status::Finalized);
                if !finalized {
                    self.fatal(WorldExit::Crashed {
                        rank,
                        reason: "process exited before MPI_Finalize".into(),
                    });
                } else if code != 0 {
                    self.fatal(WorldExit::Crashed {
                        rank,
                        reason: format!("nonzero exit status {code}"),
                    });
                } else {
                    self.ranks[i].st.status = Status::Exited;
                }
            }
            Exit::Signal(sig) => {
                self.fatal(WorldExit::Crashed {
                    rank,
                    reason: sig.to_string(),
                });
            }
            Exit::HeapCorruption(e) => {
                self.fatal(WorldExit::Crashed {
                    rank,
                    reason: format!("glibc abort: {e:?}"),
                });
            }
            Exit::Abort(msg) => {
                self.fatal(WorldExit::AppAborted { rank, msg });
            }
            Exit::Budget => {
                let blocks = self.ranks[i].machine.counters.blocks;
                self.fatal(WorldExit::Hung {
                    reason: format!(
                        "rank {rank} exhausted its instruction budget \
                         (block clock {blocks})"
                    ),
                });
            }
        }
    }
}

// --- checkpointing -------------------------------------------------------

/// Deep checkpoint of one rank: the machine plus all scheduler-visible
/// bookkeeping.
#[derive(Clone, PartialEq)]
struct RankSnapshot {
    machine: MachineSnapshot,
    st: RankState,
}

/// A complete deterministic checkpoint of an [`MpiWorld`], produced by
/// [`MpiWorld::snapshot`]. Cloning one is cheap: machine memory is shared
/// copy-on-write at page granularity, so N clones (and the worlds restored
/// from them) share every page that none of them has written.
///
/// Restoring yields a world whose subsequent execution is bit-identical
/// to the captured one (an armed [`Effect::Action`] excepted — see
/// [`MpiWorld::snapshot`]).
#[derive(Clone, PartialEq)]
pub struct WorldSnapshot {
    ranks: Vec<RankSnapshot>,
    st: WorldState,
}

impl WorldSnapshot {
    /// Rebuild a runnable world from the checkpoint.
    pub fn restore(&self) -> MpiWorld {
        MpiWorld {
            ranks: self
                .ranks
                .iter()
                .map(|r| Rank {
                    machine: r.machine.to_machine(),
                    st: r.st.clone(),
                })
                .collect(),
            st: self.st.clone(),
            injection: None,
        }
    }

    /// Number of ranks captured.
    pub fn nranks(&self) -> u16 {
        self.ranks.len() as u16
    }

    /// Hold `like`'s copy of every memory page whose bytes equal this
    /// checkpoint's at the same rank and address
    /// ([`fl_machine::MemorySnapshot::share_pages`]): checkpoints of two
    /// worlds that computed alike keep one copy of their memory. What
    /// the checkpoint restores is unchanged.
    pub fn share_pages(&mut self, like: &WorldSnapshot) {
        for (r, l) in self.ranks.iter_mut().zip(&like.ranks) {
            r.machine.mem.share_pages(&l.machine.mem);
        }
    }

    /// Replace the per-rank instruction budget (the hang bound) carried
    /// by the checkpoint. A campaign's golden pass must run before the
    /// trial budget is known — the budget is derived from the golden
    /// instruction counts — so its checkpoints are patched afterwards;
    /// a run that stays under both budgets is the same run under either.
    pub fn set_budget(&mut self, budget: u64) {
        self.st.cfg.machine.budget = budget;
        for r in &mut self.ranks {
            r.machine.budget = budget;
        }
    }

    /// Scheduler round at capture time.
    pub fn round(&self) -> u64 {
        self.st.round
    }

    /// A rank's captured machine state.
    pub fn machine(&self, rank: u16) -> &MachineSnapshot {
        &self.ranks[rank as usize].machine
    }

    /// Rank-local instructions retired at capture time — the epoch
    /// eligibility key for register/memory trials.
    pub fn rank_insns(&self, rank: u16) -> u64 {
        self.ranks[rank as usize].machine.counters.insns
    }

    /// Cumulative channel bytes received at capture time — the epoch
    /// eligibility key for message trials.
    pub fn rank_received_bytes(&self, rank: u16) -> u64 {
        self.ranks[rank as usize].st.received_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_apps::{App, AppKind, AppParams};

    /// World construction as it was before [`Launch`]: every rank loads
    /// the image for itself. The reference [`Launch::world`] is held to.
    fn loaded_per_rank(image: &ProgramImage, cfg: WorldConfig) -> MpiWorld {
        let code = SharedCode::build(image);
        let mut world = Launch::new(image, cfg.machine, Some(&code)).world(cfg);
        for r in &mut world.ranks {
            r.machine = Machine::load_shared(image, cfg.machine, Some(&code));
        }
        world
    }

    /// The app's own configuration (`App::world_config`, restated on this
    /// build's `WorldConfig`: fl-apps links the crate, not its test build).
    fn config(app: &App, fastpath: bool, obs_capacity: u32) -> WorldConfig {
        let ulfm = app.kind == AppKind::Jacobi3d;
        WorldConfig {
            nranks: app.params.nranks,
            nondet: app.kind == AppKind::Moldyn,
            seed: app.params.seed,
            machine: MachineConfig {
                budget: 2_000_000_000,
                fastpath,
                obs_capacity,
                ..Default::default()
            },
            eager_threshold: if app.kind == AppKind::Moldyn {
                512
            } else {
                1024
            },
            ulfm,
            ft: FailureDetector {
                enabled: ulfm,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Everything a finished world shows.
    fn finished(mut w: MpiWorld) -> (WorldExit, WorldSnapshot, Vec<Vec<fl_obs::Event>>) {
        let exit = w.run();
        (exit, w.snapshot(), w.event_streams())
    }

    #[test]
    fn launched_worlds_equal_loaded_worlds() {
        for kind in AppKind::ALL {
            let app = App::build(kind, AppParams::tiny(kind));
            for (fastpath, ring) in [(true, 0), (true, 64), (false, 0), (false, 64)] {
                let what = format!("{kind:?}, fastpath {fastpath}, ring {ring}");
                let cfg = config(&app, fastpath, ring);
                // Loaded under another budget: each world brings its own.
                let other = MachineConfig {
                    budget: 1,
                    ..cfg.machine
                };
                let launch = Launch::new(&app.image, other, None);
                let (launched, loaded) = (launch.world(cfg), loaded_per_rank(&app.image, cfg));
                assert!(launched.snapshot() == loaded.snapshot(), "{what}: pristine");

                // Exit, output, per-rank counters, rounds: the snapshot
                // holds them all.
                let reference = finished(loaded);
                assert_eq!(reference.0, WorldExit::Clean, "{what}");
                assert!(finished(launched) == reference, "{what}: after run()");
                let one_shot = MpiWorld::new(&app.image, cfg);
                assert!(finished(one_shot) == reference, "{what}: one-shot");

                // One launch, two threads: the same worlds.
                let run = || finished(launch.world(cfg));
                let (a, b) = std::thread::scope(|s| {
                    let (a, b) = (s.spawn(run), s.spawn(run));
                    (a.join().expect("ran"), b.join().expect("ran"))
                });
                assert!(a == reference && b == reference, "{what}: threads");
            }
        }
    }

    #[test]
    fn ranks_share_pages_until_one_writes() {
        let kind = AppKind::Wavetoy;
        let app = App::build(kind, AppParams::tiny(kind));
        let cfg = config(&app, true, 0);
        let launch = Launch::new(&app.image, cfg.machine, None);
        let mut w = launch.world(cfg);
        let pages = |w: &MpiWorld, r: u16| w.machine(r).snapshot().mem;
        let resident = pages(&w, 0).resident_pages();
        assert!(resident > 0);
        assert_eq!(pages(&w, 0).pages_shared_with(&pages(&w, 1)), resident);

        let addr = app.image.data_base();
        let before = w.machine(1).mem.peek_u8(addr);
        w.machine_mut(0).poke_mem(addr, &[!before]);
        assert_eq!(w.machine(0).mem.peek_u8(addr), !before);
        assert_eq!(w.machine(1).mem.peek_u8(addr), before, "rank 1");
        assert_eq!(launch.world(cfg).machine(0).mem.peek_u8(addr), before);
        assert_eq!(
            pages(&w, 0).pages_shared_with(&pages(&w, 1)),
            resident - 1,
            "the write copied one page"
        );
    }
}
