//! # fl-apps — the FaultLab application suite
//!
//! Four MPI applications written in FL. Three stand in for the paper's
//! test suite (§4.2) with each code's behavioural archetype preserved;
//! the fourth, [`AppKind::Jacobi3d`], is the fl-ulfm demonstrator — the
//! only app that *survives* rank death by itself, using the MPIX-style
//! fault-tolerance builtins:
//!
//! | App | Paper counterpart | Archetype |
//! |---|---|---|
//! | [`AppKind::Wavetoy`] | Cactus Wavetoy | data-dominated traffic, near-zero payloads, low-precision text output, **no** internal checks |
//! | [`AppKind::Moldyn`] | NAMD 2.5b2 | nondeterministic arrival order, message checksums, NaN/bound checks, MPI error handler, heap-dominant |
//! | [`AppKind::Climsim`] | CAM 2.0.2 | control-dominated traffic, big initialised tables, moisture minimum check, MPI error handler, binary output |
//! | [`AppKind::Jacobi3d`] | jac_3d (ULFM literature) | app-level fault tolerance: control-point checkpoints, `mpix_comm_agree`/`mpix_comm_shrink` recovery |
//!
//! Each app is generated from parameters (problem size, step count, and
//! cold/warm code volume for realistic text working sets), compiled with
//! `fl-lang`, and returned with its [`ProgramImage`] ready to load into an
//! [`MpiWorld`].

pub mod climsim;
pub mod coldgen;
pub mod jacobi3d;
pub mod moldyn;
pub mod profile;
pub mod wavetoy;

pub use profile::{profile, render_profile_table, ProfileRow};

use fl_machine::{MachineConfig, ProgramImage};
use fl_mpi::{MpiWorld, TrafficProfile, WorldConfig, WorldExit};

/// Which application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Cactus Wavetoy analogue.
    Wavetoy,
    /// NAMD analogue.
    Moldyn,
    /// CAM analogue.
    Climsim,
    /// Jacobi 3-D relaxation with ULFM-style app-level fault tolerance.
    Jacobi3d,
}

impl AppKind {
    /// All four applications: the paper's three, then the fl-ulfm
    /// demonstrator.
    pub const ALL: [AppKind; 4] = [
        AppKind::Wavetoy,
        AppKind::Moldyn,
        AppKind::Climsim,
        AppKind::Jacobi3d,
    ];

    /// The paper's test suite (§4.2), in table order. The
    /// paper-reproduction artifacts (Tables 1–7, message analysis) are
    /// generated over exactly this set so their committed outputs stay
    /// pinned to the source tables; jacobi3d joins the fault-tolerance
    /// campaigns through [`AppKind::ALL`].
    pub const PAPER: [AppKind; 3] = [AppKind::Wavetoy, AppKind::Moldyn, AppKind::Climsim];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Wavetoy => "wavetoy",
            AppKind::Moldyn => "moldyn",
            AppKind::Climsim => "climsim",
            AppKind::Jacobi3d => "jacobi3d",
        }
    }

    /// Does the application carry fl-ulfm recovery code of its own —
    /// recover from a lost rank by itself when the world reports the
    /// failure to it instead of terminating?
    pub fn owns_recovery(self) -> bool {
        self == AppKind::Jacobi3d
    }

    /// World configuration for this app at `params`, which is all it
    /// depends on — no image needed. Moldyn runs with nondeterministic
    /// scheduling (§4.2.2) and a lower eager threshold (its Charm++-style
    /// runtime favours rendezvous for position blocks); the others run
    /// deterministically with the default threshold. An app that owns its
    /// recovery ([`AppKind::owns_recovery`]: jacobi3d) runs in ulfm mode
    /// with the failure detector on — its fault tolerance lives in the
    /// application, so the world must report failures to it rather than
    /// terminate (harmless on a fault-free run: the detector only matures
    /// suspicion for ranks that actually stop heartbeating).
    pub fn world_config(self, params: &AppParams, budget: u64) -> WorldConfig {
        let ulfm = self.owns_recovery();
        let mut ft = fl_mpi::FailureDetector::default();
        if ulfm {
            ft.enabled = true;
        }
        WorldConfig {
            nranks: params.nranks,
            nondet: self == AppKind::Moldyn,
            seed: params.seed,
            machine: MachineConfig {
                budget,
                ..Default::default()
            },
            eager_threshold: if self == AppKind::Moldyn { 512 } else { 1024 },
            ulfm,
            ft,
            ..Default::default()
        }
    }

    /// The paper application this stands in for.
    pub fn paper_name(self) -> &'static str {
        match self {
            AppKind::Wavetoy => "Cactus Wavetoy",
            AppKind::Moldyn => "NAMD",
            AppKind::Climsim => "CAM",
            AppKind::Jacobi3d => "jac_3d",
        }
    }
}

impl std::fmt::Display for AppKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for AppKind {
    type Err = String;

    /// Parses the canonical [`AppKind::name`] strings — the single
    /// source of truth for CLI arguments and config files.
    fn from_str(s: &str) -> Result<AppKind, String> {
        Ok(match s {
            "wavetoy" => AppKind::Wavetoy,
            "moldyn" => AppKind::Moldyn,
            "climsim" => AppKind::Climsim,
            "jacobi3d" => AppKind::Jacobi3d,
            other => return Err(format!("unknown app `{other}`")),
        })
    }
}

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppParams {
    /// Number of MPI ranks.
    pub nranks: u16,
    /// Time steps.
    pub steps: u32,
    /// App-specific base size (rows for wavetoy, atoms/rank for moldyn,
    /// columns/rank for climsim).
    pub scale: u32,
    /// Cold (never-called) generated functions.
    pub cold_fns: u32,
    /// Warm (called once at startup) generated functions.
    pub warm_fns: u32,
    /// Generation seed.
    pub seed: u64,
}

impl AppParams {
    /// Default experiment-scale parameters for an app (used by the
    /// campaign harness; minutes-scale runs in the paper map to ~10⁶
    /// instructions per rank here).
    pub fn default_for(kind: AppKind) -> AppParams {
        match kind {
            AppKind::Wavetoy => AppParams {
                nranks: 4,
                steps: 12,
                scale: 12, // 12 rows x 48 cols per rank
                cold_fns: 180,
                warm_fns: 30,
                seed: 0x57A7,
            },
            AppKind::Moldyn => AppParams {
                nranks: 4,
                steps: 5,
                scale: 40, // atoms per rank (648-byte exchanges: rendezvous
                // under moldyn's 512-byte eager threshold)
                cold_fns: 260,
                warm_fns: 24,
                seed: 0x0A70,
            },
            AppKind::Climsim => AppParams {
                nranks: 4,
                steps: 10,
                scale: 24, // columns per rank
                cold_fns: 220,
                warm_fns: 40,
                seed: 0xC114,
            },
            AppKind::Jacobi3d => AppParams {
                nranks: 4,
                steps: 12,
                scale: 10, // global grid edge (10^3 cells, strong-scaled)
                cold_fns: 160,
                warm_fns: 24,
                seed: 0x3D3D,
            },
        }
    }

    /// Small parameters for fast unit tests.
    pub fn tiny(kind: AppKind) -> AppParams {
        match kind {
            AppKind::Wavetoy => AppParams {
                nranks: 3,
                steps: 6,
                scale: 8,
                cold_fns: 20,
                warm_fns: 6,
                seed: 0x57A7,
            },
            AppKind::Moldyn => AppParams {
                nranks: 3,
                steps: 3,
                scale: 36,
                cold_fns: 20,
                warm_fns: 6,
                seed: 0x0A70,
            },
            AppKind::Climsim => AppParams {
                nranks: 3,
                steps: 8,
                scale: 8,
                cold_fns: 20,
                warm_fns: 6,
                seed: 0xC114,
            },
            AppKind::Jacobi3d => AppParams {
                nranks: 3,
                steps: 7,
                scale: 8,
                cold_fns: 20,
                warm_fns: 6,
                seed: 0x3D3D,
            },
        }
    }
}

/// Application build variants for the design-choice ablations of
/// §6.2/§7 (see DESIGN.md experiments E11 and E12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppVariant {
    /// The configuration the paper's tables were measured on.
    Standard,
    /// Moldyn without its message checksums (identical traffic; neither
    /// side computes sums) — isolates the checksum's cost and coverage.
    NoChecksums,
    /// Wavetoy writing raw IEEE-754 output instead of 4-digit text —
    /// removes the output-format masking of silent corruption.
    BinaryOutput,
    /// Any app compiled with control-flow signature checking (§8.2's
    /// software-signature defence against text/EIP faults).
    ControlFlowChecks,
}

/// A built application: generated source, compiled image, parameters.
#[derive(Clone)]
pub struct App {
    /// Which app this is.
    pub kind: AppKind,
    /// The generated FL source (kept for inspection/debugging).
    pub source: String,
    /// The linked program image.
    pub image: ProgramImage,
    /// The parameters it was generated with.
    pub params: AppParams,
}

/// A fault-free reference run: the comparison baseline for the
/// Incorrect-Output classification (§5.1) and the sampling frame for
/// injection times and message offsets (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    /// The app's comparable output (see [`App::comparable_output`]).
    pub output: Vec<u8>,
    /// Per-rank retired instruction counts.
    pub insns: Vec<u64>,
    /// Per-rank channel-level received bytes (the message-volume profile
    /// used to draw injection offsets, §3.3).
    pub recv_bytes: Vec<u64>,
    /// Per-rank traffic profiles.
    pub profiles: Vec<TrafficProfile>,
    /// Per-rank basic-block counts.
    pub blocks: Vec<u64>,
    /// Per-rank peak heap size in bytes (Table 1's stable heap size).
    pub heap_peak: Vec<u64>,
    /// Per-rank peak stack usage in bytes (the paper measured 5–10 KB).
    pub stack_peak: Vec<u64>,
}

impl App {
    /// Generate and compile an application.
    ///
    /// # Panics
    ///
    /// Panics if the generated source fails to compile — that is a bug in
    /// the generator, not a runtime condition.
    pub fn build(kind: AppKind, params: AppParams) -> App {
        Self::build_variant(kind, params, AppVariant::Standard)
    }

    /// Generate and compile an ablation variant (see [`AppVariant`]).
    ///
    /// # Panics
    ///
    /// Panics on a generator bug (compile failure) or on a variant that
    /// does not apply to the requested application.
    pub fn build_variant(kind: AppKind, params: AppParams, variant: AppVariant) -> App {
        let source = match (kind, variant) {
            (_, AppVariant::Standard | AppVariant::ControlFlowChecks) => match kind {
                AppKind::Wavetoy => wavetoy::source(&params),
                AppKind::Moldyn => moldyn::source(&params),
                AppKind::Climsim => climsim::source(&params),
                AppKind::Jacobi3d => jacobi3d::source(&params),
            },
            (AppKind::Wavetoy, AppVariant::BinaryOutput) => wavetoy::source_with(&params, true),
            (AppKind::Moldyn, AppVariant::NoChecksums) => moldyn::source_with(&params, false),
            (k, v) => panic!("variant {v:?} does not apply to {}", k.name()),
        };
        let opts = fl_lang::CompileOptions {
            control_flow_checks: variant == AppVariant::ControlFlowChecks,
        };
        let image = fl_lang::compile_with(&source, &opts)
            .unwrap_or_else(|e| panic!("{} does not compile: {e}", kind.name()));
        App {
            kind,
            source,
            image,
            params,
        }
    }

    /// World configuration for this app: [`AppKind::world_config`] at
    /// its parameters.
    pub fn world_config(&self, budget: u64) -> WorldConfig {
        self.kind.world_config(&self.params, budget)
    }

    /// Create a world running this app.
    pub fn world(&self, budget: u64) -> MpiWorld {
        MpiWorld::new(&self.image, self.world_config(budget))
    }

    /// Create a world with an explicit scheduling seed (nondeterminism
    /// studies).
    pub fn world_with_seed(&self, budget: u64, seed: u64) -> MpiWorld {
        let mut cfg = self.world_config(budget);
        cfg.seed = seed;
        MpiWorld::new(&self.image, cfg)
    }

    /// Create a world in trace mode (working-set analysis, Tables 5–7):
    /// every rank stamps its reads with its block clock on the slow path
    /// (see `MachineConfig::trace`); collect a rank's stamps with
    /// `Machine::take_read_stamps` after the run.
    pub fn traced_world(&self, budget: u64) -> MpiWorld {
        let mut cfg = self.world_config(budget);
        cfg.machine.trace = true;
        MpiWorld::new(&self.image, cfg)
    }

    /// The output stream this app's correctness is judged on (§4.2):
    /// wavetoy's text output file, moldyn's console energy log, climsim's
    /// binary history file — always from rank 0.
    pub fn comparable_output(&self, world: &MpiWorld) -> Vec<u8> {
        match self.kind {
            AppKind::Wavetoy | AppKind::Climsim | AppKind::Jacobi3d => {
                world.machine(0).outfile.clone()
            }
            AppKind::Moldyn => world.machine(0).console.clone(),
        }
    }

    /// Perform a fault-free reference run.
    ///
    /// # Panics
    ///
    /// Panics if the clean run does not complete cleanly — the golden run
    /// is the experiment's precondition.
    pub fn golden(&self, budget: u64) -> Golden {
        let mut w = self.world(budget);
        let exit = w.run();
        self.golden_of(&w, &exit)
    }

    /// The reference record of a fault-free run of this app that has
    /// already happened: `w` is the finished world and `exit` how it
    /// ended. Lets a caller that runs the golden world itself (to take
    /// checkpoints along the way) get the [`Golden`] from the same pass.
    ///
    /// # Panics
    ///
    /// Panics if the run did not end cleanly, like [`App::golden`].
    pub fn golden_of(&self, w: &MpiWorld, exit: &WorldExit) -> Golden {
        assert_eq!(
            *exit,
            WorldExit::Clean,
            "{}: golden run must be clean",
            self.kind.name()
        );
        let n = self.params.nranks;
        Golden {
            output: self.comparable_output(w),
            insns: (0..n).map(|r| w.machine(r).counters.insns).collect(),
            recv_bytes: (0..n).map(|r| w.received_bytes(r)).collect(),
            profiles: (0..n).map(|r| *w.profile(r)).collect(),
            blocks: (0..n).map(|r| w.machine(r).counters.blocks).collect(),
            heap_peak: (0..n)
                .map(|r| w.machine(r).heap.peak_bytes() as u64)
                .collect(),
            stack_peak: (0..n)
                .map(|r| w.machine(r).peak_stack_bytes() as u64)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_build() {
        for kind in AppKind::ALL {
            let app = App::build(kind, AppParams::tiny(kind));
            assert!(!app.image.text.is_empty());
            assert!(app.image.symbols.iter().any(|s| s.name == "main"));
        }
    }

    #[test]
    fn golden_runs_are_clean_and_self_consistent() {
        for kind in AppKind::ALL {
            let app = App::build(kind, AppParams::tiny(kind));
            let g = app.golden(200_000_000);
            assert!(!g.output.is_empty(), "{}", kind.name());
            assert_eq!(g.insns.len(), app.params.nranks as usize);
            assert!(
                g.insns.iter().all(|&i| i > 10_000),
                "{}: {:?}",
                kind.name(),
                g.insns
            );
            assert!(g.recv_bytes.iter().all(|&b| b > 0));
        }
    }

    #[test]
    fn cold_code_bulks_text() {
        let small = App::build(
            AppKind::Wavetoy,
            AppParams {
                cold_fns: 0,
                warm_fns: 1,
                ..AppParams::tiny(AppKind::Wavetoy)
            },
        );
        let big = App::build(
            AppKind::Wavetoy,
            AppParams {
                cold_fns: 100,
                warm_fns: 1,
                ..AppParams::tiny(AppKind::Wavetoy)
            },
        );
        assert!(big.image.text.len() > small.image.text.len() * 3);
    }

    #[test]
    fn apps_have_distinct_traffic_archetypes() {
        // The three apps must reproduce Table 1's distribution shape:
        // wavetoy and moldyn data-dominated, climsim header-dominated.
        let mut user_pcts = Vec::new();
        for kind in AppKind::ALL {
            let app = App::build(kind, AppParams::tiny(kind));
            let g = app.golden(200_000_000);
            let mut total = TrafficProfile::default();
            for p in &g.profiles {
                total.merge(p);
            }
            user_pcts.push((kind, total.user_percent()));
        }
        let get = |k: AppKind| user_pcts.iter().find(|(kk, _)| *kk == k).unwrap().1;
        assert!(get(AppKind::Wavetoy) > 60.0);
        assert!(get(AppKind::Moldyn) > 60.0);
        assert!(get(AppKind::Climsim) < 50.0);
    }
}
