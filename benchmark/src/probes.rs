//! Layer probes: direct, timed calls to each layer's public functions on
//! the workload's own apps, plus four FL micro-programs (`fl/*.fl`) for
//! the machine, MPI and guard layers. Each timed call is also a span.
//!
//! Only entry points the roadmap does not schedule for deletion are used;
//! the benchmark cannot be edited by the changes it later judges.

use crate::checks::Tally;
use crate::pass::{run_campaign_inproc, Daemon};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workloads::{apps_of, spec_doc, SpecDoc, Variant};
use fl_apps::{App, AppKind, AppParams};
use fl_guard::GuardPolicy;
use fl_inject::{
    parse_record_line, record_line, sort_records_jsonl, CampaignSpec, CompletedSlots, Dictionaries,
};
use fl_machine::{Machine, MachineConfig, ProgramImage};
use fl_mpi::{MpiWorld, WorldConfig, WorldExit};
use fl_serve::client;
use fl_snap::EpochCache;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;
use std::time::{Duration, Instant};

pub type Metrics = BTreeMap<String, Summary>;

/// The hang bound the campaign engine gives its golden runs.
const GOLDEN_BUDGET: u64 = 2_000_000_000;

const KERNEL_ROUNDS: u32 = 40;
const PINGPONG_SMALL_ROUNDS: u32 = 2000;
const PINGPONG_BULK_ROUNDS: u32 = 100;
const PINGPONG_BULK_BYTES: u32 = 16 * 1024;
const ALLREDUCE_ROUNDS: u32 = 500;

fn fl_program(source: &str, rounds: u32) -> ProgramImage {
    fl_lang::compile(&source.replace("@ROUNDS@", &rounds.to_string()))
        .expect("benchmark FL program compiles")
}

/// Call `f` on every item and keep the compiler from dropping the work.
fn each<T, U>(items: &[T], mut f: impl FnMut(&T) -> U) {
    for item in items {
        std::hint::black_box(f(item));
    }
}

pub struct Probes<'a> {
    pub tracer: &'a mut Tracer,
    pub tally: &'a mut Tally,
    pub out: Metrics,
    /// Quarter the repetitions (`--quick`).
    pub quick: bool,
}

impl Probes<'_> {
    fn reps(&self, n: usize) -> usize {
        if self.quick {
            (n / 4).max(1)
        } else {
            n
        }
    }

    fn put(&mut self, name: &str, samples: &[f64]) {
        self.out.insert(name.to_string(), Summary::of(samples));
    }

    /// Record timings (nanoseconds) converted to the metric's unit.
    fn put_map(&mut self, name: &str, ns: &[f64], f: impl Fn(f64) -> f64) {
        let samples: Vec<f64> = ns.iter().map(|t| f(*t)).collect();
        self.put(name, &samples);
    }

    /// Time `f` `n` times as spans named `name`; returns nanoseconds.
    fn time_n<T>(&mut self, name: &'static str, n: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
        (0..self.reps(n))
            .map(|_| self.tracer.time(name, &mut f).1 as f64)
            .collect()
    }

    /// Source generation, compilation, pre-decode and image load over the
    /// workload's apps (summed over the apps, so the number is the share
    /// of one pass's per-app setup).
    fn build_layers(&mut self, kinds: &[(AppKind, AppParams)]) -> Vec<App> {
        let apps: Vec<App> = kinds.iter().map(|&(k, p)| App::build(k, p)).collect();
        let build = self.time_n("apps.build", 5, || each(kinds, |&(k, p)| App::build(k, p)));
        let compile = self.time_n("lang.compile", 5, || {
            each(&apps, |a| {
                fl_lang::compile(&a.source).expect("app source compiles")
            })
        });
        let source_bytes: usize = apps.iter().map(|a| a.source.len()).sum();
        let source: Vec<f64> = build
            .iter()
            .zip(&compile)
            .map(|(b, c)| (b - c).max(0.0) / 1e6)
            .collect();
        self.put("apps.source_ms", &source);
        self.put_map("lang.compile_ms", &compile, |c| c / 1e6);
        self.put_map("lang.compile_mb_s", &compile, |c| {
            source_bytes as f64 * 1e3 / c
        });
        let text: usize = apps.iter().map(|a| a.image.text.len()).sum();
        self.put("lang.text_bytes", &[text as f64]);

        let predecode = self.time_n("machine.pre_decode", 5, || {
            each(&apps, |a| a.image.pre_decode())
        });
        self.put_map("machine.predecode_ms", &predecode, |t| t / 1e6);
        let load = self.time_n("machine.load", 9, || {
            each(&apps, |a| Machine::load(&a.image, MachineConfig::default()))
        });
        self.put_map("machine.load_us", &load, |t| t / 1e3 / apps.len() as f64);
        apps
    }

    /// The single-rank FL compute kernel with the fast path on and off.
    fn kernel(&mut self) {
        let rounds = if self.quick {
            KERNEL_ROUNDS / 4
        } else {
            KERNEL_ROUNDS
        };
        let image = fl_program(include_str!("../fl/kernel.fl"), rounds);
        let mut consoles = Vec::new();
        let mut insns = 0;
        for (metric, span, fastpath, n) in [
            ("machine.kernel_mips_fast", "machine.kernel_fast", true, 5),
            ("machine.kernel_mips_slow", "machine.kernel_slow", false, 3),
        ] {
            let cfg = MachineConfig {
                fastpath,
                ..MachineConfig::default()
            };
            let mut last = None;
            let ns = self.time_n(span, n, || {
                let mut m = Machine::load(&image, cfg);
                let exit = m.run(u64::MAX);
                last = Some((format!("{exit:?}"), m.console_text(), m.counters.insns));
            });
            let (exit, console, retired) = last.expect("kernel ran");
            self.tally
                .op(exit == "Halted(0)", || format!("kernel ended {exit}"));
            insns = retired;
            consoles.push((console, retired));
            self.put_map(metric, &ns, |t| retired as f64 * 1e3 / t);
        }
        self.tally.op(consoles[0] == consoles[1], || {
            "kernel output differs between fast and slow path".into()
        });
        self.put("machine.kernel_insns", &[insns as f64]);
    }

    /// Fault-free runs of all four apps at the workload's size, and the
    /// traffic the workload's own apps generate.
    fn goldens(&mut self, tiny: bool, workload_apps: &[App]) {
        for kind in AppKind::ALL {
            let params = if tiny {
                AppParams::tiny(kind)
            } else {
                AppParams::default_for(kind)
            };
            let app = App::build(kind, params);
            let code = app.image.pre_decode();
            let mut insns = 0u64;
            let mut clean = true;
            let ns = self.time_n("mpi.golden_run", 3, || {
                let cfg = app.world_config(GOLDEN_BUDGET);
                let mut w = MpiWorld::new_with_code(&app.image, cfg, Some(&code));
                clean &= w.run() == WorldExit::Clean;
                insns = (0..cfg.nranks).map(|r| w.machine(r).counters.insns).sum();
            });
            self.tally
                .op(clean, || format!("{} golden run not clean", kind.name()));
            self.put_map(&format!("mpi.golden_ms.{}", kind.name()), &ns, |t| t / 1e6);
            self.put_map(&format!("mpi.golden_mips.{}", kind.name()), &ns, |t| {
                insns as f64 * 1e3 / t
            });
        }
        let (mut msgs, mut header, mut payload) = (0, 0, 0);
        for app in workload_apps {
            for p in app.golden(GOLDEN_BUDGET).profiles {
                msgs += p.control_msgs + p.data_msgs;
                header += p.header_bytes;
                payload += p.payload_bytes;
            }
        }
        self.put("mpi.msgs", &[msgs as f64]);
        self.put("mpi.header_bytes", &[header as f64]);
        self.put("mpi.payload_bytes", &[payload as f64]);
    }

    /// One FL micro-program on a fresh world; returns wall nanoseconds per
    /// repetition after checking rank 0 printed `expect`.
    fn micro(
        &mut self,
        span: &'static str,
        image: &ProgramImage,
        cfg: WorldConfig,
        expect: &str,
    ) -> Vec<f64> {
        let mut ok = true;
        let ns = self.time_n(span, 5, || {
            let mut w = MpiWorld::new_with_code(image, cfg, None);
            ok &= w.run() == WorldExit::Clean && w.machine(0).console_text().trim() == expect;
        });
        self.tally
            .op(ok, || format!("{span}: wrong exit or output"));
        ns
    }

    /// Ping-pongs and allreduce, bare and under the channel guard.
    fn messaging(&mut self) {
        let small = fl_program(
            include_str!("../fl/pingpong_small.fl"),
            PINGPONG_SMALL_ROUNDS,
        );
        let bulk = fl_program(include_str!("../fl/pingpong_bulk.fl"), PINGPONG_BULK_ROUNDS);
        let allreduce = fl_program(include_str!("../fl/allreduce.fl"), ALLREDUCE_ROUNDS);
        let two = WorldConfig {
            nranks: 2,
            ..WorldConfig::default()
        };
        let guarded = WorldConfig {
            guard: GuardPolicy::default().channel_guard(),
            ..two
        };
        let small_msgs = 2.0 * PINGPONG_SMALL_ROUNDS as f64;
        let bulk_mb = 2.0 * PINGPONG_BULK_ROUNDS as f64 * PINGPONG_BULK_BYTES as f64 / 1e6;
        let small_expect = PINGPONG_SMALL_ROUNDS.to_string();
        let bulk_expect = PINGPONG_BULK_ROUNDS.to_string();

        let ns = self.micro("mpi.pingpong_small", &small, two, &small_expect);
        self.put_map("mpi.pingpong_small_msgs_per_s", &ns, |t| {
            small_msgs * 1e9 / t
        });
        let ns = self.micro("mpi.pingpong_bulk", &bulk, two, &bulk_expect);
        self.put_map("mpi.pingpong_bulk_mb_s", &ns, |t| bulk_mb * 1e9 / t);
        let four = WorldConfig::default();
        // Ranks contribute 1 + 2 + 3 + 4.
        let ns = self.micro("mpi.allreduce", &allreduce, four, "10");
        self.put_map("mpi.allreduce_per_s", &ns, |t| {
            ALLREDUCE_ROUNDS as f64 * 1e9 / t
        });

        let ns = self.micro("guard.pingpong_small", &small, guarded, &small_expect);
        self.put_map("guard.crc_small_msgs_per_s", &ns, |t| small_msgs * 1e9 / t);
        let ns = self.micro("guard.pingpong_bulk", &bulk, guarded, &bulk_expect);
        self.put_map("guard.crc_bulk_mb_s", &ns, |t| bulk_mb * 1e9 / t);
    }

    /// Epoch cache build, world capture/restore and a fork's tail, on the
    /// workload's deterministic apps. A nondeterministic app builds no
    /// epochs, so a workload of only such apps spends nothing here.
    fn snapshots(&mut self, apps: &[App]) {
        let det: Vec<&App> = apps
            .iter()
            .filter(|a| !a.world_config(GOLDEN_BUDGET).nondet)
            .collect();
        let Some(first) = det.first() else {
            for name in [
                "snap.epoch_build_ms",
                "snap.epochs",
                "snap.capture_us",
                "snap.restore_us",
                "snap.fork_tail_ms",
            ] {
                self.put(name, &[]);
            }
            return;
        };
        let codes: Vec<_> = det.iter().map(|a| a.image.pre_decode()).collect();
        let mut epochs = 0;
        let ns = self.time_n("snap.epoch_build", 3, || {
            epochs = det
                .iter()
                .zip(&codes)
                .map(|(a, code)| {
                    let cfg = a.world_config(GOLDEN_BUDGET);
                    EpochCache::build_with_code(&a.image, cfg, 16, Some(code)).len()
                })
                .sum();
        });
        self.put_map("snap.epoch_build_ms", &ns, |t| t / 1e6);
        self.put("snap.epochs", &[epochs as f64]);

        let cfg = first.world_config(GOLDEN_BUDGET);
        let cache = EpochCache::build_with_code(&first.image, cfg, 16, Some(&codes[0]));
        let mut world = MpiWorld::new_with_code(&first.image, cfg, Some(&codes[0]));
        for _ in 0..cache.rounds() / 2 {
            world.run_round();
        }
        let ns = self.time_n("snap.capture", 40, || world.snapshot());
        self.put_map("snap.capture_us", &ns, |t| t / 1e3);
        let snap = world.snapshot();
        let ns = self.time_n("snap.restore", 40, || snap.restore());
        self.put_map("snap.restore_us", &ns, |t| t / 1e3);
        let last = &cache.epochs().last().expect("epoch 0 always exists").snap;
        let mut clean = true;
        let ns = self.time_n("snap.fork_tail", 5, || {
            clean &= last.restore().run() == WorldExit::Clean;
        });
        self.tally.op(clean, || {
            "fork from the last epoch did not end clean".into()
        });
        self.put_map("snap.fork_tail_ms", &ns, |t| t / 1e6);
    }

    /// Dictionary builds and a fully resumed campaign (every slot adopted:
    /// setup and assembly with no trial executed). Returns that small
    /// campaign's spec, which the daemon probe submits.
    fn engine(&mut self, apps: &[App], tiny: bool, seed: u64) -> SpecDoc {
        let ns = self.time_n("engine.dictionaries", 5, || each(apps, Dictionaries::build));
        self.put_map("engine.dictionaries_ms", &ns, |t| t / 1e6);

        let injections = if self.quick { 3 } else { 12 };
        let doc = spec_doc(
            apps[0].kind.name(),
            tiny,
            &["regular-reg", "message"],
            injections,
            seed,
            "campaign",
            Variant::default(),
        );
        let first = run_campaign_inproc(&doc, Instant::now(), false, None);
        let spec = CampaignSpec::from_json(&doc.json).expect("probe spec parses");
        let mut adopted_all = first.done == doc.planned;
        let records = first.records;
        let ns = self.time_n("engine.resume_full", 5, || {
            let (slots, skipped) =
                CompletedSlots::from_jsonl(&records, &spec.classes, doc.injections);
            let run = run_campaign_inproc(&doc, Instant::now(), false, Some(slots));
            adopted_all &= skipped == 0 && run.done == doc.planned && run.lines.is_empty();
        });
        self.tally.op(adopted_all, || {
            "resume did not adopt every recorded slot".into()
        });
        self.put_map("engine.resume_full_ms", &ns, |t| t / 1e6);

        let per_k = 1000.0 / doc.planned as f64;
        let ns = self.time_n("core.resume_adopt", 20, || {
            CompletedSlots::from_jsonl(&records, &spec.classes, doc.injections)
        });
        self.put_map("core.resume_adopt_us_per_k", &ns, |t| t / 1e3 * per_k);
        doc
    }

    /// Record and spec codecs on the workload's own records and specs.
    fn codecs(&mut self, records: &str, docs: &[SpecDoc]) {
        let lines: Vec<&str> = records.lines().collect();
        let n = lines.len().max(1) as f64;
        let app = docs[0].app.parse().expect("workload apps are known");
        let ns = self.time_n("core.record_parse", 9, || {
            lines
                .iter()
                .filter_map(|l| parse_record_line(l).ok())
                .count()
        });
        self.put_map("core.record_parse_ns", &ns, |t| t / n);
        let parsed: Vec<_> = lines
            .iter()
            .filter_map(|l| parse_record_line(l).ok())
            .collect();
        let ns = self.time_n("core.record_encode", 9, || {
            parsed
                .iter()
                .map(|t| record_line(app, t).len())
                .sum::<usize>()
        });
        self.put_map("core.record_encode_ns", &ns, |t| t / n);
        let ns = self.time_n("core.records_sort", 9, || sort_records_jsonl(records));
        self.put_map("core.records_sort_us_per_k", &ns, |t| t / 1e3 * 1000.0 / n);

        let specs: Vec<CampaignSpec> = docs
            .iter()
            .map(|d| CampaignSpec::from_json(&d.json).expect("workload spec parses"))
            .collect();
        let per_spec = 1e3 * docs.len() as f64;
        let ns = self.time_n("core.spec_parse", 9, || {
            docs.iter()
                .filter_map(|d| CampaignSpec::from_json(&d.json).ok())
                .count()
        });
        self.put_map("core.spec_parse_us", &ns, |t| t / per_spec);
        let ns = self.time_n("core.spec_emit", 9, || {
            specs.iter().map(|s| s.to_json().len()).sum::<usize>()
        });
        self.put_map("core.spec_emit_us", &ns, |t| t / per_spec);
    }

    /// The daemon's fixed costs: start-up, idle status, submit, resubmit
    /// of a finished spec, records download, and what it leaves on disk.
    fn serve(&mut self, doc: &SpecDoc, state_dir: &Path) -> Result<(), String> {
        let mut start_ms = Vec::new();
        for _ in 0..self.reps(5) {
            let t0 = self.tracer.now();
            let daemon = Daemon::start(state_dir)?;
            let up = raw_get(&daemon.addr, "/healthz");
            let t1 = self.tracer.now();
            self.tally.request("first request after start", up);
            self.tracer.push(None, None, "serve.start", t0, t1, vec![]);
            start_ms.push((t1 - t0) as f64 / 1e6);
        }
        self.put("serve.start_ms", &start_ms);

        let daemon = Daemon::start(state_dir)?;
        let addr = daemon.addr.clone();
        let (mut submit_us, mut resubmit_us, mut status_us, mut get_mb_s) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let campaigns = self.reps(5);
        for i in 0..campaigns {
            // Distinct seeds: an equal spec would be answered from the
            // finished campaign instead of starting one.
            let json = doc
                .json
                .replacen("\"seed\":", &format!("\"seed\":{}", i + 1), 1);
            let (r, ns) = self
                .tracer
                .time("serve.submit", || client::submit(&addr, &json));
            submit_us.push(ns as f64 / 1e3);
            let Some(id) = self.tally.request("submit", r) else {
                continue;
            };
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                let polled = client::status(&addr, &id);
                let Some(body) = self.tally.request("status", polled) else {
                    break;
                };
                if client::status_field(&body) == "done" || Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let (r, ns) = self
                .tracer
                .time("serve.resubmit_done", || client::submit(&addr, &json));
            resubmit_us.push(ns as f64 / 1e3);
            self.tally.op(r.as_deref() == Ok(id.as_str()), || {
                "resubmit changed the id".into()
            });
            for _ in 0..self.reps(40) {
                let (r, ns) = self
                    .tracer
                    .time("serve.status", || client::status(&addr, &id));
                status_us.push(ns as f64 / 1e3);
                self.tally.request("status", r);
            }
            for _ in 0..self.reps(8) {
                let (r, ns) = self
                    .tracer
                    .time("serve.records_get", || client::records(&addr, &id));
                if let Some(text) = self.tally.request("records", r) {
                    get_mb_s.push(text.len() as f64 * 1e3 / ns as f64);
                }
            }
        }
        self.put("serve.submit_rtt_us", &submit_us);
        self.put("serve.resubmit_done_rtt_us", &resubmit_us);
        self.put("serve.status_rtt_us", &status_us);
        self.put("serve.records_get_mb_s", &get_mb_s);
        let bytes = dir_bytes(&daemon.state_dir) / campaigns as u64;
        self.put("serve.state_bytes", &[bytes as f64]);
        Ok(())
    }

    /// Run every probe for a workload whose pass-0 specs are `docs` and
    /// whose traced pass produced `records`.
    pub fn run_all(
        &mut self,
        docs: &[SpecDoc],
        records: &str,
        seed: u64,
        state_dir: &Path,
    ) -> Result<(), String> {
        let tiny = docs.iter().all(|d| d.tiny);
        let kinds: Vec<(AppKind, AppParams)> = apps_of(docs)
            .into_iter()
            .map(|(name, tiny)| {
                let kind: AppKind = name.parse().expect("workload apps are known");
                let params = if tiny {
                    AppParams::tiny(kind)
                } else {
                    AppParams::default_for(kind)
                };
                (kind, params)
            })
            .collect();
        let apps = self.build_layers(&kinds);
        self.kernel();
        self.goldens(tiny, &apps);
        self.messaging();
        self.snapshots(&apps);
        let small = self.engine(&apps, tiny, seed);
        self.codecs(records, docs);
        self.serve(&small, state_dir)
    }
}

/// One `GET` over a raw socket; `Ok` for any HTTP answer. Start-up is
/// timed to the first answer of any kind, so the probe does not depend on
/// which routes exist.
fn raw_get(addr: &str, path: &str) -> Result<(), String> {
    let mut s = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut answer = String::new();
    s.read_to_string(&mut answer)
        .map_err(|e| format!("read: {e}"))?;
    if answer.starts_with("HTTP/1.1 ") {
        Ok(())
    } else {
        Err(format!("not an HTTP answer: {:?}", answer.get(..20)))
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
