//! Regenerate the **§6.2 message analysis**: split message-fault outcomes
//! by whether the flipped bit landed in a header or a payload, per
//! application.
//!
//! The paper's arithmetic for Cactus: 6 % of incoming bytes are headers;
//! "perturbing the headers has about a 40 percent probability of
//! corrupting the Cactus execution. Therefore, the combined Crash and
//! Hang rate is 6 * 0.4 or roughly 2.4 percent", while payload flips land
//! in large arrays of near-zero floats whose low-order corruption the
//! text output hides.

use fl_apps::AppKind;
use fl_bench::{emit, experiment_app, injections_from_args, BUDGET};
use fl_inject::{classify, Manifestation};
use fl_mpi::Fault;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

fn main() {
    let trials = injections_from_args(300);
    let mut out = String::from("Message fault analysis (per §6.2)\n");
    for kind in AppKind::PAPER {
        eprintln!("message analysis: {} x {trials} ...", kind.name());
        let app = experiment_app(kind);
        let golden = app.golden(BUDGET);
        let budget = golden.insns.iter().max().unwrap() * 3 + 2_000_000;
        let mut rng = StdRng::seed_from_u64(0xE8 + kind as u64);

        // (hits, manifested, crash+hang) per location class.
        let mut header = (0u32, 0u32, 0u32);
        let mut payload = (0u32, 0u32, 0u32);
        for _ in 0..trials {
            let rank = rng.gen_range(0..app.params.nranks);
            let off = rng.gen_range(0..golden.recv_bytes[rank as usize].max(1));
            let bit = rng.gen_range(0..8u8);
            let mut cfg = app.world_config(budget);
            cfg.seed = rng.gen();
            let mut w = fl_mpi::MpiWorld::new(&app.image, cfg);
            w.arm(Fault::flip(rank, off, bit));
            let exit = w.run();
            let outcome = classify(&exit, &app.comparable_output(&w), &golden.output);
            let Some(hit) = w.plan().hit else {
                continue;
            };
            let slot = if hit.in_header {
                &mut header
            } else {
                &mut payload
            };
            slot.0 += 1;
            if outcome.is_error() {
                slot.1 += 1;
            }
            if matches!(outcome, Manifestation::Crash | Manifestation::Hang) {
                slot.2 += 1;
            }
        }

        let mut traffic = fl_mpi::TrafficProfile::default();
        for p in &golden.profiles {
            traffic.merge(p);
        }
        let pct = |n: u32, d: u32| {
            if d == 0 {
                0.0
            } else {
                100.0 * n as f64 / d as f64
            }
        };
        let _ = writeln!(
            out,
            "\n{} ({} analogue): traffic = {:.0}% header / {:.0}% user",
            kind.name(),
            kind.paper_name(),
            traffic.header_percent(),
            traffic.user_percent()
        );
        let _ = writeln!(
            out,
            "  header flips : {:>4} hits, {:>5.1}% manifest, {:>5.1}% crash+hang",
            header.0,
            pct(header.1, header.0),
            pct(header.2, header.0)
        );
        let _ = writeln!(
            out,
            "  payload flips: {:>4} hits, {:>5.1}% manifest, {:>5.1}% crash+hang",
            payload.0,
            pct(payload.1, payload.0),
            pct(payload.2, payload.0)
        );
        let _ = writeln!(
            out,
            "  predicted overall crash+hang (header% x header-rate): {:.1}%",
            traffic.header_percent() / 100.0 * pct(header.2, header.0)
        );
    }
    out.push_str(
        "\nPaper shape: header flips corrupt the run with high probability on\n\
         every code; payload flips on Wavetoy are largely masked (near-zero\n\
         data + 4-digit text output), giving its low overall message error\n\
         rate (3.1% vs 38%/24.2% for NAMD/CAM).\n",
    );
    emit("message_analysis.txt", &out);
}
