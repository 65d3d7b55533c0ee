//! Moldyn — the NAMD analogue (§4.2.2).
//!
//! Parallel molecular dynamics: each rank owns a block of atoms, computes
//! local Lennard-Jones pair forces, exchanges its positions with both ring
//! neighbours every step, and reports per-step energies to rank 0.
//! Reproduced signatures:
//!
//! * **Nondeterministic execution.** Rank 0 accumulates the per-rank
//!   energy contributions in *arrival order* via `MPI_ANY_SOURCE`, so the
//!   floating-point sum differs in the low bits across schedules. The only
//!   reproducible output is the console energy log (the paper: stable to
//!   printed precision when the step count stays under 20).
//! * **Built-in message checksums.** Every position payload carries a
//!   trailing checksum of its floats; the receiver recomputes and aborts
//!   on mismatch. This is why NAMD detected 46 % of manifest message
//!   faults (§6.2) while CAM caught almost none.
//! * **NaN consistency checks** on energies and **sanity/bound checks**
//!   on positions, which catch a slice of memory faults as App-Detected.
//! * **Registers an MPI error handler**, so argument corruption (stack
//!   faults) manifests as MPI-Detected (Table 3).
//! * **Heap-dominant memory**: atom arrays and a large workspace are
//!   `malloc`ed; much of the workspace is touched only during setup,
//!   mirroring NAMD's heap working set (~22 % in the compute phase).

use crate::coldgen;
use crate::AppParams;

/// Generate the Moldyn FL source (with message checksums, the standard
/// configuration).
pub fn source(p: &AppParams) -> String {
    source_with(p, true)
}

/// Generate Moldyn with or without its message checksums — the §6.2/§7
/// ablation ("NAMD's message checksum is effective at low cost — only
/// three percent overhead"). Without checksums the exchange buffers and
/// traffic are unchanged; only the receiver-side verification disappears.
pub fn source_with(p: &AppParams, checksums: bool) -> String {
    let atoms = p.scale.max(8);
    let steps = p.steps;
    // With checksums off the wire format is unchanged (same buffer
    // layout, same traffic) but neither side computes the sums — the
    // configuration whose cost difference is the paper's "three percent
    // overhead" figure.
    let verify_fn = if checksums {
        r#"fn verify_checksum() {
    var int i;
    var float sum;
    sum = 0.0;
    for (i = 0; i < natoms; i = i + 1) {
        sum = sum + loadf(recvbuf + i * 16) + loadf(recvbuf + i * 16 + 8);
    }
    if (isnan(sum)) {
        abort_msg("moldyn: NaN in received positions");
    }
    if (sum != loadf(recvbuf + natoms * 16)) {
        abort_msg("moldyn: message checksum mismatch");
    }
}"#
    } else {
        "fn verify_checksum() { }"
    };
    let pack_sum = if checksums {
        r#"    sum = 0.0;
    for (i = 0; i < natoms; i = i + 1) {
        sum = sum + loadf(fslot(px, i)) + loadf(fslot(py, i));
    }
    storef(sendbuf + natoms * 16, sum);"#
    } else {
        "    sum = 0.0;\n    storef(sendbuf + natoms * 16, sum);"
    };
    let cold = coldgen::functions("md_cold", p.cold_fns, p.seed);
    let warm = coldgen::functions("md_warm", p.warm_fns, p.seed ^ 0x77);
    let warmup = coldgen::init_routine("md_startup", "md_warm", p.warm_fns, "sink");
    format!(
        r#"// Moldyn: ring-decomposed molecular dynamics with checksummed
// position exchanges and NaN/bound consistency checks.
global int natoms = {atoms};
global int nsteps = {steps};
global float dt = 0.002;
global float box = 24.0;
global float sink = 0.5;
global float jitter[256] = seeded(1311);
global int px = 0;
global int py = 0;
global int vx = 0;
global int vy = 0;
global int fx = 0;
global int fy = 0;
global int sendbuf = 0;
global int recvbuf = 0;
global int spare = 0;
global int me = 0;
global int np = 0;
global float pe = 0.0;
// Zero-initialised statistics buffers (BSS).
global float step_energy[64];
global float patch_load[32];

{cold}
{warm}
{warmup}

fn fslot(int base, int i) -> int {{
    return base + i * 8;
}}

fn init_atoms() {{
    var int i;
    var int side;
    var float x;
    var float y;
    side = int(sqrt(float(natoms))) + 1;
    px = malloc(natoms * 8);
    py = malloc(natoms * 8);
    vx = malloc(natoms * 8);
    vy = malloc(natoms * 8);
    fx = malloc(natoms * 8);
    fy = malloc(natoms * 8);
    // Exchange buffers carry x, y arrays plus a trailing checksum slot.
    sendbuf = malloc(natoms * 16 + 8);
    recvbuf = malloc(natoms * 16 + 8);
    // Cell-list workspace: sized generously, touched only here (NAMD's
    // heap working set shrinks sharply after setup).
    spare = malloc(49152);
    for (i = 0; i < 1536; i = i + 1) {{
        storef(spare + i * 8, 0.0);
    }}
    for (i = 0; i < natoms; i = i + 1) {{
        x = float(i % side) * 1.3 + jitter[(me * 31 + i) % 256] * 0.3;
        y = float(i / side) * 1.3 + jitter[(me * 17 + i * 3) % 256] * 0.3;
        storef(fslot(px, i), x);
        storef(fslot(py, i), y);
        storef(fslot(vx, i), (jitter[(i * 7 + me) % 256] - 0.5) * 0.4);
        storef(fslot(vy, i), (jitter[(i * 13 + me) % 256] - 0.5) * 0.4);
        storef(fslot(fx, i), 0.0);
        storef(fslot(fy, i), 0.0);
    }}
}}

// Pack positions (and the message checksum) into sendbuf.
fn pack_positions() {{
    var int i;
    var float sum;
    for (i = 0; i < natoms; i = i + 1) {{
        storef(sendbuf + i * 16, loadf(fslot(px, i)));
        storef(sendbuf + i * 16 + 8, loadf(fslot(py, i)));
    }}
{pack_sum}
}}

// Verify the checksum of recvbuf; abort on mismatch (NAMD's internal
// message consistency check).
{verify_fn}

// Accumulate LJ forces from the atoms in recvbuf onto our atoms.
fn forces_from(int buf) {{
    var int i;
    var int j;
    var float dx;
    var float dy;
    var float r2;
    var float inv2;
    var float inv6;
    var float f;
    for (i = 0; i < natoms; i = i + 1) {{
        for (j = 0; j < natoms; j = j + 1) {{
            dx = loadf(fslot(px, i)) - loadf(buf + j * 16);
            dy = loadf(fslot(py, i)) - loadf(buf + j * 16 + 8);
            r2 = dx * dx + dy * dy;
            if (r2 < 6.25 && r2 > 0.0001) {{
                if (r2 < 0.64) {{ r2 = 0.64; }}
                inv2 = 1.0 / r2;
                inv6 = inv2 * inv2 * inv2;
                f = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
                storef(fslot(fx, i), loadf(fslot(fx, i)) + f * dx);
                storef(fslot(fy, i), loadf(fslot(fy, i)) + f * dy);
                pe = pe + 4.0 * inv6 * (inv6 - 1.0) * 0.5;
            }}
        }}
    }}
}}

fn local_forces() {{
    var int i;
    var int j;
    var float dx;
    var float dy;
    var float r2;
    var float inv2;
    var float inv6;
    var float f;
    for (i = 0; i < natoms; i = i + 1) {{
        storef(fslot(fx, i), 0.0);
        storef(fslot(fy, i), 0.0);
    }}
    pe = 0.0;
    for (i = 0; i < natoms; i = i + 1) {{
        for (j = i + 1; j < natoms; j = j + 1) {{
            dx = loadf(fslot(px, i)) - loadf(fslot(px, j));
            dy = loadf(fslot(py, i)) - loadf(fslot(py, j));
            r2 = dx * dx + dy * dy;
            if (r2 < 6.25) {{
                if (r2 < 0.64) {{ r2 = 0.64; }}
                inv2 = 1.0 / r2;
                inv6 = inv2 * inv2 * inv2;
                f = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
                storef(fslot(fx, i), loadf(fslot(fx, i)) + f * dx);
                storef(fslot(fy, i), loadf(fslot(fy, i)) + f * dy);
                storef(fslot(fx, j), loadf(fslot(fx, j)) - f * dx);
                storef(fslot(fy, j), loadf(fslot(fy, j)) - f * dy);
                pe = pe + 4.0 * inv6 * (inv6 - 1.0);
            }}
        }}
    }}
}}

// Exchange positions with ring neighbours; right-going uses tag 11,
// left-going tag 12. Receives use ANY_SOURCE (NAMD-style arrival
// nondeterminism); content is disambiguated by tag. Even/odd phasing
// keeps the ring safe under the synchronous rendezvous protocol.
fn exchange_positions() {{
    var int right;
    var int left;
    var int bytes;
    right = (me + 1) % np;
    left = (me + np - 1) % np;
    bytes = natoms * 16 + 8;
    pack_positions();
    if (me % 2 == 0) {{
        mpi_send(sendbuf, bytes, right, 11);
        mpi_recv(recvbuf, bytes, -1, 11);
        verify_checksum();
        forces_from(recvbuf);
        mpi_send(sendbuf, bytes, left, 12);
        mpi_recv(recvbuf, bytes, -1, 12);
        verify_checksum();
        forces_from(recvbuf);
    }} else {{
        mpi_recv(recvbuf, bytes, -1, 11);
        verify_checksum();
        forces_from(recvbuf);
        mpi_send(sendbuf, bytes, right, 11);
        mpi_recv(recvbuf, bytes, -1, 12);
        verify_checksum();
        forces_from(recvbuf);
        mpi_send(sendbuf, bytes, left, 12);
    }}
}}

fn integrate() {{
    var int i;
    var float x;
    var float y;
    for (i = 0; i < natoms; i = i + 1) {{
        storef(fslot(vx, i), loadf(fslot(vx, i)) + loadf(fslot(fx, i)) * dt);
        storef(fslot(vy, i), loadf(fslot(vy, i)) + loadf(fslot(fy, i)) * dt);
        x = loadf(fslot(px, i)) + loadf(fslot(vx, i)) * dt;
        y = loadf(fslot(py, i)) + loadf(fslot(vy, i)) * dt;
        // Sanity/bound check (assertions NAMD keeps even in production).
        assert(fabs(x) < 1000.0 && fabs(y) < 1000.0, "moldyn: atom escaped the box");
        storef(fslot(px, i), x);
        storef(fslot(py, i), y);
    }}
}}

fn kinetic() -> float {{
    var int i;
    var float ke;
    ke = 0.0;
    for (i = 0; i < natoms; i = i + 1) {{
        ke = ke + loadf(fslot(vx, i)) * loadf(fslot(vx, i))
                + loadf(fslot(vy, i)) * loadf(fslot(vy, i));
    }}
    return ke * 0.5;
}}

// Per-step energy report: everyone sends (ke, pe) to rank 0; rank 0 sums
// in ARRIVAL order (nondeterministic) and prints the console log.
fn report_energies(int step) {{
    var int i;
    var float etot;
    var float ketot;
    var int ebuf;
    ebuf = malloc(16);
    if (me == 0) {{
        ketot = kinetic();
        etot = ketot + pe;
        for (i = 1; i < np; i = i + 1) {{
            mpi_recv(ebuf, 16, -1, 128 + step);
            ketot = ketot + loadf(ebuf);
            etot = etot + loadf(ebuf) + loadf(ebuf + 8);
        }}
        step_energy[step % 64] = etot;
        if (isnan(etot)) {{
            abort_msg("moldyn: NaN total energy");
        }}
        print_str("STEP ");
        print_int(step);
        print_str(" KE ");
        print_flt(ketot, 6);
        print_str(" E ");
        print_flt(etot, 6);
        print_str("\n");
    }} else {{
        storef(ebuf, kinetic());
        storef(ebuf + 8, pe);
        mpi_send(ebuf, 16, 0, 128 + step);
    }}
    free(ebuf);
}}

fn main() {{
    var int s;
    mpi_init();
    mpi_errhandler_set(1);
    me = mpi_rank();
    np = mpi_size();
    md_startup();
    init_atoms();
    for (s = 0; s < nsteps; s = s + 1) {{
        local_forces();
        exchange_positions();
        integrate();
        report_energies(s);
    }}
    mpi_finalize();
}}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{App, AppKind};
    use fl_mpi::WorldExit;

    #[test]
    fn moldyn_runs_clean_and_logs_energies() {
        let app = App::build(AppKind::Moldyn, AppParams::tiny(AppKind::Moldyn));
        let mut w = app.world(100_000_000);
        assert_eq!(w.run(), WorldExit::Clean);
        let log = w.machine(0).console_text();
        assert!(log.contains("STEP 0 KE"));
        assert!(log.lines().count() >= app.params.steps as usize);
        for line in log.lines() {
            assert!(line.contains(" E "), "{line}");
        }
    }

    #[test]
    fn moldyn_console_stable_across_schedules() {
        // §4.2.2: the console output has no noticeable deviation when the
        // step count is small, despite nondeterministic arrival order.
        let app = App::build(AppKind::Moldyn, AppParams::tiny(AppKind::Moldyn));
        let base = app.golden(100_000_000);
        for seed in 1..4u64 {
            let mut w = app.world_with_seed(100_000_000, seed);
            assert_eq!(w.run(), WorldExit::Clean);
            assert_eq!(
                w.machine(0).console_text().as_bytes(),
                &base.output[..],
                "seed {seed}"
            );
        }
    }

    #[test]
    fn moldyn_traffic_is_data_dominated_with_rendezvous_control() {
        let app = App::build(AppKind::Moldyn, AppParams::tiny(AppKind::Moldyn));
        let mut w = app.world(100_000_000);
        assert_eq!(w.run(), WorldExit::Clean);
        let mut total = fl_mpi::TrafficProfile::default();
        for r in 0..app.params.nranks {
            total.merge(w.profile(r));
        }
        assert!(
            total.user_percent() > 70.0,
            "{:.1}% user",
            total.user_percent()
        );
        assert!(total.control_msgs > 0, "rendezvous must generate RTS/CTS");
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        // Flip a payload bit in a position message: moldyn's checksum
        // must catch it (the NAMD 46 %-detection path).
        let app = App::build(AppKind::Moldyn, AppParams::tiny(AppKind::Moldyn));
        // Find a byte offset inside a big position payload on rank 1:
        // skip the early small traffic; take half the golden volume.
        let golden = app.golden(100_000_000);
        let mid = golden.recv_bytes[1] / 2;
        let mut w = app.world(100_000_000);
        w.arm(fl_mpi::Fault::flip(1, mid, 3));
        let e = w.run();
        // Depending on where mid lands this is a checksum abort, an MPI
        // crash/hang (header), or (rarely) clean; the common case for a
        // data-dominated app is the checksum catching it.
        if let WorldExit::AppAborted { msg, .. } = &e {
            assert!(msg.contains("checksum") || msg.contains("NaN"), "{msg}");
        }
    }
}
