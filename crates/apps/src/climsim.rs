//! Climsim — the CAM analogue (§4.2.3).
//!
//! A column-physics atmosphere model: each rank owns a slab of columns,
//! steps moisture/temperature/wind fields through "dynamics" and
//! "physics" phases separated by barriers, and periodically gathers
//! column means to rank 0. Reproduced signatures:
//!
//! * **Control-message-dominated traffic** (paper: 63 % headers / 37 %
//!   user): several barriers per step (pure header-only dissemination
//!   tokens) plus small eager flux messages, against only a modest bcast
//!   payload.
//! * **Large initialised tables** (CAM's 32 MB data section): seeded
//!   radiation/aerosol/ozone coefficient tables in the data section, of
//!   which the physics touches only a slice per run — the small data
//!   working set of Table 7.
//! * **Large BSS** (CAM's 38 MB): field slabs and a mostly-idle work
//!   array in zero-initialised globals.
//! * **Internal moisture sanity check**: "any moisture value below a
//!   minimum threshold can trigger a warning and abort the application"
//!   (§6.2) — the App-Detected path.
//! * **Registers an MPI error handler** (Table 4's MPI-Detected column).
//! * **Full-precision binary output** from rank 0, so silent corruption
//!   is *visible* in the output diff (unlike wavetoy's text masking).

use crate::coldgen;
use crate::AppParams;

/// Generate the Climsim FL source.
pub fn source(p: &AppParams) -> String {
    let cols = p.scale.max(8);
    let levels = 16u32;
    let cells = cols * levels;
    let steps = p.steps;
    let cold = coldgen::functions("cs_cold", p.cold_fns, p.seed);
    let warm = coldgen::functions("cs_warm", p.warm_fns, p.seed ^ 0xC11A);
    let warmup = coldgen::init_routine("cs_startup", "cs_warm", p.warm_fns, "sink");
    format!(
        r#"// Climsim: column physics with barrier-separated phases, big
// coefficient tables, and a moisture minimum check.
global int ncols = {cols};
global int nlev = {levels};
global int nsteps = {steps};
global float qmin = 0.000000000001;
global float sink = 0.75;
// Initialised coefficient tables (data section; the CAM archetype).
global float rad_table[4096] = seeded(101);
global float aerosol[2048] = seeded(202);
global float ozone[2048] = seeded(303);
// Field slabs and workspace (BSS).
global float q[{cells}];
global float t[{cells}];
global float u[{cells}];
global float work[8192];
global float flux_out[24];
global float flux_in[24];
global float forcing[32];
global float colmean[{cols}];
global int me = 0;
global int np = 0;

{cold}
{warm}
{warmup}

fn at(int c, int l) -> int {{
    return c * nlev + l;
}}

fn init_fields() {{
    var int c;
    var int l;
    for (c = 0; c < ncols; c = c + 1) {{
        for (l = 0; l < nlev; l = l + 1) {{
            q[at(c, l)] = 0.001 + 0.0005 * rad_table[(c * 11 + l) % 4096];
            t[at(c, l)] = 250.0 + 40.0 * aerosol[(c * 3 + l * 5) % 2048];
            u[at(c, l)] = 2.0 * ozone[(c + l * 7) % 2048] - 1.0;
        }}
    }}
    // Touch a slice of the workspace during setup only.
    for (c = 0; c < 512; c = c + 1) {{
        work[c] = rad_table[c] * 0.5;
    }}
}}

// Dynamics: advect wind and temperature using a narrow slice of the
// radiation table (a small working set over a big data section).
fn dynamics() {{
    var int c;
    var int l;
    var float adv;
    for (c = 0; c < ncols; c = c + 1) {{
        for (l = 0; l < nlev; l = l + 1) {{
            adv = u[at(c, l)] * 0.05;
            t[at(c, l)] = t[at(c, l)] + adv * rad_table[(l * 31 + c) % 256];
            u[at(c, l)] = u[at(c, l)] * 0.995 + 0.001 * aerosol[l % 64];
        }}
    }}
}}

// Physics: moisture tendencies with the CAM-style minimum check.
fn physics() {{
    var int c;
    var int l;
    var float tend;
    var float qv;
    for (c = 0; c < ncols; c = c + 1) {{
        for (l = 0; l < nlev; l = l + 1) {{
            tend = 0.0001 * (t[at(c, l)] - 260.0) / 260.0;
            qv = q[at(c, l)] * 0.999 + tend * 0.001 + 0.0000001;
            if (qv < qmin) {{
                print_str("WARNING: moisture below minimum\n");
                abort_msg("climsim: qneg check failed");
            }}
            if (isnan(qv)) {{
                abort_msg("climsim: NaN moisture");
            }}
            q[at(c, l)] = qv;
        }}
    }}
}}

// Small flux exchange with the right neighbour (eager, mostly header).
fn exchange_fluxes() {{
    var int right;
    var int left;
    var int l;
    right = (me + 1) % np;
    left = (me + np - 1) % np;
    for (l = 0; l < 24; l = l + 1) {{
        flux_out[l] = u[at(ncols - 1, l % nlev)] * 0.25 + t[at(0, l % nlev)] * 0.001;
    }}
    if (me % 2 == 0) {{
        mpi_send(addr(flux_out), 192, right, 31);
        mpi_recv(addr(flux_in), 192, left, 31);
    }} else {{
        mpi_recv(addr(flux_in), 192, left, 31);
        mpi_send(addr(flux_out), 192, right, 31);
    }}
    for (l = 0; l < 24; l = l + 1) {{
        u[at(0, l % nlev)] = u[at(0, l % nlev)] + flux_in[l] * 0.01;
    }}
}}

// Rank 0 gathers per-column means and writes them in full-precision
// binary (the format that does NOT mask corruption, §6.2).
fn write_history(int step) {{
    var int c;
    var int l;
    var int src;
    var float s;
    for (c = 0; c < ncols; c = c + 1) {{
        s = 0.0;
        for (l = 0; l < nlev; l = l + 1) {{
            s = s + q[at(c, l)] * 1000.0 + t[at(c, l)] * 0.001;
        }}
        colmean[c] = s / float(nlev);
    }}
    if (me == 0) {{
        for (c = 0; c < ncols; c = c + 1) {{
            fwrite_bin(colmean[c]);
        }}
        for (src = 1; src < np; src = src + 1) {{
            mpi_recv(addr(colmean), ncols * 8, src, 41);
            for (c = 0; c < ncols; c = c + 1) {{
                fwrite_bin(colmean[c]);
            }}
        }}
    }} else {{
        mpi_send(addr(colmean), ncols * 8, 0, 41);
    }}
}}

fn main() {{
    var int s;
    mpi_init();
    mpi_errhandler_set(1);
    me = mpi_rank();
    np = mpi_size();
    cs_startup();
    init_fields();
    mpi_bcast(addr(forcing), 256, 0);
    for (s = 0; s < nsteps; s = s + 1) {{
        mpi_barrier();
        dynamics();
        mpi_barrier();
        exchange_fluxes();
        mpi_barrier();
        physics();
        mpi_barrier();
        if (s % 4 == 3) {{
            write_history(s);
        }}
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
    use fl_machine::Region;
    use fl_mpi::WorldExit;

    #[test]
    fn climsim_runs_clean_and_writes_binary_history() {
        let app = App::build(AppKind::Climsim, AppParams::tiny(AppKind::Climsim));
        let mut w = app.world(100_000_000);
        assert_eq!(w.run(), WorldExit::Clean);
        let out = &w.machine(0).outfile;
        assert!(!out.is_empty());
        assert_eq!(out.len() % 8, 0, "binary f64 records");
        // Decode a value; must be a plausible column mean.
        let v = f64::from_le_bytes(out[..8].try_into().unwrap());
        assert!(v.is_finite() && v.abs() < 1e6, "{v}");
    }

    #[test]
    fn climsim_traffic_is_header_dominated() {
        let app = App::build(AppKind::Climsim, AppParams::tiny(AppKind::Climsim));
        let mut w = app.world(100_000_000);
        assert_eq!(w.run(), WorldExit::Clean);
        let mut total = fl_mpi::TrafficProfile::default();
        for r in 0..app.params.nranks {
            total.merge(w.profile(r));
        }
        assert!(
            total.header_percent() > 50.0,
            "climsim must be control-dominated, got {:.1}% header",
            total.header_percent()
        );
        assert!(total.control_msgs > total.data_msgs);
    }

    #[test]
    fn climsim_has_large_data_section() {
        let app = App::build(AppKind::Climsim, AppParams::tiny(AppKind::Climsim));
        let (text, data, bss) = app.image.section_sizes();
        // Seeded tables: 4096*8 + 2048*8 + 2048*8 = 64 KiB minimum.
        assert!(data >= 64 * 1024, "data {data}");
        assert!(bss >= 64 * 1024, "bss {bss}"); // work[8192] alone is 64 KiB
        assert!(text > 0);
        let tbl = app
            .image
            .symbols
            .iter()
            .find(|s| s.name == "rad_table")
            .unwrap();
        assert_eq!(tbl.region, Region::Data);
    }

    #[test]
    fn climsim_output_deterministic() {
        let app = App::build(AppKind::Climsim, AppParams::tiny(AppKind::Climsim));
        let g1 = app.golden(100_000_000);
        let g2 = app.golden(100_000_000);
        assert_eq!(g1.output, g2.output);
        assert!(!g1.output.is_empty());
    }

    #[test]
    fn moisture_check_fires_on_corruption() {
        // Corrupt the moisture field directly before physics: the qneg
        // check must abort (App Detected).
        let app = App::build(AppKind::Climsim, AppParams::tiny(AppKind::Climsim));
        let img = &app.image;
        let qsym = img.symbols.iter().find(|s| s.name == "q").unwrap();
        let golden = app.golden(100_000_000);
        let mut w = app.world(100_000_000);
        // Poison q[0] with a large negative value on rank 1 about a third
        // of the way through its execution.
        let addr = qsym.addr;
        w.arm(fl_mpi::Fault::once(1, golden.insns[1] / 3, move |m| {
            m.poke_mem(addr, &(-1.0f64).to_le_bytes());
        }));
        let e = w.run();
        assert!(
            matches!(&e, WorldExit::AppAborted { msg, .. } if msg.contains("qneg")),
            "{e:?}"
        );
    }
}
