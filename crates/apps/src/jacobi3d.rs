//! Jacobi3D — a 3-D Jacobi relaxation kernel with *application-level*
//! fault tolerance, the fl-ulfm demonstration app.
//!
//! The numerical core is the classic 7-point stencil on a fixed global
//! `n³` grid, slab-decomposed along z with one halo-plane exchange per
//! neighbour per iteration and an allreduce residual — the jac_3d shape
//! of the MPI fault-tolerance literature. What makes it different from
//! the other three apps is the *recovery protocol* written into the FL
//! program itself, in the ULFM control-point idiom:
//!
//! * every `CONTROL_POINT` iterations the ranks allgather the global
//!   grid (one broadcast per slab owner), run `mpix_comm_agree` over
//!   their fault flags, and on success `fl_ckpt_save` the gathered grid;
//! * a peer death surfaces as `MPIX_ERR_PROC_FAILED` returns from the
//!   halo receives (checked as `r + 1 == 0`) and errored collectives;
//!   any rank that sees one raises its flag and heads for the agreement;
//! * a failed agreement triggers the textbook sequence —
//!   `mpix_comm_failure_ack`, `mpix_comm_failure_get_acked`,
//!   `mpix_comm_shrink` — then `fl_ckpt_restore`, slab bounds recomputed
//!   from the *new* rank/size, and the iteration clock rolled back to
//!   the control point (`it -= it % CONTROL_POINT` in the original).
//!
//! The global grid is fixed (strong-scaled), the initial condition is a
//! function of global coordinates, and the stencil is pointwise, so the
//! final field — and rank 0's text output — is identical at any rank
//! count. That is what makes app-side recovery *checkable*: a run that
//! loses a rank mid-flight and recovers over the survivors must still
//! reproduce the fault-free golden output bit-for-bit.

use crate::coldgen;
use crate::AppParams;

/// Iterations between control points (the snippet's `CONTROL_POINT`).
pub const CONTROL_POINT: u32 = 5;

/// Generate the Jacobi3D FL source.
pub fn source(p: &AppParams) -> String {
    let n = p.scale.max(6); // global grid edge: n³ cells, any rank count
    let steps = p.steps;
    let cp = CONTROL_POINT;
    let cold = coldgen::functions("j3_cold", p.cold_fns, p.seed);
    let warm = coldgen::functions("j3_warm", p.warm_fns, p.seed ^ 0x3D3D);
    let warmup = coldgen::init_routine("j3_startup", "j3_warm", p.warm_fns, "sink");
    format!(
        r#"// Jacobi3D: 7-point stencil on a fixed n^3 grid, z-slab decomposition,
// ULFM-style app-level fault tolerance with control-point rollback.
global int nx = {n};
global int ny = {n};
global int nz = {n};
global int nsteps = {steps};
global int cp = {cp};
global float sink = 0.25;
global int me = 0;
global int np = 0;
global int lo = 0;
global int hi = 0;
global int nloc = 0;
global int gc = 0;
global int gn = 0;
global int gbuf = 0;
global int it = 0;
global int saved_it = 0;
global int flag_fault = 0;
global float eps = 0.0;
global float red[2];

{cold}
{warm}
{warmup}

// Slab cell: plane k (0 and nloc+1 are ghosts), row y, column x.
fn pcell(int g, int k, int y, int x) -> int {{
    return g + ((k * ny + y) * nx + x) * 8;
}}

// Global-grid cell in the gather/checkpoint buffer.
fn gcell(int z, int y, int x) -> int {{
    return gbuf + ((z * ny + y) * nx + x) * 8;
}}

// Slab bounds from the *current* rank and size — re-run after a shrink,
// which is what lets the survivors redistribute the fixed global grid.
fn bounds() {{
    lo = nz * me / np;
    hi = nz * (me + 1) / np;
    nloc = hi - lo;
}}

// Initial condition as a function of global coordinates: a Gaussian
// bump at the grid centre, decomposition-independent by construction.
fn init_global() {{
    var int z;
    var int y;
    var int x;
    var float dz;
    var float dy;
    var float dx;
    var float d;
    for (z = 0; z < nz; z = z + 1) {{
        for (y = 0; y < ny; y = y + 1) {{
            for (x = 0; x < nx; x = x + 1) {{
                dz = float(z) - float(nz) / 2.0;
                dy = float(y) - float(ny) / 2.0;
                dx = float(x) - float(nx) / 2.0;
                d = (dz * dz + dy * dy + dx * dx) / 5.0;
                if (d < 10.0) {{
                    storef(gcell(z, y, x), exp(0.0 - d));
                }} else {{
                    storef(gcell(z, y, x), 0.0);
                }}
            }}
        }}
    }}
}}

// Scatter this rank's planes of the global buffer into the working slab
// (ghost planes are zeroed; the next exchange refreshes them).
fn load_slab() {{
    var int k;
    var int y;
    var int x;
    for (k = 0; k <= nloc + 1; k = k + 1) {{
        for (y = 0; y < ny; y = y + 1) {{
            for (x = 0; x < nx; x = x + 1) {{
                storef(pcell(gc, k, y, x), 0.0);
                storef(pcell(gn, k, y, x), 0.0);
            }}
        }}
    }}
    for (k = 1; k <= nloc; k = k + 1) {{
        for (y = 0; y < ny; y = y + 1) {{
            for (x = 0; x < nx; x = x + 1) {{
                storef(pcell(gc, k, y, x), loadf(gcell(lo + k - 1, y, x)));
            }}
        }}
    }}
}}

// Copy the working planes into this rank's section of the global buffer
// (its contribution to the control-point allgather).
fn store_slab() {{
    var int k;
    var int y;
    var int x;
    for (k = 1; k <= nloc; k = k + 1) {{
        for (y = 0; y < ny; y = y + 1) {{
            for (x = 0; x < nx; x = x + 1) {{
                storef(gcell(lo + k - 1, y, x), loadf(pcell(gc, k, y, x)));
            }}
        }}
    }}
}}

// Halo exchange with the z-neighbours. A peer death surfaces here as an
// MPIX_ERR_PROC_FAILED completion, tested as r + 1 == 0.
fn exchange() -> int {{
    var int fail;
    var int r;
    var int pb;
    fail = 0;
    pb = ny * nx * 8;
    if (me > 0) {{
        mpi_send(pcell(gc, 1, 0, 0), pb, me - 1, 1);
    }}
    if (me < np - 1) {{
        mpi_send(pcell(gc, nloc, 0, 0), pb, me + 1, 2);
    }}
    if (me > 0) {{
        r = mpi_recv(pcell(gc, 0, 0, 0), pb, me - 1, 2);
        if (r + 1 == 0) {{
            fail = 1;
        }}
    }}
    if (me < np - 1) {{
        r = mpi_recv(pcell(gc, nloc + 1, 0, 0), pb, me + 1, 1);
        if (r + 1 == 0) {{
            fail = 1;
        }}
    }}
    return fail;
}}

// One 7-point relaxation sweep; global boundary planes stay fixed.
fn relax() {{
    var int k;
    var int y;
    var int x;
    var int z;
    var float v;
    for (k = 1; k <= nloc; k = k + 1) {{
        z = lo + k - 1;
        for (y = 0; y < ny; y = y + 1) {{
            for (x = 0; x < nx; x = x + 1) {{
                v = loadf(pcell(gc, k, y, x));
                if (z > 0 && z < nz - 1 && y > 0 && y < ny - 1 && x > 0 && x < nx - 1) {{
                    v = (loadf(pcell(gc, k - 1, y, x)) + loadf(pcell(gc, k + 1, y, x))
                        + loadf(pcell(gc, k, y - 1, x)) + loadf(pcell(gc, k, y + 1, x))
                        + loadf(pcell(gc, k, y, x - 1)) + loadf(pcell(gc, k, y, x + 1))) / 6.0;
                }}
                storef(pcell(gn, k, y, x), v);
            }}
        }}
    }}
    k = gc;
    gc = gn;
    gn = k;
}}

// Global residual via allreduce. The value is only a sanity probe (the
// output must stay decomposition-independent, and allreduce summation
// order is not); a known failure leaves it stale, which is fine — the
// iterations since the control point are rolled back anyway.
fn residual() {{
    var int k;
    var int y;
    var int x;
    var float s;
    s = 0.0;
    for (k = 1; k <= nloc; k = k + 1) {{
        for (y = 0; y < ny; y = y + 1) {{
            for (x = 0; x < nx; x = x + 1) {{
                s = s + loadf(pcell(gc, k, y, x)) * loadf(pcell(gc, k, y, x));
            }}
        }}
    }}
    red[0] = s;
    mpi_allreduce(addr(red), 1, addr(red) + 8);
    eps = red[1];
    assert(isnan(eps) == 0, "jacobi3d: residual diverged to NaN");
}}

// Control point: allgather the global grid (one broadcast per slab
// owner), agree on the fault flags, and checkpoint on success.
fn control_point() -> int {{
    var int root;
    var int res;
    var int r;
    var int rlo;
    var int rhi;
    store_slab();
    for (root = 0; root < np; root = root + 1) {{
        rlo = nz * root / np;
        rhi = nz * (root + 1) / np;
        mpi_bcast(gcell(rlo, 0, 0), (rhi - rlo) * ny * nx * 8, root);
    }}
    res = mpix_comm_agree(flag_fault);
    if (res == 0) {{
        r = fl_ckpt_save(gbuf, nz * ny * nx * 8);
        saved_it = it;
    }}
    return res;
}}

// The ULFM recovery sequence: acknowledge the failures, rebuild the
// world over the survivors, redistribute from the last checkpoint, and
// roll the iteration clock back to the control point.
fn recover() {{
    var int r;
    r = mpix_comm_failure_ack();
    r = mpix_comm_failure_get_acked();
    assert(r != 0, "jacobi3d: agreement failed but no failure acked");
    me = mpix_comm_shrink();
    np = mpi_size();
    bounds();
    r = fl_ckpt_restore(gbuf, nz * ny * nx * 8);
    if (r == 0) {{
        init_global();
        it = 0;
        saved_it = 0;
    }} else {{
        it = saved_it;
    }}
    load_slab();
    flag_fault = 0;
}}

fn setup() {{
    var int sb;
    bounds();
    sb = (nz + 2) * ny * nx * 8;
    gc = malloc(sb);
    gn = malloc(sb);
    gbuf = malloc(nz * ny * nx * 8);
    init_global();
    load_slab();
}}

// Rank 0 writes the gathered final field: a sequential global checksum
// and the centreline, both decomposition-independent.
fn write_output() {{
    var int z;
    var int y;
    var int x;
    var float s;
    if (me == 0) {{
        s = 0.0;
        for (z = 0; z < nz; z = z + 1) {{
            for (y = 0; y < ny; y = y + 1) {{
                for (x = 0; x < nx; x = x + 1) {{
                    s = s + loadf(gcell(z, y, x));
                }}
            }}
        }}
        fwrite_str("SUM ");
        fwrite_flt(s, 4);
        fwrite_str("\n");
        for (z = 0; z < nz; z = z + 1) {{
            fwrite_flt(loadf(gcell(z, ny / 2, nx / 2)), 4);
            fwrite_str(" ");
        }}
        fwrite_str("\n");
    }}
}}

fn main() {{
    var int r;
    var int done;
    mpi_init();
    me = mpi_rank();
    np = mpi_size();
    j3_startup();
    setup();
    it = 0;
    done = 0;
    while (done == 0) {{
        if (flag_fault != 0 || it % cp == 0 || it >= nsteps) {{
            r = control_point();
            if (r != 0) {{
                recover();
            }} else {{
                if (it >= nsteps) {{
                    done = 1;
                }}
            }}
        }}
        if (done == 0) {{
            r = exchange();
            if (r != 0) {{
                flag_fault = 1;
            }}
            if (flag_fault == 0) {{
                relax();
                residual();
                it = it + 1;
            }}
        }}
    }}
    write_output();
    mpi_finalize();
}}
"#
    )
}

#[cfg(test)]
mod tests {
    use crate::{App, AppKind, AppParams};
    use fl_mpi::WorldExit;

    #[test]
    fn jacobi3d_runs_clean_and_writes_output() {
        let app = App::build(AppKind::Jacobi3d, AppParams::tiny(AppKind::Jacobi3d));
        let mut w = app.world(200_000_000);
        assert_eq!(w.run(), WorldExit::Clean);
        let out = String::from_utf8(w.machine(0).outfile.clone()).unwrap();
        assert!(out.starts_with("SUM "), "{out}");
        assert_eq!(out.lines().count(), 2);
    }

    #[test]
    fn jacobi3d_output_is_rank_count_independent() {
        // The whole premise of app-side recovery via shrink: the fixed
        // global grid yields the same answer at any decomposition.
        let p4 = AppParams::tiny(AppKind::Jacobi3d);
        let mut p3 = p4;
        p3.nranks = p4.nranks - 1;
        let a4 = App::build(AppKind::Jacobi3d, p4);
        let a3 = App::build(AppKind::Jacobi3d, p3);
        let g4 = a4.golden(200_000_000);
        let g3 = a3.golden(200_000_000);
        assert!(!g4.output.is_empty());
        assert_eq!(
            g4.output, g3.output,
            "jacobi3d output must not depend on the rank count"
        );
    }

    #[test]
    fn jacobi3d_survives_a_rank_kill_by_shrinking() {
        // The headline property: a rank dies mid-run, the application
        // notices via MPIX_ERR_PROC_FAILED, agrees, shrinks, restores
        // its control-point checkpoint over the survivors — and still
        // produces the fault-free golden output.
        let app = App::build(AppKind::Jacobi3d, AppParams::tiny(AppKind::Jacobi3d));
        let golden = app.golden(200_000_000);
        let mut w = app.world(2_000_000_000);
        w.arm(fl_mpi::Fault::kill(1, golden.blocks[1] / 2, false));
        assert_eq!(w.run(), WorldExit::Clean);
        assert_eq!(w.nranks(), app.params.nranks - 1);
        assert!(w.app_shrinks() > 0);
        assert_eq!(app.comparable_output(&w), golden.output);
    }

    #[test]
    fn jacobi3d_is_deterministic() {
        let app = App::build(AppKind::Jacobi3d, AppParams::tiny(AppKind::Jacobi3d));
        let g1 = app.golden(200_000_000);
        let g2 = app.golden(200_000_000);
        assert_eq!(g1.output, g2.output);
        assert_eq!(g1.insns, g2.insns);
    }
}
