//! Geometric multigrid V-cycle preconditioner for the conductance system.
//!
//! The fine grid is the model's `nl x ny x nx` finite-volume network.
//! Coarsening aggregates 2x2 cells in x/y **within each layer** (layers are
//! few and strongly coupled vertically, so the stack is never coarsened in
//! z). With piecewise-constant prolongation over those aggregates, the
//! Galerkin coarse operator `P^T A P` is again a conductance network:
//!
//! * a coarse lateral conductance is the **sum of the fine conductances
//!   crossing** between the two aggregates,
//! * a coarse vertical/ambient conductance is the sum over the aggregate,
//! * the coarse diagonal is the aggregate's diagonal sum minus twice the
//!   conductances interior to the aggregate.
//!
//! So every level is the same kind of SPD system and reuses the same
//! mat-vec. Smoothing is red-black **z-line Gauss-Seidel**: for each (x, y)
//! column of one color, the tridiagonal system through the stack is solved
//! exactly (Thomas algorithm). Point smoothers stall on layered packages
//! because the thin-layer vertical conductances dwarf the lateral ones;
//! line relaxation in z removes exactly that stiff direction. The coarsest
//! level (at most [`COARSE_CELLS`] cells per layer) is solved directly via
//! a dense Cholesky factorization computed once at setup.
//!
//! The V-cycle (one red-black pre-sweep, coarse-grid correction, one
//! black-red post-sweep) is a symmetric positive-definite linear operator,
//! as required of a CG preconditioner; used inside
//! [`crate::ThermalModel::solve`] it cuts iteration counts on the 64x64
//! production grid from hundreds to tens.
//!
//! # Parallelism and determinism
//!
//! On levels of at least [`crate::model::PAR_MIN_NODES`] nodes every
//! V-cycle kernel runs chunked across the persistent [`tesa_util::pool`]:
//! the grid's `iy` rows are cut into contiguous ranges and each lane owns
//! the `&mut` row slices of one range. For the Gauss-Seidel sweeps the only
//! cross-chunk reads are of the *non-written* color (a row's lateral
//! neighbors in adjacent rows have the opposite parity), so those boundary
//! rows are snapshotted before the sweep — the snapshot equals the live
//! values throughout the sweep, and every column solve therefore reads
//! exactly the values the one-chunk sweep would. Results are
//! bit-identical for any lane count: a single lane runs the same kernel as
//! one chunk.
//!
//! # Several right-hand sides
//!
//! Every kernel runs over k systems interleaved `[node][rhs]` (element
//! (i, s) at `i * k + s`) and streams the level's coefficient arrays once
//! for all of them. Per system the arithmetic sequence (operand order,
//! accumulation order, row partition) does not depend on k, so every
//! system's output is bit-identical to a V-cycle of that system alone —
//! see the batching notes in `solver.rs`. A single system is k = 1.

use crate::solver::{dispatch_width, eff_width};

/// Stop coarsening once a level has at most this many cells per layer.
const COARSE_CELLS: usize = 16;

/// Over-correction factor on the coarse-grid correction. Piecewise-constant
/// aggregation underestimates the correction's energy norm (the classic
/// defect of unsmoothed aggregation), and scaling the prolonged correction
/// recovers most of the lost convergence rate. The preconditioner stays
/// symmetric for any positive factor.
const OMEGA: f64 = 1.8;

/// One level of the hierarchy: a conductance network plus its scratch-free
/// structural data. Level 0 is the fine grid.
#[derive(Debug, Clone)]
pub(crate) struct Level {
    nx: usize,
    ny: usize,
    nl: usize,
    /// Lateral conductance to the +x neighbor: `nl * ny * (nx-1)`.
    gx: Vec<f64>,
    /// Lateral conductance to the +y neighbor: `nl * (ny-1) * nx`.
    gy: Vec<f64>,
    /// Vertical conductance to the layer above: `(nl-1) * ny * nx`.
    gz: Vec<f64>,
    /// Matrix diagonal (includes ambient conductances on the fine grid and
    /// their aggregate sums on coarse grids).
    diag: Vec<f64>,
    /// Precomputed Thomas factors for the z-line solves, per node: the
    /// modified upper diagonal `c'` and the reciprocal pivot `1/denom`.
    /// They depend only on `diag`/`gz`, so factoring once at build time
    /// removes every division from the smoothing sweeps.
    line_c: Vec<f64>,
    line_inv: Vec<f64>,
}

/// The assembled hierarchy plus the coarsest-level Cholesky factor.
#[derive(Debug, Clone)]
pub(crate) struct Multigrid {
    levels: Vec<Level>,
    /// Lower-triangular Cholesky factor of the coarsest operator, dense
    /// row-major `n_c x n_c`.
    chol: Vec<f64>,
}

/// Per-solve scratch for the V-cycle: one (rhs, x, residual) triple per
/// level plus per-lane Thomas-algorithm workspaces sized to the stack
/// depth, all widened to `[node][rhs]` interleaving at the batch width.
/// Sized for the largest width seen so far — retirement shrinks the active
/// width mid-solve, and the kernels then use prefixes of the same
/// allocations.
#[derive(Debug, Default)]
pub(crate) struct MgScratch {
    rhs: Vec<Vec<f64>>,
    x: Vec<Vec<f64>>,
    r: Vec<Vec<f64>>,
    /// Thomas sweep rhs workspaces, one `nl * nx * kmax` row block per lane
    /// (sized for the fine level; coarser levels use a prefix).
    bufs: Vec<Vec<f64>>,
    /// Boundary-row snapshots for the chunked sweeps: two row blocks per
    /// chunk (the rows just above and below each chunk).
    snap: Vec<f64>,
    /// Largest batch width the level vectors are sized for.
    kmax: usize,
}

impl MgScratch {
    fn ensure(&mut self, mg: &Multigrid, lanes: usize, k: usize) {
        if self.rhs.len() != mg.levels.len() || self.kmax < k {
            let kk = k.max(self.kmax).max(1);
            self.rhs = mg.levels.iter().map(|l| vec![0.0; l.n() * kk]).collect();
            self.x = mg.levels.iter().map(|l| vec![0.0; l.n() * kk]).collect();
            self.r = mg.levels.iter().map(|l| vec![0.0; l.n() * kk]).collect();
            self.kmax = kk;
        }
        let block = mg.levels[0].nl * mg.levels[0].nx * self.kmax;
        if self.bufs.len() != lanes || self.bufs.first().is_none_or(|b| b.len() != block) {
            self.bufs = (0..lanes).map(|_| vec![0.0; block]).collect();
        }
        let snap_need = 2 * lanes * block;
        if self.snap.len() != snap_need {
            self.snap = vec![0.0; snap_need];
        }
    }
}

/// The `gx` row for one `(layer, iy)` pair: `nx - 1` +x-edge conductances.
#[inline]
fn gx_row(gx: &[f64], l: usize, iy: usize, nx: usize, ny: usize) -> &[f64] {
    &gx[l * ny * (nx - 1) + iy * (nx - 1)..]
}

impl Level {
    fn new(
        nx: usize,
        ny: usize,
        nl: usize,
        gx: Vec<f64>,
        gy: Vec<f64>,
        gz: Vec<f64>,
        diag: Vec<f64>,
    ) -> Self {
        let mut level =
            Self { nx, ny, nl, gx, gy, gz, diag, line_c: Vec::new(), line_inv: Vec::new() };
        level.factor_lines();
        level
    }

    /// Factors every z-line tridiagonal (Thomas forward elimination on
    /// `diag`/`-gz`) so the smoothing sweeps are division-free.
    fn factor_lines(&mut self) {
        let (nx, ny, nl) = (self.nx, self.ny, self.nl);
        let plane = ny * nx;
        let n = self.n();
        self.line_c = vec![0.0; n];
        self.line_inv = vec![0.0; n];
        for c in 0..plane {
            let mut denom = self.diag[c];
            self.line_inv[c] = 1.0 / denom;
            if nl > 1 {
                self.line_c[c] = -self.gz[c] / denom;
            }
            for l in 1..nl {
                let i = l * plane + c;
                // denom_l = diag_l - gz_{l-1}^2 / denom_{l-1}.
                denom = self.diag[i] + self.gz[(l - 1) * plane + c] * self.line_c[i - plane];
                self.line_inv[i] = 1.0 / denom;
                if l + 1 < nl {
                    self.line_c[i] = -self.gz[l * plane + c] / denom;
                }
            }
        }
    }

    pub(crate) fn n(&self) -> usize {
        self.nl * self.ny * self.nx
    }

    /// Grid dimensions `(nx, ny, nl)` of this level.
    pub(crate) fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nl)
    }

    #[inline]
    fn idx(&self, l: usize, ix: usize, iy: usize) -> usize {
        l * self.ny * self.nx + iy * self.nx + ix
    }

    /// `y = A x` over k interleaved `[node][rhs]` systems in gather form
    /// (every output cell is written exactly once) — one fused pass over
    /// this level's conductance arrays.
    pub(crate) fn apply(&self, x: &[f64], y: &mut [f64], lanes: usize, k: usize) {
        crate::model::apply_network(
            self.nx, self.ny, self.nl, &self.gx, &self.gy, &self.gz, &self.diag, x, y, lanes, k,
        );
    }

    /// Effective chunk count for this level's row-parallel kernels: `lanes`
    /// clamped to the row count, or 1 below the parallel size gate.
    fn chunk_lanes(&self, lanes: usize) -> usize {
        if self.n() >= crate::model::PAR_MIN_NODES {
            lanes.min(self.ny).max(1)
        } else {
            1
        }
    }

    /// Splits an l-major `nl * ny * nx` field of k interleaved systems into
    /// per-chunk row sets for `nc` contiguous `iy` ranges of span `span`:
    /// chunk `c` receives the `&mut` rows `(l, iy)` (each `nx * k` elements)
    /// with `iy` in `[c*span, (c+1)*span)`, ordered so that index
    /// `l * cny + (iy - y0)` addresses row `(l, iy)`.
    fn bucket_rows<'a>(
        &self,
        data: &'a mut [f64],
        span: usize,
        nc: usize,
        k: usize,
    ) -> Vec<Vec<&'a mut [f64]>> {
        let mut groups: Vec<Vec<&'a mut [f64]>> =
            (0..nc).map(|_| Vec::with_capacity(self.nl * span)).collect();
        for (r, row) in data.chunks_mut(self.nx * k).enumerate() {
            groups[(r % self.ny) / span].push(row);
        }
        groups
    }

    /// Builds the Galerkin coarse level under 2x aggregation in x and y.
    fn coarsen(&self) -> Level {
        let (nx, ny, nl) = (self.nx, self.ny, self.nl);
        let nxc = nx.div_ceil(2);
        let nyc = ny.div_ceil(2);
        let mut c = Level {
            nx: nxc,
            ny: nyc,
            nl,
            gx: vec![0.0; nl * nyc * (nxc - 1).max(1)],
            gy: vec![0.0; nl * (nyc - 1).max(1) * nxc],
            gz: vec![0.0; nl.saturating_sub(1) * nyc * nxc],
            diag: vec![0.0; nl * nyc * nxc],
            line_c: Vec::new(),
            line_inv: Vec::new(),
        };
        // Aggregate diagonal sums; interior conductances are subtracted
        // below while classifying edges.
        for l in 0..nl {
            for iy in 0..ny {
                for ix in 0..nx {
                    let ci = c.idx(l, ix / 2, iy / 2);
                    c.diag[ci] += self.diag[self.idx(l, ix, iy)];
                }
            }
        }
        // x-edges: interior to an aggregate (even fine index) fold into the
        // coarse diagonal; crossing edges (odd fine index) sum into gx.
        for l in 0..nl {
            for iy in 0..ny {
                for ix in 0..nx.saturating_sub(1) {
                    let g = self.gx[l * ny * (nx - 1) + iy * (nx - 1) + ix];
                    let (cix, ciy) = (ix / 2, iy / 2);
                    if ix % 2 == 0 {
                        let ci = c.idx(l, cix, ciy);
                        c.diag[ci] -= 2.0 * g;
                    } else {
                        c.gx[l * nyc * (nxc - 1) + ciy * (nxc - 1) + cix] += g;
                    }
                }
            }
        }
        for l in 0..nl {
            for iy in 0..ny.saturating_sub(1) {
                for ix in 0..nx {
                    let g = self.gy[l * (ny - 1) * nx + iy * nx + ix];
                    let (cix, ciy) = (ix / 2, iy / 2);
                    if iy % 2 == 0 {
                        let ci = c.idx(l, cix, ciy);
                        c.diag[ci] -= 2.0 * g;
                    } else {
                        c.gy[l * (nyc - 1) * nxc + ciy * nxc + cix] += g;
                    }
                }
            }
        }
        // z-edges always cross between (aligned) aggregates of adjacent
        // layers, never within one.
        for l in 0..nl.saturating_sub(1) {
            for iy in 0..ny {
                for ix in 0..nx {
                    c.gz[l * nyc * nxc + (iy / 2) * nxc + ix / 2] +=
                        self.gz[l * ny * nx + iy * nx + ix];
                }
            }
        }
        c.factor_lines();
        c
    }

    /// One red-black sweep of z-line Gauss-Seidel: columns with
    /// `(ix + iy) % 2 == color` are each solved exactly through the stack
    /// (pre-factored Thomas algorithm), reading the latest neighbor values.
    ///
    /// `gather` controls whether lateral neighbor values are folded into the
    /// column rhs. Pass `false` for the very first sweep of a V-cycle,
    /// where the iterate is (implicitly) zero and there is nothing to
    /// gather — the caller then does not even need to zero `x`, because a
    /// sweep pair writes every entry before any is read.
    ///
    /// The work runs row-major in short per-layer passes over a per-lane
    /// `nl * nx` buffer, not column-at-a-time, so the hot loops stay in L1
    /// and free of index arithmetic on the `plane` stride. Above the
    /// parallel gate the `iy` rows are cut into up to `lanes` contiguous
    /// chunks dispatched on the pool; each chunk's boundary rows are
    /// snapshotted first (see the module docs — only the non-written color
    /// crosses chunk edges, so the snapshot equals the live values and the
    /// result is bit-identical to the one-chunk sweep). Every column solve
    /// runs all k interleaved systems.
    #[allow(clippy::too_many_arguments)]
    fn line_sweep(
        &self,
        b: &[f64],
        x: &mut [f64],
        color: usize,
        gather: bool,
        bufs: &mut [Vec<f64>],
        snap: &mut [f64],
        lanes: usize,
        k: usize,
    ) {
        let (nx, ny, nl) = (self.nx, self.ny, self.nl);
        let plane = ny * nx;
        let w = nx * k;
        let block = nl * w;
        let lanes = self.chunk_lanes(lanes);
        if lanes <= 1 {
            let mut rows: Vec<&mut [f64]> = x.chunks_mut(w).collect();
            let buf = &mut bufs[0][..block];
            dispatch_width!(
                k,
                self.sweep_chunk(b, color, gather, 0, ny, &mut rows, None, None, buf, k)
            );
            return;
        }
        let span = ny.div_ceil(lanes);
        let nc = ny.div_ceil(span);
        if gather {
            for c in 0..nc {
                let y0 = c * span;
                let y1 = (y0 + span).min(ny);
                if y0 > 0 {
                    let dst = &mut snap[2 * c * block..][..block];
                    for l in 0..nl {
                        let src = (l * plane + (y0 - 1) * nx) * k;
                        dst[l * w..(l + 1) * w].copy_from_slice(&x[src..src + w]);
                    }
                }
                if y1 < ny {
                    let dst = &mut snap[(2 * c + 1) * block..][..block];
                    for l in 0..nl {
                        let src = (l * plane + y1 * nx) * k;
                        dst[l * w..(l + 1) * w].copy_from_slice(&x[src..src + w]);
                    }
                }
            }
        }
        let snap: &[f64] = snap;
        let groups = self.bucket_rows(x, span, nc, k);
        type SweepItem<'a> = (usize, Vec<&'a mut [f64]>, &'a mut [f64]);
        let items: Vec<SweepItem<'_>> = groups
            .into_iter()
            .zip(bufs.iter_mut())
            .enumerate()
            .map(|(c, (rows, buf))| (c, rows, &mut buf[..block]))
            .collect();
        tesa_util::pool::global().scatter(lanes, items, |_, (c, mut rows, buf)| {
            let y0 = c * span;
            let y1 = (y0 + span).min(ny);
            let prev = (gather && y0 > 0).then(|| &snap[2 * c * block..][..block]);
            let next = (gather && y1 < ny).then(|| &snap[(2 * c + 1) * block..][..block]);
            dispatch_width!(
                k,
                self.sweep_chunk(b, color, gather, y0, y1, &mut rows, prev, next, buf, k)
            );
        });
    }

    /// One chunk of a red-black sweep: the rows `(l, iy)` for `iy` in
    /// `[y0, y1)`, owned as `&mut` slices indexed `l * (y1-y0) + (iy-y0)`.
    /// `prev`/`next` are the boundary-row snapshots (`nl * nx * k`,
    /// l-major) for the rows just outside the chunk; `None` at the grid
    /// edges. Rows, snapshots and `buf` hold k interleaved systems; every
    /// scalar operation of a one-system sweep is a k-wide inner loop in the
    /// identical order, and `KW` (via [`dispatch_width!`]) makes the width a
    /// compile-time constant so those inner loops unroll and vectorize.
    #[allow(clippy::too_many_arguments)]
    fn sweep_chunk<const KW: usize>(
        &self,
        b: &[f64],
        color: usize,
        gather: bool,
        y0: usize,
        y1: usize,
        rows: &mut [&mut [f64]],
        prev: Option<&[f64]>,
        next: Option<&[f64]>,
        buf: &mut [f64],
        k: usize,
    ) {
        let k = eff_width(KW, k);
        let (nx, ny, nl) = (self.nx, self.ny, self.nl);
        let plane = ny * nx;
        let cny = y1 - y0;
        let w = nx * k;
        for iy in y0..y1 {
            let liy = iy - y0;
            let start = (color + iy) % 2;
            // Column rhs per layer: b plus the lateral couplings.
            for l in 0..nl {
                let row = (l * plane + iy * nx) * k;
                let brow = &b[row..row + w];
                let bufl = &mut buf[l * w..(l + 1) * w];
                for ix in (start..nx).step_by(2) {
                    for s in 0..k {
                        bufl[ix * k + s] = brow[ix * k + s];
                    }
                }
                if !gather {
                    continue;
                }
                if nx > 1 {
                    let xrow: &[f64] = rows[l * cny + liy];
                    let gxrow = &gx_row(&self.gx, l, iy, nx, ny)[..nx - 1];
                    for ix in (if start == 0 { 2 } else { start }..nx).step_by(2) {
                        let g = gxrow[ix - 1];
                        for s in 0..k {
                            bufl[ix * k + s] += g * xrow[(ix - 1) * k + s];
                        }
                    }
                    for ix in (start..nx - 1).step_by(2) {
                        let g = gxrow[ix];
                        for s in 0..k {
                            bufl[ix * k + s] += g * xrow[(ix + 1) * k + s];
                        }
                    }
                }
                if iy > 0 {
                    let gyrow = &self.gy[l * (ny - 1) * nx + (iy - 1) * nx..][..nx];
                    let xprev: &[f64] = if liy == 0 {
                        &prev.expect("interior chunk edge carries a snapshot")[l * w..][..w]
                    } else {
                        rows[l * cny + liy - 1]
                    };
                    for ix in (start..nx).step_by(2) {
                        let g = gyrow[ix];
                        for s in 0..k {
                            bufl[ix * k + s] += g * xprev[ix * k + s];
                        }
                    }
                }
                if iy + 1 < ny {
                    let gyrow = &self.gy[l * (ny - 1) * nx + iy * nx..][..nx];
                    let xnext: &[f64] = if liy + 1 == cny {
                        &next.expect("interior chunk edge carries a snapshot")[l * w..][..w]
                    } else {
                        rows[l * cny + liy + 1]
                    };
                    for ix in (start..nx).step_by(2) {
                        let g = gyrow[ix];
                        for s in 0..k {
                            bufl[ix * k + s] += g * xnext[ix * k + s];
                        }
                    }
                }
            }
            // Division-free Thomas forward elimination with the factors
            // from [`Level::factor_lines`], row-major down the stack.
            {
                let invrow = &self.line_inv[iy * nx..][..nx];
                for ix in (start..nx).step_by(2) {
                    let inv = invrow[ix];
                    for s in 0..k {
                        buf[ix * k + s] *= inv;
                    }
                }
            }
            for l in 1..nl {
                let (prevb, cur) = buf.split_at_mut(l * w);
                let prevb = &prevb[(l - 1) * w..];
                let cur = &mut cur[..w];
                let gzrow = &self.gz[(l - 1) * plane + iy * nx..][..nx];
                let invrow = &self.line_inv[l * plane + iy * nx..][..nx];
                for ix in (start..nx).step_by(2) {
                    let (g, inv) = (gzrow[ix], invrow[ix]);
                    for s in 0..k {
                        cur[ix * k + s] = (cur[ix * k + s] + g * prevb[ix * k + s]) * inv;
                    }
                }
            }
            // Back substitution, writing the solved columns into the owned
            // rows (reading the layer above, solved just before).
            {
                let bufl = &buf[(nl - 1) * w..nl * w];
                let xrow = &mut rows[(nl - 1) * cny + liy];
                for ix in (start..nx).step_by(2) {
                    for s in 0..k {
                        xrow[ix * k + s] = bufl[ix * k + s];
                    }
                }
            }
            for l in (0..nl.saturating_sub(1)).rev() {
                let (lo, hi) = rows.split_at_mut((l + 1) * cny);
                let cur = &mut lo[l * cny + liy];
                let above: &[f64] = hi[liy];
                let crow = &self.line_c[l * plane + iy * nx..][..nx];
                let bufl = &buf[l * w..(l + 1) * w];
                for ix in (start..nx).step_by(2) {
                    let cc = crow[ix];
                    for s in 0..k {
                        cur[ix * k + s] = bufl[ix * k + s] - cc * above[ix * k + s];
                    }
                }
            }
        }
    }

    /// Residual `res = b - A x` after a (red, black) pre-smoothing pair.
    /// The black columns were solved last against final red values, so
    /// their equations hold exactly and the residual is computed only on
    /// red columns (`(ix + iy) % 2 == 0`); black entries are set to zero.
    /// `x` is only read, so the row-chunked parallel path needs no
    /// snapshots; every output element is computed by the one-chunk
    /// expression.
    fn residual_red(&self, b: &[f64], x: &[f64], res: &mut [f64], lanes: usize, k: usize) {
        let ny = self.ny;
        let lanes = self.chunk_lanes(lanes);
        if lanes <= 1 {
            let mut rows: Vec<&mut [f64]> = res.chunks_mut(self.nx * k).collect();
            dispatch_width!(k, self.residual_chunk(b, x, 0, ny, &mut rows, k));
            return;
        }
        let span = ny.div_ceil(lanes);
        let nc = ny.div_ceil(span);
        let groups = self.bucket_rows(res, span, nc, k);
        let items: Vec<(usize, Vec<&mut [f64]>)> = groups.into_iter().enumerate().collect();
        tesa_util::pool::global().scatter(lanes, items, |_, (c, mut rows)| {
            let y0 = c * span;
            let y1 = (y0 + span).min(ny);
            dispatch_width!(k, self.residual_chunk(b, x, y0, y1, &mut rows, k));
        });
    }

    /// The rows `(l, iy)` with `iy` in `[y0, y1)` of [`Level::residual_red`],
    /// written through owned row slices indexed `l * (y1-y0) + (iy-y0)`.
    fn residual_chunk<const KW: usize>(
        &self,
        b: &[f64],
        x: &[f64],
        y0: usize,
        y1: usize,
        rows: &mut [&mut [f64]],
        k: usize,
    ) {
        let k = eff_width(KW, k);
        let (nx, ny, nl) = (self.nx, self.ny, self.nl);
        let plane = ny * nx;
        let cny = y1 - y0;
        for l in 0..nl {
            for iy in y0..y1 {
                let start = iy % 2;
                let row = (l * plane + iy * nx) * k;
                let w = nx * k;
                let xrow = &x[row..row + w];
                let brow = &b[row..row + w];
                let drow = &self.diag[l * plane + iy * nx..][..nx];
                let rrow = &mut rows[l * cny + (iy - y0)];
                rrow.fill(0.0);
                for ix in (start..nx).step_by(2) {
                    let d = drow[ix];
                    for s in 0..k {
                        rrow[ix * k + s] = brow[ix * k + s] - d * xrow[ix * k + s];
                    }
                }
                if nx > 1 {
                    let gxrow = &gx_row(&self.gx, l, iy, nx, ny)[..nx - 1];
                    for ix in (if start == 0 { 2 } else { start }..nx).step_by(2) {
                        let g = gxrow[ix - 1];
                        for s in 0..k {
                            rrow[ix * k + s] += g * xrow[(ix - 1) * k + s];
                        }
                    }
                    for ix in (start..nx - 1).step_by(2) {
                        let g = gxrow[ix];
                        for s in 0..k {
                            rrow[ix * k + s] += g * xrow[(ix + 1) * k + s];
                        }
                    }
                }
                if iy > 0 {
                    let gyrow = &self.gy[l * (ny - 1) * nx + (iy - 1) * nx..][..nx];
                    let xprev = &x[row - w..row];
                    for ix in (start..nx).step_by(2) {
                        let g = gyrow[ix];
                        for s in 0..k {
                            rrow[ix * k + s] += g * xprev[ix * k + s];
                        }
                    }
                }
                if iy + 1 < ny {
                    let gyrow = &self.gy[l * (ny - 1) * nx + iy * nx..][..nx];
                    let xnext = &x[row + w..row + 2 * w];
                    for ix in (start..nx).step_by(2) {
                        let g = gyrow[ix];
                        for s in 0..k {
                            rrow[ix * k + s] += g * xnext[ix * k + s];
                        }
                    }
                }
                if l > 0 {
                    let gzrow = &self.gz[(l - 1) * plane + iy * nx..][..nx];
                    let xbelow = &x[row - plane * k..row - plane * k + w];
                    for ix in (start..nx).step_by(2) {
                        let g = gzrow[ix];
                        for s in 0..k {
                            rrow[ix * k + s] += g * xbelow[ix * k + s];
                        }
                    }
                }
                if l + 1 < nl {
                    let gzrow = &self.gz[l * plane + iy * nx..][..nx];
                    let xabove = &x[row + plane * k..row + plane * k + w];
                    for ix in (start..nx).step_by(2) {
                        let g = gzrow[ix];
                        for s in 0..k {
                            rrow[ix * k + s] += g * xabove[ix * k + s];
                        }
                    }
                }
            }
        }
    }

    /// Restriction `r_c[I] = sum_{i in I} r_f[i]` (transpose of the
    /// piecewise-constant prolongation). Chunked over *coarse* rows — each
    /// coarse row aggregates a fixed pair of fine rows in a fixed
    /// summation order, so any chunking is bit-identical.
    pub(crate) fn restrict_to(
        &self,
        coarse: &Level,
        fine_r: &[f64],
        coarse_b: &mut [f64],
        lanes: usize,
        k: usize,
    ) {
        let lanes = self.chunk_lanes(lanes).min(coarse.ny);
        if lanes <= 1 {
            let mut rows: Vec<&mut [f64]> = coarse_b.chunks_mut(coarse.nx * k).collect();
            dispatch_width!(k, self.restrict_chunk(fine_r, 0, coarse.ny, &mut rows, k));
            return;
        }
        let span = coarse.ny.div_ceil(lanes);
        let nc = coarse.ny.div_ceil(span);
        let groups = coarse.bucket_rows(coarse_b, span, nc, k);
        let items: Vec<(usize, Vec<&mut [f64]>)> = groups.into_iter().enumerate().collect();
        tesa_util::pool::global().scatter(lanes, items, |_, (c, mut rows)| {
            let cy0 = c * span;
            let cy1 = (cy0 + span).min(coarse.ny);
            dispatch_width!(k, self.restrict_chunk(fine_r, cy0, cy1, &mut rows, k));
        });
    }

    /// The coarse rows `(l, ciy)` with `ciy` in `[cy0, cy1)` of the
    /// restriction, written through owned coarse-row slices. Per coarse
    /// cell and system the fine contributions are added `iy`-then-`ix`
    /// ascending — the order of the historical fine-major accumulation
    /// loop.
    fn restrict_chunk<const KW: usize>(
        &self,
        fine_r: &[f64],
        cy0: usize,
        cy1: usize,
        rows: &mut [&mut [f64]],
        k: usize,
    ) {
        let k = eff_width(KW, k);
        let cny = cy1 - cy0;
        for l in 0..self.nl {
            for ciy in cy0..cy1 {
                let crow = &mut rows[l * cny + (ciy - cy0)];
                crow.fill(0.0);
                for iy in (2 * ciy)..(2 * ciy + 2).min(self.ny) {
                    let frow = &fine_r[self.idx(l, 0, iy) * k..][..self.nx * k];
                    // Coarse cell `cix` aggregates fine cells `2cix, 2cix+1`.
                    for (dst, pair) in crow.chunks_exact_mut(k).zip(frow.chunks(2 * k)) {
                        for fv in pair.chunks_exact(k) {
                            for s in 0..k {
                                dst[s] += fv[s];
                            }
                        }
                    }
                }
            }
        }
    }

    /// Prolongation: adds the coarse correction, scaled by [`OMEGA`], to
    /// every covered fine cell. Each fine cell gets exactly one addition,
    /// so any row chunking is bit-identical.
    fn prolong_add(
        &self,
        coarse: &Level,
        coarse_x: &[f64],
        fine_x: &mut [f64],
        lanes: usize,
        k: usize,
    ) {
        let lanes = self.chunk_lanes(lanes);
        if lanes <= 1 {
            let mut rows: Vec<&mut [f64]> = fine_x.chunks_mut(self.nx * k).collect();
            dispatch_width!(k, self.prolong_chunk(coarse, coarse_x, 0, self.ny, &mut rows, k));
            return;
        }
        let span = self.ny.div_ceil(lanes);
        let nc = self.ny.div_ceil(span);
        let groups = self.bucket_rows(fine_x, span, nc, k);
        let items: Vec<(usize, Vec<&mut [f64]>)> = groups.into_iter().enumerate().collect();
        tesa_util::pool::global().scatter(lanes, items, |_, (c, mut rows)| {
            let y0 = c * span;
            let y1 = (y0 + span).min(self.ny);
            dispatch_width!(k, self.prolong_chunk(coarse, coarse_x, y0, y1, &mut rows, k));
        });
    }

    /// The fine rows `(l, iy)` with `iy` in `[y0, y1)` of the prolongation,
    /// written through owned fine-row slices.
    fn prolong_chunk<const KW: usize>(
        &self,
        coarse: &Level,
        coarse_x: &[f64],
        y0: usize,
        y1: usize,
        rows: &mut [&mut [f64]],
        k: usize,
    ) {
        let k = eff_width(KW, k);
        let cny = y1 - y0;
        for l in 0..self.nl {
            for iy in y0..y1 {
                let frow = &mut rows[l * cny + (iy - y0)];
                let crow = &coarse_x[coarse.idx(l, 0, iy / 2) * k..][..coarse.nx * k];
                for (ix, dst) in frow.chunks_exact_mut(k).enumerate() {
                    let c = (ix / 2) * k;
                    for s in 0..k {
                        dst[s] += OMEGA * crow[c + s];
                    }
                }
            }
        }
    }

    /// Dense row-major matrix of this level's operator (coarsest level
    /// only; used to compute the Cholesky factor).
    fn dense(&self) -> Vec<f64> {
        let n = self.n();
        let (nx, ny, nl) = (self.nx, self.ny, self.nl);
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = self.diag[i];
        }
        let mut couple = |i: usize, j: usize, g: f64| {
            a[i * n + j] -= g;
            a[j * n + i] -= g;
        };
        for l in 0..nl {
            for iy in 0..ny {
                for ix in 0..nx.saturating_sub(1) {
                    let i = l * ny * nx + iy * nx + ix;
                    couple(i, i + 1, self.gx[l * ny * (nx - 1) + iy * (nx - 1) + ix]);
                }
            }
            for iy in 0..ny.saturating_sub(1) {
                for ix in 0..nx {
                    let i = l * ny * nx + iy * nx + ix;
                    couple(i, i + nx, self.gy[l * (ny - 1) * nx + iy * nx + ix]);
                }
            }
        }
        for l in 0..nl.saturating_sub(1) {
            for c in 0..ny * nx {
                couple(l * ny * nx + c, (l + 1) * ny * nx + c, self.gz[l * ny * nx + c]);
            }
        }
        a
    }
}

/// In-place dense Cholesky `A = L L^T`; returns the lower factor (upper
/// entries left untouched and never read).
///
/// # Panics
///
/// Panics if the matrix is not positive definite — for a conductance
/// network with an ambient anchor that indicates a malformed stack.
fn cholesky(mut a: Vec<f64>, n: usize) -> Vec<f64> {
    for j in 0..n {
        for k in 0..j {
            let ljk = a[j * n + k];
            for i in j..n {
                a[i * n + j] -= a[i * n + k] * ljk;
            }
        }
        let d = a[j * n + j];
        assert!(d > 0.0, "coarse thermal operator is not positive definite");
        let inv = 1.0 / d.sqrt();
        for i in j..n {
            a[i * n + j] *= inv;
        }
    }
    a
}

/// Solves `L L^T x = b` given the lower factor, for system `s` of `k`
/// interleaved `[node][rhs]` ones.
fn cholesky_solve(chol: &[f64], n: usize, b: &[f64], x: &mut [f64], k: usize, s: usize) {
    for i in 0..n {
        x[i * k + s] = b[i * k + s];
    }
    for i in 0..n {
        let mut acc = x[i * k + s];
        for j in 0..i {
            acc -= chol[i * n + j] * x[j * k + s];
        }
        x[i * k + s] = acc / chol[i * n + i];
    }
    for i in (0..n).rev() {
        let mut acc = x[i * k + s];
        for j in i + 1..n {
            acc -= chol[j * n + i] * x[j * k + s];
        }
        x[i * k + s] = acc / chol[i * n + i];
    }
}

impl Multigrid {
    /// Builds the hierarchy from the fine-grid conductance network.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        nx: usize,
        ny: usize,
        nl: usize,
        gx: &[f64],
        gy: &[f64],
        gz: &[f64],
        diag: &[f64],
    ) -> Self {
        let mut levels =
            vec![Level::new(nx, ny, nl, gx.to_vec(), gy.to_vec(), gz.to_vec(), diag.to_vec())];
        loop {
            let last = levels.last().expect("at least the fine level");
            if last.nx * last.ny <= COARSE_CELLS {
                break;
            }
            let coarse = last.coarsen();
            if coarse.nx == last.nx && coarse.ny == last.ny {
                break; // 1-wide in both axes: cannot coarsen further.
            }
            levels.push(coarse);
        }
        let coarsest = levels.last().expect("hierarchy is non-empty");
        let chol = cholesky(coarsest.dense(), coarsest.n());
        Self { levels, chol }
    }

    /// Number of levels (>= 1; 1 means the fine grid is already coarse).
    pub(crate) fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The level at index `li` (0 = fine).
    pub(crate) fn level(&self, li: usize) -> &Level {
        &self.levels[li]
    }

    /// Applies the V-cycle preconditioner to k interleaved systems:
    /// `z ~= A^{-1} r`, starting from a zero initial guess. Symmetric by
    /// construction (red-black pre-sweep, black-red post-sweep) so it is a
    /// valid SPD preconditioner for CG. `lanes` caps the pool lanes of the
    /// chunked kernels; the result is bit-identical for every value.
    pub(crate) fn vcycle(
        &self,
        r: &[f64],
        z: &mut [f64],
        scratch: &mut MgScratch,
        lanes: usize,
        k: usize,
    ) {
        self.vcycle_from(0, r, z, scratch, lanes, k);
    }

    /// The V-cycle restricted to the sub-hierarchy rooted at level `start`:
    /// `z ~= A_start^{-1} r` for the level-`start` operator, with `r`/`z`
    /// sized to that level. `start == 0` is the full preconditioner; the
    /// thermal surrogate uses `start >= 1` to solve coarse systems in their
    /// own right. Symmetric for any `start`, so it remains a valid CG
    /// preconditioner on the coarse system. Every leg (smoother, residual,
    /// restriction, coarse direct solve, prolongation) streams the level's
    /// conductance arrays once for all k systems; the coarsest level runs
    /// each system's Cholesky solve on its strided lane.
    pub(crate) fn vcycle_from(
        &self,
        start: usize,
        r: &[f64],
        z: &mut [f64],
        scratch: &mut MgScratch,
        lanes: usize,
        k: usize,
    ) {
        let lanes = lanes.max(1);
        scratch.ensure(self, lanes, k);
        let MgScratch { rhs, x, r: res, bufs, snap, .. } = scratch;
        let depth = self.levels.len();
        let nk = |li: usize| self.levels[li].n() * k;
        rhs[start][..nk(start)].copy_from_slice(r);
        // Downward leg: smooth, compute residual, restrict.
        for li in start..depth - 1 {
            let level = &self.levels[li];
            let coarse = &self.levels[li + 1];
            let xl = &mut x[li][..nk(li)];
            let b = &rhs[li][..nk(li)];
            // Pre-smooth from a zero iterate: the red sweep needs no
            // lateral gather (and no explicit zeroing of x — the pair
            // writes every entry before any is read).
            level.line_sweep(b, xl, 0, false, bufs, snap, lanes, k);
            level.line_sweep(b, xl, 1, true, bufs, snap, lanes, k);
            // The black columns were solved last, so b - A x vanishes there
            // and only the red half needs computing.
            level.residual_red(b, xl, &mut res[li][..nk(li)], lanes, k);
            let (_, rtail) = rhs.split_at_mut(li + 1);
            level.restrict_to(coarse, &res[li][..nk(li)], &mut rtail[0][..nk(li + 1)], lanes, k);
        }
        // Coarsest level: direct solve.
        let coarsest = depth - 1;
        let n_c = self.levels[coarsest].n();
        for s in 0..k {
            cholesky_solve(&self.chol, n_c, &rhs[coarsest], &mut x[coarsest], k, s);
        }
        // Upward leg: prolong, post-smooth in reversed color order.
        for li in (start..depth - 1).rev() {
            let level = &self.levels[li];
            let coarse = &self.levels[li + 1];
            let (head, tail) = x.split_at_mut(li + 1);
            let xl = &mut head[li][..nk(li)];
            level.prolong_add(coarse, &tail[0][..nk(li + 1)], xl, lanes, k);
            let b = &rhs[li][..nk(li)];
            level.line_sweep(b, xl, 1, true, bufs, snap, lanes, k);
            level.line_sweep(b, xl, 0, true, bufs, snap, lanes, k);
        }
        z.copy_from_slice(&x[start][..nk(start)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny uniform 2-layer network for structural checks.
    fn uniform_level(nx: usize, ny: usize, nl: usize) -> Level {
        let mut diag = vec![0.0; nl * ny * nx];
        let gx = vec![1.0; nl * ny * (nx - 1).max(1)];
        let gy = vec![1.0; nl * (ny - 1).max(1) * nx];
        let gz = vec![2.0; nl.saturating_sub(1) * ny * nx];
        // Row sums + a weak ambient anchor on every top cell keep it SPD.
        for l in 0..nl {
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = l * ny * nx + iy * nx + ix;
                    let mut d = 0.0;
                    if ix > 0 {
                        d += 1.0;
                    }
                    if ix + 1 < nx {
                        d += 1.0;
                    }
                    if iy > 0 {
                        d += 1.0;
                    }
                    if iy + 1 < ny {
                        d += 1.0;
                    }
                    if l > 0 {
                        d += 2.0;
                    }
                    if l + 1 < nl {
                        d += 2.0;
                    }
                    if l == nl - 1 {
                        d += 0.5;
                    }
                    diag[i] = d;
                }
            }
        }
        Level::new(nx, ny, nl, gx, gy, gz, diag)
    }

    /// Galerkin invariant: row sums of `A` equal the total anchor
    /// conductance, and aggregation must preserve that sum exactly.
    #[test]
    fn coarsening_conserves_anchor_conductance() {
        let fine = uniform_level(8, 6, 3);
        let ones = vec![1.0; fine.n()];
        let mut row_sums = vec![0.0; fine.n()];
        fine.apply(&ones, &mut row_sums, 1, 1);
        let fine_total: f64 = row_sums.iter().sum();

        let coarse = fine.coarsen();
        let ones_c = vec![1.0; coarse.n()];
        let mut row_sums_c = vec![0.0; coarse.n()];
        coarse.apply(&ones_c, &mut row_sums_c, 1, 1);
        let coarse_total: f64 = row_sums_c.iter().sum();
        assert!(
            (fine_total - coarse_total).abs() < 1e-9 * fine_total.abs().max(1.0),
            "fine {fine_total} vs coarse {coarse_total}"
        );
    }

    #[test]
    fn coarse_dims_halve_and_round_up() {
        let fine = uniform_level(7, 4, 2);
        let coarse = fine.coarsen();
        assert_eq!((coarse.nx, coarse.ny, coarse.nl), (4, 2, 2));
    }

    #[test]
    fn cholesky_solves_a_known_system() {
        // A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11].
        let chol = cholesky(vec![4.0, 1.0, 1.0, 3.0], 2);
        let mut x = vec![0.0; 2];
        cholesky_solve(&chol, 2, &[1.0, 2.0], &mut x, 1, 0);
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn vcycle_is_symmetric() {
        // <M u, v> == <u, M v> for the V-cycle operator M — the property
        // that makes it admissible as a CG preconditioner.
        let fine = uniform_level(8, 8, 3);
        let mg = Multigrid::build(
            8,
            8,
            3,
            &fine.gx,
            &fine.gy,
            &fine.gz,
            &fine.diag,
        );
        assert!(mg.num_levels() >= 2);
        let n = fine.n();
        let mut rng_state = 0x1234_5678_u64;
        let mut next = || {
            // xorshift: enough to make two uncorrelated test vectors.
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state % 1000) as f64 / 1000.0 - 0.5
        };
        let u: Vec<f64> = (0..n).map(|_| next()).collect();
        let v: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut scratch = MgScratch::default();
        let mut mu = vec![0.0; n];
        let mut mv = vec![0.0; n];
        mg.vcycle(&u, &mut mu, &mut scratch, 1, 1);
        mg.vcycle(&v, &mut mv, &mut scratch, 1, 1);
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        let (muv, umv) = (dot(&mu, &v), dot(&u, &mv));
        assert!(
            (muv - umv).abs() <= 1e-9 * muv.abs().max(umv.abs()).max(1e-12),
            "<Mu,v> = {muv} vs <u,Mv> = {umv}"
        );
    }

    #[test]
    fn single_level_hierarchy_direct_solves() {
        // A grid at or below the coarse limit produces a 1-level hierarchy
        // whose V-cycle is exactly the direct solve.
        let fine = uniform_level(4, 4, 2);
        let mg = Multigrid::build(4, 4, 2, &fine.gx, &fine.gy, &fine.gz, &fine.diag);
        assert_eq!(mg.num_levels(), 1);
        let n = fine.n();
        let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut x = vec![0.0; n];
        let mut scratch = MgScratch::default();
        mg.vcycle(&b, &mut x, &mut scratch, 1, 1);
        let mut ax = vec![0.0; n];
        fine.apply(&x, &mut ax, 1, 1);
        for (a, bb) in ax.iter().zip(&b) {
            assert!((a - bb).abs() < 1e-9, "direct solve residual too large");
        }
    }

    /// Each system of a multi-RHS V-cycle must reproduce the single-system
    /// V-cycle of that system bit for bit, for any lane count — including
    /// widths that shrink between calls (retirement reuses the scratch).
    #[test]
    fn vcycle_multi_matches_single_system_per_system() {
        let fine = uniform_level(64, 64, 2);
        let mg = Multigrid::build(64, 64, 2, &fine.gx, &fine.gy, &fine.gz, &fine.diag);
        let n = fine.n();
        let k = 3;
        let rs: Vec<Vec<f64>> = (0..k)
            .map(|s| (0..n).map(|i| ((i * 37 + s * 11) % 101) as f64 / 101.0 - 0.5).collect())
            .collect();
        let mut single = Vec::new();
        let mut s1 = MgScratch::default();
        for r in &rs {
            let mut z = vec![0.0; n];
            mg.vcycle(r, &mut z, &mut s1, 1, 1);
            single.push(z);
        }
        let mut ms = MgScratch::default();
        for lanes in [1, 2, 8] {
            let mut r = vec![0.0; n * k];
            for i in 0..n {
                for s in 0..k {
                    r[i * k + s] = rs[s][i];
                }
            }
            let mut z = vec![0.0; n * k];
            mg.vcycle(&r, &mut z, &mut ms, lanes, k);
            for s in 0..k {
                for i in 0..n {
                    assert_eq!(
                        z[i * k + s].to_bits(),
                        single[s][i].to_bits(),
                        "z[{i}] differs for system {s} at lanes={lanes}"
                    );
                }
            }
            // Shrunk width through the same scratch (mid-solve retirement).
            let mut z1 = vec![0.0; n];
            mg.vcycle(&rs[1], &mut z1, &mut ms, lanes, 1);
            assert!(z1.iter().zip(&single[1]).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    /// The chunked V-cycle must be bit-identical for every lane count —
    /// the determinism contract of the whole parallel port. A 64x64
    /// 2-layer level (8192 nodes) sits above the parallel gate, so lane
    /// counts 2/3/8 exercise the boundary-snapshot sweeps, the chunked
    /// residual, restriction, and prolongation.
    #[test]
    fn vcycle_is_lane_count_invariant() {
        let fine = uniform_level(64, 64, 2);
        assert!(fine.n() >= crate::model::PAR_MIN_NODES, "level must be above the gate");
        let mg = Multigrid::build(64, 64, 2, &fine.gx, &fine.gy, &fine.gz, &fine.diag);
        let n = fine.n();
        let r: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 / 101.0 - 0.5).collect();
        let mut z1 = vec![0.0; n];
        let mut s1 = MgScratch::default();
        mg.vcycle(&r, &mut z1, &mut s1, 1, 1);
        for lanes in [2, 3, 8] {
            let mut z = vec![0.0; n];
            let mut s = MgScratch::default();
            mg.vcycle(&r, &mut z, &mut s, lanes, 1);
            assert!(
                z.iter().zip(&z1).all(|(a, b)| a.to_bits() == b.to_bits()),
                "V-cycle output differs at lanes={lanes}"
            );
        }
    }
}
