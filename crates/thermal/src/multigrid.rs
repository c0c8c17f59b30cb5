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
//! # Parity-split rows
//!
//! A red-black sweep touches every other cell of a row, and so does the
//! red-only residual. In natural order those loops step two cells at a
//! time, which leaves the width-1 kernels (every single solve) as scalar
//! stride-2 code. So every level except the coarsest stores each
//! `(layer, iy)` row as its even-`ix` cells followed by its odd-`ix` cells,
//! and the cells of one color in one row are one contiguous half:
//!
//! * `gy`, `gz`, `diag` and the Thomas factors are permuted row by row;
//! * `gx` splits into even edges (cell `2j` to `2j+1`) and odd edges
//!   (cell `2j+1` to `2j+2`), so a cell's left and right neighbors are
//!   unit-stride reads of the other half;
//! * restriction adds fine half-cell `m` of both halves into coarse cell
//!   `m`, and prolongation does the reverse; into or out of a split
//!   coarse row, consecutive pairs of a fine half map to one cell of each
//!   coarse half.
//!
//! Levels are built and coarsened in natural order and permuted once, in
//! [`Multigrid::build`]; no level keeps a second copy. Each kernel performs
//! the same IEEE operations in the same order per cell as the natural-order
//! kernels did, so results are bit-identical. Natural order stays wherever
//! operation order itself defines the bits:
//!
//! * the CG vectors and their reductions — [`Multigrid::vcycle_from`]
//!   permutes its right-hand side in on entry and its result out on exit;
//! * the coarsest level, whose dense Cholesky factor fixes the order of
//!   the triangular solves;
//! * the surrogate's coarse CG: its right-hand sides go through the split
//!   restriction ([`Multigrid::restrict_natural`]), and its two coarse
//!   operators keep a natural copy ([`Level::network`]) for the mat-vec.
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

use crate::solver::{dispatch_width, eff_width, grow};

/// Stop coarsening once a level has at most this many cells per layer.
const COARSE_CELLS: usize = 16;

/// Over-correction factor on the coarse-grid correction. Piecewise-constant
/// aggregation underestimates the correction's energy norm (the classic
/// defect of unsmoothed aggregation), and scaling the prolonged correction
/// recovers most of the lost convergence rate. The preconditioner stays
/// symmetric for any positive factor.
const OMEGA: f64 = 1.8;

/// One level of the hierarchy: a conductance network plus its scratch-free
/// structural data. Level 0 is the fine grid. Every level but the coarsest
/// stores its arrays in the parity-split row layout (module docs); the
/// coarsest keeps natural order for its dense Cholesky factor.
#[derive(Debug, Clone)]
pub(crate) struct Level {
    nx: usize,
    ny: usize,
    nl: usize,
    /// Whether rows are parity-split: each `(layer, iy)` row holds its
    /// even-`ix` cells, then its odd-`ix` cells.
    split: bool,
    /// Lateral conductance to the +x neighbor: `nl * ny * (nx-1)`. A split
    /// row holds its even edges (`ix` even: cell `2j` to `2j+1`), then its
    /// odd edges (cell `2j+1` to `2j+2`).
    gx: Vec<f64>,
    /// Lateral conductance to the +y neighbor: `nl * (ny-1) * nx`.
    gy: Vec<f64>,
    /// Vertical conductance to the layer above: `(nl-1) * ny * nx`.
    gz: Vec<f64>,
    /// Matrix diagonal (includes ambient conductances on the fine grid and
    /// their aggregate sums on coarse grids).
    diag: Vec<f64>,
    /// Precomputed Thomas factors for the z-line solves: the modified
    /// upper diagonal `c'` per z-edge (`(nl-1) * ny * nx`, like `gz`) and
    /// the reciprocal pivot `1/denom` per node. They depend only on
    /// `diag`/`gz`, so factoring once at build time removes every division
    /// from the smoothing sweeps.
    line_c: Vec<f64>,
    line_inv: Vec<f64>,
}

/// One level's operator in natural row order, for a CG on that level (the
/// surrogate's coarse solves): CG vectors and their reductions stay in
/// natural order, so the mat-vec does too.
#[derive(Debug, Clone)]
pub(crate) struct Network {
    nx: usize,
    ny: usize,
    nl: usize,
    gx: Vec<f64>,
    gy: Vec<f64>,
    gz: Vec<f64>,
    diag: Vec<f64>,
}

impl Network {
    /// `y = A x` over k interleaved `[node][rhs]` systems (see
    /// [`crate::model::apply_network`]).
    pub(crate) fn apply(&self, x: &[f64], y: &mut [f64], lanes: usize, k: usize) {
        crate::model::apply_network(
            self.nx, self.ny, self.nl, &self.gx, &self.gy, &self.gz, &self.diag, x, y, lanes, k,
        );
    }
}

/// The assembled hierarchy plus the coarsest-level Cholesky factor.
/// Immutable once built, so models and surrogates share one through an
/// `Arc`.
#[derive(Debug)]
pub(crate) struct Multigrid {
    levels: Vec<Level>,
    /// Lower-triangular Cholesky factor of the coarsest operator, dense
    /// row-major `n_c x n_c`.
    chol: Vec<f64>,
}

/// Per-solve scratch for the V-cycle: one (rhs, x, residual) triple per
/// level plus per-lane Thomas-algorithm workspaces and boundary-row
/// snapshots, all widened to `[node][rhs]` interleaving at the batch width.
/// Vectors only grow, each to the largest level, width and lane count
/// served: retirement shrinks the active width mid-solve, and one
/// workspace serves hierarchies of every shape (see `workspace.rs`), so
/// the kernels use prefixes of the same allocations.
#[derive(Debug, Default)]
pub(crate) struct MgScratch {
    /// Per-level vectors, indexed by level; a V-cycle from level `start`
    /// grows only the levels it visits.
    rhs: Vec<Vec<f64>>,
    x: Vec<Vec<f64>>,
    r: Vec<Vec<f64>>,
    /// Thomas sweep rhs workspaces, one `nl * nx * k` row block of the
    /// largest level visited per lane (coarser levels use a prefix).
    bufs: Vec<Vec<f64>>,
    /// Boundary-row snapshots for the chunked sweeps: two row blocks per
    /// chunk (the rows just above and below each chunk).
    snap: Vec<f64>,
}

impl MgScratch {
    /// Grows the scratch to serve levels `start..` of `mg` at width `k` on
    /// up to `lanes` lanes.
    fn ensure(&mut self, mg: &Multigrid, start: usize, lanes: usize, k: usize) {
        let depth = mg.levels.len();
        for per_level in [&mut self.rhs, &mut self.x, &mut self.r] {
            if per_level.len() < depth {
                per_level.resize_with(depth, Vec::new);
            }
            for (v, level) in per_level[start..].iter_mut().zip(&mg.levels[start..]) {
                grow(v, level.n() * k);
            }
        }
        let top = &mg.levels[start];
        let block = top.nl * top.nx * k;
        if self.bufs.len() < lanes {
            self.bufs.resize_with(lanes, Vec::new);
        }
        for buf in &mut self.bufs[..lanes] {
            grow(buf, block);
        }
        grow(&mut self.snap, 2 * lanes * block);
    }
}

/// Cells of a row of `nx` with even `ix`: the length of a split row's
/// first half.
#[inline]
fn evens(nx: usize) -> usize {
    nx.div_ceil(2)
}

/// Copies every `row`-cell row of `src` (k-wide cells) into `dst` as its
/// even-index cells followed by its odd-index cells.
fn split_rows<const KW: usize>(src: &[f64], dst: &mut [f64], row: usize, k: usize) {
    let k = eff_width(KW, k);
    if row == 0 {
        return;
    }
    let w = row * k;
    for (s, d) in src.chunks_exact(w).zip(dst.chunks_exact_mut(w)) {
        let (even, odd) = d.split_at_mut(evens(row) * k);
        for (e, v) in even.chunks_exact_mut(k).zip(s.chunks_exact(k).step_by(2)) {
            e.copy_from_slice(v);
        }
        for (o, v) in odd.chunks_exact_mut(k).zip(s[k..].chunks_exact(k).step_by(2)) {
            o.copy_from_slice(v);
        }
    }
}

/// The inverse of [`split_rows`]: each output pair of cells takes one
/// cell of the even half and one of the odd half, and an odd-length row's
/// last cell comes from the even half.
fn merge_rows<const KW: usize>(src: &[f64], dst: &mut [f64], row: usize, k: usize) {
    let k = eff_width(KW, k);
    if row == 0 {
        return;
    }
    let w = row * k;
    for (srow, drow) in src.chunks_exact(w).zip(dst.chunks_exact_mut(w)) {
        let (even, odd) = srow.split_at(evens(row) * k);
        let mut pairs = drow.chunks_exact_mut(2 * k);
        for ((p, e), o) in (&mut pairs).zip(even.chunks_exact(k)).zip(odd.chunks_exact(k)) {
            let (pe, po) = p.split_at_mut(k);
            pe.copy_from_slice(e);
            po.copy_from_slice(o);
        }
        pairs.into_remainder().copy_from_slice(&even[row / 2 * k..]);
    }
}

/// `dst[j] += src[j]` per k-wide cell `j` of `src`.
#[inline]
fn add_cells<const KW: usize>(dst: &mut [f64], src: &[f64], k: usize) {
    let k = eff_width(KW, k);
    for (d, v) in dst.chunks_exact_mut(k).zip(src.chunks_exact(k)) {
        for s in 0..k {
            d[s] += v[s];
        }
    }
}

/// `even[j] += src[2j]`, `odd[j] += src[2j+1]` over k-wide cells: the
/// restriction's sums into a split coarse row.
#[inline]
fn add_deinterleaved<const KW: usize>(even: &mut [f64], odd: &mut [f64], src: &[f64], k: usize) {
    let k = eff_width(KW, k);
    let mut pairs = src.chunks_exact(2 * k);
    for ((p, e), o) in (&mut pairs).zip(even.chunks_exact_mut(k)).zip(odd.chunks_exact_mut(k)) {
        for s in 0..k {
            e[s] += p[s];
            o[s] += p[k + s];
        }
    }
    let tail = pairs.remainder();
    add_cells::<KW>(&mut even[src.len() / (2 * k) * k..], tail, k);
}

/// `dst[j] += OMEGA * src[j]` per k-wide cell `j` of `dst`.
#[inline]
fn add_scaled_cells<const KW: usize>(dst: &mut [f64], src: &[f64], k: usize) {
    let k = eff_width(KW, k);
    for (d, v) in dst.chunks_exact_mut(k).zip(src.chunks_exact(k)) {
        for s in 0..k {
            d[s] += OMEGA * v[s];
        }
    }
}

/// `dst[2j] += OMEGA * even[j]`, `dst[2j+1] += OMEGA * odd[j]` over k-wide
/// cells: the prolongation from a split coarse row.
#[inline]
fn add_interleaved_scaled<const KW: usize>(dst: &mut [f64], even: &[f64], odd: &[f64], k: usize) {
    let k = eff_width(KW, k);
    let m = dst.len() / (2 * k) * k;
    let mut pairs = dst.chunks_exact_mut(2 * k);
    for ((p, e), o) in (&mut pairs).zip(even.chunks_exact(k)).zip(odd.chunks_exact(k)) {
        for s in 0..k {
            p[s] += OMEGA * e[s];
            p[k + s] += OMEGA * o[s];
        }
    }
    add_scaled_cells::<KW>(pairs.into_remainder(), &even[m..], k);
}

/// `acc[j] += g[j] * x[j]` per k-wide cell `j`.
#[inline]
fn add_scaled<const KW: usize>(acc: &mut [f64], g: &[f64], x: &[f64], k: usize) {
    let k = eff_width(KW, k);
    for ((a, xv), &gv) in acc.chunks_exact_mut(k).zip(x.chunks_exact(k)).zip(g) {
        for s in 0..k {
            a[s] += gv * xv[s];
        }
    }
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
        let mut level = Self {
            nx,
            ny,
            nl,
            split: false,
            gx,
            gy,
            gz,
            diag,
            line_c: Vec::new(),
            line_inv: Vec::new(),
        };
        level.factor_lines();
        level
    }

    /// Factors every z-line tridiagonal (Thomas forward elimination on
    /// `diag`/`-gz`) so the smoothing sweeps are division-free. Each
    /// column is factored on its own, so natural order serves both
    /// layouts.
    fn factor_lines(&mut self) {
        let (nx, ny, nl) = (self.nx, self.ny, self.nl);
        let plane = ny * nx;
        let n = self.n();
        self.line_c = vec![0.0; nl.saturating_sub(1) * plane];
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

    /// Permutes this natural-order level into the parity-split layout, in
    /// place one row at a time: `gx` rows into even and odd edges, every
    /// per-cell array row by row.
    fn permute_to_split(&mut self) {
        debug_assert!(!self.split, "level is already split");
        let nx = self.nx;
        let mut row_buf = Vec::with_capacity(nx);
        let mut permute = |v: &mut [f64], row: usize| {
            for r in v.chunks_exact_mut(row) {
                row_buf.clear();
                row_buf.extend_from_slice(r);
                split_rows::<1>(&row_buf, r, row, 1);
            }
        };
        if nx > 1 {
            permute(&mut self.gx, nx - 1);
        }
        for v in [&mut self.gy, &mut self.gz, &mut self.diag, &mut self.line_c, &mut self.line_inv]
        {
            permute(v, nx);
        }
        self.split = true;
    }

    /// This level's operator in natural row order.
    pub(crate) fn network(&self) -> Network {
        let nx = self.nx;
        let natural = |v: &[f64], row: usize| {
            let mut out = v.to_vec();
            if self.split {
                merge_rows::<1>(v, &mut out, row, 1);
            }
            out
        };
        Network {
            nx,
            ny: self.ny,
            nl: self.nl,
            gx: natural(&self.gx, nx.saturating_sub(1)),
            gy: natural(&self.gy, nx),
            gz: natural(&self.gz, nx),
            diag: natural(&self.diag, nx),
        }
    }

    /// Copies a natural-order field of k interleaved systems into this
    /// level's layout.
    fn load_natural(&self, src: &[f64], dst: &mut [f64], k: usize) {
        if self.split {
            dispatch_width!(k, split_rows(src, dst, self.nx, k));
        } else {
            dst.copy_from_slice(src);
        }
    }

    /// Copies a field in this level's layout back to natural order.
    fn store_natural(&self, src: &[f64], dst: &mut [f64], k: usize) {
        if self.split {
            dispatch_width!(k, merge_rows(src, dst, self.nx, k));
        } else {
            dst.copy_from_slice(src);
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
    /// Both levels are in natural order.
    fn coarsen(&self) -> Level {
        let (nx, ny, nl) = (self.nx, self.ny, self.nl);
        let nxc = nx.div_ceil(2);
        let nyc = ny.div_ceil(2);
        let mut c = Level {
            nx: nxc,
            ny: nyc,
            nl,
            split: false,
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
        debug_assert!(self.split, "sweeps run on split levels only");
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

    /// The cells of a row with `ix % 2 == parity`, as `(first cell, cell
    /// count)` within a split row: its even half or its odd half.
    #[inline]
    fn half(&self, parity: usize) -> (usize, usize) {
        let ne = evens(self.nx);
        if parity == 0 {
            (0, ne)
        } else {
            (ne, self.nx - ne)
        }
    }

    /// Adds the lateral x-couplings of one half-row to `acc` (that half's
    /// cells, k wide): each cell's left neighbor, then its right one, both
    /// read from the other half of the split row `xrow` of `(l, iy)`.
    /// Requires `nx > 1`.
    #[inline]
    fn gather_x<const KW: usize>(
        &self,
        acc: &mut [f64],
        xrow: &[f64],
        l: usize,
        iy: usize,
        parity: usize,
        k: usize,
    ) {
        let k = eff_width(KW, k);
        let nx = self.nx;
        let ne = evens(nx);
        let no = nx - ne;
        let gxrow = &self.gx[(l * self.ny + iy) * (nx - 1)..][..nx - 1];
        let (gxe, gxo) = gxrow.split_at(no);
        let (xe, xo) = xrow.split_at(ne * k);
        if parity == 0 {
            // Even cell j: left is odd cell j-1 over odd edge j-1, right is
            // odd cell j over even edge j.
            add_scaled::<KW>(&mut acc[k..], gxo, &xo[..(ne - 1) * k], k);
            add_scaled::<KW>(&mut acc[..no * k], gxe, xo, k);
        } else {
            // Odd cell j: left is even cell j over even edge j, right is
            // even cell j+1 over odd edge j.
            add_scaled::<KW>(acc, gxe, &xe[..no * k], k);
            add_scaled::<KW>(&mut acc[..(ne - 1) * k], gxo, &xe[k..], k);
        }
    }

    /// One chunk of a red-black sweep: the rows `(l, iy)` for `iy` in
    /// `[y0, y1)`, owned as `&mut` slices indexed `l * (y1-y0) + (iy-y0)`.
    /// `prev`/`next` are the boundary-row snapshots (`nl * nx * k`,
    /// l-major) for the rows just outside the chunk; `None` at the grid
    /// edges. Rows, snapshots and `buf` hold k interleaved systems; every
    /// scalar operation of a one-system sweep is a k-wide inner loop in the
    /// identical order, and `KW` (via [`dispatch_width!`]) makes the width a
    /// compile-time constant so those inner loops unroll and vectorize.
    /// A row's cells of one color are one half of its split row, so every
    /// pass is a unit-stride loop over that half.
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
        // Per-layer stride of `buf`: the longer (even) half.
        let hb = evens(nx) * k;
        for iy in y0..y1 {
            let liy = iy - y0;
            let parity = (color + iy) % 2;
            let (off, len) = self.half(parity);
            if len == 0 {
                continue;
            }
            let (c0, hw) = (off * k, len * k);
            let cell = iy * nx + off;
            // Column rhs per layer: b plus the lateral couplings.
            for l in 0..nl {
                let row = (l * plane + iy * nx) * k;
                let bufl = &mut buf[l * hb..][..hw];
                bufl.copy_from_slice(&b[row + c0..][..hw]);
                if !gather {
                    continue;
                }
                if nx > 1 {
                    self.gather_x::<KW>(bufl, rows[l * cny + liy], l, iy, parity, k);
                }
                if iy > 0 {
                    let gyrow = &self.gy[l * (ny - 1) * nx + (iy - 1) * nx + off..][..len];
                    let xprev: &[f64] = if liy == 0 {
                        &prev.expect("interior chunk edge carries a snapshot")[l * w..][..w]
                    } else {
                        rows[l * cny + liy - 1]
                    };
                    add_scaled::<KW>(bufl, gyrow, &xprev[c0..][..hw], k);
                }
                if iy + 1 < ny {
                    let gyrow = &self.gy[l * (ny - 1) * nx + iy * nx + off..][..len];
                    let xnext: &[f64] = if liy + 1 == cny {
                        &next.expect("interior chunk edge carries a snapshot")[l * w..][..w]
                    } else {
                        rows[l * cny + liy + 1]
                    };
                    add_scaled::<KW>(bufl, gyrow, &xnext[c0..][..hw], k);
                }
            }
            // Division-free Thomas forward elimination with the factors
            // from [`Level::factor_lines`], row-major down the stack.
            for (v, &inv) in buf[..hw].chunks_exact_mut(k).zip(&self.line_inv[cell..][..len]) {
                for vs in v {
                    *vs *= inv;
                }
            }
            for l in 1..nl {
                let (prevb, cur) = buf.split_at_mut(l * hb);
                let prevb = &prevb[(l - 1) * hb..][..hw];
                let gzrow = &self.gz[(l - 1) * plane + cell..][..len];
                let invrow = &self.line_inv[l * plane + cell..][..len];
                for (((cv, pv), &g), &inv) in
                    cur[..hw].chunks_exact_mut(k).zip(prevb.chunks_exact(k)).zip(gzrow).zip(invrow)
                {
                    for s in 0..k {
                        cv[s] = (cv[s] + g * pv[s]) * inv;
                    }
                }
            }
            // Back substitution, writing the solved columns into the owned
            // rows (reading the layer above, solved just before).
            rows[(nl - 1) * cny + liy][c0..][..hw].copy_from_slice(&buf[(nl - 1) * hb..][..hw]);
            for l in (0..nl.saturating_sub(1)).rev() {
                let (lo, hi) = rows.split_at_mut((l + 1) * cny);
                let cur = &mut lo[l * cny + liy][c0..][..hw];
                let above = &hi[liy][c0..][..hw];
                let crow = &self.line_c[l * plane + cell..][..len];
                let bufl = &buf[l * hb..][..hw];
                for (((xv, bv), av), &cc) in cur
                    .chunks_exact_mut(k)
                    .zip(bufl.chunks_exact(k))
                    .zip(above.chunks_exact(k))
                    .zip(crow)
                {
                    for s in 0..k {
                        xv[s] = bv[s] - cc * av[s];
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
        debug_assert!(self.split, "residuals run on split levels only");
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
    /// A row's red cells are one half of its split row: the other half is
    /// zeroed, and the red half accumulates `b - d x` and then the left,
    /// right, -y, +y, below and above couplings, each a unit-stride pass.
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
        let w = nx * k;
        for l in 0..nl {
            for iy in y0..y1 {
                let parity = iy % 2;
                let (off, len) = self.half(parity);
                let (c0, hw) = (off * k, len * k);
                let cell = l * plane + iy * nx + off;
                let row = (l * plane + iy * nx) * k;
                let rrow = &mut rows[l * cny + (iy - y0)];
                let (red, black) = if parity == 0 {
                    let (r, bl) = rrow.split_at_mut(hw);
                    (r, bl)
                } else {
                    let (bl, r) = rrow.split_at_mut(c0);
                    (r, bl)
                };
                black.fill(0.0);
                let at = |base: usize| &x[base + c0..][..hw];
                for (((r, bv), xv), &d) in red
                    .chunks_exact_mut(k)
                    .zip(b[row + c0..][..hw].chunks_exact(k))
                    .zip(at(row).chunks_exact(k))
                    .zip(&self.diag[cell..][..len])
                {
                    for s in 0..k {
                        r[s] = bv[s] - d * xv[s];
                    }
                }
                if nx > 1 {
                    self.gather_x::<KW>(red, &x[row..row + w], l, iy, parity, k);
                }
                if iy > 0 {
                    let gyrow = &self.gy[l * (ny - 1) * nx + (iy - 1) * nx + off..][..len];
                    add_scaled::<KW>(red, gyrow, at(row - w), k);
                }
                if iy + 1 < ny {
                    let gyrow = &self.gy[l * (ny - 1) * nx + iy * nx + off..][..len];
                    add_scaled::<KW>(red, gyrow, at(row + w), k);
                }
                if l > 0 {
                    let gzrow = &self.gz[cell - plane..][..len];
                    add_scaled::<KW>(red, gzrow, at(row - plane * k), k);
                }
                if l + 1 < nl {
                    let gzrow = &self.gz[cell..][..len];
                    add_scaled::<KW>(red, gzrow, at(row + plane * k), k);
                }
            }
        }
    }

    /// Restriction `r_c[I] = sum_{i in I} r_f[i]` (transpose of the
    /// piecewise-constant prolongation) from this split level into
    /// `coarse`'s layout. Chunked over *coarse* rows — each coarse row
    /// aggregates a fixed pair of fine rows in a fixed summation order, so
    /// any chunking is bit-identical.
    fn restrict_to(
        &self,
        coarse: &Level,
        fine_r: &[f64],
        coarse_b: &mut [f64],
        lanes: usize,
        k: usize,
    ) {
        debug_assert!(self.split, "restriction starts from a split level");
        let lanes = self.chunk_lanes(lanes).min(coarse.ny);
        if lanes <= 1 {
            let mut rows: Vec<&mut [f64]> = coarse_b.chunks_mut(coarse.nx * k).collect();
            dispatch_width!(k, self.restrict_chunk(coarse, fine_r, 0, coarse.ny, &mut rows, k));
            return;
        }
        let span = coarse.ny.div_ceil(lanes);
        let nc = coarse.ny.div_ceil(span);
        let groups = coarse.bucket_rows(coarse_b, span, nc, k);
        let items: Vec<(usize, Vec<&mut [f64]>)> = groups.into_iter().enumerate().collect();
        tesa_util::pool::global().scatter(lanes, items, |_, (c, mut rows)| {
            let cy0 = c * span;
            let cy1 = (cy0 + span).min(coarse.ny);
            dispatch_width!(k, self.restrict_chunk(coarse, fine_r, cy0, cy1, &mut rows, k));
        });
    }

    /// The coarse rows `(l, ciy)` with `ciy` in `[cy0, cy1)` of the
    /// restriction, written through owned coarse-row slices. Coarse cell
    /// `m` aggregates fine cells `2m` and `2m+1`: cell `m` of the fine
    /// row's even half and of its odd half. Per coarse cell and system the
    /// fine contributions are added `iy`-then-`ix` ascending — the order of
    /// the historical fine-major accumulation loop. Into a split coarse
    /// row, coarse cells `2j` and `2j+1` land in its even and odd halves,
    /// so each fine half is read as consecutive pairs.
    fn restrict_chunk<const KW: usize>(
        &self,
        coarse: &Level,
        fine_r: &[f64],
        cy0: usize,
        cy1: usize,
        rows: &mut [&mut [f64]],
        k: usize,
    ) {
        let k = eff_width(KW, k);
        let cny = cy1 - cy0;
        let ne = evens(self.nx) * k;
        let nec = evens(coarse.nx) * k;
        for l in 0..self.nl {
            for ciy in cy0..cy1 {
                let crow = &mut rows[l * cny + (ciy - cy0)];
                crow.fill(0.0);
                for iy in (2 * ciy)..(2 * ciy + 2).min(self.ny) {
                    let frow = &fine_r[self.idx(l, 0, iy) * k..][..self.nx * k];
                    for half in [&frow[..ne], &frow[ne..]] {
                        if coarse.split {
                            let (ce, co) = crow.split_at_mut(nec);
                            add_deinterleaved::<KW>(ce, co, half, k);
                        } else {
                            add_cells::<KW>(crow, half, k);
                        }
                    }
                }
            }
        }
    }

    /// Prolongation: adds the coarse correction, scaled by [`OMEGA`], to
    /// every covered fine cell of this split level. Each fine cell gets
    /// exactly one addition, so any row chunking is bit-identical.
    fn prolong_add(
        &self,
        coarse: &Level,
        coarse_x: &[f64],
        fine_x: &mut [f64],
        lanes: usize,
        k: usize,
    ) {
        debug_assert!(self.split, "prolongation ends on a split level");
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
    /// written through owned fine-row slices. Fine cell `m` of either half
    /// of a split row takes coarse cell `m`; from a split coarse row,
    /// consecutive fine pairs take one cell of each coarse half.
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
        let ne = evens(self.nx) * k;
        let nec = evens(coarse.nx) * k;
        for l in 0..self.nl {
            for iy in y0..y1 {
                let frow = &mut rows[l * cny + (iy - y0)];
                let crow = &coarse_x[coarse.idx(l, 0, iy / 2) * k..][..coarse.nx * k];
                let (fe, fo) = frow.split_at_mut(ne);
                for half in [fe, fo] {
                    if coarse.split {
                        let (ce, co) = crow.split_at(nec);
                        add_interleaved_scaled::<KW>(half, ce, co, k);
                    } else {
                        add_scaled_cells::<KW>(half, crow, k);
                    }
                }
            }
        }
    }

    /// Dense row-major matrix of this level's operator (the natural-order
    /// coarsest level only; used to compute the Cholesky factor).
    fn dense(&self) -> Vec<f64> {
        debug_assert!(!self.split, "the dense operator is in natural order");
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
        // Every level the V-cycle smooths switches to the parity-split
        // layout; the coarsest stays in the natural order of its factor.
        let depth = levels.len();
        for level in &mut levels[..depth - 1] {
            level.permute_to_split();
        }
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

    /// Restricts k interleaved natural-order fields on level `li` to level
    /// `li + 1`, natural order in and out, through the split kernels; the
    /// level-layout copies live in `scratch`'s residual and right-hand-side
    /// vectors of the two levels. The sums are the V-cycle's restriction's,
    /// bit for bit.
    pub(crate) fn restrict_natural(
        &self,
        li: usize,
        fine: &[f64],
        coarse: &mut [f64],
        scratch: &mut MgScratch,
        lanes: usize,
        k: usize,
    ) {
        let lanes = lanes.max(1);
        scratch.ensure(self, li, lanes, k);
        let (f, c) = (&self.levels[li], &self.levels[li + 1]);
        let fs = &mut scratch.r[li][..f.n() * k];
        let cs = &mut scratch.rhs[li + 1][..c.n() * k];
        f.load_natural(fine, fs, k);
        f.restrict_to(c, fs, cs, lanes, k);
        c.store_natural(cs, coarse, k);
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
    /// each system's Cholesky solve on its strided lane. `r` and `z` are in
    /// natural order: the level-`start` right-hand side is permuted into
    /// the level's layout on entry and the result back on exit.
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
        scratch.ensure(self, start, lanes, k);
        let MgScratch { rhs, x, r: res, bufs, snap } = scratch;
        let depth = self.levels.len();
        let nk = |li: usize| self.levels[li].n() * k;
        self.levels[start].load_natural(r, &mut rhs[start][..nk(start)], k);
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
        self.levels[start].store_natural(&x[start][..nk(start)], z, k);
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
        fine.network().apply(&ones, &mut row_sums, 1, 1);
        let fine_total: f64 = row_sums.iter().sum();

        let coarse = fine.coarsen();
        let ones_c = vec![1.0; coarse.n()];
        let mut row_sums_c = vec![0.0; coarse.n()];
        coarse.network().apply(&ones_c, &mut row_sums_c, 1, 1);
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

    /// Splitting and merging rows round-trips every width, for odd and
    /// even row lengths, and a split row holds its even cells first. Width
    /// 9 runs the dynamic-width (`KW = 0`) instance.
    #[test]
    fn split_rows_round_trip() {
        for row in [1usize, 2, 5, 8] {
            for k in [1usize, 3, 9] {
                let v: Vec<f64> = (0..2 * row * k).map(|i| i as f64).collect();
                let mut split = vec![0.0; v.len()];
                dispatch_width!(k, split_rows(&v, &mut split, row, k));
                let cell = |r: usize, ix: usize| &v[(r * row + ix) * k..][..k];
                for r in 0..2 {
                    for ix in 0..row {
                        let pos = if ix % 2 == 0 { ix / 2 } else { evens(row) + ix / 2 };
                        assert_eq!(&split[(r * row + pos) * k..][..k], cell(r, ix));
                    }
                }
                let mut back = vec![0.0; v.len()];
                dispatch_width!(k, merge_rows(&split, &mut back, row, k));
                assert_eq!(back, v, "row {row}, k {k}");
            }
        }
    }

    /// A split level's natural network is the network it was split from.
    #[test]
    fn split_level_network_is_the_natural_one() {
        let natural = uniform_level(7, 5, 3).coarsen();
        let mut split = natural.clone();
        split.permute_to_split();
        let (a, b) = (natural.network(), split.network());
        assert_eq!((a.gx, a.gy, a.gz, a.diag), (b.gx, b.gy, b.gz, b.diag));
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
        fine.network().apply(&x, &mut ax, 1, 1);
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
